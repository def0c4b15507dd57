//! Exec core: serial vs parallel NMP candidate evaluation, and the
//! multi-task runtime on the serial engine.
//!
//! Interesting ratio:
//!
//! * `nmp_eval/population_serial` vs `…_parallel`: on ≥4 cores the
//!   fan-out should be >1.5× faster wall-clock (bitwise identical — the
//!   pool only spreads pure fitness evaluations).

use criterion::{criterion_group, criterion_main, Criterion};
use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_edge::multipipe::{run_multi_task_runtime, MultiTaskRuntimeConfig};
use ev_edge::nmp::baseline;
use ev_edge::nmp::candidate::Candidate;
use ev_edge::nmp::evolution::{run_nmp, NmpConfig};
use ev_edge::nmp::fitness::{FitnessConfig, FitnessEvaluator};
use ev_edge::nmp::multitask::{MultiTaskProblem, TaskSpec};
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::pe::Platform;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn problem() -> MultiTaskProblem {
    let cfg = ZooConfig::mvsec();
    MultiTaskProblem::new(
        Platform::xavier_agx(),
        vec![
            TaskSpec::new(
                NetworkId::FusionFlowNet.build(&cfg).expect("buildable"),
                NetworkId::FusionFlowNet.accuracy_model(),
                0.07,
            ),
            TaskSpec::new(
                NetworkId::E2Depth.build(&cfg).expect("buildable"),
                NetworkId::E2Depth.accuracy_model(),
                0.02,
            ),
            TaskSpec::new(
                NetworkId::Dotie.build(&cfg).expect("buildable"),
                NetworkId::Dotie.accuracy_model(),
                0.04,
            ),
        ],
    )
    .expect("valid problem")
}

/// A fresh batch of distinct random candidates (all cache misses).
fn population(p: &MultiTaskProblem, size: usize, seed: u64) -> Vec<Candidate> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..size).map(|_| Candidate::random(p, &mut rng)).collect()
}

fn bench_candidate_evaluation(c: &mut Criterion) {
    let p = problem();
    let mut group = c.benchmark_group("nmp_eval");
    group.sample_size(10);

    for (label, workers) in [("population_serial", 1usize), ("population_parallel", 0)] {
        let mut seed = 0u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                // Fresh evaluator + fresh candidates: every evaluation is
                // a cache miss, so the measurement is pure fan-out.
                seed += 1;
                let mut eval = FitnessEvaluator::new(&p, FitnessConfig::default());
                let candidates = population(&p, 32, seed);
                eval.evaluate_all(&candidates, workers).expect("valid")
            });
        });
    }
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    let p = problem();
    let mut group = c.benchmark_group("nmp_search");
    group.sample_size(10);

    for (label, workers) in [("search_serial", 1usize), ("search_parallel", 0)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                run_nmp(
                    &p,
                    NmpConfig {
                        population: 24,
                        generations: 6,
                        seed: 11,
                        workers,
                        ..NmpConfig::default()
                    },
                    FitnessConfig::default(),
                )
                .expect("search succeeds")
            });
        });
    }
    group.finish();
}

fn bench_runtime_timelines(c: &mut Criterion) {
    let p = problem();
    let candidate = baseline::rr_network(&p);
    let periods = [
        TimeDelta::from_millis(4),
        TimeDelta::from_millis(6),
        TimeDelta::from_millis(8),
    ];
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(60));
    let mut group = c.benchmark_group("exec_runtime");
    group.sample_size(10);

    group.bench_function("serial_timeline", |b| {
        let config = MultiTaskRuntimeConfig::new(window);
        b.iter(|| run_multi_task_runtime(&p, &candidate, &periods, config).expect("runs"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_candidate_evaluation,
    bench_search,
    bench_runtime_timelines
);
criterion_main!(benches);
