//! Engine equivalence: the multi-task runtime is the unified exec
//! engine — a problem run through `run_multi_task_runtime` must produce
//! exactly the counts, latencies, energy and makespan of the same
//! workload driven through `ExecEngine` directly.

use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_edge::exec::clock::EventClock;
use ev_edge::exec::engine::{EngineReport, ExecEngine};
use ev_edge::exec::job::{JobInput, MappedJobModel};
use ev_edge::multipipe::{run_multi_task_runtime, MultiTaskRuntimeConfig};
use ev_edge::nmp::baseline;
use ev_edge::nmp::candidate::Candidate;
use ev_edge::nmp::multitask::{MultiTaskProblem, TaskSpec};
use ev_edge::EvEdgeError;
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::pe::Platform;
use ev_platform::timeline::DeviceTimeline;

fn problem(ids: &[(NetworkId, f64)]) -> MultiTaskProblem {
    let cfg = ZooConfig::mvsec();
    let tasks = ids
        .iter()
        .map(|&(id, delta)| TaskSpec::new(id.build(&cfg).unwrap(), id.accuracy_model(), delta))
        .collect();
    MultiTaskProblem::new(Platform::xavier_agx(), tasks).unwrap()
}

fn single_task_problem() -> MultiTaskProblem {
    problem(&[(NetworkId::Dotie, 0.04)])
}

fn three_task_problem() -> MultiTaskProblem {
    problem(&[
        (NetworkId::Dotie, 0.04),
        (NetworkId::E2Depth, 0.02),
        (NetworkId::SpikeFlowNet, 0.03),
    ])
}

/// Drives periodic tasks (one period each) through `ExecEngine` by
/// hand — the reference the multi-task runtime must reproduce.
fn periodic_by_hand(
    problem: &MultiTaskProblem,
    candidate: &Candidate,
    window: TimeWindow,
    periods: &[TimeDelta],
    queue_capacity: usize,
) -> EngineReport {
    let mut engine = ExecEngine::new(
        window.start(),
        DeviceTimeline::new(problem.platform().queue_count()),
        periods.len(),
        queue_capacity,
    )
    .unwrap()
    .with_job_records();
    let mut model = MappedJobModel::new(problem, candidate);
    let mut clock: EventClock<usize> = EventClock::new(window.start());
    for task in 0..periods.len() {
        clock.schedule(window.start(), task);
    }
    while let Some((arrival, task)) = clock.next_event() {
        engine.submit(task, JobInput::arrival(arrival));
        let next = arrival + periods[task];
        if next < window.end() {
            clock.schedule(next, task);
        }
        engine.service_all(arrival, &mut model).unwrap();
    }
    engine.drain_all(&mut model).unwrap();
    engine.finish(problem.platform().static_power_w)
}

#[test]
fn single_task_through_multi_runtime_matches_unified_engine() {
    let ms = TimeDelta::from_millis;
    let single = single_task_problem();
    let three = three_task_problem();
    // (problem, candidate, periods, window): one lightly loaded task,
    // and three tasks under RR-Layer that overload their queues.
    let inputs = [
        (&single, baseline::rr_network(&single), vec![ms(3)], 80),
        (
            &three,
            baseline::rr_layer(&three),
            vec![ms(3), ms(5), ms(7)],
            60,
        ),
    ];
    for (problem, candidate, periods, window_ms) in inputs {
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(window_ms));
        let config = MultiTaskRuntimeConfig::new(window);

        let multi = run_multi_task_runtime(problem, &candidate, &periods, config).unwrap();
        let by_hand =
            periodic_by_hand(problem, &candidate, window, &periods, config.queue_capacity);

        // Identical counts, latencies, makespan, energy and utilization.
        assert_eq!(multi.per_task.len(), periods.len());
        for (m, s) in multi.per_task.iter().zip(&by_hand.per_task) {
            assert!(m.completed > 0, "workload must execute inferences");
            assert_eq!(m.arrivals, s.arrivals);
            assert_eq!(m.completed, s.completed);
            assert_eq!(m.dropped, s.dropped);
            assert_eq!(m.mean_latency, s.mean_latency);
            assert_eq!(m.max_latency, s.max_latency);
        }
        assert_eq!(multi.makespan, by_hand.makespan);
        assert_eq!(multi.energy, by_hand.energy);
        assert_eq!(multi.utilization, by_hand.utilization);
        if periods.len() > 1 {
            assert!(
                multi.per_task.iter().all(|t| t.dropped > 0),
                "the three-task input must drop on every task"
            );
        }
    }
}

#[test]
fn overloaded_single_task_drops_identically() {
    let problem = single_task_problem();
    let candidate = baseline::rr_layer(&problem);
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(15));
    // Arrivals far faster than service: the §4.2 oldest-drop rule fires.
    let period = TimeDelta::from_micros(50);
    let config = MultiTaskRuntimeConfig::new(window);

    let multi = run_multi_task_runtime(&problem, &candidate, &[period], config).unwrap();
    assert!(multi.total_dropped() > 0, "overload must drop inputs");
    let single = periodic_by_hand(
        &problem,
        &candidate,
        window,
        &[period],
        config.queue_capacity,
    );

    assert_eq!(multi.per_task[0].dropped, single.per_task[0].dropped);
    assert_eq!(multi.per_task[0].completed, single.per_task[0].completed);
    assert_eq!(
        multi.per_task[0].mean_latency,
        single.per_task[0].mean_latency
    );
}

#[test]
fn zero_queue_capacity_propagates_as_error() {
    let problem = single_task_problem();
    let candidate = baseline::rr_network(&problem);
    let mut config =
        MultiTaskRuntimeConfig::new(TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(10)));
    config.queue_capacity = 0;
    let result = run_multi_task_runtime(&problem, &candidate, &[TimeDelta::from_millis(5)], config);
    assert!(matches!(
        result,
        Err(EvEdgeError::InvalidQueueCapacity { capacity: 0 })
    ));
}
