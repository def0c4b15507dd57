//! `fig4_stream`: pre-generated MVSEC-modeled streams replayed from the
//! AER cache through E2SF → DSFA → queue/dispatch under an NMP mapping,
//! driven call by call the way `run_multi_task_streams` drives them in
//! `ExecMode::Serial`.

use crate::trace::Tracer;
use crate::{Ctx, Metric, Workload};
use ev_core::stream::EventSlice;
use ev_core::{TimeWindow, Timestamp};
use ev_datasets::cache::SequenceCache;
use ev_datasets::mvsec::SequenceId;
use ev_edge::dsfa::{CMode, DsfaConfig};
use ev_edge::e2sf::{E2sf, E2sfConfig};
use ev_edge::exec::{DsfaStage, EventClock, ExecEngine, JobInput, MappedJobModel, Stage};
use ev_edge::frame::SparseFrame;
use ev_edge::multipipe::{
    run_multi_task_streams, MultiTaskRuntimeConfig, MultiTaskRuntimeReport, StreamTask,
    TaskRuntimeReport,
};
use ev_edge::nmp::candidate::Candidate;
use ev_edge::nmp::evolution::{run_nmp, NmpConfig};
use ev_edge::nmp::fitness::FitnessConfig;
use ev_edge::nmp::multitask::MultiTaskProblem;
use ev_edge::nmp::TaskMix;
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::pe::Platform;
use ev_platform::timeline::DeviceTimeline;
use std::time::Instant;

/// One stream: the sequence, its E2SF bins, DSFA setting and network.
struct StreamSpec {
    id: SequenceId,
    bins: usize,
    dsfa: DsfaConfig,
    network: NetworkId,
}

fn stream_specs() -> Vec<StreamSpec> {
    let merge = |cmode| DsfaConfig {
        cmode,
        ..DsfaConfig::default()
    };
    let pass_through = DsfaConfig {
        cmode: CMode::CBatch,
        mb_size: 1,
        ebuf_size: 4,
        ..DsfaConfig::default()
    };
    vec![
        // Bursty flight: cAdd merging absorbs the bursts.
        StreamSpec {
            id: SequenceId::IndoorFlying2,
            bins: 8,
            dsfa: merge(CMode::CAdd),
            network: NetworkId::FusionFlowNet,
        },
        // High sustained rate: cBatch pass-through.
        StreamSpec {
            id: SequenceId::OutdoorDay1,
            bins: 4,
            dsfa: pass_through,
            network: NetworkId::EvFlowNet,
        },
        // Dense driving: cAverage merging.
        StreamSpec {
            id: SequenceId::DenseTown10,
            bins: 8,
            dsfa: merge(CMode::CAverage),
            network: NetworkId::E2Depth,
        },
        // Sparse night driving: cBatch pass-through.
        StreamSpec {
            id: SequenceId::OutdoorNight1,
            bins: 4,
            dsfa: pass_through,
            network: NetworkId::SpikeFlowNet,
        },
    ]
}

/// The set-up's NMP search: the default search, on one thread.
const NMP: NmpConfig = NmpConfig {
    population: 32,
    generations: 40,
    mutation_layers: 2,
    elite_fraction: 0.25,
    seed: 0x4E4D50,
    fp_only: false,
    seed_baselines: true,
    workers: 1,
};

/// Writes every stream's window to the AER cache (untimed).
pub fn materialise(ctx: &Ctx) -> Result<(), String> {
    let cache = SequenceCache::new(&ctx.data_dir).map_err(|e| e.to_string())?;
    for spec in stream_specs() {
        if !cache.contains(spec.id, ctx.window) {
            cache
                .load_or_generate(spec.id, ctx.window)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Per-pass counts, compared across passes as part of the output check.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Counts {
    events: u64,
    frames: u64,
    batches: u64,
    merged_frames: u64,
    idle_flushes: u64,
    /// FNV-1a digest of every job the frontends emitted.
    job_digest: u64,
}

impl Counts {
    fn absorb(&mut self, jobs: &[JobInput]) {
        for job in jobs {
            self.batches += 1;
            self.merged_frames += job.batch as u64;
            for word in [
                job.ready.as_micros(),
                job.batch as u64,
                job.density.to_bits(),
                job.events as u64,
            ] {
                self.job_digest = (self.job_digest ^ word).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
}

pub struct Fig4 {
    window: TimeWindow,
    events: Vec<EventSlice>,
    intervals: Vec<Vec<TimeWindow>>,
    specs: Vec<StreamSpec>,
    problem: MultiTaskProblem,
    candidate: Candidate,
    expected: Option<(MultiTaskRuntimeReport, Counts)>,
    load_ms: f64,
    search_ms: f64,
    evaluations: usize,
    cache_hits: usize,
    last: Option<(MultiTaskRuntimeReport, Counts)>,
}

pub fn setup(ctx: &Ctx) -> Result<Fig4, String> {
    let specs = stream_specs();
    let cache = SequenceCache::new(&ctx.data_dir).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let events = specs
        .iter()
        .map(|s| cache.load_or_generate(s.id, ctx.window))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let intervals = specs
        .iter()
        .map(|s| s.id.sequence().frame_intervals(ctx.window))
        .collect();
    let mix = TaskMix::Custom {
        networks: specs.iter().map(|s| s.network).collect(),
        delta_scale: 1.0,
    };
    let problem = mix
        .build_problem(Platform::xavier_agx(), &ZooConfig::mvsec())
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let search = run_nmp(&problem, NMP, FitnessConfig::default()).map_err(|e| e.to_string())?;
    let search_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(Fig4 {
        window: ctx.window,
        events,
        intervals,
        specs,
        problem,
        candidate: search.best,
        expected: None,
        load_ms,
        search_ms,
        evaluations: search.evaluations,
        cache_hits: search.cache_hits,
        last: None,
    })
}

impl Fig4 {
    fn config(&self) -> MultiTaskRuntimeConfig {
        MultiTaskRuntimeConfig::new(self.window)
    }

    /// One replay of every stream, each layer call in its own span.
    fn replay(
        &self,
        events: &[EventSlice],
        tr: &mut Tracer,
    ) -> Result<(MultiTaskRuntimeReport, Counts), ev_edge::EvEdgeError> {
        let config = self.config();
        let tasks = self.problem.tasks();
        let mut counts = Counts {
            events: events.iter().map(|e| e.len() as u64).sum(),
            ..Counts::default()
        };

        let mut frame_streams: Vec<Vec<Option<SparseFrame>>> = Vec::with_capacity(events.len());
        for ((spec, events), intervals) in self.specs.iter().zip(events).zip(&self.intervals) {
            let frames = tr.span("e2sf", || {
                E2sf::new(E2sfConfig::new(spec.bins)).convert_intervals(events, intervals)
            })?;
            counts.frames += frames.len() as u64;
            frame_streams.push(frames.into_iter().map(Some).collect());
        }
        let mut frontends: Vec<DsfaStage> = tr.span("dsfa", || {
            self.specs
                .iter()
                .map(|s| DsfaStage::new(s.dsfa))
                .collect::<Result<_, _>>()
        })?;
        let mut clock: EventClock<(usize, usize)> = tr.span("clock", || {
            let mut clock = EventClock::new(config.window.start());
            for (t, frames) in frame_streams.iter().enumerate() {
                for (i, frame) in frames.iter().enumerate() {
                    let frame = frame.as_ref().expect("not yet taken");
                    clock.schedule(frame.ready_at(), (t, i));
                }
            }
            clock
        });
        let (mut engine, mut model) = tr.span("engine", || {
            ExecEngine::new(
                config.window.start(),
                DeviceTimeline::new(self.problem.platform().queue_count()),
                tasks.len(),
                config.queue_capacity,
            )
            .map(|engine| (engine, MappedJobModel::new(&self.problem, &self.candidate)))
        })?;

        while let Some((ready, (t, i))) = tr.span("clock", || clock.next_event()) {
            let frame = frame_streams[t][i].take().expect("each frame arrives once");
            let idle = tr.span("engine", || {
                engine.note_arrival(t);
                engine.task_idle_at(t, ready)
            });
            if idle {
                let jobs = tr.span("dsfa", || frontends[t].flush(ready))?;
                if !jobs.is_empty() {
                    counts.idle_flushes += 1;
                }
                counts.absorb(&jobs);
                tr.span("engine", || {
                    jobs.into_iter().for_each(|j| engine.enqueue(t, j))
                });
            }
            let jobs = tr.span("dsfa", || frontends[t].push(frame))?;
            counts.absorb(&jobs);
            tr.span("engine", || {
                jobs.into_iter().for_each(|j| engine.enqueue(t, j));
                engine.service_all(ready, &mut model)
            })?;
        }
        for (t, frontend) in frontends.iter_mut().enumerate() {
            let tail = tr.span("engine", || engine.task_free_at(t).max(config.window.end()));
            let jobs = tr.span("dsfa", || frontend.flush(tail))?;
            counts.absorb(&jobs);
            tr.span("engine", || {
                jobs.into_iter().for_each(|j| engine.enqueue(t, j));
                engine.drain(t, &mut model)
            })?;
        }
        let report = tr.span("engine", || {
            engine.finish(self.problem.platform().static_power_w)
        });
        let report = MultiTaskRuntimeReport {
            per_task: tasks
                .iter()
                .zip(report.per_task)
                .map(|(task, stats)| TaskRuntimeReport {
                    name: task.name.clone(),
                    arrivals: stats.arrivals,
                    completed: stats.completed,
                    dropped: stats.dropped,
                    mean_latency: stats.mean_latency,
                    max_latency: stats.max_latency,
                })
                .collect(),
            makespan: report.makespan,
            energy: report.energy,
            utilization: report.utilization,
        };
        Ok((report, counts))
    }
}

impl Workload for Fig4 {
    fn checks(&mut self) -> Vec<(&'static str, bool)> {
        let Some(expected) = &self.expected else {
            return vec![("fig4.first_pass_ran", false)];
        };
        // The library call synthesises its own events for the same window;
        // the replay of the cached AER files must reproduce its report.
        let streams: Vec<StreamTask> = self
            .specs
            .iter()
            .map(|s| StreamTask {
                sequence: s.id.sequence(),
                bins_per_interval: s.bins,
                dsfa: s.dsfa,
            })
            .collect();
        let library =
            run_multi_task_streams(&self.problem, &self.candidate, &streams, self.config());
        let matches_library = library.is_ok_and(|r| r == expected.0);

        // Self-test: one corrupted stream (second half lost) must fail the
        // per-pass output check.
        let mut corrupted = self.events.clone();
        let first = &corrupted[0];
        let kept = first.as_events()[..first.len() / 2].to_vec();
        corrupted[0] =
            EventSlice::new(first.geometry(), kept).expect("a sorted prefix stays sorted");
        let fires = self
            .replay(&corrupted, &mut Tracer::new(false))
            .map_or(true, |bad| bad != *expected);
        vec![
            ("fig4.replay_equals_run_multi_task_streams", matches_library),
            ("fig4.self_test_corrupt_stream_detected", fires),
        ]
    }

    fn pass(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        let out = self.replay(&self.events, tr).map_err(|e| e.to_string())?;
        let ok = *self.expected.get_or_insert_with(|| out.clone()) == out;
        self.last = Some(out);
        Ok(ok)
    }

    fn inputs_per_pass(&self) -> f64 {
        self.events.iter().map(|e| e.len() as f64).sum()
    }

    fn per_layer(&self, tr: &Tracer, out: &mut Vec<Metric>) {
        let self_ns = tr.self_ns();
        let (_, counts) = self.last.as_ref().expect("a pass ran");
        let mut busy = |name: &'static str, key: &str| {
            let (ms, n) = tr.median_self_ms(&self_ns, name);
            out.push(Metric::new(key, ms, "ms", n));
            ms
        };
        let e2sf = busy("e2sf", "e2sf.busy_ms");
        let dsfa = busy("dsfa", "dsfa.busy_ms");
        busy("clock", "clock.busy_ms");
        let engine = busy("engine", "engine.busy_ms");
        busy("pass", "pass.unattributed_ms");
        let n = tr.median_self_ms(&self_ns, "e2sf").1;
        out.extend([
            Metric::new("cache.load_ms", self.load_ms, "ms", 1),
            Metric::new("cache.events", counts.events as f64, "count", 1),
            Metric::new("e2sf.frames", counts.frames as f64, "count", 1),
            Metric::new(
                "e2sf.ns_per_event",
                e2sf * 1e6 / counts.events as f64,
                "ns",
                n,
            ),
            Metric::new("dsfa.batches", counts.batches as f64, "count", 1),
            Metric::new(
                "dsfa.merge_factor",
                counts.frames as f64 / counts.merged_frames as f64,
                "ratio",
                1,
            ),
            Metric::new("dsfa.idle_flushes", counts.idle_flushes as f64, "count", 1),
            Metric::new(
                "dsfa.ns_per_frame",
                dsfa * 1e6 / counts.frames as f64,
                "ns",
                n,
            ),
            Metric::new("engine.jobs", counts.batches as f64, "count", 1),
            Metric::new(
                "engine.ns_per_job",
                engine * 1e6 / counts.batches as f64,
                "ns",
                n,
            ),
            Metric::new("nmp.search_ms", self.search_ms, "ms", 1),
            Metric::new("nmp.evaluations", self.evaluations as f64, "count", 1),
            Metric::new(
                "nmp.cache_hit_ratio",
                self.cache_hits as f64 / (self.cache_hits + self.evaluations) as f64,
                "ratio",
                1,
            ),
        ]);
    }

    fn sim(&self) -> Vec<Metric> {
        let (report, _) = self.last.as_ref().expect("a pass ran");
        let completed: u64 = report.per_task.iter().map(|t| t.completed).sum();
        let latency_sum: f64 = report
            .per_task
            .iter()
            .map(|t| t.mean_latency.as_millis_f64() * t.completed as f64)
            .sum();
        let max_latency = report
            .per_task
            .iter()
            .map(|t| t.max_latency.as_millis_f64())
            .fold(0.0, f64::max);
        crate::sim_metrics(
            report.makespan.as_millis_f64(),
            latency_sum / completed.max(1) as f64,
            max_latency,
            report.total_dropped() as f64,
            report.energy.as_millijoules(),
            report.utilization.iter().sum::<f64>() / report.utilization.len().max(1) as f64,
        )
    }
}

/// The seeded 3 s window: its start is a whole ms inside the first 10 s.
/// Three seconds span whole burst periods of `indoor_flying2` (0.5 s) and
/// rate periods of `dense_town10` (0.6 s), so the event count barely
/// depends on where the window starts.
pub fn window_for(seed: u64) -> TimeWindow {
    let start = Timestamp::from_millis(crate::splitmix64(seed) % 10_000);
    TimeWindow::new(start, start + ev_core::TimeDelta::from_millis(3_000))
}
