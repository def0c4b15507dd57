//! Property-based tests for E2SF and DSFA invariants, and the serial
//! runtime's contract: the multi-task drivers serve every task of every
//! workload mix, deterministically. That the drivers are the exec
//! engine itself is pinned in `exec_equivalence.rs`.

use ev_core::event::{Event, Polarity, SensorGeometry};
use ev_core::stream::EventSlice;
use ev_core::time::{TimeDelta, TimeWindow, Timestamp};
use ev_datasets::mvsec::SequenceId;
use ev_edge::dsfa::{CMode, Dsfa, DsfaConfig, MergedFrame};
use ev_edge::e2sf::{E2sf, E2sfConfig, E2sfScratch, FrameRepresentation};
use ev_edge::frame::SparseFrame;
use ev_edge::multipipe::{
    run_multi_task_runtime, run_multi_task_streams, MultiTaskRuntimeConfig, StreamTask,
};
use ev_edge::nmp::baseline;
use ev_edge::nmp::evolution::{run_nmp, NmpConfig};
use ev_edge::nmp::fitness::FitnessConfig;
use ev_edge::nmp::multitask::{MultiTaskProblem, TaskSpec};
use ev_edge::nmp::sweep::TaskMix;
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::pe::Platform;
use ev_sparse::coo::{SparseEntry, SparseTensor};
use proptest::prelude::*;
use std::collections::BTreeMap;

const W: u16 = 24;
const H: u16 = 20;

fn arb_events(max: usize) -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (0..W, 0..H, 0u64..20_000, any::<bool>()).prop_map(|(x, y, t, p)| {
            Event::new(x, y, Timestamp::from_micros(t), Polarity::from_bit(p))
        }),
        0..max,
    )
}

fn make_slice(events: Vec<Event>) -> EventSlice {
    EventSlice::from_unsorted(SensorGeometry::new(W as u32, H as u32), events)
        .expect("bounded events")
}

/// Sensor widths whose rows fill part of one occupancy word, exactly one
/// word, and several words with a partial last one (346 is DAVIS346).
const WORD_WIDTHS: [u16; 6] = [1, 63, 64, 65, 130, 346];

/// One event before the geometry is known: whether x sits on a word edge,
/// the x and y picks, the timestamp (µs) and the polarity bit.
type EventDraw = (bool, prop::sample::Index, prop::sample::Index, u64, bool);

fn arb_event_draws(max: usize) -> impl Strategy<Value = Vec<EventDraw>> {
    prop::collection::vec(
        (
            any::<bool>(),
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            0u64..20_000,
            any::<bool>(),
        ),
        0..max,
    )
}

/// Places `draws` on a `w`×`h` sensor. An edge draw puts x on 0, 63, 64,
/// 127, 128 or W−1 (those inside the row); the rest spread over the row.
fn place_events(draws: &[EventDraw], w: u16, h: u16) -> EventSlice {
    let edges: Vec<u16> = [0, 63, 64, 127, 128, w - 1]
        .into_iter()
        .filter(|&x| x < w)
        .collect();
    let events = draws
        .iter()
        .map(|&(on_edge, x, y, t, p)| {
            let x = if on_edge {
                edges[x.index(edges.len())]
            } else {
                x.index(w as usize) as u16
            };
            let y = y.index(h as usize) as u16;
            Event::new(x, y, Timestamp::from_micros(t), Polarity::from_bit(p))
        })
        .collect();
    EventSlice::from_unsorted(SensorGeometry::new(w as u32, h as u32), events)
        .expect("placed inside the sensor")
}

fn frame_representation(timestamps: bool) -> FrameRepresentation {
    if timestamps {
        FrameRepresentation::CountsAndTimestamps
    } else {
        FrameRepresentation::PolarityCounts
    }
}

/// The per-event E2SF reference: every in-window event goes to bin
/// `EBk = min(floor(offset/biS), nB−1)` and each bin is built by
/// `SparseTensor::from_entries` (counts accumulate, the timestamp surface
/// keeps the latest event).
fn reference_frames(
    slice: &EventSlice,
    interval: TimeWindow,
    bins: usize,
    representation: FrameRepresentation,
) -> Vec<SparseFrame> {
    let geometry = slice.geometry();
    let windows = interval.split(bins);
    let bis = interval.duration().as_micros() as u64 / bins as u64;
    let mut counts: Vec<Vec<SparseEntry>> = vec![Vec::new(); bins];
    let mut latest: Vec<BTreeMap<(u32, u32, u32), f32>> = vec![BTreeMap::new(); bins];
    let mut events_per_bin = vec![0usize; bins];
    for ev in slice.window(interval) {
        let offset = ev.t.saturating_since(interval.start()).as_micros() as u64;
        let k = ((offset / bis) as usize).min(bins - 1);
        let c = ev.polarity.channel() as u32;
        let (y, x) = (ev.y as u32, ev.x as u32);
        counts[k].push(SparseEntry::new(c, y, x, 1.0));
        events_per_bin[k] += 1;
        let bin = windows[k];
        let frac = (ev.t.saturating_since(bin.start()).as_micros() as f64 + 1.0)
            / bin.duration().as_micros().max(1) as f64;
        latest[k].insert((c + 2, y, x), frac.min(1.0) as f32);
    }
    (0..bins)
        .map(|k| {
            let mut entries = std::mem::take(&mut counts[k]);
            if representation == FrameRepresentation::CountsAndTimestamps {
                entries.extend(
                    latest[k]
                        .iter()
                        .map(|(&(c, y, x), &v)| SparseEntry::new(c, y, x, v)),
                );
            }
            let tensor = SparseTensor::from_entries(
                representation.channels(),
                geometry.height as usize,
                geometry.width as usize,
                entries,
            )
            .expect("in bounds");
            SparseFrame::new(tensor, windows[k], events_per_bin[k])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equation 1 conservation: every in-window event lands in exactly one
    /// bin, and per-pixel polarity counts survive the conversion.
    #[test]
    fn e2sf_conserves_events(events in arb_events(300), bins in 1usize..16) {
        let slice = make_slice(events);
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(20_000));
        let frames = E2sf::new(E2sfConfig::new(bins))
            .convert(&slice, window)
            .expect("interval long enough");
        prop_assert_eq!(frames.len(), bins);
        let total: usize = frames.iter().map(|f| f.event_count()).sum();
        prop_assert_eq!(total, slice.len());
        // Value conservation: summed ON (channel 0) values equal ON count.
        let on_total: f32 = frames
            .iter()
            .flat_map(|f| f.tensor().iter())
            .filter(|e| e.channel == 0)
            .map(|e| e.value)
            .sum();
        let (on_events, _) = slice.polarity_counts();
        prop_assert!((on_total - on_events as f32).abs() < 1e-3);
    }

    /// Frame windows tile the interval exactly, in order.
    #[test]
    fn e2sf_windows_tile(bins in 1usize..12, span_ms in 2i64..40) {
        let slice = make_slice(vec![]);
        let window = TimeWindow::new(
            Timestamp::from_millis(3),
            Timestamp::from_millis(3) + TimeDelta::from_millis(span_ms),
        );
        let frames = E2sf::new(E2sfConfig::new(bins))
            .convert(&slice, window)
            .expect("interval long enough");
        prop_assert_eq!(frames[0].window().start(), window.start());
        prop_assert_eq!(frames.last().expect("nonempty").window().end(), window.end());
        for pair in frames.windows(2) {
            prop_assert_eq!(pair[0].window().end(), pair[1].window().start());
        }
    }

    /// DSFA never loses or duplicates an event, whatever the thresholds.
    #[test]
    fn dsfa_conserves_events(
        events in arb_events(400),
        mb_size in 1usize..6,
        mt_ms in 1i64..30,
        md in 0.01f64..4.0,
        mode in 0usize..3,
    ) {
        let slice = make_slice(events);
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(20_000));
        let frames = E2sf::new(E2sfConfig::new(8))
            .convert(&slice, window)
            .expect("interval long enough");
        let cmode = [CMode::CAdd, CMode::CAverage, CMode::CBatch][mode];
        let config = DsfaConfig {
            ebuf_size: mb_size * 2,
            mb_size,
            mt_th: TimeDelta::from_millis(mt_ms),
            md_th: md,
            cmode,
        };
        let mut dsfa = Dsfa::new(config).expect("valid config");
        let mut merged: Vec<SparseFrame> = Vec::new();
        for frame in frames {
            if let Some(batch) = dsfa.push(frame).expect("push succeeds") {
                merged.extend(batch.frames.into_iter().map(|m| m.frame));
            }
        }
        if let Some(batch) = dsfa.flush(window.end()) {
            merged.extend(batch.frames.into_iter().map(|m| m.frame));
        }
        let total: usize = merged.iter().map(|f| f.event_count()).sum();
        prop_assert_eq!(total, slice.len(), "event count conserved");
        prop_assert_eq!(dsfa.occupancy(), 0, "everything dispatched");
        // cAdd conserves summed values too.
        if cmode == CMode::CAdd {
            let merged_sum: f32 = merged
                .iter()
                .flat_map(|f| f.tensor().iter())
                .map(|e| e.value)
                .sum();
            prop_assert!((merged_sum - slice.len() as f32).abs() < 1e-2);
        }
    }

    /// The preallocated flat-arena fast path is observationally
    /// identical to a fresh conversion: one scratch reused across
    /// arbitrary event batches and bin counts yields exactly the frames
    /// `convert` builds from a cold arena.
    #[test]
    fn e2sf_scratch_reuse_matches_fresh(
        batches in prop::collection::vec((arb_events(250), 1usize..12), 1..4),
    ) {
        let mut scratch = E2sfScratch::new();
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(20_000));
        for (events, bins) in batches {
            let slice = make_slice(events);
            let e2sf = E2sf::new(E2sfConfig::new(bins));
            let fresh = e2sf.convert(&slice, window).expect("interval long enough");
            let reused = e2sf
                .convert_with(&slice, window, &mut scratch)
                .expect("interval long enough");
            prop_assert_eq!(fresh, reused);
        }
    }

    /// The single-plane fast path equals a per-event reference: every
    /// in-window event is assigned to bin `EBk = min(floor(offset/biS),
    /// nB−1)` and each bin is built by `SparseTensor::from_entries`
    /// (counts accumulate, the timestamp surface keeps the latest event).
    /// Interval lengths need not divide by `nB`, and each frame's carried
    /// density is bit-equal to a recount.
    #[test]
    fn e2sf_matches_per_event_reference(
        events in arb_events(300),
        bins in 1usize..16,
        start_us in 0u64..3_000,
        span_us in 16u64..20_000,
        timestamps in any::<bool>(),
    ) {
        let slice = make_slice(events);
        let interval = TimeWindow::new(
            Timestamp::from_micros(start_us),
            Timestamp::from_micros(start_us + span_us),
        );
        let representation = if timestamps {
            FrameRepresentation::CountsAndTimestamps
        } else {
            FrameRepresentation::PolarityCounts
        };
        let config = E2sfConfig::new(bins).with_representation(representation);
        let frames = E2sf::new(config)
            .convert(&slice, interval)
            .expect("interval long enough");
        let windows = interval.split(bins);
        let bis = span_us / bins as u64;
        let mut counts: Vec<Vec<SparseEntry>> = vec![Vec::new(); bins];
        let mut latest: Vec<BTreeMap<(u32, u32, u32), f32>> = vec![BTreeMap::new(); bins];
        let mut events_per_bin = vec![0usize; bins];
        for ev in slice.window(interval) {
            let offset = ev.t.saturating_since(interval.start()).as_micros() as u64;
            let k = ((offset / bis) as usize).min(bins - 1);
            let c = ev.polarity.channel() as u32;
            let (y, x) = (ev.y as u32, ev.x as u32);
            counts[k].push(SparseEntry::new(c, y, x, 1.0));
            events_per_bin[k] += 1;
            let bin = windows[k];
            let frac = (ev.t.saturating_since(bin.start()).as_micros() as f64 + 1.0)
                / bin.duration().as_micros().max(1) as f64;
            latest[k].insert((c + 2, y, x), frac.min(1.0) as f32);
        }
        prop_assert_eq!(frames.len(), bins);
        for (k, frame) in frames.iter().enumerate() {
            let mut entries = counts[k].clone();
            if timestamps {
                entries.extend(
                    latest[k].iter().map(|(&(c, y, x), &v)| SparseEntry::new(c, y, x, v)),
                );
            }
            let tensor = SparseTensor::from_entries(
                representation.channels(),
                H as usize,
                W as usize,
                entries,
            )
            .expect("in bounds");
            let reference = SparseFrame::new(tensor, windows[k], events_per_bin[k]);
            prop_assert_eq!(frame, &reference);
            prop_assert_eq!(
                frame.spatial_density().to_bits(),
                frame.tensor().spatial_density().to_bits()
            );
        }
    }

    /// The lazy incremental merge reproduces the dispatch-time fold it
    /// replaced: each merged frame's tensor is exactly the left fold of
    /// its constituent input frames under the combination mode. Buckets
    /// fill strictly in arrival order (every rejected probe closes the
    /// bucket, so at most one bucket is ever available; `cBatch` opens one
    /// per frame), which lets the reference walk consume `merged_count`
    /// inputs per merged frame.
    #[test]
    fn dsfa_lazy_merge_matches_reference_fold(
        events in arb_events(400),
        mb_size in 1usize..6,
        mt_ms in 1i64..30,
        md in 0.01f64..4.0,
        mode in 0usize..3,
    ) {
        let slice = make_slice(events);
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(20_000));
        let inputs = E2sf::new(E2sfConfig::new(8))
            .convert(&slice, window)
            .expect("interval long enough");
        let cmode = [CMode::CAdd, CMode::CAverage, CMode::CBatch][mode];
        let config = DsfaConfig {
            ebuf_size: mb_size * 2,
            mb_size,
            mt_th: TimeDelta::from_millis(mt_ms),
            md_th: md,
            cmode,
        };
        let mut dsfa = Dsfa::new(config).expect("valid config");
        let mut merged: Vec<MergedFrame> = Vec::new();
        for frame in inputs.clone() {
            if let Some(batch) = dsfa.push(frame).expect("push succeeds") {
                merged.extend(batch.frames);
            }
        }
        if let Some(batch) = dsfa.flush(window.end()) {
            merged.extend(batch.frames);
        }
        let mut next = 0usize;
        for m in &merged {
            let sources = &inputs[next..next + m.merged_count];
            next += m.merged_count;
            let mut reference = sources[0].tensor().clone();
            for s in &sources[1..] {
                reference = reference.add(s.tensor()).expect("same geometry");
            }
            if cmode == CMode::CAverage {
                reference.scale(1.0 / m.merged_count as f32);
            }
            prop_assert_eq!(m.frame.tensor(), &reference);
            // The carried site count gives the recounted density, bit for bit.
            prop_assert_eq!(
                m.frame.spatial_density().to_bits(),
                reference.spatial_density().to_bits()
            );
        }
        prop_assert_eq!(next, inputs.len(), "every input frame accounted for");
    }

    /// Merged frame windows cover their constituent frames and never
    /// exceed the configured time threshold + one frame duration.
    #[test]
    fn dsfa_bucket_time_bound(events in arb_events(300), mt_ms in 1i64..10) {
        let slice = make_slice(events);
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(20_000));
        let frames = E2sf::new(E2sfConfig::new(10))
            .convert(&slice, window)
            .expect("interval long enough");
        let frame_duration = frames[0].window().duration();
        let config = DsfaConfig {
            ebuf_size: 16,
            mb_size: 8,
            mt_th: TimeDelta::from_millis(mt_ms),
            md_th: 100.0, // density never closes buckets
            cmode: CMode::CAdd,
        };
        let mut dsfa = Dsfa::new(config).expect("valid config");
        let mut merged = Vec::new();
        for frame in frames {
            if let Some(batch) = dsfa.push(frame).expect("push succeeds") {
                merged.extend(batch.frames);
            }
        }
        if let Some(batch) = dsfa.flush(window.end()) {
            merged.extend(batch.frames);
        }
        for m in &merged {
            // A bucket accepts frames whose start is within MtTh of its
            // earliest start, so its window spans at most MtTh + one frame.
            let span = m.frame.window().duration();
            let bound = TimeDelta::from_millis(mt_ms) + frame_duration;
            prop_assert!(
                span <= bound,
                "merged span {span} exceeds bound {bound}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Occupancy-word boundaries: on sensors whose rows cover part of a
    /// `u64` word, exactly one, or several with a partial last one, and
    /// with x drawn onto the word edges, E2SF still equals the per-event
    /// reference under both representations, and each frame's carried
    /// density is bit-equal to a recount.
    #[test]
    fn e2sf_matches_reference_across_word_boundaries(
        draws in arb_event_draws(300),
        width in 0usize..WORD_WIDTHS.len(),
        height in 1u16..6,
        bins in 1usize..8,
        timestamps in any::<bool>(),
    ) {
        let slice = place_events(&draws, WORD_WIDTHS[width], height);
        let interval = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(20_000));
        let representation = frame_representation(timestamps);
        let config = E2sfConfig::new(bins).with_representation(representation);
        let frames = E2sf::new(config)
            .convert(&slice, interval)
            .expect("interval long enough");
        prop_assert_eq!(&frames, &reference_frames(&slice, interval, bins, representation));
        for frame in &frames {
            prop_assert_eq!(
                frame.spatial_density().to_bits(),
                frame.tensor().spatial_density().to_bits()
            );
        }
    }

    /// One scratch reused across geometries with the same slot count but
    /// different widths and heights (24×20, 20×24, 48×10), and across
    /// two- and four-channel representations, yields exactly the frames
    /// a fresh conversion builds.
    #[test]
    fn e2sf_scratch_reuse_across_geometries_matches_fresh(
        batches in prop::collection::vec(
            (arb_event_draws(250), 0usize..3, any::<bool>(), 1usize..12),
            1..6,
        ),
    ) {
        let mut scratch = E2sfScratch::new();
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(20_000));
        for (draws, geometry, timestamps, bins) in batches {
            let (w, h) = [(24, 20), (20, 24), (48, 10)][geometry];
            let slice = place_events(&draws, w, h);
            let representation = frame_representation(timestamps);
            let e2sf = E2sf::new(E2sfConfig::new(bins).with_representation(representation));
            let fresh = e2sf.convert(&slice, window).expect("interval long enough");
            let reused = e2sf
                .convert_with(&slice, window, &mut scratch)
                .expect("interval long enough");
            prop_assert_eq!(fresh, reused);
        }
    }
}

fn single_task_problem() -> MultiTaskProblem {
    let cfg = ZooConfig::mvsec();
    MultiTaskProblem::new(
        Platform::xavier_agx(),
        vec![TaskSpec::new(
            NetworkId::Dotie.build(&cfg).unwrap(),
            NetworkId::Dotie.accuracy_model(),
            0.04,
        )],
    )
    .unwrap()
}

fn three_task_problem() -> MultiTaskProblem {
    let cfg = ZooConfig::mvsec();
    let task = |id: NetworkId, delta: f64| {
        TaskSpec::new(id.build(&cfg).unwrap(), id.accuracy_model(), delta)
    };
    MultiTaskProblem::new(
        Platform::xavier_agx(),
        vec![
            task(NetworkId::Dotie, 0.04),
            task(NetworkId::E2Depth, 0.02),
            task(NetworkId::SpikeFlowNet, 0.03),
        ],
    )
    .unwrap()
}

/// Every task completes inferences under every queue capacity and
/// mapped-PE configuration: RR-Network keeps whole networks on one PE,
/// RR-Layer alternates PEs per layer, and a searched mapping lands in
/// between.
#[test]
fn periodic_runtime_serves_every_task_across_capacities_and_mappings() {
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(50));
    for problem in [single_task_problem(), three_task_problem()] {
        let searched = run_nmp(
            &problem,
            NmpConfig {
                population: 8,
                generations: 4,
                seed: 17,
                ..NmpConfig::default()
            },
            FitnessConfig::default(),
        )
        .unwrap()
        .best;
        let periods: Vec<TimeDelta> = (0..problem.tasks().len())
            .map(|t| TimeDelta::from_millis(3 + 2 * t as i64))
            .collect();
        for candidate in [
            baseline::rr_network(&problem),
            baseline::rr_layer(&problem),
            searched,
        ] {
            for queue_capacity in [1usize, 2, 5] {
                let mut config = MultiTaskRuntimeConfig::new(window);
                config.queue_capacity = queue_capacity;
                let report =
                    run_multi_task_runtime(&problem, &candidate, &periods, config).unwrap();
                assert!(
                    report.per_task.iter().all(|t| t.completed > 0),
                    "capacity {queue_capacity}, {} tasks",
                    problem.tasks().len()
                );
            }
        }
    }
}

/// The heterogeneous workload classes — data-dependent GraphNet tasks
/// (GNN-heavy mix) and the always-on corner frontend beside dense
/// inference (corner+inference mix) — carry their density schedules
/// into the problem and run every task, on both the GPU-class preset
/// and the composable-dataflow fabric.
#[test]
fn heterogeneous_mixes_serve_every_task() {
    let cfg = ZooConfig::mvsec();
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(50));
    for mix in [TaskMix::GnnHeavy, TaskMix::CornerPlusInference] {
        for platform in [Platform::xavier_agx(), Platform::composable_dataflow()] {
            let problem = mix.build_problem(platform, &cfg).unwrap();
            assert!(
                problem.tasks().iter().any(|t| t.densities.is_some()),
                "mix {} must carry at least one data-dependent task",
                mix.name()
            );
            let periods: Vec<TimeDelta> = (0..problem.tasks().len())
                .map(|t| TimeDelta::from_millis(3 + 2 * t as i64))
                .collect();
            for candidate in [baseline::rr_network(&problem), baseline::rr_layer(&problem)] {
                let config = MultiTaskRuntimeConfig::new(window);
                let report =
                    run_multi_task_runtime(&problem, &candidate, &periods, config).unwrap();
                assert!(
                    report.per_task.iter().all(|t| t.completed > 0),
                    "mix {} must execute every task",
                    mix.name()
                );
            }
        }
    }
}

/// The full streaming scenario (E2SF + DSFA frontends) delivers frames
/// to every task and is deterministic.
#[test]
fn streaming_runtime_delivers_frames_to_every_task() {
    let problem = three_task_problem();
    let candidate = baseline::rr_network(&problem);
    let streams = vec![
        StreamTask {
            sequence: SequenceId::IndoorFlying1.sequence(),
            bins_per_interval: 6,
            dsfa: DsfaConfig::default(),
        },
        StreamTask {
            sequence: SequenceId::OutdoorDay1.sequence(),
            bins_per_interval: 4,
            dsfa: DsfaConfig {
                cmode: CMode::CBatch,
                mb_size: 1,
                ..DsfaConfig::default()
            },
        },
        StreamTask {
            sequence: SequenceId::DenseTown10.sequence(),
            bins_per_interval: 8,
            dsfa: DsfaConfig {
                ebuf_size: 4,
                mb_size: 2,
                ..DsfaConfig::default()
            },
        },
    ];
    let config =
        MultiTaskRuntimeConfig::new(TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(50)));
    let report = run_multi_task_streams(&problem, &candidate, &streams, config).unwrap();
    assert!(report.per_task.iter().all(|t| t.arrivals > 0));
    let again = run_multi_task_streams(&problem, &candidate, &streams, config).unwrap();
    assert_eq!(report, again);
}
