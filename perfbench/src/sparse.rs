//! `sparse_infer`: real `ev_nn::forward::Executor` passes at 64×64 over
//! DSFA-merged frames of a replayed stream, in two fill bands: a
//! full-resolution crop (low fill) and a downsampled whole frame (high
//! fill). Each pass runs one input of each band through an ANN, an SNN and
//! GraphNet.

use crate::trace::Tracer;
use crate::{Ctx, Metric, Workload};
use ev_datasets::cache::SequenceCache;
use ev_datasets::mvsec::SequenceId;
use ev_edge::dsfa::{Dsfa, DsfaConfig};
use ev_edge::e2sf::{E2sf, E2sfConfig};
use ev_nn::forward::{Activation, Executor, ForwardResult};
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::latency::{layer_cost, LayerContext};
use ev_platform::pe::Platform;
use ev_sparse::coo::{SparseEntry, SparseTensor};

const STREAM: SequenceId = SequenceId::DenseTown10;
/// E2SF bins per interval: short bins keep full-resolution fill low.
const BINS: usize = 16;
/// Inputs per band, spread evenly over the window; pass `k` uses input
/// `k % INPUTS` of each band.
const INPUTS: usize = 16;
const SIDE: usize = 64;

const NETS: [(NetworkId, &str); 3] = [
    (NetworkId::EvFlowNet, "evflownet"),
    (NetworkId::SpikeFlowNet, "spikeflownet"),
    (NetworkId::GraphNet, "graphnet"),
];
const BANDS: [&str; 2] = ["low", "high"];
/// Span names, `[net][band]`.
const SPANS: [[&str; 2]; 3] = [
    ["nn.evflownet.low", "nn.evflownet.high"],
    ["nn.spikeflownet.low", "nn.spikeflownet.high"],
    ["nn.graphnet.low", "nn.graphnet.high"],
];

fn zoo() -> ZooConfig {
    ZooConfig {
        height: SIDE,
        width: SIDE,
        input_channels: 2,
        base_width: 8,
        timesteps: 1,
        seg_classes: 6,
    }
}

pub fn materialise(ctx: &Ctx) -> Result<(), String> {
    let cache = SequenceCache::new(&ctx.data_dir).map_err(|e| e.to_string())?;
    if !cache.contains(STREAM, ctx.window) {
        cache
            .load_or_generate(STREAM, ctx.window)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A 64×64 full-resolution crop from the middle of the road band.
fn crop(t: &SparseTensor) -> Result<SparseTensor, String> {
    let (y0, x0) = ((t.height() * 2 / 5) as u32, ((t.width() - SIDE) / 2) as u32);
    let entries = t
        .iter()
        .filter(|e| {
            (y0..y0 + SIDE as u32).contains(&e.row) && (x0..x0 + SIDE as u32).contains(&e.col)
        })
        .map(|e| SparseEntry::new(e.channel, e.row - y0, e.col - x0, e.value))
        .collect();
    SparseTensor::from_entries(t.channels(), SIDE, SIDE, entries).map_err(|e| e.to_string())
}

/// The whole frame summed into a 64×64 grid.
fn downsample(t: &SparseTensor) -> Result<SparseTensor, String> {
    let (h, w) = (t.height() as u32, t.width() as u32);
    let side = SIDE as u32;
    let entries = t
        .iter()
        .map(|e| SparseEntry::new(e.channel, e.row * side / h, e.col * side / w, e.value))
        .collect();
    SparseTensor::from_entries(t.channels(), SIDE, SIDE, entries).map_err(|e| e.to_string())
}

/// Digest of every output value and per-layer work count of one run.
fn digest(result: &ForwardResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| h = (h ^ word).wrapping_mul(0x100_0000_01b3);
    for (id, act) in &result.outputs {
        mix(id.0 as u64);
        act.to_flat().iter().for_each(|v| mix(v.to_bits() as u64));
    }
    for trace in &result.traces {
        mix(trace.work.actual.macs);
        mix(trace.output_density.to_bits());
    }
    h
}

/// What one (net, band, input) run produced, kept from the first pass.
struct RunRecord {
    digest: u64,
    actual_macs: u64,
    dense_macs: u64,
    model_ms: f64,
    /// Per layer: name, actual ops, dense ops, output density, model ms.
    layers: Vec<(
        String,
        ev_sparse::opcount::OpCount,
        ev_sparse::opcount::OpCount,
        f64,
        f64,
    )>,
}

pub struct Sparse {
    /// `[band][input]`.
    inputs: [Vec<Activation>; 2],
    executors: Vec<Executor>,
    platform: Platform,
    /// `[net][band][input]`, filled by the first run of each.
    records: Vec<Vec<Vec<Option<RunRecord>>>>,
    passes: usize,
}

pub fn setup(ctx: &Ctx) -> Result<Sparse, String> {
    let cache = SequenceCache::new(&ctx.data_dir).map_err(|e| e.to_string())?;
    let events = cache
        .load_or_generate(STREAM, ctx.window)
        .map_err(|e| e.to_string())?;
    let intervals = STREAM.sequence().frame_intervals(ctx.window);
    let frames = E2sf::new(E2sfConfig::new(BINS))
        .convert_intervals(&events, &intervals)
        .map_err(|e| e.to_string())?;
    let mut dsfa = Dsfa::new(DsfaConfig::default()).map_err(|e| e.to_string())?;
    let mut merged = Vec::new();
    for frame in frames {
        if let Some(batch) = dsfa.push(frame).map_err(|e| e.to_string())? {
            merged.extend(batch.frames.into_iter().map(|m| m.frame.into_tensor()));
        }
    }
    if merged.len() < INPUTS {
        return Err(format!(
            "only {} merged frames, need {INPUTS}",
            merged.len()
        ));
    }
    let step = merged.len() / INPUTS;
    let picked: Vec<&SparseTensor> = merged.iter().step_by(step).take(INPUTS).collect();
    let low = picked
        .iter()
        .map(|t| crop(t).map(Activation::Sparse))
        .collect::<Result<Vec<_>, _>>()?;
    let high = picked
        .iter()
        .map(|t| downsample(t).map(Activation::Sparse))
        .collect::<Result<Vec<_>, _>>()?;
    let executors = NETS
        .iter()
        .map(|(id, _)| id.build(&zoo()).map(|g| Executor::new(g, 42)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Sparse {
        inputs: [low, high],
        executors,
        platform: Platform::xavier_agx(),
        records: (0..NETS.len())
            .map(|_| {
                (0..2)
                    .map(|_| (0..INPUTS).map(|_| None).collect())
                    .collect()
            })
            .collect(),
        passes: 0,
    })
}

impl Sparse {
    fn run(exec: &mut Executor, input: &Activation) -> Result<ForwardResult, String> {
        // SNN membranes start from rest on every pass.
        exec.reset_state();
        exec.run(input).map_err(|e| e.to_string())
    }

    /// Per-layer modeled GPU latency at the densities the run measured.
    fn record(&self, exec: &Executor, input: &Activation, result: &ForwardResult) -> RunRecord {
        let graph = exec.graph();
        let gpu = self.platform.id_by_name("gpu").expect("Xavier has a GPU");
        let workloads = graph.workloads();
        let mut out_density = vec![0.0; graph.len()];
        let mut layers = Vec::new();
        for trace in &result.traces {
            let preds = graph.predecessors(trace.layer);
            let in_density = if preds.is_empty() {
                input.density()
            } else {
                preds.iter().map(|p| out_density[p.0]).sum::<f64>() / preds.len() as f64
            };
            out_density[trace.layer.0] = trace.output_density;
            let ctx = LayerContext::dense_fp32().with_density(in_density);
            let model_ms = layer_cost(&self.platform, gpu, &workloads[trace.layer.0], ctx)
                .map(|c| c.latency.as_millis_f64())
                .unwrap_or(f64::NAN);
            layers.push((
                graph.layer(trace.layer).name.clone(),
                trace.work.actual,
                trace.work.dense_equivalent,
                trace.output_density,
                model_ms,
            ));
        }
        RunRecord {
            digest: digest(result),
            actual_macs: result.total_actual().macs,
            dense_macs: result.total_dense_equivalent().macs,
            model_ms: layers.iter().map(|l| l.4).sum(),
            layers,
        }
    }

    /// One pass over `inputs`; `Ok(false)` when an output differs from the
    /// first run of the same input.
    fn pass_over(
        &mut self,
        inputs: &[Vec<Activation>; 2],
        k: usize,
        tr: &mut Tracer,
    ) -> Result<bool, String> {
        let mut ok = true;
        for (band, band_inputs) in inputs.iter().enumerate() {
            let input = &band_inputs[k % INPUTS];
            for (net, spans) in SPANS.iter().enumerate() {
                let exec = &mut self.executors[net];
                let result = tr.span(spans[band], || Self::run(exec, input))?;
                let d = digest(&result);
                match &self.records[net][band][k % INPUTS] {
                    Some(r) => ok &= r.digest == d,
                    None => {
                        let rec = self.record(&self.executors[net], input, &result);
                        self.records[net][band][k % INPUTS] = Some(rec);
                    }
                }
            }
        }
        Ok(ok)
    }
}

impl Workload for Sparse {
    fn checks(&mut self) -> Vec<(&'static str, bool)> {
        // Self-test: one input entry doubled must fail the output check.
        let mut corrupted = self.inputs.clone();
        if let Activation::Sparse(t) = &corrupted[1][0] {
            let mut entries = t.entries().to_vec();
            entries[0].value *= 2.0;
            corrupted[1][0] = Activation::Sparse(
                SparseTensor::from_entries(t.channels(), SIDE, SIDE, entries).expect("same shape"),
            );
        }
        let fires = !self
            .pass_over(&corrupted, 0, &mut Tracer::new(false))
            .unwrap_or(false);
        vec![("sparse.self_test_corrupt_input_detected", fires)]
    }

    fn pass(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        let inputs = std::mem::take(&mut self.inputs);
        let out = self.pass_over(&inputs, self.passes, tr);
        self.inputs = inputs;
        self.passes += 1;
        out
    }

    fn inputs_per_pass(&self) -> f64 {
        (2 * NETS.len()) as f64
    }

    fn per_layer(&self, tr: &Tracer, out: &mut Vec<Metric>) {
        let self_ns = tr.self_ns();
        for (net, (_, net_name)) in NETS.iter().enumerate() {
            for (band, band_name) in BANDS.iter().enumerate() {
                let recs: Vec<&RunRecord> = self.records[net][band].iter().flatten().collect();
                let n = recs.len() as f64;
                let (ms, samples) = tr.median_self_ms(&self_ns, SPANS[net][band]);
                let actual: u64 = recs.iter().map(|r| r.actual_macs).sum();
                let dense: u64 = recs.iter().map(|r| r.dense_macs).sum();
                let key = |m: &str| format!("nn.{net_name}.{band_name}.{m}");
                out.extend([
                    Metric::new(&key("busy_ms"), ms, "ms", samples),
                    Metric::new(&key("macs"), actual as f64 / n, "count", recs.len()),
                    Metric::new(
                        &key("effectual_ratio"),
                        actual as f64 / dense as f64,
                        "ratio",
                        recs.len(),
                    ),
                    Metric::new(
                        &key("model_ms"),
                        recs.iter().map(|r| r.model_ms).sum::<f64>() / n,
                        "ms",
                        recs.len(),
                    ),
                ]);
            }
        }
        for (band, name) in [(0, "sparse.fill.low"), (1, "sparse.fill.high")] {
            let fill = self.inputs[band]
                .iter()
                .map(|a| match a {
                    Activation::Sparse(t) => t.spatial_density(),
                    other => other.density(),
                })
                .sum::<f64>()
                / INPUTS as f64;
            out.push(Metric::new(name, fill, "ratio", INPUTS));
        }
    }

    fn sim(&self) -> Vec<Metric> {
        Vec::new()
    }

    fn layer_table(&self) -> Option<String> {
        let mut out = String::from(
            "net,band,layer,macs,macs_dense,adds,adds_dense,bytes,bytes_dense,output_density,model_ms\n",
        );
        for (net, (_, net_name)) in NETS.iter().enumerate() {
            for (band, band_name) in BANDS.iter().enumerate() {
                let Some(rec) = &self.records[net][band][0] else {
                    continue;
                };
                for (name, actual, dense, density, model_ms) in &rec.layers {
                    out.push_str(&format!(
                        "{net_name},{band_name},{name},{},{},{},{},{},{},{density},{model_ms}\n",
                        actual.macs,
                        dense.macs,
                        actual.adds,
                        dense.adds,
                        actual.total_bytes(),
                        dense.total_bytes(),
                    ));
                }
            }
        }
        Some(out)
    }
}
