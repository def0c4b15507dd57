//! Host-time benchmark of the Ev-Edge reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload is a closed loop: one client, one thread, the next pass
//! starts when the previous one ends. Inputs come from `--seed` and are
//! written once to the AER cache before anything is timed. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it alternates untraced and traced passes and reports per-layer self
//! times, counts, modeled (simulated-time) statistics and the tracing
//! overhead. The last line of standard output is one JSON object.

mod clock;
mod fig4;
mod serve;
mod sparse;
mod stats;
mod trace;

use clock::Stopwatch;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run: one before the warm-up, the rest spread over the
/// measured loop; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Untimed passes before measuring.
const WARMUP_PASSES: usize = 2;
/// Fewest measured passes per kind, even past `--seconds`.
const MIN_PASSES: usize = 20;

const WORKLOADS: [&str; 3] = ["fig4_stream", "serve_churn", "sparse_infer"];

/// End-to-end metrics, printed on every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_p10_ms", "ms"),
    ("pass_tail_ms", "ms"),
    ("inputs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed on every workload with `--trace 1` (0 for
/// a layer the workload does not run).
const PER_LAYER: [(&str, &str); 64] = [
    ("cache.load_ms", "ms"),
    ("cache.events", "count"),
    ("e2sf.busy_ms", "ms"),
    ("e2sf.frames", "count"),
    ("e2sf.ns_per_event", "ns"),
    ("dsfa.busy_ms", "ms"),
    ("dsfa.batches", "count"),
    ("dsfa.merge_factor", "ratio"),
    ("dsfa.idle_flushes", "count"),
    ("dsfa.ns_per_frame", "ns"),
    ("clock.busy_ms", "ms"),
    ("engine.busy_ms", "ms"),
    ("engine.jobs", "count"),
    ("engine.ns_per_job", "ns"),
    ("pass.unattributed_ms", "ms"),
    ("nmp.search_ms", "ms"),
    ("nmp.evaluations", "count"),
    ("nmp.cache_hit_ratio", "ratio"),
    ("serve.busy_ms", "ms"),
    ("serve.arrivals", "count"),
    ("serve.admit_ratio", "ratio"),
    ("serve.shed_saturated", "count"),
    ("serve.shed_ingress_full", "count"),
    ("serve.dropped", "count"),
    ("remap.tuned", "count"),
    ("remap.cached", "count"),
    ("remap.carried", "count"),
    ("remap.tune_ms", "ms"),
    ("nn.evflownet.low.busy_ms", "ms"),
    ("nn.evflownet.low.macs", "count"),
    ("nn.evflownet.low.effectual_ratio", "ratio"),
    ("nn.evflownet.low.model_ms", "ms"),
    ("nn.evflownet.high.busy_ms", "ms"),
    ("nn.evflownet.high.macs", "count"),
    ("nn.evflownet.high.effectual_ratio", "ratio"),
    ("nn.evflownet.high.model_ms", "ms"),
    ("nn.spikeflownet.low.busy_ms", "ms"),
    ("nn.spikeflownet.low.macs", "count"),
    ("nn.spikeflownet.low.effectual_ratio", "ratio"),
    ("nn.spikeflownet.low.model_ms", "ms"),
    ("nn.spikeflownet.high.busy_ms", "ms"),
    ("nn.spikeflownet.high.macs", "count"),
    ("nn.spikeflownet.high.effectual_ratio", "ratio"),
    ("nn.spikeflownet.high.model_ms", "ms"),
    ("nn.graphnet.low.busy_ms", "ms"),
    ("nn.graphnet.low.macs", "count"),
    ("nn.graphnet.low.effectual_ratio", "ratio"),
    ("nn.graphnet.low.model_ms", "ms"),
    ("nn.graphnet.high.busy_ms", "ms"),
    ("nn.graphnet.high.macs", "count"),
    ("nn.graphnet.high.effectual_ratio", "ratio"),
    ("nn.graphnet.high.model_ms", "ms"),
    ("sparse.fill.low", "ratio"),
    ("sparse.fill.high", "ratio"),
    ("sim.makespan_ms", "ms"),
    ("sim.latency_mean_ms", "ms"),
    ("sim.latency_max_ms", "ms"),
    ("sim.dropped", "count"),
    ("sim.energy_mj", "mJ"),
    ("sim.utilization_mean", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.pass_p10_ms", "ms"),
    ("trace.untraced_pass_p10_ms", "ms"),
    ("trace.passes", "count"),
];

/// One reported number with the count of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// Where a run reads its inputs and writes its trace files, and the
/// window of simulated time its streams cover.
pub struct Ctx {
    pub seed: u64,
    pub window: ev_core::TimeWindow,
    pub data_dir: PathBuf,
    pub out_dir: PathBuf,
}

/// What each workload gives the shared measurement loop.
pub trait Workload {
    /// One-off correctness checks, run after measuring: `(name, passed)`.
    fn checks(&mut self) -> Vec<(&'static str, bool)>;
    /// One closed-loop pass; `Ok(false)` when its output differs from the
    /// first pass's.
    fn pass(&mut self, tr: &mut Tracer) -> Result<bool, String>;
    /// Extra timed calls after a traced pass, outside its pass time.
    fn after_traced_pass(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
    /// Units of input one pass carries.
    fn inputs_per_pass(&self) -> f64;
    /// Per-layer self times and counts from the traced passes.
    fn per_layer(&self, tr: &Tracer, out: &mut Vec<Metric>);
    /// Modeled (simulated-time) statistics of the last pass.
    fn sim(&self) -> Vec<Metric>;
    /// A per-network-layer table (CSV), for workloads that run networks.
    fn layer_table(&self) -> Option<String> {
        None
    }
}

pub fn sim_metrics(
    makespan_ms: f64,
    latency_mean_ms: f64,
    latency_max_ms: f64,
    dropped: f64,
    energy_mj: f64,
    utilization_mean: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("sim.makespan_ms", makespan_ms, "ms", 1),
        Metric::new("sim.latency_mean_ms", latency_mean_ms, "ms", 1),
        Metric::new("sim.latency_max_ms", latency_max_ms, "ms", 1),
        Metric::new("sim.dropped", dropped, "count", 1),
        Metric::new("sim.energy_mj", energy_mj, "mJ", 1),
        Metric::new("sim.utilization_mean", utilization_mean, "ratio", 1),
    ]
}

pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The build directory Cargo uses, where inputs and traces also go.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
        .join("perfbench")
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_block() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("cpu", cpu),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_rev", command_line("git", &["rev-parse", "HEAD"])),
    ]
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn setup_workload(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fig4_stream" => Box::new(fig4::setup(ctx)?),
        "serve_churn" => Box::new(serve::setup(ctx)?),
        _ => Box::new(sparse::setup(ctx)?),
    })
}

/// Times of the measured loop: passes split by whether tracing was on,
/// and the set-ups spread over it.
struct Measured {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Measured {
    fn record(&mut self, outcome: Result<bool, String>) {
        self.attempted += 1;
        match outcome {
            Ok(true) => {}
            Ok(false) => self.failed += 1,
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
            }
        }
    }
}

fn timed_pass(w: &mut dyn Workload, tr: &mut Tracer, pass: u32, m: &mut Measured) -> f64 {
    tr.set_pass(pass);
    let watch = Stopwatch::start();
    tr.enter("pass");
    let outcome = w.pass(tr);
    tr.exit();
    let ms = watch.elapsed_ms();
    m.record(outcome);
    ms
}

/// Runs passes for `seconds` (and at least [`MIN_PASSES`] of each kind),
/// alternating untraced and traced ones when `trace` is set. The
/// remaining set-ups run at evenly spaced instants of the loop, so host
/// speed changes during the run reach `setup_s` as they reach the passes.
fn measure(
    w: &mut dyn Workload,
    setup: &mut dyn FnMut() -> Result<f64, String>,
    seconds: u64,
    trace: bool,
    tr: &mut Tracer,
    m: &mut Measured,
) {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let spacing = budget / SETUP_REPS as u32;
    let mut pass = WARMUP_PASSES as u32;
    loop {
        if m.setup_s.len() < SETUP_REPS && start.elapsed() >= spacing * m.setup_s.len() as u32 {
            match setup() {
                Ok(s) => m.setup_s.push(s),
                Err(e) => {
                    m.record(Err(e));
                    m.setup_s.push(f64::NAN);
                }
            }
        }
        let traced = trace && pass % 2 == 1;
        tr.set_enabled(traced);
        let ms = timed_pass(w, tr, pass, m);
        if traced {
            let extra = w.after_traced_pass(tr);
            if extra.is_err() {
                m.record(extra.map(|()| true));
            }
            m.traced_ms.push(ms);
        } else {
            m.untraced_ms.push(ms);
        }
        pass += 1;
        let enough = m.untraced_ms.len() >= MIN_PASSES
            && (!trace || m.traced_ms.len() >= MIN_PASSES)
            && m.setup_s.len() >= SETUP_REPS;
        if start.elapsed() >= budget && (enough || start.elapsed() >= 3 * budget) {
            break;
        }
    }
    tr.set_enabled(false);
}

fn run(args: &Args) -> Result<(Vec<Metric>, u64, u64), String> {
    let root = work_dir();
    let ctx = Ctx {
        seed: args.seed,
        window: fig4::window_for(args.seed),
        data_dir: root.join(format!("aer-seed-{}", args.seed)),
        out_dir: root.join("out"),
    };
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;

    // Inputs are materialised before anything is timed.
    match args.workload.as_str() {
        "fig4_stream" => fig4::materialise(&ctx)?,
        "sparse_infer" => sparse::materialise(&ctx)?,
        _ => {}
    }

    let setup = || {
        let watch = Stopwatch::start();
        let w = setup_workload(&args.workload, &ctx)?;
        Ok::<_, String>((watch.elapsed_ms() / 1e3, w))
    };
    let (first_setup_s, mut w) = setup()?;
    let mut m = Measured {
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        setup_s: vec![first_setup_s],
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    // The first warm-up pass's output is the reference every later pass
    // must reproduce.
    let mut tr = Tracer::new(false);
    for pass in 0..WARMUP_PASSES {
        timed_pass(w.as_mut(), &mut tr, pass as u32, &mut m);
    }
    // Peak memory of one set-up and its passes, before the checks and
    // the later set-ups allocate their own.
    let peak_rss_mb = peak_rss_mb();
    measure(
        w.as_mut(),
        &mut || setup().map(|(s, _)| s),
        args.seconds,
        args.trace,
        &mut tr,
        &mut m,
    );
    for (name, passed) in w.checks() {
        println!("check {name}: {}", if passed { "ok" } else { "FAILED" });
        m.record(Ok(passed));
    }
    for e in m.errors.iter().take(3) {
        println!("error: {e}");
    }

    let n = m.untraced_ms.len();
    let mut untraced = m.untraced_ms.clone();
    let p10 = stats::percentile(&mut untraced, 10.0);
    let p50 = stats::median(&mut untraced);
    let mut metrics = Vec::new();
    if args.trace {
        w.per_layer(&tr, &mut metrics);
        metrics.extend(w.sim());
        let traced_p10 = stats::percentile(&mut m.traced_ms.clone(), 10.0);
        let t = m.traced_ms.len();
        metrics.extend([
            Metric::new("trace.overhead", traced_p10 / p10, "ratio", t),
            Metric::new("trace.pass_p10_ms", traced_p10, "ms", t),
            Metric::new("trace.untraced_pass_p10_ms", p10, "ms", n),
            Metric::new("trace.passes", t as f64, "count", 1),
        ]);
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let spans = ctx.out_dir.join(format!("{stem}-spans.csv"));
        tr.write_csv(&spans).map_err(|e| e.to_string())?;
        println!("spans written to {}", spans.display());
        if let Some(table) = w.layer_table() {
            let path = ctx.out_dir.join(format!("{stem}-layers.csv"));
            std::fs::write(&path, table).map_err(|e| e.to_string())?;
            println!("layer table written to {}", path.display());
        }
    } else {
        let (tail_pct, tail) = stats::tail(&mut untraced);
        println!(
            "timings are {}; pass p50 {p50:.3} ms; pass_tail_ms is the p{tail_pct} of {n} passes",
            clock::source()
        );
        metrics.extend([
            Metric::new(
                "setup_s",
                stats::median(&mut m.setup_s),
                "s",
                m.setup_s.len(),
            ),
            Metric::new("pass_p10_ms", p10, "ms", n),
            Metric::new("pass_tail_ms", tail, "ms", n),
            Metric::new("inputs_per_s", w.inputs_per_pass() * 1e3 / p10, "1/s", n),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
        ]);
    }
    Ok((metrics, m.attempted, m.failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (measured, attempted, failed) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (key, value) in host_block() {
        println!("host.{key}: {value}");
    }
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in listed {
        let m = measured
            .iter()
            .find(|m| m.name == *name)
            .cloned()
            .unwrap_or_else(|| Metric::new(name, 0.0, unit, 0));
        debug_assert_eq!(m.unit, *unit, "{name}");
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        println!(
            "{:<36} {:>16.6} {:<6} n={}",
            m.name, value, m.unit, m.samples
        );
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "failed_frac {:.6} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The string value of `"key": "..."` inside one JSON object's text.
    fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
        let rest = &object[object.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(&rest[..rest.find('"')?])
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits next to the benchmark directory");
        let listed: Vec<(&str, &str)> = json
            .split('{')
            .filter_map(|object| Some((field(object, "name")?, field(object, "unit")?)))
            .collect();
        let tables: Vec<(&str, &str)> =
            END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        assert_eq!(listed, tables);
    }
}
