//! `serve_churn`: `ev_serve::run_service` on a churning multi-tenant
//! scenario the benchmark builds from the seed. No event frontend runs,
//! so admission, dispatch, timeline and NMP retuning carry the time.

use crate::trace::Tracer;
use crate::{splitmix64, Ctx, Metric, Workload};
use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_edge::nmp::baseline;
use ev_edge::nmp::fitness::{FitnessConfig, FitnessEvaluator};
use ev_edge::nmp::sweep::near_saturation_periods;
use ev_edge::nmp::{AutoTuner, TaskMix};
use ev_nn::zoo::NetworkId;
use ev_serve::{
    run_service, ChurnAction, ChurnEvent, MappingSource, ServeConfig, ServeReport, ServeScenario,
    TenantSpec,
};

/// Simulated service window.
const WINDOW_MS: u64 = 4000;

/// Tenants present from the start, each with its arrival period as a
/// multiple of its near-saturation period: below 1 oversubscribes the
/// platform, above 1 leaves headroom. Their admission order is fixed: the
/// tuned mapping, and with it the admitted share, depends on it.
const BASE: [(NetworkId, f64); 5] = [
    (NetworkId::Dotie, 3.0),
    (NetworkId::EvFlowNet, 0.5),
    (NetworkId::AdaptiveSpikeNet, 2.0),
    (NetworkId::E2Depth, 0.8),
    (NetworkId::Halsie, 1.25),
];

/// Tenant pairs that join together, one pair per churn cycle (the cycle
/// order is shuffled by the seed).
const JOINERS: [[NetworkId; 2]; 4] = [
    [NetworkId::SpikeFlowNet, NetworkId::GraphNet],
    [NetworkId::FusionFlowNet, NetworkId::Dotie],
    [NetworkId::CornerNet, NetworkId::EvFlowNet],
    [NetworkId::GraphNet, NetworkId::E2Depth],
];

/// Period multiples of each joining pair.
const JOIN_PRESSURE: [f64; 2] = [0.7, 1.5];

fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(*state) % (i as u64 + 1)) as usize;
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        items.swap(i, j);
    }
}

fn config() -> ServeConfig {
    let mut config = ServeConfig::new(TimeWindow::new(
        Timestamp::ZERO,
        Timestamp::from_millis(WINDOW_MS),
    ));
    // One join onto the six-tenant mix carries the mapping over; a pair
    // joining at once re-tunes.
    config.drift_threshold = 0.2;
    config.workers = 1;
    config
}

/// Near-saturation arrival periods of every tenant of `networks` (¾ of
/// its critical-path latency under a round-robin mapping of the mix).
fn saturation_periods(
    config: &ServeConfig,
    networks: &[NetworkId],
) -> Result<Vec<TimeDelta>, String> {
    let mix = TaskMix::Custom {
        networks: networks.to_vec(),
        delta_scale: 1.0,
    };
    let problem = mix
        .build_problem(config.platform.build(), &config.zoo.config())
        .map_err(|e| e.to_string())?;
    let fitness = FitnessEvaluator::new(&problem, FitnessConfig::default())
        .evaluate(&baseline::rr_network(&problem))
        .map_err(|e| e.to_string())?;
    Ok(near_saturation_periods(&fitness))
}

/// Builds the seeded scenario: five base tenants, then four churn cycles.
/// In cycle k a pair joins (new mix → tuned), one of the pair leaves
/// (one step from the tuned mix → carried), the other leaves (back to the
/// base mix → cached).
fn scenario(config: &ServeConfig, seed: u64) -> Result<ServeScenario, String> {
    let mut state = seed;
    let mut cycles = JOINERS;
    shuffle(&mut cycles, &mut state);

    // ±5% seeded jitter on every period and churn instant.
    let jitter = |x: f64, salt: u64| {
        x * (0.95
            + 0.1 * (splitmix64(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)) % 1_000) as f64
                / 1_000.0)
    };
    let period = |saturation: TimeDelta, pressure: f64, salt: u64| {
        TimeDelta::from_micros((saturation.as_micros() as f64 * jitter(pressure, salt)) as i64)
    };

    let (base, pressures): (Vec<NetworkId>, Vec<f64>) = BASE.into_iter().unzip();
    let saturation = saturation_periods(config, &base)?;
    let initial: Vec<TenantSpec> = base
        .iter()
        .enumerate()
        .map(|(i, &network)| TenantSpec {
            name: format!("base-{i}"),
            network,
            period: period(saturation[i], pressures[i], i as u64),
        })
        .collect();
    let slot = (WINDOW_MS * 1_000) as f64 / cycles.len() as f64;
    let mut churn = Vec::new();
    for (k, pair) in cycles.iter().enumerate() {
        // The pair's own near-saturation periods, in the mix it joins.
        let joined: Vec<NetworkId> = base.iter().chain(pair).copied().collect();
        let saturation = saturation_periods(config, &joined)?;
        let salt = 16 * (k as u64 + 1);
        let at = |frac: f64, j: u64| {
            Timestamp::from_micros((slot * (k as f64 + jitter(frac, salt + j))) as u64)
        };
        let names = [format!("join-{k}a"), format!("join-{k}b")];
        let join_at = at(0.2, 0);
        for (j, (&network, name)) in pair.iter().zip(&names).enumerate() {
            churn.push(ChurnEvent {
                at: join_at,
                action: ChurnAction::Join(TenantSpec {
                    name: name.clone(),
                    network,
                    period: period(
                        saturation[base.len() + j],
                        JOIN_PRESSURE[j],
                        salt + 3 + j as u64,
                    ),
                }),
            });
        }
        churn.push(ChurnEvent {
            at: at(0.5, 1),
            action: ChurnAction::Leave(names[1].clone()),
        });
        churn.push(ChurnEvent {
            at: at(0.75, 2),
            action: ChurnAction::Leave(names[0].clone()),
        });
    }
    Ok(ServeScenario { initial, churn })
}

pub struct Serve {
    config: ServeConfig,
    scenario: ServeScenario,
    expected: Option<ServeReport>,
    last: Option<(ServeReport, Vec<TaskMix>)>,
}

pub fn setup(ctx: &Ctx) -> Result<Serve, String> {
    let config = config();
    let scenario = scenario(&config, ctx.seed)?;
    Ok(Serve {
        config,
        scenario,
        expected: None,
        last: None,
    })
}

impl Serve {
    fn run(&self, scenario: &ServeScenario) -> Result<ev_serve::ServeOutcome, String> {
        run_service(scenario, &self.config).map_err(|e| e.to_string())
    }
}

impl Workload for Serve {
    fn checks(&mut self) -> Vec<(&'static str, bool)> {
        let Some(expected) = &self.expected else {
            return vec![("serve.first_pass_ran", false)];
        };
        let replays = self
            .run(&self.scenario)
            .is_ok_and(|outcome| outcome.mappings.verify_replays().unwrap_or(false));
        // Self-test: one tenant arriving at half its period must fail the
        // per-pass report check.
        let mut corrupted = self.scenario.clone();
        let period = &mut corrupted.initial[0].period;
        *period = TimeDelta::from_micros(period.as_micros() / 2);
        let fires = self
            .run(&corrupted)
            .map_or(true, |bad| bad.report != *expected);
        vec![
            ("serve.mapping_cache_verify_replays", replays),
            ("serve.self_test_corrupt_period_detected", fires),
        ]
    }

    fn pass(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        let outcome = tr.span("serve", || self.run(&self.scenario))?;
        let mixes: Vec<TaskMix> = outcome
            .mappings
            .entries()
            .iter()
            .map(|e| e.mix.clone())
            .collect();
        let ok = *self.expected.get_or_insert_with(|| outcome.report.clone()) == outcome.report;
        self.last = Some((outcome.report, mixes));
        Ok(ok)
    }

    /// Times the service's tuner call over the spec of every mix the last
    /// pass tuned.
    fn after_traced_pass(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let tuner = AutoTuner::new(self.config.objective);
        let (_, mixes) = self.last.as_ref().expect("a pass ran");
        for mix in mixes {
            tr.span("remap.tune", || {
                tuner.tune_spec(&self.config.tune_spec_for(mix.clone()), self.config.workers)
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn inputs_per_pass(&self) -> f64 {
        self.last
            .as_ref()
            .map_or(0.0, |(r, _)| r.totals.arrivals as f64)
    }

    fn per_layer(&self, tr: &Tracer, out: &mut Vec<Metric>) {
        let self_ns = tr.self_ns();
        let (report, _) = self.last.as_ref().expect("a pass ran");
        let (serve_ms, n) = tr.median_self_ms(&self_ns, "serve");
        let (tune_ms, tn) = tr.median_self_ms(&self_ns, "remap.tune");
        let t = &report.totals;
        let count = |source: MappingSource| {
            report.epochs.iter().filter(|e| e.mapping == source).count() as f64
        };
        out.extend([
            Metric::new("serve.busy_ms", serve_ms - tune_ms, "ms", n.min(tn)),
            Metric::new("serve.arrivals", t.arrivals as f64, "count", 1),
            Metric::new(
                "serve.admit_ratio",
                t.admitted as f64 / t.arrivals as f64,
                "ratio",
                1,
            ),
            Metric::new("serve.shed_saturated", t.shed_saturated as f64, "count", 1),
            Metric::new(
                "serve.shed_ingress_full",
                t.shed_ingress_full as f64,
                "count",
                1,
            ),
            Metric::new("serve.dropped", t.dropped as f64, "count", 1),
            Metric::new("remap.tuned", count(MappingSource::Tuned), "count", 1),
            Metric::new("remap.cached", count(MappingSource::Cached), "count", 1),
            Metric::new("remap.carried", count(MappingSource::Carried), "count", 1),
            Metric::new("remap.tune_ms", tune_ms, "ms", tn),
        ]);
    }

    fn sim(&self) -> Vec<Metric> {
        let (report, _) = self.last.as_ref().expect("a pass ran");
        let completed: u64 = report.tenants.iter().map(|t| t.completed).sum();
        let latency_sum: f64 = report
            .tenants
            .iter()
            .map(|t| t.mean_latency_us as f64 * t.completed as f64)
            .sum();
        let max_latency = report
            .tenants
            .iter()
            .map(|t| t.max_latency_us)
            .max()
            .unwrap_or(0);
        let live: Vec<f64> = report
            .epochs
            .iter()
            .filter(|e| e.mapping != MappingSource::Idle)
            .map(|e| e.utilization)
            .collect();
        crate::sim_metrics(
            (report.end_us - report.start_us) as f64 / 1e3,
            latency_sum / completed.max(1) as f64 / 1e3,
            max_latency as f64 / 1e3,
            report.totals.dropped as f64,
            report.totals.energy_mj,
            live.iter().sum::<f64>() / live.len().max(1) as f64,
        )
    }
}
