//! The repository benchmark: three workloads, each driven from outside
//! through the public API of the layer it stresses.
//!
//! - `sim-sparse` ([`sim_sparse`]): `Simulator::spgemm` on the Table 4
//!   low-flop stand-ins, on both machine models.
//! - `dse-mixed` ([`dse_mixed`]): the bundled `sparch_vs_ospace` sweep on a
//!   cold memo cache, in the full and the interval tier.
//! - `serve-mixed` ([`serve_mixed`]): an in-process `Server` driven open loop
//!   at a nominal rate, then in overload bursts.
//!
//! A run with tracing off measures the end-to-end metrics
//! ([`E2E_METRICS`]); a traced run re-runs the workload with spans around
//! the calls into each layer and reports [`LAYER_METRICS`]. `README.md` in
//! this directory records why each workload was chosen and which layer
//! metric should move which end-to-end metric.

pub mod dse_mixed;
pub mod pipeline;
pub mod serve_mixed;
pub mod sim_sparse;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["sim-sparse", "dse-mixed", "serve-mixed"];

/// End-to-end metrics `(name, unit)`, printed by every untraced run. The
/// three `*_ms`/`*_per_s` slots are read per workload (see `README.md`):
/// every workload must print every metric, so the slots are named by role.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("primary_ms", "ms"),
    ("secondary_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A layer
/// the workload does not run reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("gen.s", "s"),
    ("outer.convert_s", "s"),
    ("outer.multiply_s", "s"),
    ("outer.merge_s", "s"),
    ("outer.sparch_plan_s", "s"),
    ("outer.condense_s", "s"),
    ("outer.flops", "count"),
    ("outer.chunks", "count"),
    ("sim.pipeline_s", "s"),
    ("sim.convert_s", "s"),
    ("sim.multiply_s", "s"),
    ("sim.merge_s", "s"),
    ("sim.condensed_multiply_s", "s"),
    ("sim.merge_tree_s", "s"),
    ("sim.cycles", "count"),
    ("sim.work_items", "count"),
    ("sim.hbm_bytes", "bytes"),
    ("sim.l0_hit_ratio", "ratio"),
    ("sim.l1_hit_ratio", "ratio"),
    ("sim.ns_per_work_item", "ns"),
    ("sim.functional_share", "ratio"),
    ("interval.estimate_s", "s"),
    ("interval.frontier_recall", "ratio"),
    ("interval.frontier_precision", "ratio"),
    ("interval.median_cycle_err", "ratio"),
    ("energy.s", "s"),
    ("dse.expand_s", "s"),
    ("dse.sweep_full_s", "s"),
    ("dse.sweep_interval_s", "s"),
    ("dse.analyze_s", "s"),
    ("dse.executor_overhead_s", "s"),
    ("dse.cache_hits", "count"),
    ("dse.ok", "count"),
    ("dse.invalid", "count"),
    ("dse.aborted", "count"),
    ("dse.failed", "count"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p90", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p90", "ms"),
    ("serve.gen_lag_ms.p90", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.verified_ratio", "ratio"),
    ("serve.degraded_ratio", "ratio"),
    ("serve.retries", "count"),
    ("serve.shed", "count"),
    ("serve.route_ms", "ms"),
    ("serve.compute_ms.sim", "ms"),
    ("serve.compute_ms.sim_spmv", "ms"),
    ("serve.compute_ms.mkl_gustavson", "ms"),
    ("serve.compute_ms.mkl_spmv_densified", "ms"),
    ("serve.verify_ms", "ms"),
    ("serve.cache_key_ms", "ms"),
    ("self.gen_s", "s"),
    ("self.outer_s", "s"),
    ("self.sim_s", "s"),
    ("self.energy_s", "s"),
    ("self.interval_s", "s"),
    ("self.dse_s", "s"),
    ("self.serve_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured section, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Worker threads for the DSE sweep and the server: the host's
    /// available parallelism.
    pub threads: usize,
    /// Scratch directory for memo caches and trace files.
    pub out_dir: PathBuf,
    /// The run context (see [`stats::context`]), written into trace files.
    pub context: outerspace_json::Json,
}

/// The result of one workload run: output-check verdicts plus metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulated SpGEMMs, DSE points, requests).
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Context lines printed before the result (p99, generator lag, …).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a check: `ok == false` makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// True when every output check held.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

/// Runs `workload` under `cfg`.
///
/// # Errors
///
/// An unknown workload name, or a failure to set the workload up (the
/// checks of a run that did start are reported in the [`Outcome`]).
pub fn run(workload: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = match workload {
        "sim-sparse" => sim_sparse::run(cfg)?,
        "dse-mixed" => dse_mixed::run(cfg)?,
        "serve-mixed" => serve_mixed::run(cfg)?,
        other => return Err(format!("unknown workload '{other}' (known: {WORKLOADS:?})")),
    };
    if !cfg.trace {
        let rss = stats::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        out.set("peak_rss_mb", rss);
    }
    let table = if cfg.trace {
        LAYER_METRICS
    } else {
        E2E_METRICS
    };
    for (name, _) in table {
        if cfg.trace {
            out.metrics.entry((*name).to_string()).or_insert(0.0);
        } else if !out.metrics.contains_key(*name) {
            return Err(format!(
                "{workload} did not measure end-to-end metric '{name}'"
            ));
        }
    }
    out.metrics.retain(|k, _| table.iter().any(|(n, _)| n == k));
    Ok(out)
}

/// SplitMix64 finalizer: decorrelated sub-seeds from one `--seed`.
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Turns a traced run into per-layer metrics.
///
/// `units` traced units ran, each under a span called `root`; every span
/// and count is reported per unit, except the spans named in `once`, which
/// ran once per run (set-up). Output checks inside a unit run under
/// `bench.check` spans, children of `root`, and count neither as the unit's
/// time nor as any layer's. `untraced_wall_s` is the median wall time of
/// the same unit with tracing off, against which the unattributed gap and
/// the tracing overhead are taken.
pub fn report_layers(
    out: &mut Outcome,
    t: &trace::Tracer,
    root: &str,
    units: usize,
    once: &[&str],
    untraced_wall_s: f64,
) {
    let units = units.max(1) as f64;
    let selfs = t.self_times();
    let mut layer_self: BTreeMap<String, f64> = BTreeMap::new();
    for (name, s) in &selfs {
        if name.starts_with("bench.") {
            continue;
        }
        let v = if once.contains(&name.as_str()) {
            *s
        } else {
            s / units
        };
        out.set(&trace::span_metric(name), v);
        *layer_self
            .entry(trace::layer_of(name).to_string())
            .or_insert(0.0) += v;
    }
    for (layer, v) in &layer_self {
        out.set(&format!("self.{layer}_s"), *v);
    }
    let counts = t.counts();
    for (name, v) in counts {
        out.set(name, v / units);
    }
    let count = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    out.set(
        "sim.l0_hit_ratio",
        ratio(count("sim.l0_hits"), count("sim.l0_lookups")),
    );
    out.set(
        "sim.l1_hit_ratio",
        ratio(count("sim.l1_hits"), count("sim.l1_lookups")),
    );
    let self_of = |k: &str| selfs.get(k).copied().unwrap_or(0.0);
    let timing: f64 = [
        "sim.convert",
        "sim.multiply",
        "sim.merge",
        "sim.condensed_multiply",
        "sim.merge_tree",
    ]
    .iter()
    .map(|k| self_of(k))
    .sum();
    let functional: f64 = [
        "outer.convert",
        "outer.multiply",
        "outer.merge",
        "outer.sparch_plan",
        "outer.condense",
    ]
    .iter()
    .map(|k| self_of(k))
    .sum();
    out.set(
        "sim.ns_per_work_item",
        ratio(timing * 1e9, count("sim.work_items")),
    );
    out.set(
        "sim.functional_share",
        ratio(functional, functional + timing),
    );

    let spans = t.spans();
    let checks: f64 = t.durations("bench.check").iter().sum();
    let unit_walls: Vec<f64> = (0..spans.len())
        .filter(|&i| spans[i].name == root)
        .map(|i| {
            let inner: f64 = spans
                .iter()
                .filter(|s| s.parent == Some(i) && s.name == "bench.check")
                .map(|s| s.t1 - s.t0)
                .sum();
            spans[i].t1 - spans[i].t0 - inner
        })
        .collect();
    let traced = stats::median(&unit_walls);
    out.notes.push(format!(
        "traced {root} walls {unit_walls:.4?} s; untraced median {untraced_wall_s:.4} s"
    ));
    let attributed = (t.durations(root).iter().sum::<f64>() - self_of(root) - checks) / units;
    out.set("trace.wall_s", traced);
    out.set("trace.untraced_wall_s", untraced_wall_s);
    out.set("trace.overhead_s", traced - untraced_wall_s);
    out.set("trace.unattributed_s", untraced_wall_s - attributed);
}
