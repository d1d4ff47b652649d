//! `dse-mixed`: the bundled `sparch_vs_ospace` spec (8 configs × R-MAT,
//! uniform and power-law at 1024², ~16k nnz: 24 points) swept on a cold
//! memo cache with one thread per available core, once in the full tier
//! and then in the interval tier.
//!
//! Its R-MAT points spend most of their time in the functional path, and it
//! is the only workload that runs `sim::interval`. The spec's generator
//! seeds depend only on each workload's label, so the benchmark seed moves
//! each workload's nnz by a seed-derived offset below 256: every seed gets
//! its own matrices of the same shape family.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use outerspace_dse::{
    analyze, run_sweep_opts, validate_interval, DsePoint, EvalTier, PointOutcome, SimCache,
    SpaceSpec, SweepOptions, SweepResult,
};
use outerspace_energy::AreaPowerModel;
use outerspace_json::Json;
use outerspace_sim::interval::{self, IntervalOpts, NoAbortProbe};
use outerspace_sparse::Csr;

use crate::pipeline;
use crate::stats::{median, percentile, timed, Reference, Scaled};
use crate::trace::Tracer;
use crate::{report_layers, split_seed, Outcome, RunCfg};

/// The bundled spec this workload sweeps.
pub const SPEC: &str = "sparch_vs_ospace";
/// Interval-tier sweeps per full-tier sweep: one interval sweep takes about
/// a tenth of a full one, too short to time steadily on its own.
const INTERVAL_REPS: usize = 4;
/// Warm-cache re-sweeps after each full-tier sweep: one takes about 3 ms.
const WARM_REPS: usize = 8;
/// Set-ups timed after each round, so they sample the host over the run.
const SETUPS_PER_ROUND: usize = 3;
/// Largest calibrated median |cycle error| of the interval tier on its
/// held-out points a run accepts: the limit `ci.sh` gates this spec at.
const MAX_MEDIAN_ERR: f64 = 0.05;
/// The interval tier is validated on every this-many-th point, as `ci.sh`
/// validates this spec.
const VALIDATE_EVERY: usize = 2;
/// Rounds measured at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Traced rounds, each after an untraced one.
const TRACE_ROUNDS: usize = 3;

/// The spec for `seed`: the bundled one with each workload's nnz moved by a
/// seed-derived offset in `0..256`.
///
/// # Errors
///
/// The bundled spec is missing.
pub fn spec_for(seed: u64) -> Result<SpaceSpec, String> {
    let mut spec = SpaceSpec::bundled(SPEC).ok_or_else(|| format!("no bundled spec '{SPEC}'"))?;
    for (i, w) in spec.workloads.iter_mut().enumerate() {
        w.nnz += (split_seed(seed, i as u64) % 256) as usize;
    }
    Ok(spec)
}

/// The expanded points and each distinct workload matrix, generated with
/// the seed the executor itself uses.
pub struct Inputs {
    /// The sweep's points.
    pub points: Vec<DsePoint>,
    /// Workload label → matrix.
    pub mats: BTreeMap<String, Csr>,
}

/// Expands the spec and generates its workloads.
///
/// # Errors
///
/// Expansion or generation failure.
pub fn setup(seed: u64) -> Result<Inputs, String> {
    let points = spec_for(seed)?.expand(None, seed)?;
    let mut mats = BTreeMap::new();
    for p in &points {
        if let Entry::Vacant(e) = mats.entry(p.workload.label()) {
            e.insert(p.workload.generate(p.workload_seed())?);
        }
    }
    Ok(Inputs { points, mats })
}

/// A sweep's result and its wall seconds.
type TimedSweep = (SweepResult, f64);

/// One sweep on a fresh, empty memo cache under `dir`, then `warm`
/// re-sweeps that each reopen the cache the first one filled, as a repeated
/// run of a study does. A re-sweep only reads the cache, so it runs on one
/// thread: more would add thread start-ups, and heaps that raise the peak
/// RSS. Returns the cold sweep's result and wall seconds, and each
/// re-sweep's result and wall seconds (reopening included).
fn sweep(
    points: &[DsePoint],
    tier: EvalTier,
    threads: usize,
    dir: &Path,
    warm: usize,
) -> Result<(TimedSweep, Vec<TimedSweep>), String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(io)?;
    let opts = SweepOptions {
        tier,
        ..Default::default()
    };
    let once = |threads| -> Result<TimedSweep, String> {
        let (res, wall) = timed(|| {
            SimCache::open(dir).map(|mut cache| run_sweep_opts(points, &mut cache, threads, &opts))
        });
        Ok((res.map_err(io)?, wall))
    };
    let cold = once(threads);
    let warm = (0..warm).map(|_| once(1)).collect::<Result<Vec<_>, _>>();
    std::fs::remove_dir_all(dir).map_err(io)?;
    Ok((cold?, warm?))
}

/// Cold-cache directories, unique within the process.
fn cache_dir(cfg: &RunCfg) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    cfg.out_dir
        .join(format!("dse-cache-{}-{n}", std::process::id()))
}

/// Checks the accounting identity and counts failed and invalid points.
fn account(res: &SweepResult, n: usize, tier: &str, out: &mut Outcome) {
    let evaluated = res.cache_hits + res.simulated;
    out.check(
        evaluated + res.aborted + res.invalid + res.failed == n,
        || format!("{tier} sweep: evaluated + aborted + invalid + failed != {n} points"),
    );
    out.attempted += n as u64;
    out.failed += (res.aborted + res.invalid + res.failed) as u64;
    for o in &res.outcomes {
        match o {
            PointOutcome::Failed { index, error } => out
                .notes
                .push(format!("{tier} point {index} failed: {error}")),
            PointOutcome::Invalid { index, reason } => out
                .notes
                .push(format!("{tier} point {index} invalid: {reason}")),
            _ => {}
        }
    }
}

/// The two sweeps reached the same outcome on every point, with
/// byte-identical metrics, wherever each got it from.
fn same_results(a: &SweepResult, b: &SweepResult) -> bool {
    a.outcomes.len() == b.outcomes.len()
        && a.outcomes
            .iter()
            .zip(&b.outcomes)
            .all(|(x, y)| match (x, y) {
                (PointOutcome::Ok { metrics: m, .. }, PointOutcome::Ok { metrics: n, .. }) => {
                    m.to_string_compact() == n.to_string_compact()
                }
                _ => x == y,
            })
}

fn cycles_of(o: &PointOutcome) -> Option<u64> {
    match o {
        PointOutcome::Ok { metrics, .. } => metrics.get("cycles").and_then(Json::as_u64),
        _ => None,
    }
}

/// How well the interval tier's decisions match the full tier's:
/// `(frontier recall, frontier precision, median |cycle error|)`.
pub fn accuracy(points: &[DsePoint], full: &SweepResult, fast: &SweepResult) -> (f64, f64, f64) {
    let frontier = |res: &SweepResult| -> BTreeSet<String> {
        let rep = analyze(points, &res.outcomes);
        rep.frontier
            .iter()
            .map(|&i| rep.configs[i].canonical.clone())
            .collect()
    };
    let (f, g) = (frontier(full), frontier(fast));
    let both = f.intersection(&g).count() as f64;
    let share = |n: f64, d: usize| if d > 0 { n / d as f64 } else { 0.0 };
    let errs: Vec<f64> = full
        .outcomes
        .iter()
        .zip(&fast.outcomes)
        .filter_map(|(a, b)| {
            let (a, b) = (cycles_of(a)? as f64, cycles_of(b)? as f64);
            Some((b - a).abs() / a.max(1.0))
        })
        .collect();
    (share(both, f.len()), share(both, g.len()), median(&errs))
}

/// Checks that one interval sweep reached the decisions of the run's first
/// (`first`): recall, precision and median error must repeat exactly, since
/// the same inputs must give the same decisions.
fn check_accuracy(acc: (f64, f64, f64), first: &mut Option<(f64, f64, f64)>, out: &mut Outcome) {
    match first {
        None => *first = Some(acc),
        Some(f) => out.check(*f == acc, || {
            format!("interval-tier decisions changed between sweeps: {f:?} then {acc:?}")
        }),
    }
}

/// Validates the interval tier as `ci.sh` does on this spec: a full-tier
/// and an interval-tier sweep into one cache, then `dse::validate_interval`
/// on every [`VALIDATE_EVERY`]-th point, half calibrating and half held
/// out, its full-tier references recalled from the cache. The held-out
/// median |cycle error| must be within [`MAX_MEDIAN_ERR`].
fn check_validated(cfg: &RunCfg, points: &[DsePoint], out: &mut Outcome) -> Result<(), String> {
    let dir = cache_dir(cfg);
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(&dir).map_err(io)?;
    let v = SimCache::open(&dir).map_err(io).and_then(|mut cache| {
        for tier in [EvalTier::Full, EvalTier::Interval] {
            let opts = SweepOptions {
                tier,
                ..Default::default()
            };
            let res = run_sweep_opts(points, &mut cache, cfg.threads, &opts);
            if tier == EvalTier::Interval {
                return validate_interval(points, &res.outcomes, &mut cache, VALIDATE_EVERY);
            }
        }
        unreachable!("the interval tier is swept last")
    });
    std::fs::remove_dir_all(&dir).map_err(io)?;
    let v = v?;
    out.check(v.median_abs_err <= MAX_MEDIAN_ERR, || {
        format!(
            "interval tier's validated median |cycle err| {:.5} exceeds {MAX_MEDIAN_ERR}",
            v.median_abs_err
        )
    });
    out.notes.push(format!(
        "interval tier validated on {} points: held-out median |cycle err| {:.5} (limit {MAX_MEDIAN_ERR}), {:.3} within bars",
        v.validated, v.median_abs_err, v.within_bars_frac
    ));
    Ok(())
}

/// The decisions one seed's sweeps reach: the full-tier Pareto report's
/// JSON and the interval tier's `(frontier recall, frontier precision,
/// median |cycle error|)` against it, each from one cold sweep.
///
/// # Errors
///
/// Set-up failure or a cache directory that cannot be written.
pub fn decisions(cfg: &RunCfg) -> Result<(String, (f64, f64, f64)), String> {
    let points = spec_for(cfg.seed)?.expand(None, cfg.seed)?;
    let ((full, _), _) = sweep(&points, EvalTier::Full, cfg.threads, &cache_dir(cfg), 0)?;
    let ((fast, _), _) = sweep(&points, EvalTier::Interval, cfg.threads, &cache_dir(cfg), 0)?;
    let pareto = analyze(&points, &full.outcomes)
        .to_json()
        .to_string_compact();
    Ok((pareto, accuracy(&points, &full, &fast)))
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failure or a cache directory that cannot be written.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut host = Reference::new();
    let mut setups = Scaled::default();
    let (inputs, s, round) = host.around(|| setup(cfg.seed));
    let inputs = inputs?;
    setups.push(s, round);
    check_validated(cfg, &inputs.points, &mut out)?;
    if cfg.trace {
        return traced(cfg, &inputs, out);
    }

    let points = &inputs.points;
    let n = points.len();
    let mut golden_pareto: Option<String> = None;
    let mut first_accuracy = None;
    let mut full_per_point = Scaled::default();
    let mut fast_per_point = Scaled::default();
    let mut warm_per_point = Scaled::default();
    let started = std::time::Instant::now();
    while full_per_point.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < cfg.seconds {
        // One round between two probes of the host: its sweeps' and
        // set-ups' wall seconds.
        let (walls, _, round) = host.around(|| -> Result<_, String> {
            let ((full, full_wall), warm) = sweep(
                points,
                EvalTier::Full,
                cfg.threads,
                &cache_dir(cfg),
                WARM_REPS,
            )?;
            account(&full, n, "full", &mut out);
            let mut warm_walls = Vec::new();
            for (res, wall) in warm {
                out.attempted += n as u64;
                out.check(res.cache_hits == n, || {
                    format!(
                        "warm re-sweep served {} of {n} points from the cache",
                        res.cache_hits
                    )
                });
                out.check(same_results(&res, &full), || {
                    "warm re-sweep results differ from the cold sweep's".into()
                });
                warm_walls.push(wall);
            }
            let pareto = analyze(points, &full.outcomes)
                .to_json()
                .to_string_compact();
            match &golden_pareto {
                None => golden_pareto = Some(pareto),
                Some(g) => out.check(*g == pareto, || {
                    "full-tier Pareto changed between sweeps".into()
                }),
            }
            let mut fast_walls = Vec::new();
            for _ in 0..INTERVAL_REPS {
                let ((fast, wall), _) =
                    sweep(points, EvalTier::Interval, cfg.threads, &cache_dir(cfg), 0)?;
                account(&fast, n, "interval", &mut out);
                fast_walls.push(wall);
                check_accuracy(
                    accuracy(points, &full, &fast),
                    &mut first_accuracy,
                    &mut out,
                );
            }
            let mut setup_walls = Vec::new();
            for _ in 0..SETUPS_PER_ROUND {
                let (again, s) = timed(|| setup(cfg.seed));
                again?;
                setup_walls.push(s);
            }
            Ok((full_wall, warm_walls, fast_walls, setup_walls))
        });
        let (full_wall, warm_walls, fast_walls, setup_walls) = walls?;
        full_per_point.push(full_wall / n as f64, round);
        for wall in warm_walls {
            warm_per_point.push(wall / n as f64, round);
        }
        for wall in fast_walls {
            fast_per_point.push(wall / n as f64, round);
        }
        for s in setup_walls {
            setups.push(s, round);
        }
    }
    // Host times at the reference speed (README.md, "Steadiness").
    out.set("primary_ms", full_per_point.mean() * 1e3);
    out.set("secondary_ms", fast_per_point.mean() * 1e3);
    out.set("throughput_per_s", 1.0 / warm_per_point.mean());
    out.set("ok_frac", 1.0 - out.failed as f64 / out.attempted as f64);
    out.set("setup_s", setups.mean());
    if let Some((recall, precision, err)) = first_accuracy {
        out.notes.push(format!(
            "interval tier vs full, uncalibrated: frontier recall {recall:.4}, precision {precision:.4}, median |cycle err| {err:.5}"
        ));
    }
    let q = |xs: &[f64], p: f64| percentile(xs, p) * 1e3;
    out.notes.push(format!(
        "dse-mixed: {} full-tier, {} warm-cache and {} interval-tier sweeps of {n} points on {} threads; ms per point p50: full {:.3}, warm {:.4}, interval {:.3}; {} set-ups, ms p10 {:.3} p50 {:.3}; reference round ms p50 {:.3}",
        full_per_point.len(),
        warm_per_point.len(),
        fast_per_point.len(),
        cfg.threads,
        q(full_per_point.raw(), 0.5),
        q(warm_per_point.raw(), 0.5),
        q(fast_per_point.raw(), 0.5),
        setups.len(),
        q(setups.raw(), 0.1),
        q(setups.raw(), 0.5),
        q(full_per_point.rounds(), 0.5),
    ));
    Ok(out)
}

/// One round: expand, full sweep, analysis, interval sweep, analysis; the
/// round's outcomes are accounted and its interval-tier decisions checked
/// into `out`.
fn round(
    cfg: &RunCfg,
    t: &mut Tracer,
    out: &mut Outcome,
    first_accuracy: &mut Option<(f64, f64, f64)>,
) -> Result<(Vec<DsePoint>, SweepResult, SweepResult), String> {
    let points = t.span("dse.expand", |_| spec_for(cfg.seed)?.expand(None, cfg.seed))?;
    let n = points.len();
    let ((full, _), _) = t.span("dse.sweep_full", |_| {
        sweep(&points, EvalTier::Full, cfg.threads, &cache_dir(cfg), 0)
    })?;
    t.span("dse.analyze", |_| analyze(&points, &full.outcomes));
    let ((fast, _), _) = t.span("dse.sweep_interval", |_| {
        sweep(&points, EvalTier::Interval, cfg.threads, &cache_dir(cfg), 0)
    })?;
    t.span("dse.analyze", |_| analyze(&points, &fast.outcomes));
    account(&full, n, "full", out);
    account(&fast, n, "interval", out);
    check_accuracy(accuracy(&points, &full, &fast), first_accuracy, out);
    Ok((points, full, fast))
}

/// Alternates untraced and traced rounds; after each traced round,
/// replays every point serially under spans: the full tier phase by phase,
/// the interval tier through `interval::estimate_spgemm`, each priced by
/// the energy model as the sweep prices it. The replayed cycles must equal
/// the sweep's.
fn traced(cfg: &RunCfg, inputs: &Inputs, mut out: Outcome) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    let mut untraced = Vec::new();
    let mut overhead = 0.0;
    let mut first_accuracy = None;
    for k in 0..TRACE_ROUNDS {
        // Only the untraced round's timing is discarded; its checks count.
        let (r, wall) = timed(|| round(cfg, &mut Tracer::new(), &mut out, &mut first_accuracy));
        r?;
        untraced.push(wall);
        let (points, full, fast) = t.span("bench.round", |t| {
            round(cfg, t, &mut out, &mut first_accuracy)
        })?;
        for res in [&full, &fast] {
            t.count("dse.cache_hits", res.cache_hits as f64);
            t.count("dse.ok", (res.cache_hits + res.simulated) as f64);
            t.count("dse.invalid", res.invalid as f64);
            t.count("dse.aborted", res.aborted as f64);
            t.count("dse.failed", res.failed as f64);
        }
        if k == 0 {
            let (recall, precision, err) = accuracy(&points, &full, &fast);
            out.set("interval.frontier_recall", recall);
            out.set("interval.frontier_precision", precision);
            out.set("interval.median_cycle_err", err);
        }
        let (full_cpu, fast_cpu) = t.span("bench.replay", |t| {
            replay(t, inputs, &points, &full, &fast, &mut out)
        });
        let last = |name: &str| t.durations(name).last().copied().unwrap_or(0.0);
        let threads = cfg.threads as f64;
        overhead += (last("dse.sweep_full") - full_cpu / threads)
            + (last("dse.sweep_interval") - fast_cpu / threads);
    }
    out.set("dse.executor_overhead_s", overhead / TRACE_ROUNDS as f64);
    report_layers(
        &mut out,
        &t,
        "bench.round",
        TRACE_ROUNDS,
        &[],
        median(&untraced),
    );
    crate::trace::finish(cfg, "dse-mixed", &t, &mut out);
    Ok(out)
}

/// Replays every point of one traced round; returns the summed host
/// seconds of the full-tier and the interval-tier points, each including
/// the workload generation the executor does once per sweep.
fn replay(
    t: &mut Tracer,
    inputs: &Inputs,
    points: &[DsePoint],
    full: &SweepResult,
    fast: &SweepResult,
    out: &mut Outcome,
) -> (f64, f64) {
    let model = AreaPowerModel::tsmc32nm();
    let (mut full_cpu, mut fast_cpu) = (0.0, 0.0);
    let mut mats = BTreeMap::new();
    for p in points {
        if let Entry::Vacant(e) = mats.entry(p.workload.label()) {
            let (a, s) = timed(|| t.span("gen", |_| p.workload.generate(p.workload_seed())));
            full_cpu += s;
            fast_cpu += s;
            e.insert(a);
        }
    }
    for (i, p) in points.iter().enumerate() {
        let Ok(a) = &mats[&p.workload.label()] else {
            out.check(false, || format!("point {i}: workload generation failed"));
            continue;
        };
        out.check(Some(a) == inputs.mats.get(&p.workload.label()), || {
            format!("point {i}: regenerated workload differs")
        });
        let (replayed, s) = timed(|| {
            let r = pipeline::traced_spgemm(t, &p.config, a, a);
            if let Ok(r) = &r {
                t.span("energy", |_| {
                    (
                        model.table6(&p.config, Some(&r.report)),
                        model.energy_report(&p.config, &r.report),
                    )
                });
            }
            r
        });
        full_cpu += s;
        match replayed {
            Ok(r) => {
                out.check(
                    cycles_of(&full.outcomes[i]) == Some(r.report.total_cycles()),
                    || format!("point {i}: replayed cycles differ from the full-tier sweep"),
                );
                pipeline::count_report(t, &r);
            }
            Err(e) => out.check(false, || format!("point {i}: replay failed: {e}")),
        }
        let (est, s) = timed(|| {
            let est = t.span("interval.estimate", |_| {
                interval::estimate_spgemm(
                    &p.config,
                    a,
                    a,
                    &IntervalOpts::default(),
                    &mut NoAbortProbe,
                )
            });
            if let Ok(e) = &est {
                t.span("energy", |_| {
                    (
                        model.table6(&p.config, Some(&e.report)),
                        model.energy_report(&p.config, &e.report),
                    )
                });
            }
            est
        });
        fast_cpu += s;
        match est {
            Ok(e) => out.check(
                cycles_of(&fast.outcomes[i]) == Some(e.report.total_cycles()),
                || format!("point {i}: replayed estimate differs from the interval-tier sweep"),
            ),
            Err(e) => out.check(false, || format!("point {i}: interval replay failed: {e}")),
        }
    }
    (full_cpu, fast_cpu)
}
