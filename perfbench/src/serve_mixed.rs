//! `serve-mixed`: an in-process `Server` with one worker per available core,
//! driven open loop by one generator thread, because the callers it models
//! are independent.
//!
//! The op pool is 75% SpGEMM and 25% SpMV over uniform, R-MAT and
//! power-law operands at 1024², 8k nnz; every op routes to the `sim` /
//! `sim_spmv` accelerator kernels and is Freivalds-verified. About a
//! quarter of requests repeat a recent op, so the result cache serves
//! beside compute; the rest walk the pool, whose size exceeds the cache's,
//! so they miss. Two phases: a nominal rate below capacity, then overload
//! bursts that arrive far faster than even the degraded tier serves. This
//! is the only workload that runs the queue, routing, verification and the
//! result cache.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use outerspace_gen::{powerlaw, rmat, uniform, vector};
use outerspace_serve::kernels::{self, CHEAPEST_SPGEMM, CHEAPEST_SPMV};
use outerspace_serve::{
    op_material, verifier, Classifier, Op, OpOutput, ResponseMeta, Server, ServerConfig,
    SubmitOpts, Ticket, VerifyPolicy,
};
use outerspace_sim::OuterSpaceConfig;

use crate::stats::{median, percentile, Reference, Scaled, REFERENCE_ROUND_S};
use crate::trace::Tracer;
use crate::{report_layers, split_seed, Outcome, RunCfg};

/// Distinct ops in the pool.
pub const POOL: usize = 48;
/// Matrix dimension of every operand.
const DIM: u32 = 1024;
/// Non-zeros of every matrix operand.
const NNZ: usize = 8_000;
/// Result-cache entries: a third of the pool, so a request that walks the
/// pool finds its op evicted and a repeat of a recent op finds it cached.
const CACHE_CAP: usize = POOL / 3;
/// Share of requests that repeat one of the last [`REPEAT_WINDOW`] ops.
const REPEAT_SHARE: f64 = 0.25;
/// How far back a repeat reaches.
const REPEAT_WINDOW: usize = 4;
/// Requests per second of the nominal phase: below what the workers
/// sustain on the accelerator kernels.
const NOMINAL_RPS: f64 = 50.0;
/// Admission-queue capacity (the server's default).
const QUEUE_CAP: usize = 32;
/// Requests per overload burst: the queue's capacity, so a burst queues
/// whole and none is shed.
const BURST: usize = QUEUE_CAP;
/// Requests per second within a burst: far above what the degraded tier
/// sustains (about 2 workers / 1.9 ms ≈ 1000 rps on a 2-core host).
const OVERLOAD_RPS: f64 = 5000.0;
/// Seconds from one burst's start to the next. A burst also waits until the
/// one before it is delivered, so the queue holds one burst at a time.
const BURST_PERIOD_S: f64 = 0.3;
/// Share of `--seconds` given to the nominal phase. Its latencies are
/// printed as notes; the metrics come from the bursts (README.md).
const NOMINAL_SHARE: f64 = 0.3;
/// Requests sent at the nominal rate before measuring, to start the
/// measured phase with a warm service-time estimate.
const WARMUP: usize = 25;
/// Set-ups timed before the traffic, between its phases and after it, so
/// they sample the host across the run.
const SETUP_REPS: usize = 4;
/// Traced stage replays of the pool, each after an untraced one.
const TRACE_REPLAYS: usize = 3;

/// The pool and its goldens, computed on the cheapest software kernel.
pub struct Inputs {
    /// The ops.
    pub pool: Vec<Op>,
    /// One golden answer per op.
    pub goldens: Vec<OpOutput>,
}

/// Generates the op pool for `seed`.
pub fn make_pool(seed: u64) -> Vec<Op> {
    (0..POOL)
        .map(|i| {
            let s = split_seed(seed, i as u64);
            let a = Arc::new(match i % 3 {
                0 => uniform::matrix(DIM, DIM, NNZ, s),
                1 => rmat::graph500(DIM, NNZ, s),
                _ => powerlaw::graph(DIM, NNZ, s),
            });
            if i % 4 == 3 {
                Op::Spmv {
                    a,
                    x: Arc::new(vector::sparse(DIM, 0.3, s ^ 1)),
                }
            } else {
                Op::Spgemm {
                    a,
                    b: Arc::new(uniform::matrix(DIM, DIM, NNZ, s ^ 2)),
                }
            }
        })
        .collect()
}

fn cheapest(op: &Op) -> &'static str {
    match op {
        Op::Spgemm { .. } => CHEAPEST_SPGEMM,
        Op::Spmv { .. } => CHEAPEST_SPMV,
    }
}

fn setup(seed: u64, t: &mut Tracer) -> Result<Inputs, String> {
    let pool = t.span("gen", |_| make_pool(seed));
    let clean = OuterSpaceConfig::default();
    let goldens = pool
        .iter()
        .map(|op| kernels::run_op(cheapest(op), op, &clean).map_err(|e| e.message().to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Inputs { pool, goldens })
}

fn server_config(threads: usize) -> ServerConfig {
    ServerConfig {
        workers: threads,
        queue_cap: QUEUE_CAP,
        cache_cap: CACHE_CAP,
        ..Default::default()
    }
}

/// Agreement with the golden: far looser than cross-kernel summation-order
/// drift, far tighter than a flipped mantissa bit.
fn matches_golden(got: &OpOutput, want: &OpOutput) -> bool {
    match (got, want) {
        (OpOutput::Matrix(c), OpOutput::Matrix(g)) => c.approx_eq(g, 1e-6),
        (OpOutput::Vector(y), OpOutput::Vector(g)) => {
            let (yd, gd) = (y.to_dense(), g.to_dense());
            yd.len() == gd.len()
                && yd
                    .iter()
                    .zip(&gd)
                    .all(|(p, q)| (p - q).abs() <= 1e-6 * q.abs().max(1.0))
        }
        _ => false,
    }
}

/// Which pool op each request sends: a quarter repeat one of the last few
/// ops sent, the rest walk the pool in order.
pub fn schedule(seed: u64, n: usize) -> Vec<usize> {
    let mut recent: Vec<usize> = Vec::new();
    let mut cursor = 0usize;
    (0..n)
        .map(|k| {
            let r = split_seed(seed ^ 0x5eed, k as u64);
            if !recent.is_empty() && (r % 1_000_000) as f64 / 1e6 < REPEAT_SHARE {
                recent[(r >> 32) as usize % recent.len()]
            } else {
                let op = cursor % POOL;
                cursor += 1;
                recent.push(op);
                if recent.len() > REPEAT_WINDOW {
                    recent.remove(0);
                }
                op
            }
        })
        .collect()
}

/// One request's fate, as the client saw it.
struct Sample {
    /// Milliseconds from when it was due to its terminal outcome; failed
    /// and shed requests count as taking the deadline.
    latency_ms: f64,
    /// Milliseconds from its due time to when the generator submitted it.
    lag_ms: f64,
    /// Delivered a result.
    ok: bool,
    /// The server's account of it (absent for sheds).
    meta: Option<ResponseMeta>,
}

/// What one phase produced.
struct Phase {
    samples: Vec<Sample>,
    /// Seconds from the phase's first due time to its last delivery.
    wall_s: f64,
    corrupted: u64,
}

/// Sends `ops` at `rps` from this thread while a collector thread waits for
/// each response and checks it against its golden.
fn drive(server: &Server, inputs: &Inputs, ops: &[usize], rps: f64) -> Phase {
    let deadline_ms = ServerConfig::default().default_deadline.as_secs_f64() * 1e3;
    let (tx, rx) = mpsc::channel::<(Ticket, usize, f64, f64)>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut samples = Vec::new();
            let mut corrupted = 0;
            let mut end = 0.0f64;
            for (ticket, idx, due_s, lag_ms) in rx {
                let resp = ticket.wait();
                let latency_ms = lag_ms + resp.meta.total_ms;
                let ok = match &resp.result {
                    Ok(out) => {
                        corrupted += u64::from(!matches_golden(out, &inputs.goldens[idx]));
                        end = end.max(due_s + latency_ms / 1e3);
                        true
                    }
                    Err(_) => false,
                };
                samples.push(Sample {
                    latency_ms: if ok {
                        latency_ms
                    } else {
                        deadline_ms.max(latency_ms)
                    },
                    lag_ms,
                    ok,
                    meta: Some(resp.meta),
                });
            }
            (samples, corrupted, end)
        });
        let mut shed = Vec::new();
        for (k, &idx) in ops.iter().enumerate() {
            let due_s = k as f64 / rps;
            let now = start.elapsed().as_secs_f64();
            if due_s > now {
                std::thread::sleep(Duration::from_secs_f64(due_s - now));
            }
            let lag_ms = (start.elapsed().as_secs_f64() - due_s).max(0.0) * 1e3;
            match server.submit_opts(inputs.pool[idx].clone(), SubmitOpts::default()) {
                Ok(t) => tx
                    .send((t, idx, due_s, lag_ms))
                    .expect("collector outlives the generator"),
                Err(_) => shed.push(Sample {
                    latency_ms: deadline_ms,
                    lag_ms,
                    ok: false,
                    meta: None,
                }),
            }
        }
        drop(tx);
        let (mut samples, corrupted, end) = collector.join().expect("collector thread panicked");
        samples.extend(shed);
        Phase {
            samples,
            wall_s: end,
            corrupted,
        }
    })
}

/// The measured part of a run: warm-up, nominal phase, overload bursts,
/// each burst with the reference round seconds around it.
struct Traffic {
    warm: Phase,
    nominal: Phase,
    bursts: Vec<(Phase, f64)>,
    snapshot: outerspace_serve::Snapshot,
}

impl Traffic {
    fn phases(&self) -> impl Iterator<Item = &Phase> {
        [&self.warm, &self.nominal]
            .into_iter()
            .chain(self.bursts.iter().map(|(p, _)| p))
    }
}

/// Drives the warm-up, the nominal phase and the bursts; `between` runs
/// after the nominal phase, while the server idles.
fn traffic(
    cfg: &RunCfg,
    inputs: &Inputs,
    server: Server,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Traffic, String> {
    let n_nominal = (NOMINAL_RPS * cfg.seconds * NOMINAL_SHARE).ceil() as usize;
    let n_bursts = (cfg.seconds * (1.0 - NOMINAL_SHARE) / BURST_PERIOD_S).ceil() as usize;
    let ops = schedule(cfg.seed, WARMUP + n_nominal + n_bursts * BURST);
    let warm = drive(&server, inputs, &ops[..WARMUP], NOMINAL_RPS);
    let nominal = drive(
        &server,
        inputs,
        &ops[WARMUP..WARMUP + n_nominal],
        NOMINAL_RPS,
    );
    between()?;
    let mut host = Reference::new();
    let start = Instant::now();
    let bursts = ops[WARMUP + n_nominal..]
        .chunks(BURST)
        .enumerate()
        .map(|(b, burst)| {
            let due = Duration::from_secs_f64(b as f64 * BURST_PERIOD_S);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let (phase, _, round) =
                host.around(|| drive(&server, inputs, burst, OVERLOAD_RPS));
            (phase, round)
        })
        .collect();
    Ok(Traffic {
        warm,
        nominal,
        bursts,
        snapshot: server.shutdown(),
    })
}

/// Starts a server on fresh inputs `SETUP_REPS` times, adding the set-up
/// seconds of each to `setups`, and returns the last set-up (the others
/// are shut down).
fn timed_setups(
    cfg: &RunCfg,
    host: &mut Reference,
    setups: &mut Scaled,
) -> Result<(Inputs, Server), String> {
    let mut ready: Option<(Inputs, Server)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, old)) = ready.take() {
            old.shutdown();
        }
        let (r, s, round) = host.around(|| {
            setup(cfg.seed, &mut Tracer::new())
                .map(|i| (i, Server::start(server_config(cfg.threads))))
        });
        ready = Some(r?);
        setups.push(s, round);
    }
    Ok(ready.expect("SETUP_REPS > 0"))
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failure.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut host = Reference::new();
    let mut setups = Scaled::default();
    let (inputs, server) = timed_setups(cfg, &mut host, &mut setups)?;
    if cfg.trace {
        server.shutdown();
        return traced(cfg, &inputs, out);
    }

    let mut more_setups = || {
        let (_, server) = timed_setups(cfg, &mut host, &mut setups)?;
        server.shutdown();
        Ok(())
    };
    let tr = traffic(cfg, &inputs, server, &mut more_setups)?;
    more_setups()?;
    check_traffic(&tr, &mut out);
    let lat: Vec<f64> = tr.nominal.samples.iter().map(|s| s.latency_ms).collect();
    let lag: Vec<f64> = tr.nominal.samples.iter().map(|s| s.lag_ms).collect();
    // Each burst's p50 and p90 latency and its goodput (deliveries over
    // its first due time to its last delivery), taken to the reference
    // speed by the rounds around it; the metrics are their medians over
    // the bursts, so that a burst the host stalled sets none of them
    // (README.md, "Steadiness").
    let mut walls = Scaled::default();
    let mut delivered = 0;
    let (mut p50s, mut p90s, mut goodputs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_p50s, mut raw_p90s) = (Vec::new(), Vec::new());
    for (b, round) in &tr.bursts {
        walls.push(b.wall_s, *round);
        let to_reference = REFERENCE_ROUND_S / round;
        let v: Vec<f64> = b.samples.iter().map(|s| s.latency_ms).collect();
        raw_p50s.push(median(&v));
        raw_p90s.push(percentile(&v, 0.9));
        p50s.push(median(&v) * to_reference);
        p90s.push(percentile(&v, 0.9) * to_reference);
        let ok = b.samples.iter().filter(|s| s.ok).count();
        delivered += ok;
        goodputs.push(ok as f64 / b.wall_s.max(1e-9) / to_reference);
    }
    out.set("primary_ms", median(&p50s));
    out.set("secondary_ms", median(&p90s));
    let raw_goodput = delivered as f64 / walls.raw().iter().sum::<f64>().max(1e-9);
    let goodput = median(&goodputs);
    out.check(raw_goodput < 0.5 * OVERLOAD_RPS, || {
        format!(
            "goodput {raw_goodput:.1} rps is not well below the {OVERLOAD_RPS} rps bursts: they no longer overload the server"
        )
    });
    out.set("throughput_per_s", goodput);
    out.set("ok_frac", 1.0 - out.failed as f64 / out.attempted as f64);
    out.set("setup_s", setups.mean());
    out.notes.push(format!(
        "serve nominal {NOMINAL_RPS} rps: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms over {} requests ({} beyond p99); generator lag p50 {:.3} ms, max {:.3} ms",
        median(&lat),
        percentile(&lat, 0.9),
        percentile(&lat, 0.99),
        lat.len(),
        lat.len() / 100,
        median(&lag),
        percentile(&lag, 1.0),
    ));
    out.notes.push(format!(
        "serve reference round ms p50 {:.3} around the bursts",
        median(walls.rounds()) * 1e3,
    ));
    let served: Vec<&Sample> = tr.bursts.iter().flat_map(|(b, _)| &b.samples).collect();
    let degraded = served
        .iter()
        .filter(|s| s.meta.as_ref().is_some_and(|m| m.degraded))
        .count();
    let hits = served
        .iter()
        .filter(|s| s.meta.as_ref().is_some_and(|m| m.cache_hit))
        .count();
    out.notes.push(format!(
        "serve overload: {} bursts of {BURST} at {OVERLOAD_RPS} rps; goodput {raw_goodput:.1} rps as measured; burst latency as measured, median over the bursts: p50 {:.3} ms, p90 {:.3} ms; {degraded} of {} requests on the degraded tier, {hits} cache hits",
        tr.bursts.len(),
        median(&raw_p50s),
        median(&raw_p90s),
        served.len(),
    ));
    out.notes.push(format!(
        "serve set-ups: {}, ms p10 {:.3} p50 {:.3}",
        setups.len(),
        percentile(setups.raw(), 0.1) * 1e3,
        median(setups.raw()) * 1e3,
    ));
    Ok(out)
}

/// Counts outcomes and applies the output checks: every delivery matches
/// its golden, and the server's two accounting identities hold.
fn check_traffic(tr: &Traffic, out: &mut Outcome) {
    let mut sent = 0;
    for ph in tr.phases() {
        sent += ph.samples.len() as u64;
        out.attempted += ph.samples.len() as u64;
        out.failed += ph.samples.iter().filter(|s| !s.ok).count() as u64;
        out.check(ph.corrupted == 0, || {
            format!("{} deliveries differ from their goldens", ph.corrupted)
        });
    }
    out.check(tr.snapshot.accounted_ok(), || {
        "server accounting identity broken".into()
    });
    out.check(tr.snapshot.delivery_accounted_ok(), || {
        "server delivery identity broken".into()
    });
    out.check(tr.snapshot.submitted == sent, || {
        format!(
            "server saw {} submissions, client sent {sent}",
            tr.snapshot.submitted
        )
    });
}

/// Stage replay: each pool op through the stages a worker runs — route,
/// compute (on the classifier's kernel and on the degraded tier's), verify,
/// cache key — under spans when `t` is given. Returns the seconds spent in
/// the stages; the golden comparisons run under `bench.check` spans.
fn replay(inputs: &Inputs, mut t: Option<&mut Tracer>, out: &mut Outcome) -> f64 {
    let classifier = Classifier::new(server_config(1).sim_nnz_cap);
    let policy = VerifyPolicy::default();
    let mut busy = 0.0;
    let mut stage = |name: &str, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        match t.as_deref_mut() {
            Some(t) => t.span(name, |_| f()),
            None => f(),
        }
        if !name.starts_with("bench.") {
            busy += t0.elapsed().as_secs_f64();
        }
    };
    for (i, op) in inputs.pool.iter().enumerate() {
        for degraded in [false, true] {
            let mut route = None;
            stage("serve.route", &mut || {
                route = Some(classifier.route(op, degraded))
            });
            let route = route.expect("route ran");
            let mut res = None;
            stage(&format!("serve.compute.{}", route.kernel), &mut || {
                res = Some(kernels::run_op(route.kernel, op, &route.sim_config));
            });
            let Some(Ok(got)) = res else {
                out.check(false, || format!("op {i}: kernel {} failed", route.kernel));
                continue;
            };
            let mut verified = false;
            let vcfg = verifier::config_for(&policy, i as u64 + 1);
            stage("serve.verify", &mut || {
                verified = verifier::check(op, &got, &vcfg).is_ok()
            });
            stage("bench.check", &mut || {
                out.check(verified, || {
                    format!("op {i}: {} result failed verification", route.kernel)
                });
                out.check(matches_golden(&got, &inputs.goldens[i]), || {
                    format!("op {i}: {} result differs from golden", route.kernel)
                });
            });
        }
        stage("serve.cache_key", &mut || {
            std::hint::black_box(op_material(op));
        });
    }
    busy
}

/// Runs the traffic again, reading each response's server-side account,
/// then replays the pool's stages untraced and traced.
fn traced(cfg: &RunCfg, inputs: &Inputs, mut out: Outcome) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    let fresh = setup(cfg.seed, &mut t)?;
    out.check(fresh.goldens == inputs.goldens, || {
        "regenerated pool differs".into()
    });
    let tr = traffic(
        cfg,
        inputs,
        Server::start(server_config(cfg.threads)),
        &mut || Ok(()),
    )?;
    check_traffic(&tr, &mut out);

    // Queue and service time where the latency metrics are taken (the
    // nominal phase); the degraded share where the goodput is (overload).
    let metas = |p: &Phase| -> Vec<ResponseMeta> {
        p.samples
            .iter()
            .filter(|s| s.ok)
            .filter_map(|s| s.meta.clone())
            .collect()
    };
    let nominal = metas(&tr.nominal);
    let overload: Vec<ResponseMeta> = tr.bursts.iter().flat_map(|(p, _)| metas(p)).collect();
    let queue: Vec<f64> = nominal.iter().map(|m| m.queue_ms).collect();
    let service: Vec<f64> = nominal.iter().map(|m| m.total_ms - m.queue_ms).collect();
    let lag: Vec<f64> = tr.nominal.samples.iter().map(|s| s.lag_ms).collect();
    let share = |ms: &[&ResponseMeta], f: &dyn Fn(&ResponseMeta) -> bool| {
        ms.iter().filter(|m| f(m)).count() as f64 / ms.len().max(1) as f64
    };
    let all: Vec<&ResponseMeta> = nominal.iter().chain(&overload).collect();
    let over: Vec<&ResponseMeta> = overload.iter().collect();
    out.set("serve.queue_ms.p50", median(&queue));
    out.set("serve.queue_ms.p90", percentile(&queue, 0.9));
    out.set("serve.service_ms.p50", median(&service));
    out.set("serve.service_ms.p90", percentile(&service, 0.9));
    out.set("serve.gen_lag_ms.p90", percentile(&lag, 0.9));
    out.set("serve.cache_hit_ratio", share(&all, &|m| m.cache_hit));
    out.set("serve.verified_ratio", share(&all, &|m| m.verified));
    out.set("serve.degraded_ratio", share(&over, &|m| m.degraded));
    out.set("serve.retries", tr.snapshot.retries as f64);
    out.set("serve.shed", tr.snapshot.rejected() as f64);

    let mut untraced = Vec::new();
    for _ in 0..TRACE_REPLAYS {
        untraced.push(replay(inputs, None, &mut out));
        t.span("bench.replay", |t| replay(inputs, Some(t), &mut out));
    }
    let ms = |name: &str| median(&t.durations(name)) * 1e3;
    for name in ["route", "verify", "cache_key"] {
        out.set(&format!("serve.{name}_ms"), ms(&format!("serve.{name}")));
    }
    for k in ["sim", "sim_spmv", CHEAPEST_SPGEMM, CHEAPEST_SPMV] {
        out.set(
            &format!("serve.compute_ms.{k}"),
            ms(&format!("serve.compute.{k}")),
        );
    }
    report_layers(
        &mut out,
        &t,
        "bench.replay",
        TRACE_REPLAYS,
        &["gen"],
        median(&untraced),
    );
    crate::trace::finish(cfg, "serve-mixed", &t, &mut out);
    Ok(out)
}
