//! `sim-sparse`: `Simulator::spgemm` computes C = A×A with the default
//! config on both machine models, over the Table 4 stand-ins `roadNet-CA`
//! (`/128`, 2.8 nnz/row) and `m133-b3` (`/16`, 4 nnz/row).
//!
//! Few flops per non-zero put the host time in the engine and the memory
//! timing model rather than the functional path, so this is the workload a
//! faster engine or memory model shows on.

use outerspace_gen::suite;
use outerspace_outer as outer;
use outerspace_sim::{MachineKind, OuterSpaceConfig, SimError, SimReport, Simulator};
use outerspace_sparse::Csr;

use crate::pipeline;
use crate::stats::{median, percentile, timed, Reference, Scaled};
use crate::trace::Tracer;
use crate::{report_layers, split_seed, Outcome, RunCfg};

/// The Table 4 stand-ins and their scale divisors.
pub const MATRICES: &[(&str, u32)] = &[("roadNet-CA", 128), ("m133-b3", 16)];
/// Both machine models, each at its default config.
pub const MACHINES: &[MachineKind] = &[MachineKind::OuterSpace, MachineKind::SpArch];
/// Passes measured at least, however short `--seconds` is.
const MIN_PASSES: usize = 12;
/// A parallel batch runs after every this many serial passes.
const PAR_EVERY: usize = 3;
/// Most simulations a parallel batch runs at once.
const MAX_PAR: usize = 4;
/// Traced passes, and untraced passes they are compared with.
const TRACE_PASSES: usize = 5;

/// One simulated SpGEMM of the set.
pub struct Cell {
    /// Matrix name.
    pub matrix: &'static str,
    /// The simulator, at the default config of its machine.
    pub sim: Simulator,
    /// Index into [`Inputs::mats`].
    pub mat: usize,
}

/// The generated inputs and their software goldens.
pub struct Inputs {
    /// `(A, A×A by outer::spgemm_blocked)` per entry of [`MATRICES`].
    pub mats: Vec<(Csr, Csr)>,
    /// Every matrix × machine pair.
    pub cells: Vec<Cell>,
}

/// Generates the matrices for `seed`.
///
/// # Errors
///
/// A stand-in missing from Table 4.
pub fn generate(seed: u64) -> Result<Vec<Csr>, String> {
    MATRICES
        .iter()
        .enumerate()
        .map(|(i, (name, scale))| {
            let e = suite::by_name(name).ok_or_else(|| format!("'{name}' is not in Table 4"))?;
            Ok(e.generate_scaled(*scale, split_seed(seed, i as u64)))
        })
        .collect()
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let mut mats = Vec::new();
    for a in generate(seed)? {
        let (golden, _) = outer::spgemm_blocked(&a, &a).map_err(|e| e.to_string())?;
        mats.push((a, golden));
    }
    let mut cells = Vec::new();
    for (mat, (matrix, _)) in MATRICES.iter().enumerate() {
        for &machine in MACHINES {
            let sim = Simulator::new(OuterSpaceConfig {
                machine,
                ..Default::default()
            })
            .map_err(|e| e.to_string())?;
            cells.push(Cell { matrix, sim, mat });
        }
    }
    Ok(Inputs { mats, cells })
}

/// The simulated reports of one pass, one per cell: what the same seed
/// must reproduce exactly.
///
/// # Errors
///
/// Set-up or simulation failure.
pub fn reference_reports(seed: u64) -> Result<Vec<SimReport>, String> {
    let inputs = setup(seed)?;
    inputs
        .cells
        .iter()
        .map(|c| {
            let a = &inputs.mats[c.mat].0;
            c.sim
                .spgemm(a, a)
                .map(|(_, r)| r)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The product must equal the software golden: bit for bit on OuterSPACE,
/// whose merge sums in the golden's order; within 1e-9 on the SpArch
/// analog, whose merge tree sums in another order.
fn matches_golden(kind: MachineKind, c: &Csr, golden: &Csr) -> bool {
    match kind {
        MachineKind::OuterSpace => c == golden,
        MachineKind::SpArch => c.approx_eq(golden, 1e-9),
    }
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
    let (inputs, s, round) = host.around(|| setup(cfg.seed));
    let inputs = inputs?;
    setups.push(s, round);

    // Warm-up pass: the reference reports every later pass must repeat.
    let mut reference = Vec::new();
    for c in &inputs.cells {
        let (a, golden) = &inputs.mats[c.mat];
        let (prod, rep) = c
            .sim
            .spgemm(a, a)
            .map_err(|e| format!("{}: {e}", c.matrix))?;
        out.check(
            matches_golden(c.sim.config().machine, &prod, golden),
            || {
                format!(
                    "{} on {}: product differs from spgemm_blocked",
                    c.matrix,
                    c.sim.config().machine
                )
            },
        );
        reference.push(rep);
    }

    if cfg.trace {
        traced(cfg, &inputs, &reference, &mut out);
        return Ok(out);
    }

    // Serial passes, each followed by a set-up (so set-up times sample the
    // host over the whole run) and every `PAR_EVERY`-th by a parallel batch,
    // each such unit between two probes of the host.
    let par = cfg.threads.clamp(1, MAX_PAR);
    let mut batch_hosts: Vec<Reference> = (0..par).map(|_| Reference::new()).collect();
    let mut per_machine: Vec<Scaled> = vec![Scaled::default(); MACHINES.len()];
    let mut par_passes = Scaled::default();
    let mut passes = Vec::new();
    let started = std::time::Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < cfg.seconds {
        let with_batch = (passes.len() + 1).is_multiple_of(PAR_EVERY);
        let (unit, _, round) = host.around(|| -> Result<_, String> {
            let cells = untraced_pass(&inputs, &reference, &mut out);
            let (again, s) = timed(|| setup(cfg.seed));
            again?;
            let batch =
                with_batch.then(|| parallel_batch(&inputs, &reference, &mut batch_hosts, &mut out));
            Ok((cells, s, batch))
        });
        let (cells, s, batch) = unit?;
        for (c, &t) in inputs.cells.iter().zip(&cells) {
            let m = MACHINES.iter().position(|&k| k == c.sim.config().machine);
            per_machine[m.expect("every cell runs on a listed machine")].push(t, round);
        }
        passes.push(cells.iter().sum::<f64>() / cells.len() as f64);
        setups.push(s, round);
        for (wall, round) in batch.into_iter().flatten() {
            par_passes.push(wall, round);
        }
    }
    // Host times at the reference speed (README.md, "Steadiness").
    out.set("primary_ms", per_machine[0].mean() * 1e3);
    out.set("secondary_ms", per_machine[1].mean() * 1e3);
    out.set(
        "throughput_per_s",
        (par * inputs.cells.len()) as f64 / par_passes.mean(),
    );
    out.set("ok_frac", 1.0 - out.failed as f64 / out.attempted as f64);
    out.set("setup_s", setups.mean());
    let q = |xs: &[f64], p: f64| percentile(xs, p) * 1e3;
    out.notes.push(format!(
        "sim-sparse: {} passes of {} simulated SpGEMMs; ms per SpGEMM over passes p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3}",
        passes.len(),
        inputs.cells.len(),
        q(&passes, 0.1),
        q(&passes, 0.25),
        q(&passes, 0.5),
        q(&passes, 0.75),
        q(&passes, 0.9)
    ));
    out.notes.push(format!(
        "sim-sparse: {} passes in parallel batches of {par}, ms per pass p10 {:.3} p50 {:.3}, reference round ms p50 {:.3} beside them; {} set-ups, ms p10 {:.3} p50 {:.3}; reference round ms p50 {:.3} around the serial units",
        par_passes.len(),
        q(par_passes.raw(), 0.1),
        q(par_passes.raw(), 0.5),
        q(par_passes.rounds(), 0.5),
        setups.len(),
        q(setups.raw(), 0.1),
        q(setups.raw(), 0.5),
        q(setups.rounds(), 0.5),
    ));
    Ok(out)
}

/// Checks one simulated cell against the reference report and the golden.
fn check_cell(
    c: &Cell,
    want: &SimReport,
    golden: &Csr,
    res: Result<(Csr, SimReport), SimError>,
    out: &mut Outcome,
) {
    out.attempted += 1;
    match res {
        Ok((prod, rep)) => {
            out.check(rep == *want, || {
                format!("{}: simulated stats changed between passes", c.matrix)
            });
            out.check(
                matches_golden(c.sim.config().machine, &prod, golden),
                || format!("{}: product differs from spgemm_blocked", c.matrix),
            );
        }
        Err(e) => {
            out.failed += 1;
            out.check(false, || format!("{}: {e}", c.matrix));
        }
    }
}

/// One timed pass over every cell; returns each cell's host seconds
/// (checks run outside the timed calls).
fn untraced_pass(inputs: &Inputs, reference: &[SimReport], out: &mut Outcome) -> Vec<f64> {
    let mut times = Vec::new();
    for (c, want) in inputs.cells.iter().zip(reference) {
        let (a, golden) = &inputs.mats[c.mat];
        let (res, dt) = timed(|| c.sim.spgemm(a, a));
        times.push(dt);
        check_cell(c, want, golden, res, out);
    }
    times
}

/// One pass over every cell on each of `hosts.len()` threads at once, each
/// between two probes of the host on its own thread, so a slowdown of one
/// core scales the pass that ran on it; returns each thread's pass
/// seconds and probe seconds (checks run after the batch).
fn parallel_batch(
    inputs: &Inputs,
    reference: &[SimReport],
    hosts: &mut [Reference],
    out: &mut Outcome,
) -> Vec<(f64, f64)> {
    let passes = std::thread::scope(|scope| {
        let workers: Vec<_> = hosts
            .iter_mut()
            .map(|host| {
                scope.spawn(|| {
                    host.around(|| {
                        inputs
                            .cells
                            .iter()
                            .map(|c| {
                                let a = &inputs.mats[c.mat].0;
                                c.sim.spgemm(a, a)
                            })
                            .collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("simulation thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut times = Vec::new();
    for (pass, wall, round) in passes {
        times.push((wall, round));
        for ((c, want), res) in inputs.cells.iter().zip(reference).zip(pass) {
            check_cell(c, want, &inputs.mats[c.mat].1, res, out);
        }
    }
    times
}

/// Replays each cell phase by phase under spans and checks the replay
/// reproduces `Simulator::spgemm` exactly.
fn traced(cfg: &RunCfg, inputs: &Inputs, reference: &[SimReport], out: &mut Outcome) {
    let mut t = Tracer::new();
    let mats = t.span("gen", |_| generate(cfg.seed));
    out.check(
        mats.is_ok_and(|m| m.iter().zip(&inputs.mats).all(|(a, (b, _))| a == b)),
        || "regenerated inputs differ".into(),
    );
    let mut untraced = Vec::new();
    for _ in 0..TRACE_PASSES {
        untraced.push(untraced_pass(inputs, reference, out).iter().sum());
        t.span("bench.pass", |t| {
            for (c, want) in inputs.cells.iter().zip(reference) {
                let (a, golden) = &inputs.mats[c.mat];
                let replay = pipeline::traced_spgemm(t, c.sim.config(), a, a);
                t.span("bench.check", |t| {
                    out.attempted += 1;
                    match replay {
                        Ok(r) => {
                            out.check(r.report == *want, || {
                                format!(
                                    "{} on {}: replayed phases differ from Simulator::spgemm",
                                    c.matrix,
                                    c.sim.config().machine
                                )
                            });
                            out.check(matches_golden(c.sim.config().machine, &r.c, golden), || {
                                format!(
                                    "{}: replayed product differs from spgemm_blocked",
                                    c.matrix
                                )
                            });
                            pipeline::count_report(t, &r);
                        }
                        Err(e) => {
                            out.failed += 1;
                            out.check(false, || format!("{}: replay failed: {e}", c.matrix));
                        }
                    }
                });
            }
        });
    }
    report_layers(
        out,
        &t,
        "bench.pass",
        TRACE_PASSES,
        &["gen"],
        median(&untraced),
    );
    crate::trace::finish(cfg, "sim-sparse", &t, out);
}
