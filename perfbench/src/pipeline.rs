//! Phase-by-phase replay of `Simulator::spgemm` under spans.
//!
//! Calls the same public functions, in the same order and with the same
//! arguments, as `outerspace_sim::model`'s two machine models, so the
//! replayed report must equal the one `Simulator::spgemm` returns; the
//! callers assert that it does.

use outerspace_outer as outer;
use outerspace_sim::phases::merge::RowMergeInfo;
use outerspace_sim::phases::{convert, merge, multiply, sparch};
use outerspace_sim::{MachineKind, OuterSpaceConfig, SimError, SimReport};
use outerspace_sparse::Csr;

use crate::trace::Tracer;

/// What one replayed SpGEMM produced.
#[derive(Debug)]
pub struct Replay {
    /// The functional product.
    pub c: Csr,
    /// The timing report.
    pub report: SimReport,
    /// Elementary products of the functional multiply.
    pub flops: u64,
    /// Chunks the outer-product multiply emitted (0 on SpArch).
    pub chunks: u64,
}

/// Replays `C = A × B` on `cfg`'s machine, one span per phase call, all
/// inside a `sim.pipeline` span.
///
/// # Errors
///
/// What the phase functions return (fault injection or a shape mismatch).
pub fn traced_spgemm(
    t: &mut Tracer,
    cfg: &OuterSpaceConfig,
    a: &Csr,
    b: &Csr,
) -> Result<Replay, SimError> {
    t.span("sim.pipeline", |t| match cfg.machine {
        MachineKind::OuterSpace => outerspace(t, cfg, a, b),
        MachineKind::SpArch => sparch_analog(t, cfg, a, b),
    })
}

fn outerspace(
    t: &mut Tracer,
    cfg: &OuterSpaceConfig,
    a: &Csr,
    b: &Csr,
) -> Result<Replay, SimError> {
    let (a_cc, conv) = t.span("outer.convert", |_| outer::csr_to_csc_via_outer(a));
    let convert = if conv.skipped_symmetric {
        None
    } else {
        Some(t.span("sim.convert", |_| convert::simulate_convert(cfg, a))?)
    };
    let (pp, mstats) = t.span("outer.multiply", |_| outer::multiply(&a_cc, b))?;
    let (c, _) = t.span("outer.merge", |_| {
        outer::merge(pp, outer::MergeKind::Streaming)
    });
    let (multiply, layout, _) = t.span("sim.multiply", |_| {
        multiply::simulate_multiply_with_breakdown(cfg, &a_cc, b)
    })?;
    // Per-row merge shapes, exactly as the OuterSPACE model derives them.
    let rows: Vec<RowMergeInfo> = (0..layout.nrows())
        .map(|i| {
            let produced: u64 = layout.row(i).iter().map(|ch| ch.len as u64).sum();
            let out = c.row_nnz(i) as u64;
            RowMergeInfo {
                out_len: out as u32,
                collisions: produced.saturating_sub(out) as u32,
            }
        })
        .collect();
    let (merge, _) = t.span("sim.merge", |_| {
        merge::simulate_merge_with_breakdown(cfg, &layout, &rows)
    })?;
    Ok(Replay {
        c,
        report: SimReport {
            convert,
            multiply,
            merge,
            config: cfg.clone(),
        },
        flops: mstats.elementary_products,
        chunks: mstats.chunks,
    })
}

fn sparch_analog(
    t: &mut Tracer,
    cfg: &OuterSpaceConfig,
    a: &Csr,
    b: &Csr,
) -> Result<Replay, SimError> {
    let (c, plan) = t.span("outer.sparch_plan", |_| {
        outer::spgemm_sparch_with_plan(a, b, cfg.merge_tree_ways as usize)
    })?;
    let condensed = t.span("outer.condense", |_| outer::condense(a));
    let (multiply, _) = t.span("sim.condensed_multiply", |_| {
        sparch::simulate_condensed_multiply(cfg, &condensed, b, &plan)
    })?;
    let (merge, _) = t.span("sim.merge_tree", |_| {
        sparch::simulate_merge_tree(cfg, &plan)
    })?;
    Ok(Replay {
        c,
        report: SimReport {
            convert: None,
            multiply,
            merge,
            config: cfg.clone(),
        },
        flops: plan.total_products(),
        chunks: 0,
    })
}

/// Adds one replay's simulated counters to the tracer's counts.
pub fn count_report(t: &mut Tracer, r: &Replay) {
    let phases = r
        .report
        .convert
        .iter()
        .chain([&r.report.multiply, &r.report.merge]);
    for p in phases {
        t.count("sim.work_items", p.work_items as f64);
        t.count("sim.hbm_bytes", p.hbm_bytes() as f64);
        t.count("sim.l0_hits", p.l0_hits as f64);
        t.count("sim.l0_lookups", (p.l0_hits + p.l0_misses) as f64);
        t.count("sim.l1_hits", p.l1_hits as f64);
        t.count("sim.l1_lookups", (p.l1_hits + p.l1_misses) as f64);
    }
    t.count("sim.cycles", r.report.total_cycles() as f64);
    t.count("outer.flops", r.flops as f64);
    t.count("outer.chunks", r.chunks as f64);
}
