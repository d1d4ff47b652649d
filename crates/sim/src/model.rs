//! The machine-model abstraction: which phase kernels run, in what order,
//! with which memory scripts.
//!
//! [`Simulator`](crate::Simulator) and the DSE executor do not hard-wire
//! the OuterSPACE pipeline any more — they ask [`for_kind`] for a
//! [`MachineModel`] and run whatever phase sequence it owns. Two machines
//! are implemented:
//!
//! - [`MachineKind::OuterSpace`]: format conversion (charged for
//!   asymmetric operands), tiled outer-product multiply into the chunked
//!   intermediate, streaming multi-way merge — the original pipeline,
//!   retrofitted with **zero drift** against the pinned golden cycle counts
//!   (`tests/golden_cycles.rs` asserts the pins byte-for-byte).
//! - [`MachineKind::SpArch`]: condensed multiply + pipelined merge tree
//!   (see [`crate::phases::sparch`]). No conversion phase exists — SpArch
//!   streams CSR `A` directly; that saving is part of the design's win and
//!   shows up as `convert: None` in every report.
//!
//! A model reads one structural plan ([`crate::plan`]) and computes no
//! values: it returns an [`SpgemmPipeline`] — the result's non-zero count,
//! phase stats, and per-class [`CycleBreakdown`]s — so callers can build
//! [`SimReport`](crate::SimReport)s, energy estimates, and utilization
//! plots without knowing which machine ran. Callers that want the numeric
//! product compute it themselves, once, whichever machine is timed
//! ([`Simulator`](crate::Simulator) does).

use outerspace_outer as outer;
use outerspace_sparse::{Csc, Csr};

use crate::config::{MachineKind, OuterSpaceConfig};
use crate::engine::CycleBreakdown;
use crate::error::SimError;
use crate::phases::merge::RowMergeInfo;
use crate::phases::{convert, merge, multiply, sparch};
use crate::plan;
use crate::stats::PhaseStats;

/// Everything one SpGEMM timing run through a machine model produces:
/// per-phase timing and attribution, plus the result's size.
#[derive(Debug, Clone)]
pub struct SpgemmPipeline {
    /// Non-zeros of the product `C = A × B` (from structure).
    pub result_nnz: u64,
    /// Conversion-phase stats, when the machine charged one.
    pub convert: Option<PhaseStats>,
    /// Multiply-phase stats.
    pub multiply: PhaseStats,
    /// Merge-phase stats.
    pub merge: PhaseStats,
    /// Cycle attribution for the multiply-phase PE class.
    pub multiply_breakdown: CycleBreakdown,
    /// Cycle attribution for the merge-phase PE class.
    pub merge_breakdown: CycleBreakdown,
}

/// A machine model: owns the phase pipeline (which kernels run, in what
/// order, with which memory scripts) for one simulated design.
///
/// Operand shapes must already be validated (`a.ncols() == b.nrows()`) for
/// every method.
pub trait MachineModel: std::fmt::Debug + Sync {
    /// Which machine this is.
    fn kind(&self) -> MachineKind;

    /// Times the pipeline with `A` at hand in both formats (`a_cc` is the
    /// CC form of `a`). `charge_convert` says whether the run pays the
    /// CR → CC conversion; a machine without a conversion phase ignores it.
    ///
    /// # Errors
    ///
    /// Fault injection only: every PE dead, an access out of retries, or a
    /// watchdog timeout ([`SimError`]).
    fn spgemm_prepared(
        &self,
        cfg: &OuterSpaceConfig,
        a: &Csr,
        a_cc: &Csc,
        b: &Csr,
        charge_convert: bool,
    ) -> Result<SpgemmPipeline, SimError>;

    /// Times the pipeline on CR operands, charging whatever preprocessing
    /// the machine needs (OuterSPACE: format conversion for asymmetric
    /// `A`, as §7.1 does; SpArch: nothing).
    ///
    /// # Errors
    ///
    /// As [`MachineModel::spgemm_prepared`].
    fn spgemm(&self, cfg: &OuterSpaceConfig, a: &Csr, b: &Csr)
        -> Result<SpgemmPipeline, SimError> {
        let (a_cc, conv) = outer::csr_to_csc_via_outer(a);
        self.spgemm_prepared(cfg, a, &a_cc, b, !conv.skipped_symmetric)
    }
}

/// The OuterSPACE pipeline (§4–§5 of the paper).
#[derive(Debug)]
pub struct OuterSpaceModel;

impl MachineModel for OuterSpaceModel {
    fn kind(&self) -> MachineKind {
        MachineKind::OuterSpace
    }

    fn spgemm_prepared(
        &self,
        cfg: &OuterSpaceConfig,
        a: &Csr,
        a_cc: &Csc,
        b: &Csr,
        charge_convert: bool,
    ) -> Result<SpgemmPipeline, SimError> {
        // §7.1: conversion is charged for non-symmetric matrices to model
        // the worst case; symmetric operands already are their own CC form.
        let convert =
            if charge_convert { Some(convert::simulate_convert(cfg, a)?) } else { None };
        let (multiply, intermediate, multiply_breakdown) =
            multiply::simulate_multiply_with_breakdown(cfg, a_cc, b)?;
        // Per-row merge shapes: chunk lengths from the multiply layout,
        // output lengths from pattern unions.
        let out_lens = plan::row_out_lens(a, b)?;
        let rows: Vec<RowMergeInfo> = (0..intermediate.nrows())
            .map(|i| {
                let produced: u64 =
                    intermediate.row(i).iter().map(|ch| ch.len as u64).sum();
                let out = out_lens[i as usize];
                RowMergeInfo {
                    out_len: out as u32,
                    collisions: produced.saturating_sub(out) as u32,
                }
            })
            .collect();
        let (merge, merge_breakdown) =
            merge::simulate_merge_with_breakdown(cfg, &intermediate, &rows)?;
        Ok(SpgemmPipeline {
            result_nnz: out_lens.iter().sum(),
            convert,
            multiply,
            merge,
            multiply_breakdown,
            merge_breakdown,
        })
    }
}

/// The SpArch-analog pipeline: condensed multiply + Huffman-scheduled merge
/// tree (see `crate::phases::sparch` and PAPERS.md).
#[derive(Debug)]
pub struct SpArchModel;

impl SpArchModel {
    fn run(&self, cfg: &OuterSpaceConfig, a: &Csr, b: &Csr) -> Result<SpgemmPipeline, SimError> {
        // The dataflow the timing models replay: leaf stream sizes plus
        // the Huffman merge schedule, from structure alone.
        let plan = plan::sparch_plan(a, b, cfg.merge_tree_ways as usize)?;
        let condensed = outer::condense(a);
        let (multiply, multiply_breakdown) =
            sparch::simulate_condensed_multiply(cfg, &condensed, b, &plan)?;
        let (merge, merge_breakdown) = sparch::simulate_merge_tree(cfg, &plan)?;
        Ok(SpgemmPipeline {
            result_nnz: plan.result_nnz,
            convert: None,
            multiply,
            merge,
            multiply_breakdown,
            merge_breakdown,
        })
    }
}

impl MachineModel for SpArchModel {
    fn kind(&self) -> MachineKind {
        MachineKind::SpArch
    }

    // SpArch condenses CSR `A` directly: the CC form is never read, and no
    // phase is charged for it either way.
    fn spgemm_prepared(
        &self,
        cfg: &OuterSpaceConfig,
        a: &Csr,
        _a_cc: &Csc,
        b: &Csr,
        _charge_convert: bool,
    ) -> Result<SpgemmPipeline, SimError> {
        self.run(cfg, a, b)
    }

    fn spgemm(
        &self,
        cfg: &OuterSpaceConfig,
        a: &Csr,
        b: &Csr,
    ) -> Result<SpgemmPipeline, SimError> {
        self.run(cfg, a, b)
    }
}

static OUTERSPACE_MODEL: OuterSpaceModel = OuterSpaceModel;
static SPARCH_MODEL: SpArchModel = SpArchModel;

/// The machine model for `kind`.
pub fn for_kind(kind: MachineKind) -> &'static dyn MachineModel {
    match kind {
        MachineKind::OuterSpace => &OUTERSPACE_MODEL,
        MachineKind::SpArch => &SPARCH_MODEL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::uniform;
    use outerspace_sparse::ops;

    #[test]
    fn both_machines_compute_the_same_product() {
        let a = uniform::matrix(96, 96, 900, 31);
        let b = uniform::matrix(96, 96, 900, 32);
        let want = ops::spgemm_reference(&a, &b).unwrap();
        for kind in [MachineKind::OuterSpace, MachineKind::SpArch] {
            let cfg = OuterSpaceConfig { machine: kind, ..OuterSpaceConfig::default() };
            let model = for_kind(kind);
            assert_eq!(model.kind(), kind);
            let pipe = model.spgemm(&cfg, &a, &b).unwrap();
            assert_eq!(pipe.result_nnz, want.nnz() as u64, "{kind} result size diverged");
            let (c, _) = crate::Simulator::new(cfg).unwrap().spgemm(&a, &b).unwrap();
            assert!(c.approx_eq(&want, 1e-9), "{kind} product diverged");
            assert!(pipe.multiply.cycles > 0);
            assert!(pipe.merge.cycles > 0);
        }
    }

    #[test]
    fn sparch_never_charges_conversion() {
        let a = uniform::matrix(64, 64, 500, 33);
        let cfg = OuterSpaceConfig::default();
        let pipe = for_kind(MachineKind::SpArch).spgemm(&cfg, &a, &a).unwrap();
        assert!(pipe.convert.is_none());
        // OuterSPACE charges it for the same (asymmetric) operand.
        let pipe = for_kind(MachineKind::OuterSpace).spgemm(&cfg, &a, &a).unwrap();
        assert!(pipe.convert.is_some());
    }

    #[test]
    fn preconverted_paths_agree_with_direct_runs() {
        let a = uniform::matrix(64, 64, 450, 34);
        let b = uniform::matrix(64, 64, 450, 35);
        let cfg = OuterSpaceConfig::default();
        for kind in [MachineKind::OuterSpace, MachineKind::SpArch] {
            let model = for_kind(kind);
            let direct = model.spgemm(&cfg, &a, &b).unwrap();
            let pre = model.spgemm_prepared(&cfg, &a, &a.to_csc(), &b, false).unwrap();
            assert!(pre.convert.is_none());
            assert_eq!(pre.result_nnz, direct.result_nnz);
            assert_eq!(pre.multiply, direct.multiply);
            assert_eq!(pre.merge, direct.merge);
        }
    }

    #[test]
    fn breakdown_classes_identify_the_machine() {
        let a = uniform::matrix(64, 64, 500, 36);
        let cfg = OuterSpaceConfig::default();
        let o = for_kind(MachineKind::OuterSpace).spgemm(&cfg, &a, &a).unwrap();
        assert_eq!(o.multiply_breakdown.pe_class, "tile_pe");
        assert_eq!(o.merge_breakdown.pe_class, "merge_worker");
        let s = for_kind(MachineKind::SpArch).spgemm(&cfg, &a, &a).unwrap();
        assert_eq!(s.multiply_breakdown.pe_class, "mul_pe");
        assert_eq!(s.merge_breakdown.pe_class, "merge_tree");
    }
}
