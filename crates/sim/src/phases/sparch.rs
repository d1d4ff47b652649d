//! Timing model of the SpArch-analog pipeline (see PAPERS.md): a condensed
//! outer-product multiply feeding a pipelined comparator-array merge tree.
//!
//! Two kernels ride the shared engine loop:
//!
//! - [`CondensedMultiplyKernel`]: matrix `A` is condensed (each row's
//!   non-zeros pushed left), so no CSC conversion phase exists. One work
//!   item scales one row-of-`B` by one condensed-`A` entry — the same
//!   granularity as the OuterSPACE multiply, but dispatched over the small
//!   multiplier array (`sparch_mul_pes`). When the condensed width fits the
//!   merge tree (`width ≤ merge_tree_ways`), partial products stream
//!   straight into the comparators and never touch DRAM; otherwise every
//!   leaf spills to the intermediate arena, exactly the regime the Huffman
//!   scheduler exists to make cheap.
//! - [`MergeTreeKernel`]: one merge-tree unit replays the
//!   [`SparchPlan`]'s Huffman schedule. Spilled streams are re-read from
//!   DRAM; the comparator array retires [`merge-tree
//!   throughput`](OuterSpaceConfig::merge_tree_throughput) elements per
//!   cycle after a pipeline-depth fill; intermediate runs bounce through
//!   the scratch arena and the final op writes the result matrix.
//!
//! Both kernels carry full [`CycleBreakdown`] attribution and the standard
//! fault hooks (the engine applies PE kills and the memory fault model the
//! same way it does for the OuterSPACE kernels).

use outerspace_outer::{huffman_schedule, CondensedA, SparchPlan};
use outerspace_sparse::Csr;

use crate::config::OuterSpaceConfig;
use crate::engine::{self, Batch, CycleBreakdown, Dispatch, Feedback, PeCtx, PhaseKernel, Step};
use crate::error::SimError;
use crate::layout::{A_PTR_BASE, B_BASE, ELEM_BYTES, INTER_BASE, OUT_BASE, SCRATCH_BASE};
use crate::machine::PeArray;
use crate::mem::MemorySystem;
use crate::stats::PhaseStats;

const MULTIPLY_PHASE: &str = "sparch_multiply";
const MERGE_PHASE: &str = "sparch_merge";

/// Condensed-`A` element data lives at the front of the `A` region, stored
/// column-major in condensed order.
const COND_A_BASE: u64 = crate::layout::A_BASE;

/// One condensed-multiply work item: load a condensed-`A` entry, stream the
/// paired row-of-`B`, multiply, and either stream into the merge tree (no
/// store) or spill the partial to the intermediate arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CondensedItem {
    /// Address of the condensed-`A` entry.
    a_addr: u64,
    /// Base address of the row-of-`B`.
    b_addr: u64,
    /// Length of the row-of-`B` in bytes.
    b_bytes: u64,
    /// Multiply cycles (= row-of-`B` non-zeros).
    macs: u64,
    /// Spill destination in the intermediate arena; `None` when the
    /// partials stream straight into the merge tree.
    spill_addr: Option<u64>,
}

/// Engine kernel for the condensed multiply: one control step per condensed
/// column (the condensed pointer stream) plus one batch of per-entry items.
#[derive(Debug)]
pub(crate) struct CondensedMultiplyKernel<'a> {
    condensed: &'a CondensedA,
    b: &'a Csr,
    spill: bool,
    k: usize,
    a_cursor: u64,
    spill_cursor: u64,
    pending: Option<Vec<CondensedItem>>,
    flops: u64,
    work_items: u64,
}

impl<'a> CondensedMultiplyKernel<'a> {
    /// A kernel over the condensed operand. `spill` mirrors
    /// [`SparchPlan::spilled`]: partials are stored to DRAM only when the
    /// condensed width exceeds the merge tree's arity.
    pub(crate) fn new(condensed: &'a CondensedA, b: &'a Csr, spill: bool) -> Self {
        CondensedMultiplyKernel {
            condensed,
            b,
            spill,
            k: 0,
            a_cursor: COND_A_BASE,
            spill_cursor: INTER_BASE,
            pending: None,
            flops: 0,
            work_items: 0,
        }
    }
}

impl PhaseKernel for CondensedMultiplyKernel<'_> {
    type Item = CondensedItem;

    fn phase(&self) -> &'static str {
        MULTIPLY_PHASE
    }

    fn pe_class(&self) -> &'static str {
        "mul_pe"
    }

    fn dispatch(&self) -> Dispatch {
        Dispatch::PerItem
    }

    fn next(&mut self, _fb: &Feedback) -> Step<CondensedItem> {
        if let Some(items) = self.pending.take() {
            return Step::Batch(Batch { items, min_start: 0 });
        }
        if self.k >= self.condensed.width() {
            return Step::Done;
        }
        let k = self.k;
        self.k += 1;

        let mut items = Vec::with_capacity(self.condensed.col(k).len());
        for e in self.condensed.col(k) {
            let a_addr = self.a_cursor;
            self.a_cursor += ELEM_BYTES;
            let cb = self.b.row_nnz(e.col);
            if cb == 0 {
                continue;
            }
            let b_bytes = cb as u64 * ELEM_BYTES;
            let spill_addr = self.spill.then(|| {
                let addr = self.spill_cursor;
                self.spill_cursor += b_bytes;
                addr
            });
            items.push(CondensedItem {
                a_addr,
                b_addr: B_BASE + self.b.row_ptr()[e.col as usize] as u64 * ELEM_BYTES,
                b_bytes,
                macs: cb as u64,
                spill_addr,
            });
            self.flops += cb as u64;
            self.work_items += 1;
        }
        if !items.is_empty() {
            self.pending = Some(items);
        }
        // The condensed pointer array is the per-column scheduling stream.
        Step::Control { reads: vec![A_PTR_BASE + k as u64 * 8] }
    }

    fn execute(&mut self, item: &CondensedItem, ctx: &mut PeCtx<'_>) {
        ctx.read(item.a_addr);
        ctx.read_stream(item.b_addr, item.b_bytes);
        ctx.compute(item.macs);
        if let Some(addr) = item.spill_addr {
            // Write-no-allocate, posted: the spilled partial cannot leave
            // before its operands arrived.
            ctx.store_stream(addr, item.b_bytes);
        }
        ctx.track_tail();
    }

    fn finish(&mut self, stats: &mut PhaseStats) {
        stats.flops = self.flops;
        stats.work_items = self.work_items;
    }
}

/// One merge-tree step: stream the scheduled inputs through the comparator
/// array and emit the merged run.
#[derive(Debug, Clone)]
pub(crate) struct TreeOpItem {
    /// Spilled input streams to re-read: `(addr, bytes)`.
    reads: Vec<(u64, u64)>,
    /// Total input elements entering the comparators.
    in_elems: u64,
    /// Destination and length of the merged run.
    out_addr: u64,
    out_elems: u64,
}

/// Engine kernel replaying a [`SparchPlan`]'s Huffman schedule on one
/// merge-tree unit.
///
/// The schedule is rebuilt with the planner's own [`huffman_schedule`]
/// over the plan's stream sizes, which places every stream: leaf streams
/// sit in the intermediate arena (when spilled), intermediate runs bounce
/// through the scratch arena, and the final op writes the result matrix.
#[derive(Debug)]
pub(crate) struct MergeTreeKernel {
    /// One item per plan op, in execution order.
    items: std::vec::IntoIter<TreeOpItem>,
    depth: u64,
    throughput: u64,
    flops: u64,
    work_items: u64,
}

impl MergeTreeKernel {
    /// A kernel replaying `plan` at the configured tree arity.
    pub(crate) fn new(cfg: &OuterSpaceConfig, plan: &SparchPlan) -> Self {
        let ways = (cfg.merge_tree_ways as usize).max(2);
        // A stream is its element count and, when it sits in DRAM, its
        // address.
        let mut cursor = INTER_BASE;
        let leaves = plan.leaf_elems.iter().map(|&elems| {
            let addr = plan.spilled.then_some(cursor);
            cursor += elems * ELEM_BYTES;
            (elems, addr)
        });
        let mut ops = plan.ops.iter();
        let mut scratch_cursor = SCRATCH_BASE;
        let mut items = Vec::with_capacity(plan.ops.len());
        huffman_schedule(leaves, ways, |s| s.0, |picked| {
            let op = ops.next().expect("a plan holds one op per scheduled merge");
            let last = ops.len() == 0;
            let in_elems: u64 = picked.iter().map(|s| s.0).sum();
            debug_assert_eq!(
                in_elems,
                op.input_elems.iter().sum::<u64>(),
                "timing replay diverged from the functional schedule"
            );
            let reads = picked
                .iter()
                .filter_map(|&(elems, addr)| Some((addr?, elems * ELEM_BYTES)))
                .collect();
            let out_addr = if last {
                OUT_BASE
            } else {
                let addr = scratch_cursor;
                scratch_cursor += op.out_elems * ELEM_BYTES;
                addr
            };
            items.push(TreeOpItem { reads, in_elems, out_addr, out_elems: op.out_elems });
            // Every non-final run spills: a later op re-reads it from scratch.
            (op.out_elems, (!last).then_some(out_addr))
        });
        MergeTreeKernel {
            items: items.into_iter(),
            depth: (usize::BITS - ways.leading_zeros()) as u64,
            throughput: cfg.merge_tree_throughput(),
            flops: 0,
            work_items: 0,
        }
    }
}

impl PhaseKernel for MergeTreeKernel {
    type Item = TreeOpItem;

    fn phase(&self) -> &'static str {
        MERGE_PHASE
    }

    fn pe_class(&self) -> &'static str {
        "merge_tree"
    }

    fn next(&mut self, _fb: &Feedback) -> Step<TreeOpItem> {
        let Some(item) = self.items.next() else {
            return Step::Done;
        };
        self.flops += item.in_elems.saturating_sub(item.out_elems);
        self.work_items += 1;
        Step::Batch(Batch { items: vec![item], min_start: 0 })
    }

    fn execute(&mut self, item: &TreeOpItem, ctx: &mut PeCtx<'_>) {
        let t0 = ctx.time();
        for &(addr, bytes) in &item.reads {
            ctx.read_stream(addr, bytes);
        }
        // The comparator array is pipelined: after a depth-of-tree fill it
        // retires `throughput` elements per cycle regardless of fan-in.
        ctx.wait_busy_until(t0 + self.depth + item.in_elems.div_ceil(self.throughput));
        ctx.store_stream(item.out_addr, item.out_elems * ELEM_BYTES);
        ctx.track_tail();
    }

    fn finish(&mut self, stats: &mut PhaseStats) {
        stats.flops = self.flops;
        stats.work_items = self.work_items;
    }
}

/// Simulates the condensed multiply over `condensed × b`, spilling partials
/// per `plan`, returning timing statistics and the mul-PE cycle breakdown.
///
/// # Errors
///
/// Fault injection only: every PE dead, an access out of retries, or a
/// watchdog timeout ([`SimError`]). Fault-free configurations cannot fail.
pub fn simulate_condensed_multiply(
    cfg: &OuterSpaceConfig,
    condensed: &CondensedA,
    b: &Csr,
    plan: &SparchPlan,
) -> Result<(PhaseStats, CycleBreakdown), SimError> {
    let mut mem = MemorySystem::for_multiply(cfg);
    let mut pes = PeArray::new(
        cfg.sparch_mul_pes.max(1) as usize,
        1,
        cfg.outstanding_requests as usize,
    );
    let kernel = CondensedMultiplyKernel::new(condensed, b, plan.spilled);
    engine::run_kernel(cfg, &mut mem, &mut pes, kernel)
}

/// Simulates the merge tree replaying `plan`'s Huffman schedule, returning
/// timing statistics and the merge-tree cycle breakdown.
///
/// # Errors
///
/// Fault injection only, as [`simulate_condensed_multiply`].
pub fn simulate_merge_tree(
    cfg: &OuterSpaceConfig,
    plan: &SparchPlan,
) -> Result<(PhaseStats, CycleBreakdown), SimError> {
    let mut mem = MemorySystem::for_merge(cfg);
    // The comparator array is one dispatchable unit.
    let mut pes = PeArray::new(1, 1, cfg.outstanding_requests as usize);
    let kernel = MergeTreeKernel::new(cfg, plan);
    engine::run_kernel(cfg, &mut mem, &mut pes, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineKind;
    use outerspace_gen::uniform;
    use outerspace_outer::{condense, spgemm_sparch_with_plan};

    fn sparch_cfg() -> OuterSpaceConfig {
        OuterSpaceConfig { machine: MachineKind::SpArch, ..Default::default() }
    }

    fn pipeline(
        cfg: &OuterSpaceConfig,
        n: u32,
        nnz: usize,
        seed: u64,
    ) -> (PhaseStats, CycleBreakdown, PhaseStats, CycleBreakdown, SparchPlan) {
        let a = uniform::matrix(n, n, nnz, seed);
        let (_, plan) =
            spgemm_sparch_with_plan(&a, &a, cfg.merge_tree_ways as usize).unwrap();
        let condensed = condense(&a);
        let (ms, mb) = simulate_condensed_multiply(cfg, &condensed, &a, &plan).unwrap();
        let (gs, gb) = simulate_merge_tree(cfg, &plan).unwrap();
        (ms, mb, gs, gb, plan)
    }

    #[test]
    fn no_spill_regime_keeps_partials_off_dram() {
        let cfg = sparch_cfg();
        let (ms, _, gs, _, plan) = pipeline(&cfg, 64, 400, 1);
        assert!(!plan.spilled);
        assert_eq!(plan.ops.len(), 1);
        // Multiply writes nothing; the only merge traffic is the result.
        assert_eq!(ms.hbm_write_bytes, 0);
        assert_eq!(gs.hbm_read_bytes, 0);
        assert!(gs.hbm_write_bytes > 0);
        assert_eq!(ms.flops, plan.total_products());
        assert_eq!(gs.flops, plan.total_collisions());
    }

    #[test]
    fn narrow_tree_spills_and_rereads() {
        let cfg = OuterSpaceConfig { merge_tree_ways: 2, ..sparch_cfg() };
        let (ms, _, gs, _, plan) = pipeline(&cfg, 64, 600, 2);
        assert!(plan.spilled);
        // Spilled leaves hit DRAM on the way out and back in.
        assert!(ms.hbm_write_bytes >= plan.total_products() * ELEM_BYTES / 2);
        assert!(gs.hbm_read_bytes > 0);
        assert_eq!(gs.work_items, plan.ops.len() as u64);
    }

    #[test]
    fn breakdown_accounts_for_every_cycle() {
        let cfg = sparch_cfg();
        let (ms, mb, gs, gb, _) = pipeline(&cfg, 128, 1200, 3);
        assert_eq!(mb.pe_class, "mul_pe");
        assert_eq!(mb.n_pes, cfg.sparch_mul_pes);
        assert_eq!(mb.makespan, ms.cycles);
        assert_eq!(
            mb.busy_cycles + mb.stall_cycles() + mb.idle_cycles,
            mb.total_pe_cycles()
        );
        assert_eq!(gb.pe_class, "merge_tree");
        assert_eq!(gb.n_pes, 1);
        assert_eq!(gb.makespan, gs.cycles);
        assert_eq!(
            gb.busy_cycles + gb.stall_cycles() + gb.idle_cycles,
            gb.total_pe_cycles()
        );
    }

    #[test]
    fn wider_tree_is_never_slower_on_skewed_work() {
        // Skew forces many merge ops on a narrow tree; a wide tree folds
        // them into few high-throughput passes.
        let a = uniform::matrix(96, 96, 1500, 4);
        let total = |ways: u32| {
            let cfg = OuterSpaceConfig { merge_tree_ways: ways, ..sparch_cfg() };
            let (_, plan) = spgemm_sparch_with_plan(&a, &a, ways as usize).unwrap();
            let condensed = condense(&a);
            let (ms, _) =
                simulate_condensed_multiply(&cfg, &condensed, &a, &plan).unwrap();
            let (gs, _) = simulate_merge_tree(&cfg, &plan).unwrap();
            ms.cycles + gs.cycles
        };
        assert!(total(64) <= total(2));
    }

    #[test]
    fn empty_plan_is_free() {
        let cfg = sparch_cfg();
        let a = outerspace_sparse::Csr::zero(16, 16);
        let (_, plan) = spgemm_sparch_with_plan(&a, &a, 64).unwrap();
        let condensed = condense(&a);
        let (ms, _) = simulate_condensed_multiply(&cfg, &condensed, &a, &plan).unwrap();
        let (gs, _) = simulate_merge_tree(&cfg, &plan).unwrap();
        assert_eq!(ms.cycles, 0);
        assert_eq!(gs.cycles, 0);
    }

    #[test]
    fn pe_kill_degrades_but_completes() {
        let mut cfg = sparch_cfg();
        cfg.faults.pe_kill_count = 4;
        cfg.faults.pe_kill_cycle = 50;
        let a = uniform::matrix(64, 64, 500, 5);
        let (_, plan) = spgemm_sparch_with_plan(&a, &a, 64).unwrap();
        let condensed = condense(&a);
        let healthy = {
            let clean = sparch_cfg();
            simulate_condensed_multiply(&clean, &condensed, &a, &plan).unwrap().0
        };
        let (hurt, _) = simulate_condensed_multiply(&cfg, &condensed, &a, &plan).unwrap();
        assert!(hurt.cycles >= healthy.cycles);
        assert_eq!(hurt.flops, healthy.flops);
    }
}
