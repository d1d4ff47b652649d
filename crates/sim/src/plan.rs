//! Structural plans: each machine model's timing inputs, derived from the
//! operands' sparsity patterns alone.
//!
//! The timing models read structure, never values. The OuterSPACE merge
//! needs per-row output lengths (its chunk lengths come from the multiply
//! kernel's own layout); the SpArch analog needs the leaf stream sizes and
//! the Huffman merge schedule over them, each merge op's output size
//! included. Both come from stamp-array unions of `B`-row patterns
//! ([`StampUnion`]): a couple of machine ops per elementary product, no
//! floating-point work and no partial products materialized. The numeric
//! product is computed separately, once, and only by callers that want
//! values ([`Simulator`](crate::Simulator)).
//!
//! Every plan here is *exact*: [`row_out_lens`] equals the numeric
//! product's per-row non-zero counts and [`sparch_plan`] equals the plan
//! [`outerspace_outer::spgemm_sparch_with_plan`] records, field for field
//! (`crates/sim/tests/plan_properties.rs` asserts both with `==`).

use outerspace_outer::{huffman_schedule, SparchMergeOp, SparchPlan};
use outerspace_sparse::{ops, Csr, Index, SparseError};

/// Reusable stamp array for pattern unions: counts the distinct column
/// indices over a sequence of index slices in O(total length), with no
/// allocation per union.
#[derive(Debug)]
pub(crate) struct StampUnion {
    stamp: Vec<u32>,
    epoch: u32,
}

impl StampUnion {
    /// A stamp array over `ncols` column indices.
    pub(crate) fn new(ncols: Index) -> Self {
        StampUnion { stamp: vec![0; ncols as usize], epoch: 0 }
    }

    /// Number of distinct indices across `patterns`.
    pub(crate) fn union_len<'p>(
        &mut self,
        patterns: impl IntoIterator<Item = &'p [Index]>,
    ) -> u64 {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let mut out = 0u64;
        for cols in patterns {
            for &c in cols {
                let slot = &mut self.stamp[c as usize];
                if *slot != self.epoch {
                    *slot = self.epoch;
                    out += 1;
                }
            }
        }
        out
    }

    /// Output length of the product row whose `A` row has column pattern
    /// `a_row_cols`: the union of the matching `B`-row patterns.
    pub(crate) fn row_out_len(&mut self, a_row_cols: &[Index], b: &Csr) -> u64 {
        self.union_len(a_row_cols.iter().map(|&k| b.row(k).0))
    }
}

/// Non-zeros of every row of `C = A × B`, from patterns alone.
///
/// # Errors
///
/// [`SparseError::DimMismatch`] when `a.ncols() != b.nrows()`.
pub fn row_out_lens(a: &Csr, b: &Csr) -> Result<Vec<u64>, SparseError> {
    ops::check_spgemm_dims((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))?;
    let mut union = StampUnion::new(b.ncols());
    Ok((0..a.nrows()).map(|i| union.row_out_len(a.row(i).0, b)).collect())
}

/// Elements of each SpArch leaf stream: leaf `k` scales the `B` row named
/// by the `k`-th non-zero of every `A` row holding one, so its size is the
/// sum of those rows' populations. Needs no condensed copy of `A`.
///
/// Operand shapes must already be validated (`a.ncols() == b.nrows()`).
pub(crate) fn sparch_leaf_elems(a: &Csr, b: &Csr) -> Vec<u64> {
    let mut leaves: Vec<u64> = Vec::new();
    for r in 0..a.nrows() {
        let cols = a.row(r).0;
        if cols.len() > leaves.len() {
            leaves.resize(cols.len(), 0);
        }
        for (leaf, &k) in leaves.iter_mut().zip(cols) {
            *leaf += b.row_nnz(k) as u64;
        }
    }
    leaves
}

/// The SpArch analog's dataflow plan for `C = A × B` on a `ways`-ary merge
/// tree, from patterns alone: exact leaf sizes, and the
/// [`huffman_schedule`] over them with each op's output size counted as
/// the per-row pattern union over the leaves beneath it.
///
/// A leaf set's union only touches rows with more than `min(set)`
/// non-zeros — a prefix of the rows sorted by population — so an op never
/// visits more than the products of its own leaves plus one step per row
/// of that prefix.
///
/// # Errors
///
/// [`SparseError::DimMismatch`] when `a.ncols() != b.nrows()`.
pub fn sparch_plan(a: &Csr, b: &Csr, ways: usize) -> Result<SparchPlan, SparseError> {
    ops::check_spgemm_dims((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))?;
    let leaf_elems = sparch_leaf_elems(a, b);

    // Rows by descending population (stable, so ties keep row order): the
    // rows holding a `k`-th non-zero are a prefix. Sorted on first use, as
    // a plan whose leaves all fit one op never needs it.
    let mut by_pop: Vec<(usize, Index)> = Vec::new();

    let mut union = StampUnion::new(b.ncols());
    let mut merge_ops = Vec::new();
    // A stream is its element count plus the sorted leaves beneath it.
    let leaves = leaf_elems.iter().enumerate().map(|(k, &e)| (e, vec![k]));
    let root = huffman_schedule(leaves, ways, |s| s.0, |inputs| {
        let mut set: Vec<usize> = inputs.iter().flat_map(|s| s.1.iter().copied()).collect();
        set.sort_unstable();
        let mut row_union = |r: Index| {
            let cols = a.row(r).0;
            union.union_len(set.iter().map_while(|&k| cols.get(k)).map(|&c| b.row(c).0))
        };
        let out: u64 = if set[0] == 0 {
            (0..a.nrows()).map(&mut row_union).sum()
        } else {
            if by_pop.is_empty() {
                by_pop = (0..a.nrows()).map(|r| (a.row_nnz(r), r)).collect();
                by_pop.sort_by_key(|&(n, _)| std::cmp::Reverse(n));
            }
            let prefix = by_pop.partition_point(|&(n, _)| n > set[0]);
            by_pop[..prefix].iter().map(|&(_, r)| row_union(r)).sum()
        };
        merge_ops.push(SparchMergeOp {
            input_elems: inputs.iter().map(|s| s.0).collect(),
            out_elems: out,
        });
        (out, set)
    });
    Ok(SparchPlan {
        condensed_width: leaf_elems.len(),
        spilled: leaf_elems.len() > ways.max(2),
        leaf_elems,
        ops: merge_ops,
        result_nnz: root.map_or(0, |s| s.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::uniform;

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = uniform::matrix(8, 9, 20, 1);
        assert!(row_out_lens(&a, &a).is_err());
        assert!(sparch_plan(&a, &a, 4).is_err());
    }
}
