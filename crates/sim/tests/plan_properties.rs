//! The structural plans are exact: `sim::plan` must reproduce, with `==`,
//! what the numeric kernels record — the OuterSPACE per-row output lengths
//! of `C`, and the SpArch analog's whole `SparchPlan` (leaf sizes, spill
//! flag, Huffman schedule, per-op output sizes, result size) — on random
//! matrices, adversarial shapes and the bundled `.mtx` corpus, at merge-tree
//! widths from the narrowest to beyond any condensed width. The simulator
//! then delivers the numeric product from one kernel for both machines.

use outerspace_gen::{powerlaw, rmat, suite, uniform};
use outerspace_outer as outer;
use outerspace_sim::{plan, MachineKind, OuterSpaceConfig, Simulator};
use outerspace_sparse::{Coo, Csr, Index};

const WAYS: [usize; 4] = [2, 3, 16, 64];

/// `(name, A, B)` triples covering random, adversarial and corpus inputs.
fn cases() -> Vec<(String, Csr, Csr)> {
    let mut out: Vec<(String, Csr, Csr)> = Vec::new();
    for seed in 0..4u64 {
        let n = 40 + 23 * seed as Index;
        let nnz = (n as usize) * (2 + seed as usize);
        out.push((
            format!("uniform@{seed}"),
            uniform::matrix(n, n, nnz, seed),
            uniform::matrix(n, n, nnz, seed ^ 0x9e37),
        ));
        out.push((
            format!("uniform_rect@{seed}"),
            uniform::matrix(n, n / 2 + 1, nnz / 2, seed),
            uniform::matrix(n / 2 + 1, n + 3, nnz / 2, seed ^ 0x9e37),
        ));
        let g = rmat::graph500(128, 1200 + 300 * seed as usize, seed);
        out.push((format!("rmat@{seed}"), g.clone(), g));
        let p = powerlaw::graph(100, 900, seed);
        out.push((format!("powerlaw@{seed}"), p.clone(), p));
    }

    // Adversarial shapes: empty operands, vectors, skewed chunk counts.
    let n: Index = 48;
    out.push(("empty".into(), Csr::zero(n, n), uniform::matrix(n, n, 200, 1)));
    out.push(("empty_b".into(), uniform::matrix(n, n, 200, 2), Csr::zero(n, n)));
    let col = uniform::matrix(n, 1, 24, 3);
    let row = uniform::matrix(n, 1, 24, 4).transpose();
    out.push(("1xN_by_Nx1".into(), row.clone(), col.clone()));
    out.push(("Nx1_by_1xN".into(), col, row));
    // One row wider than every tree width amid single-entry rows: the
    // condensed streams have maximally unequal populations.
    let mut skew = Coo::new(n * 2, n * 2);
    for c in 0..(n * 2) {
        skew.push(0, c, 1.0 + c as f64);
    }
    for r in 1..(n * 2) {
        skew.push(r, (r * 37) % (n * 2), 0.5 + r as f64);
    }
    let skew = skew.to_csr();
    out.push(("skewed_chunk_counts".into(), skew.clone(), uniform::matrix(n * 2, n * 2, 400, 5)));
    out.push(("skewed_square".into(), skew.clone(), skew));

    for f in suite::FIXTURES {
        let m = f.load();
        out.push((format!("fixture:{}", f.name), m.clone(), m));
    }
    out
}

#[test]
fn outerspace_row_lengths_equal_the_numeric_product() {
    for (name, a, b) in cases() {
        let (c, _) = outer::spgemm_blocked(&a, &b).unwrap();
        let want: Vec<u64> = (0..c.nrows()).map(|i| c.row_nnz(i) as u64).collect();
        assert_eq!(plan::row_out_lens(&a, &b).unwrap(), want, "{name}");
    }
}

#[test]
fn sparch_structural_plan_equals_the_numeric_plan() {
    for (name, a, b) in cases() {
        for ways in WAYS {
            let (c, want) = outer::spgemm_sparch_with_plan(&a, &b, ways).unwrap();
            assert_eq!(want.result_nnz, c.nnz() as u64, "{name}");
            assert_eq!(plan::sparch_plan(&a, &b, ways).unwrap(), want, "{name} ways {ways}");
        }
    }
}

#[test]
fn simulator_products_come_from_the_blocked_kernel() {
    for (name, a, b) in cases().into_iter().step_by(3) {
        let (want, _) = outer::spgemm_blocked(&a, &b).unwrap();
        for machine in [MachineKind::OuterSpace, MachineKind::SpArch] {
            let sim = Simulator::new(OuterSpaceConfig { machine, ..OuterSpaceConfig::default() })
                .unwrap();
            let (c, _) = sim.spgemm(&a, &b).unwrap();
            let (c_cc, rep) = sim.spgemm_cc_operand(&a.to_csc(), &b).unwrap();
            assert!(rep.convert.is_none(), "{name}");
            match machine {
                MachineKind::OuterSpace => {
                    assert!(c == want, "{name}: OuterSPACE C differs from spgemm_blocked");
                    assert!(c_cc == want, "{name}: preconverted C differs from spgemm_blocked");
                }
                MachineKind::SpArch => {
                    assert!(c.approx_eq(&want, 1e-9), "{name}: SpArch C diverged");
                    assert!(c_cc.approx_eq(&want, 1e-9), "{name}: preconverted C diverged");
                }
            }
        }
    }
}
