//! The benchmark's own checks: its metric tables agree with
//! `BENCHMARK.json` and with what the binary prints, one seed always gives
//! the same simulated statistics and decisions, and another seed gives
//! other inputs. Run with `cargo test --release`: the simulations are slow
//! in a debug build.

use std::path::{Path, PathBuf};
use std::process::Command;

use outerspace_json::Json;
use outerspace_serve::op_material;
use perfbench::{
    dse_mixed, serve_mixed, sim_sparse, RunCfg, E2E_METRICS, LAYER_METRICS, WORKLOADS,
};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    outerspace_json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(j: &Json, key: &str) -> Vec<(String, String)> {
    j.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string();
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            (name, unit)
        })
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn cfg(seed: u64, dir: &str) -> RunCfg {
    RunCfg {
        seed,
        seconds: 0.1,
        trace: false,
        threads: 2,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir),
        context: Json::Null,
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    let j = benchmark_json();
    assert_eq!(names(&j, "end_to_end"), table(E2E_METRICS));
    assert_eq!(names(&j, "per_layer"), table(LAYER_METRICS));
    let workloads: Vec<String> = names(&j, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

/// Runs the binary and returns its result line.
fn run_binary(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.1",
            "--trace",
            trace,
        ])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perfbench failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    outerspace_json::parse(last).expect("the last line is JSON")
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let j = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run_binary("sim-sparse", trace);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("no metrics object")
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, m)| {
                (
                    n.clone(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect();
        assert_eq!(printed, names(&j, key), "--trace {trace}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope", "--seed", "1", "--seconds", "1"],
        vec!["--seed", "banana"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?}"
        );
    }
}

#[test]
fn same_seed_same_simulated_statistics() {
    let a = sim_sparse::reference_reports(11).expect("simulates");
    let b = sim_sparse::reference_reports(11).expect("simulates");
    assert_eq!(a, b);
    assert!(a.iter().all(|r| r.total_cycles() > 0));
}

#[test]
fn same_seed_same_decisions() {
    let a = dse_mixed::decisions(&cfg(11, "decisions-a")).expect("sweeps");
    let b = dse_mixed::decisions(&cfg(11, "decisions-b")).expect("sweeps");
    assert_eq!(a.0, b.0, "full-tier Pareto must be byte-identical");
    assert_eq!(
        a.1, b.1,
        "interval frontier recall, precision and cycle error must repeat exactly"
    );
}

#[test]
fn different_seed_different_inputs() {
    assert_ne!(
        sim_sparse::generate(1).unwrap(),
        sim_sparse::generate(2).unwrap()
    );
    let (a, b) = (dse_mixed::setup(1).unwrap(), dse_mixed::setup(2).unwrap());
    assert_eq!(a.points.len(), b.points.len());
    assert!(a.mats.values().zip(b.mats.values()).all(|(x, y)| x != y));
    let keys = |seed| {
        serve_mixed::make_pool(seed)
            .iter()
            .map(op_material)
            .collect::<Vec<_>>()
    };
    let (ka, kb) = (keys(1), keys(2));
    assert!(
        ka.iter().all(|k| !kb.contains(k)),
        "no op may repeat across seeds"
    );
    assert_ne!(serve_mixed::schedule(1, 200), serve_mixed::schedule(2, 200));
    assert_eq!(serve_mixed::schedule(1, 200), serve_mixed::schedule(1, 200));
}
