//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints the run context and notes as `#` lines, then
//! one JSON result line: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when an output check fails (the result then carries no
//! metrics) and 2 on bad arguments or a failed set-up.

use std::path::PathBuf;
use std::process::ExitCode;

use outerspace_json::Json;
use perfbench::{stats, RunCfg, E2E_METRICS, LAYER_METRICS};

const USAGE: &str = "usage: perfbench --workload <sim-sparse|dse-mixed|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let context = stats::context(&args.workload, args.seed, args.seconds, args.trace, threads);
    println!("# context {}", context.to_string_compact());
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        context,
    };
    let out = match perfbench::run(&args.workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &out.notes {
        println!("# {note}");
    }
    for failure in &out.check_failures {
        println!("# CHECK FAILED: {failure}");
    }
    let table = if args.trace {
        LAYER_METRICS
    } else {
        E2E_METRICS
    };
    let metrics = if out.correct() {
        table
            .iter()
            .map(|(name, unit)| {
                let v = out.metrics.get(*name).copied().unwrap_or(0.0);
                (
                    (*name).to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(v)),
                        ("unit".into(), Json::Str((*unit).to_string())),
                    ]),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct())),
        ("attempted".into(), Json::UInt(out.attempted)),
        ("failed".into(), Json::UInt(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.to_string_compact());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
