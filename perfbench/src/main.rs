//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root (temporary files go under `.bench_work/`
//! there). Prints a host record, a workload record and, as the last
//! line, the JSON result. Exit code 0 when every output check passed,
//! 1 when one failed (the result then carries no metrics), 2 on bad
//! arguments (no result printed).

use mosaic_perfbench::workload::Scale;
use mosaic_perfbench::{run, work_dir, Options};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <batch-256-fast|batch-1024-t2|serve-256-ckpt> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a duration"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        work_dir: work_dir(Path::new(".bench_work")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
