//! Harness self-test at tiny scale (64 px, one iteration, a
//! two-submission serve mix): every workload, untraced and traced, must
//! pass its output checks and report exactly the metrics
//! `BENCHMARK.json` lists.

use mosaic_perfbench::workload::{Scale, NAMES};
use mosaic_perfbench::{run, work_dir, Options, END_TO_END, PER_LAYER};
use std::path::Path;

#[test]
fn every_workload_runs_and_reports_every_metric_at_tiny_scale() {
    for name in NAMES {
        for trace in [false, true] {
            let opts = Options {
                workload: name.to_string(),
                seed: 1,
                seconds: 0.1,
                trace,
                scale: Scale::Tiny,
                work_dir: work_dir(&Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench")),
            };
            let report = run(&opts).expect("known workload");
            assert!(
                report.correct(),
                "{name} trace={trace}: {:?}",
                report.problems
            );
            assert!(!opts.work_dir.exists(), "work directory left behind");
            let emitted: Vec<_> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let expected = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            assert_eq!(emitted, expected, "{name} trace={trace}");
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            }
            let last = report.result_json();
            assert!(last.starts_with("{\"correct\":true,\"attempted\":"));
        }
    }
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_the_harness_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let unit_of = |name: &str| {
        let at = text.find(&format!("\"name\": \"{name}\""))?;
        let rest = &text[at..];
        let u = rest.find("\"unit\": \"")? + 9;
        Some(rest[u..u + rest[u..].find('"')?].to_string())
    };
    for name in NAMES {
        assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert_eq!(unit_of(name).as_deref(), Some(*unit), "{name}");
    }
}
