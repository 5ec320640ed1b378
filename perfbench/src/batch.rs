//! Batch workloads: one round is one `run_batch` call over the
//! workload's jobs, watched the way `mosaic batch --watch` is.

use crate::report::{ClipBits, RunReport};
use crate::workload::Workload;
use mosaic_runtime::{run_batch, BatchConfig, EventObserver, JobExecution, JobSpec, JobStatus};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one round produced.
#[derive(Debug)]
pub struct BatchRound {
    /// Duration of the `run_batch` call, s.
    pub wall_s: f64,
    /// Per-job latency, `job_start` line to `job_finish` line, ms.
    pub job_ms: BTreeMap<String, f64>,
    /// Runtime-excluded quality total.
    pub quality_total: f64,
    /// Quality bits per job id.
    pub bits: BTreeMap<String, ClipBits>,
}

/// Job id of a rendered event line.
fn line_job(line: &str) -> Option<&str> {
    let rest = &line[line.find("\"job\":\"")? + 7..];
    Some(&rest[..rest.find('"')?])
}

/// Runs one round; job-level trouble is recorded in `report`.
///
/// # Errors
///
/// Fails only when the batch itself cannot start.
pub fn run_round(
    w: &Workload,
    specs: &[JobSpec],
    report: &mut RunReport,
) -> Result<BatchRound, String> {
    type Stamps = Vec<(Instant, bool, String)>;
    let stamps: Arc<Mutex<Stamps>> = Arc::default();
    let sink = Arc::clone(&stamps);
    let observer = EventObserver::new(move |line: &str| {
        let start = line.starts_with("{\"event\":\"job_start\"");
        if start || line.starts_with("{\"event\":\"job_finish\"") {
            let now = Instant::now();
            if let Some(job) = line_job(line) {
                let mut s = sink
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                s.push((now, start, job.to_string()));
            }
        }
    });
    let config = BatchConfig {
        workers: 1,
        threads: w.threads,
        observer: Some(observer),
        ..BatchConfig::default()
    };
    let t = Instant::now();
    let outcome = run_batch(specs, &config).map_err(|e| format!("run_batch: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();

    report.attempted += specs.len() as u64;
    let mut bits = BTreeMap::new();
    for (spec, exec) in specs.iter().zip(&outcome.results) {
        let clean = match exec {
            JobExecution::Success { result, attempts } => {
                if let Some(m) = &result.metrics {
                    bits.insert(spec.id.clone(), ClipBits::of(m));
                }
                *attempts == 1
                    && result.status == JobStatus::Finished
                    && !result.degraded
                    && result.degrade_step == 0
                    && result.metrics.is_some()
            }
            _ => false,
        };
        if !clean {
            report.failed += 1;
            report.problems.push(format!(
                "{}: job did not finish cleanly on its first attempt",
                spec.id
            ));
        }
    }
    report.check(
        outcome.faults == 0 && outcome.degrades == 0 && outcome.salvaged == 0,
        || {
            format!(
                "batch emitted {} fault(s), {} degrade(s), {} salvage(s)",
                outcome.faults, outcome.degrades, outcome.salvaged
            )
        },
    );

    let stamps = stamps
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let job_ms = stamps
        .iter()
        .filter(|(_, start, _)| !start)
        .filter_map(|(end, _, job)| {
            let (begin, _, _) = stamps.iter().find(|(_, s, j)| *s && j == job)?;
            Some((job.clone(), end.duration_since(*begin).as_secs_f64() * 1e3))
        })
        .collect::<BTreeMap<_, _>>();
    report.check(job_ms.len() == specs.len(), || {
        format!(
            "saw {} job_start/job_finish pairs for {} jobs",
            job_ms.len(),
            specs.len()
        )
    });
    Ok(BatchRound {
        wall_s,
        job_ms,
        quality_total: outcome.total_quality_score,
        bits,
    })
}
