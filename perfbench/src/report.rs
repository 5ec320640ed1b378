//! What one run reports, and the output checks that decide whether it
//! may report numbers at all.

use mosaic_runtime::JobMetrics;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run: metrics, job counts, and every output check
/// that failed.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Jobs submitted to the engine.
    pub attempted: u64,
    /// Jobs that failed, were retried, salvaged or degraded.
    pub failed: u64,
    /// Output checks that failed; a run with any reports no numbers.
    pub problems: Vec<String>,
    /// Informational JSON lines printed before the result.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Records a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`; a run that failed a check carries no metrics.
    pub fn result_json(&self) -> String {
        let mut o = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        if self.correct() {
            for (i, m) in self.metrics.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                // Shortest round-trip form: every digit as measured.
                let _ = write!(
                    o,
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                );
            }
        }
        o.push_str("}}");
        o
    }
}

/// The quality outputs of one job as exact bits, for bit-equality
/// checks across rounds, thread counts and code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClipBits {
    /// EPE violations.
    pub epe: usize,
    /// PV-band area bits.
    pub pvband: u64,
    /// Shape violations.
    pub shape: usize,
    /// Runtime-excluded quality score bits.
    pub quality: u64,
}

impl ClipBits {
    /// Bits of runtime job metrics.
    pub fn of(m: &JobMetrics) -> ClipBits {
        ClipBits {
            epe: m.epe_violations,
            pvband: m.pvband_nm2.to_bits(),
            shape: m.shape_violations,
            quality: m.quality_score.to_bits(),
        }
    }

    /// The quality score.
    pub fn quality(&self) -> f64 {
        f64::from_bits(self.quality)
    }
}
