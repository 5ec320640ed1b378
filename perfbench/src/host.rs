//! The host record printed beside every result: what the machine is,
//! and how fast it ran a fixed calibration loop just before and just
//! after the measured work. The loop is this file's own code, so no
//! change to the engine can move it; a set of runs whose calibration
//! times drift shows a host that slowed down, not a slower program.
//!
//! Everything here reads the kernel's process and CPU interfaces
//! (`/proc`, `/sys`), never files of the checkout or elsewhere.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Cache sizes and CPU identity, as far as the kernel reports them.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Per-core L2 size in bytes (0 when unknown).
    pub l2_bytes: usize,
    /// L3 size in bytes (0 when unknown).
    pub l3_bytes: usize,
}

impl Host {
    /// Reads the host description.
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
        }
    }
}

/// Size of the unified or data cache at `level` for CPU 0.
fn cache_bytes(level: u32) -> usize {
    let read = |path: String| std::fs::read_to_string(path).ok();
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let lvl: u32 = read(format!("{dir}/level"))?.trim().parse().ok()?;
            let kind = read(format!("{dir}/type"))?;
            if lvl != level || kind.trim() == "Instruction" {
                return None;
            }
            parse_size(read(format!("{dir}/size"))?.trim())
        })
        .next()
        .unwrap_or(0)
}

fn parse_size(s: &str) -> Option<usize> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * scale)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One calibration sample: a dependent floating-point chain (core
/// clock) and a streaming sum over an 8 MiB array (memory path).
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Dependent multiply-add chain, ms.
    pub cpu_ms: f64,
    /// Eight passes over an 8 MiB array, ms.
    pub mem_ms: f64,
}

impl Calibration {
    /// Median of three timings of each loop.
    pub fn measure() -> Calibration {
        let plane = vec![1.0f64; 1 << 20];
        let mut cpu = Vec::new();
        let mut mem = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let mut x = black_box(1.0f64);
            for _ in 0..10_000_000 {
                x = x * 0.999_999_9 + 1e-9;
            }
            black_box(x);
            cpu.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let mut sum = 0.0;
            for _ in 0..8 {
                sum += black_box(&plane).iter().sum::<f64>();
            }
            black_box(sum);
            mem.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Calibration {
            cpu_ms: crate::stats::median(&cpu),
            mem_ms: crate::stats::median(&mem),
        }
    }
}

/// The host record as one JSON line.
pub fn record_json(host: &Host, before: Calibration, after: Calibration) -> String {
    let mut o = String::from("{\"host\":{");
    let _ = write!(
        o,
        "\"available_parallelism\":{},\"cpu_model\":\"{}\",\"l2_bytes_per_core\":{},\"l3_bytes\":{}",
        host.parallelism,
        host.cpu_model.replace(['"', '\\'], "'"),
        host.l2_bytes,
        host.l3_bytes
    );
    for (name, c) in [("calibration_before", before), ("calibration_after", after)] {
        let _ = write!(
            o,
            ",\"{name}\":{{\"cpu_ms\":{},\"mem_ms\":{}}}",
            c.cpu_ms, c.mem_ms
        );
    }
    o.push_str("}}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_suffixes() {
        assert_eq!(parse_size("2048K"), Some(2 << 20));
        assert_eq!(parse_size("105M"), Some(105 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
