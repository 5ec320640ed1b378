//! The serve workload: an in-process server on an ephemeral loopback
//! port, driven through the wire protocol by blocking clients. Every
//! time below is stamped by the client when a line arrives.

use crate::report::{ClipBits, RunReport};
use crate::workload::{Submission, Workload};
use mosaic_runtime::job::mode_name;
use mosaic_serve::{Client, ServeConfig, ServerHandle};
use std::path::Path;
use std::time::{Duration, Instant};

/// Client connections the serve workload keeps busy.
pub const CLIENTS: usize = 2;

/// A started server and what its set-up cost.
pub struct Server {
    /// The running server.
    pub handle: ServerHandle,
    /// Start until `ping` answers, plus one 1-iteration warm-up
    /// submission per mode, s.
    pub setup_s: f64,
}

/// One request/response exchange of the mix, as the client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The mix entry this exchange sent.
    pub sub: Submission,
    /// submit → `ok` line, ms.
    pub ack_ms: f64,
    /// `ok` → `job_start` line, ms (misses only).
    pub queue_ms: f64,
    /// `job_start` → `job_finish` line, ms (misses only).
    pub run_ms: f64,
    /// `job_finish` → `watch_end` line, ms (misses only).
    pub feed_lag_ms: f64,
    /// submit → `watch_end`, ms.
    pub total_ms: f64,
    /// The `metrics` object of the `fetch` reply, verbatim.
    pub metrics: String,
    /// Quality outputs parsed from that object.
    pub bits: ClipBits,
}

fn submit_line(w: &Workload, job: usize, iterations: usize) -> String {
    let (clip, mode) = w.jobs[job];
    format!(
        "submit clip={} mode={} grid={} pixel={} iterations={iterations}",
        clip.name(),
        mode_name(mode),
        w.grid,
        w.pixel_nm
    )
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Submits one job and follows it to `watch_end`, then fetches its
/// final record.
fn exchange(client: &mut Client, line: &str, sub: Submission) -> Result<Exchange, String> {
    let io = |e: std::io::Error| format!("serve client: {e}");
    let t0 = Instant::now();
    let ack = client.request(line).map_err(io)?;
    let t_ack = Instant::now();
    let job = field(&ack, "job")
        .ok_or_else(|| format!("submit refused: {ack}"))?
        .to_string();
    let (mut t_start, mut t_finish) = (None, None);
    let end = client
        .watch(&job, 0, &mut |l| {
            if l.starts_with("{\"event\":\"job_start\"") {
                t_start.get_or_insert_with(Instant::now);
            } else if l.starts_with("{\"event\":\"job_finish\"") {
                t_finish = Some(Instant::now());
            }
        })
        .map_err(io)?;
    let t_end = Instant::now();
    if !end.starts_with("{\"event\":\"watch_end\"") {
        return Err(format!("watch {job} failed: {end}"));
    }
    let fetched = client.request(&format!("fetch job={job}")).map_err(io)?;
    let clean = field(&fetched, "state") == Some("done")
        && field(&fetched, "attempts") == Some("1")
        && field(&fetched, "degraded") == Some("false")
        && field(&fetched, "degrade_step") == Some("0")
        && field(&fetched, "error") == Some("null")
        && field(&fetched, "cached") == Some(if sub.hit { "true" } else { "false" });
    if !clean {
        return Err(format!("job {job} did not finish cleanly: {fetched}"));
    }
    let metrics = fetched
        .find("\"metrics\":{")
        .map(|i| fetched[i..].to_string())
        .ok_or_else(|| format!("job {job} has no metrics: {fetched}"))?;
    let bits =
        parse_bits(&metrics).ok_or_else(|| format!("job {job} has bad metrics: {fetched}"))?;
    let (start, finish) = match (sub.hit, t_start, t_finish) {
        (true, _, _) => (t_ack, t_end),
        (false, Some(s), Some(f)) => (s, f),
        _ => return Err(format!("miss {job} streamed no job_start/job_finish")),
    };
    Ok(Exchange {
        sub,
        ack_ms: ms(t0, t_ack),
        queue_ms: ms(t_ack, start),
        run_ms: ms(start, finish),
        feed_lag_ms: ms(finish, t_end),
        total_ms: ms(t0, t_end),
        metrics,
        bits,
    })
}

/// Quality outputs of a `metrics` object; the server renders floats in
/// shortest round-trip form, so parsing recovers the exact bits.
fn parse_bits(metrics: &str) -> Option<ClipBits> {
    let num = |key| field(metrics, key)?.parse::<f64>().ok();
    Some(ClipBits {
        epe: field(metrics, "epe_violations")?.parse().ok()?,
        pvband: num("pvband_nm2")?.to_bits(),
        shape: field(metrics, "shape_violations")?.parse().ok()?,
        quality: num("quality_score")?.to_bits(),
    })
}

/// Starts a server checkpointing every iteration under `dir`, waits for
/// `ping`, and warms every simulator configuration with one short
/// submission per mode the workload uses (1 iteration, or 2 when the
/// workload itself runs 1).
///
/// # Errors
///
/// Fails when the server cannot start or a warm-up does not complete.
pub fn start(w: &Workload, dir: &Path) -> Result<Server, String> {
    let t = Instant::now();
    let handle = ServerHandle::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let ready = (|| {
        let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut tries = 0;
        while !client
            .request("ping")
            .is_ok_and(|r| r.contains("\"pong\":true"))
        {
            tries += 1;
            if tries > 500 {
                return Err("server never answered ping".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // A warm-up must not share a result-cache key with the mix.
        let iterations = if w.iterations == 1 { 2 } else { 1 };
        for (job, &(_, mode)) in w.jobs.iter().enumerate() {
            if w.jobs[..job].iter().all(|&(_, m)| m != mode) {
                let sub = Submission { job, hit: false };
                exchange(&mut client, &submit_line(w, job, iterations), sub)?;
            }
        }
        Ok(())
    })();
    match ready {
        Ok(()) => Ok(Server {
            handle,
            setup_s: t.elapsed().as_secs_f64(),
        }),
        Err(e) => {
            handle.stop(false);
            Err(e)
        }
    }
}

/// One closed-loop pass of `mix` against `server`: one client
/// connection per sequence, each waiting for `watch_end` before its
/// next submission. Returns the exchanges and the pass's wall time.
///
/// # Errors
///
/// Fails on the first exchange that does not complete cleanly.
pub fn run_mix(
    w: &Workload,
    server: &Server,
    mix: &[Vec<Submission>],
) -> Result<(Vec<Exchange>, f64), String> {
    let addr = server.handle.addr();
    let t = Instant::now();
    let results: Vec<Result<Vec<Exchange>, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = mix
            .iter()
            .map(|seq| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    seq.iter()
                        .map(|&sub| {
                            exchange(&mut client, &submit_line(w, sub.job, w.iterations), sub)
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok((all, wall_s))
}

/// Output checks over one pass: every hit carries its source miss's
/// metrics bit for bit. Returns the quality total over the misses.
pub fn check_mix(exchanges: &[Exchange], report: &mut RunReport) -> f64 {
    report.attempted += exchanges.len() as u64;
    let mut total = 0.0;
    for e in exchanges {
        if e.sub.hit {
            let source = exchanges
                .iter()
                .find(|m| !m.sub.hit && m.sub.job == e.sub.job);
            report.check(source.is_some_and(|m| m.metrics == e.metrics), || {
                format!("hit on job {} differs from its miss", e.sub.job)
            });
        } else {
            total += e.bits.quality();
        }
    }
    total
}
