//! MOSAIC performance benchmark.
//!
//! One run measures one workload (see [`workload`]) and prints a host
//! record, a workload record and, last, one JSON result line. Untraced
//! runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) replay the workload layer by layer and report the
//! per-layer metrics. Every figure is taken from outside the engine,
//! through the public functions of the crate that owns the layer.

mod batch;
mod host;
mod layers;
pub mod report;
mod serve;
mod stats;
pub mod workload;

use host::{Calibration, Host};
use layers::Tracer;
use mosaic_core::{Mosaic, MosaicMode, NoInstrument};
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_numerics::Workspace;
use mosaic_optics::{LithoSimulator, SimKey};
use mosaic_runtime::SimCache;
use report::{ClipBits, RunReport};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use workload::{serve_mix, Kind, Scale, Workload};

/// End-to-end metrics (`--trace 0`), name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("quality_total", "score"),
    ("peak_rss_mb", "MiB"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
];

/// Per-layer metrics (`--trace 1`), name and unit.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("numerics.fft_pair_ms", "ms"),
    ("numerics.fft_flops", "flop"),
    ("numerics.fft_bytes", "B"),
    ("numerics.fft_flop_per_byte", "flop/B"),
    ("numerics.fft_gflops", "GFLOP/s"),
    ("numerics.plane_mb", "MiB"),
    ("numerics.workspace_mb", "MiB"),
    ("optics.bank_build_ms", "ms"),
    ("optics.kernels", "count"),
    ("optics.forward_ms", "ms"),
    ("core.problem_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("core.eval_exact_ms", "ms"),
    ("core.iter_ms_p50", "ms"),
    ("core.iter_ms_p90", "ms"),
    ("core.useful_eval_frac", "frac"),
    ("core.step_self_ms", "ms"),
    ("core.t2_speedup", "x"),
    ("eval.contest_ms", "ms"),
    ("runtime.job_self_ms", "ms"),
    ("runtime.ckpt_save_ms", "ms"),
    ("runtime.ckpt_load_ms", "ms"),
    ("runtime.ckpt_mb", "MiB"),
    ("serve.ack_ms_p50", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p90", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.feed_lag_ms_p50", "ms"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.hit_frac", "frac"),
    ("trace.overhead_s", "s"),
];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time, s: the run makes as many whole rounds as the
    /// first one's duration fits into it, and at least one.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Problem scale.
    pub scale: Scale,
    /// Work directory for checkpoints; created and removed by the run.
    pub work_dir: PathBuf,
}

/// Runs one workload.
///
/// # Errors
///
/// Fails only for an unknown workload name; everything that goes wrong
/// while measuring is reported as a failed check inside the report.
pub fn run(opts: &Options) -> Result<RunReport, String> {
    let w = Workload::lookup(&opts.workload, opts.scale).ok_or_else(|| {
        format!(
            "unknown workload '{}' (one of {})",
            opts.workload,
            workload::NAMES.join(", ")
        )
    })?;
    let host = Host::probe();
    let before = Calibration::measure();
    let mut report = RunReport::default();
    let measured = std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("work dir {}: {e}", opts.work_dir.display()))
        .and_then(|()| {
            if opts.trace {
                traced(&w, opts, &mut report)
            } else {
                untraced(&w, opts, &mut report)
            }
        });
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = opts.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    if let Err(e) = measured {
        report.failed += 1;
        report.problems.push(e);
    }
    let not_finite: Vec<_> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    report.check(not_finite.is_empty(), || {
        format!("metrics not measured: {not_finite:?}")
    });
    let after = Calibration::measure();
    report.notes.push(host::record_json(&host, before, after));
    report.notes.push(workload_record(&w, &host));
    Ok(report)
}

/// The workload record: shape, and the computed FFT cost at its grid
/// against the host's per-core L2.
fn workload_record(w: &Workload, host: &Host) -> String {
    let (flops, bytes) = layers::fft_pair_model(w.grid, w.grid);
    format!(
        "{{\"workload\":{{\"name\":\"{}\",\"jobs\":{},\"grid_px\":{},\"pixel_nm\":{},\"iterations\":{},\"threads\":{},\"plane_bytes\":{},\"l2_bytes_per_core\":{},\"plane_fits_l2\":{},\"computed_not_measured\":{{\"fft_pair_flops\":{flops},\"fft_pair_bytes\":{bytes},\"fft_flop_per_byte\":{}}}}}}}",
        w.name,
        w.jobs.len(),
        w.grid,
        w.pixel_nm,
        w.iterations,
        w.threads,
        w.plane_bytes(),
        host.l2_bytes,
        w.plane_bytes() <= host.l2_bytes,
        flops / bytes
    )
}

/// Builds the workload's simulator `reps` times, one at a time; returns
/// each build's time, ms.
fn build_banks(w: &Workload, reps: usize) -> Result<Vec<f64>, String> {
    let config = w.spec(w.jobs[0].0, w.jobs[0].1).config;
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            LithoSimulator::new(&config.optics, config.resist, config.conditions.clone())
                .map_err(|e| format!("simulator build: {e}"))?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Whether to run another round: the run makes as many whole rounds
/// as the first one's duration fits into `seconds`, and at least one.
fn another_round(rounds: &[f64], seconds: f64) -> bool {
    let target = (seconds / rounds[0]).floor().max(1.0);
    (rounds.len() as f64) < target
}

fn untraced(w: &Workload, opts: &Options, report: &mut RunReport) -> Result<(), String> {
    // Set-up builds the first job's simulator; it must serve every job.
    let key = |(c, m): (BenchmarkId, MosaicMode)| {
        let config = w.spec(c, m).config;
        SimKey::new(&config.optics, &config.resist, &config.conditions)
    };
    report.check(w.jobs.iter().all(|&j| key(j) == key(w.jobs[0])), || {
        "workload spans several simulator configurations".into()
    });
    let mut setup_s = Vec::new();
    let mut walls = Vec::new();
    // Job-latency percentiles of each round; the host's speed drifts
    // between rounds, so the reported figure is their median.
    let mut job_p50 = Vec::new();
    let mut job_p90 = Vec::new();
    let mut push_jobs = |jobs: &[f64]| {
        job_p50.push(percentile(jobs, 50.0));
        job_p90.push(percentile(jobs, 90.0));
    };
    let mut quality = Vec::new();
    // Peak resident memory after the first round, set-up included.
    let mut peak_rss = f64::NAN;
    match w.kind {
        Kind::Batch => {
            // Set-up samples are taken before every round and after the
            // last, so that they see the same host phases as the rounds.
            let sample_setup = |setup_s: &mut Vec<f64>| -> Result<(), String> {
                let times = build_banks(w, w.setup_reps())?;
                setup_s.extend(times.iter().map(|ms| ms / 1e3));
                Ok(())
            };
            let specs = w.batch_specs(opts.seed);
            let mut first_bits: Option<BTreeMap<String, ClipBits>> = None;
            loop {
                sample_setup(&mut setup_s)?;
                let round = batch::run_round(w, &specs, report)?;
                if walls.is_empty() {
                    peak_rss = host::peak_rss_mb()?;
                }
                walls.push(round.wall_s);
                push_jobs(&round.job_ms.into_values().collect::<Vec<_>>());
                quality.push(round.quality_total);
                match &first_bits {
                    None => first_bits = Some(round.bits),
                    Some(bits) => report.check(*bits == round.bits, || {
                        "per-job quality bits differ between rounds".into()
                    }),
                }
                if !another_round(&walls, opts.seconds) {
                    break;
                }
            }
            sample_setup(&mut setup_s)?;
        }
        Kind::Serve => {
            let mix = serve_mix(w.jobs.len(), serve::CLIENTS, opts.seed);
            // The result cache would answer a second pass, so every round
            // gets a fresh server; its start is one set-up sample.
            for round in 0.. {
                let dir = opts.work_dir.join(format!("round-{round}"));
                let server = serve::start(w, &dir)?;
                setup_s.push(server.setup_s);
                let result = serve::run_mix(w, &server, &mix);
                server.handle.stop(true);
                let (exchanges, wall) = result?;
                walls.push(wall);
                quality.push(serve::check_mix(&exchanges, report));
                let misses: Vec<f64> = exchanges
                    .iter()
                    .filter(|e| !e.sub.hit)
                    .map(|e| e.total_ms)
                    .collect();
                push_jobs(&misses);
                if round == 0 {
                    peak_rss = host::peak_rss_mb()?;
                }
                if !another_round(&walls, opts.seconds) {
                    break;
                }
            }
            // More set-up samples, taken after the peak-memory reading so
            // that earlier servers' freed memory cannot inflate it.
            while setup_s.len() < w.setup_reps() {
                let dir = opts.work_dir.join(format!("setup-{}", setup_s.len()));
                let server = serve::start(w, &dir)?;
                setup_s.push(server.setup_s);
                server.handle.stop(true);
            }
        }
    }
    report.check(
        quality.windows(2).all(|q| q[0].to_bits() == q[1].to_bits()),
        || format!("quality total differs between rounds: {quality:?}"),
    );
    if let (Some(golden), Some(&q)) = (w.golden_quality, quality.first()) {
        report.check(q == golden, || {
            format!("quality_total {q} != golden {golden}")
        });
    }
    report.push("setup_s", median(&setup_s), "s");
    report.push("wall_s", median(&walls), "s");
    report.push(
        "quality_total",
        quality.first().copied().unwrap_or(f64::NAN),
        "score",
    );
    report.push("peak_rss_mb", peak_rss, "MiB");
    report.push("job_ms_p50", median(&job_p50), "ms");
    report.push("job_ms_p90", median(&job_p90), "ms");
    Ok(())
}

/// Serve-layer figures from one pass of exchanges.
fn push_serve_layer(exchanges: &[serve::Exchange], report: &mut RunReport) {
    let misses: Vec<_> = exchanges.iter().filter(|e| !e.sub.hit).collect();
    let of = |f: fn(&serve::Exchange) -> f64| misses.iter().map(|e| f(e)).collect::<Vec<_>>();
    let acks: Vec<f64> = exchanges.iter().map(|e| e.ack_ms).collect();
    let hits: Vec<f64> = exchanges
        .iter()
        .filter(|e| e.sub.hit)
        .map(|e| e.total_ms)
        .collect();
    report.push("serve.ack_ms_p50", median(&acks), "ms");
    report.push("serve.queue_ms_p50", median(&of(|e| e.queue_ms)), "ms");
    report.push(
        "serve.queue_ms_p90",
        percentile(&of(|e| e.queue_ms), 90.0),
        "ms",
    );
    report.push("serve.run_ms_p50", median(&of(|e| e.run_ms)), "ms");
    report.push(
        "serve.feed_lag_ms_p50",
        median(&of(|e| e.feed_lag_ms)),
        "ms",
    );
    report.push("serve.hit_ms_p50", median(&hits), "ms");
    report.push(
        "serve.hit_frac",
        hits.len() as f64 / exchanges.len().max(1) as f64,
        "frac",
    );
}

fn traced(w: &Workload, opts: &Options, report: &mut RunReport) -> Result<(), String> {
    let bank_ms = build_banks(w, 3)?;
    let specs: Vec<_> = w.jobs.iter().map(|&(c, m)| w.spec(c, m)).collect();

    // One shared simulator, as the runtime's cache holds it.
    let cache = SimCache::new();
    let config = &specs[0].config;
    let sim = cache
        .get_or_build(&config.optics, config.resist, &config.conditions)
        .map_err(|e| format!("simulator build: {e}"))?;

    // The first session on a fresh simulator runs slow, so one short
    // untimed replay comes first.
    let mut ws = Workspace::new();
    let mut warm = specs[0].clone();
    warm.config.opt.max_iterations = 1;
    layers::replay(&warm, &sim, w.threads, &mut ws, false, &mut NoInstrument)?;

    // Every distinct job three times back to back, in an order that
    // alternates from job to job so host drift cancels: replayed with the
    // span recorder, replayed with no instrument, and on the runtime's
    // own per-job path. Traced minus plain session time is the tracing
    // overhead; runtime minus plain replay time is the runtime's self
    // time.
    let ckpt_dir = (w.kind == Kind::Serve).then(|| opts.work_dir.join("runtime"));
    let mut replays = Vec::new();
    let mut traces = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut job_self = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let capture = i == 0;
        let mut trace = Tracer::default();
        let mut traced_replay =
            |ws: &mut Workspace| layers::replay(spec, &sim, w.threads, ws, capture, &mut trace);
        let runtime_job = || layers::runtime_job(spec, &cache, w.threads, ckpt_dir.as_deref());
        let (r, plain, (runtime_ms, bits)) = if i % 2 == 0 {
            let r = traced_replay(&mut ws)?;
            let plain = layers::replay(spec, &sim, w.threads, &mut ws, capture, &mut NoInstrument)?;
            (r, plain, runtime_job()?)
        } else {
            let done = runtime_job()?;
            let plain = layers::replay(spec, &sim, w.threads, &mut ws, capture, &mut NoInstrument)?;
            (traced_replay(&mut ws)?, plain, done)
        };
        overhead_ms.push(r.session_ms - plain.session_ms);
        job_self.push(runtime_ms - plain.total_ms());
        report.check(bits == r.bits && plain.bits == r.bits, || {
            format!(
                "{}: runtime job or plain replay differs from the traced replay",
                spec.id
            )
        });
        replays.push(r);
        traces.push(trace);
    }
    report.attempted += 3 * replays.len() as u64;
    for (spec, trace) in specs.iter().zip(&traces) {
        report.check(trace.recoveries == 0, || {
            format!(
                "{}: optimizer needed {} recoveries",
                spec.id, trace.recoveries
            )
        });
    }

    // The first job again at the other thread count.
    let other_threads = if w.threads == 1 { 2 } else { 1 };
    let mut other_trace = Tracer::default();
    let other = layers::replay(
        &specs[0],
        &sim,
        other_threads,
        &mut ws,
        false,
        &mut other_trace,
    )?;
    report.attempted += 1;
    report.check(other.bits == replays[0].bits, || {
        format!("{}: metrics differ between 1 and 2 threads", specs[0].id)
    });
    let (t1, t2) = if w.threads == 1 {
        (&traces[0], &other_trace)
    } else {
        (&other_trace, &traces[0])
    };

    // Direct layer calls at the workload's grid.
    let layout = specs[0].clip.layout().map_err(|e| e.to_string())?;
    let mosaic = Mosaic::with_simulator(&layout, specs[0].config.clone(), Arc::clone(&sim))
        .map_err(|e| e.to_string())?;
    let fft_ms = layers::fft_pair_ms(mosaic.initial_mask());
    let (flops, bytes) = layers::fft_pair_model(w.grid, w.grid);
    let (eval_fast_ms, pool_bytes) = layers::eval_ms(&mosaic, MosaicMode::Fast)?;
    let (eval_exact_ms, _) = layers::eval_ms(&mosaic, MosaicMode::Exact)?;
    let forward_ms = layers::forward_ms(&sim, mosaic.initial_mask());
    let cp = traces[0]
        .checkpoint
        .as_ref()
        .ok_or("first replay captured no checkpoint")?;
    let ckpt = layers::checkpoint_cost(&opts.work_dir, cp)?;
    report.check(ckpt.round_trips, || {
        "checkpoint save -> load did not round-trip bit-exactly".into()
    });

    // Serve layer: the serve workload's own mix. A traced run reports
    // every per-layer metric, so the batch workloads, which never go
    // through serve, take these figures from a one-client probe (one
    // miss, one hit of the first job) at their own job shape.
    let mix = match w.kind {
        Kind::Serve => serve_mix(w.jobs.len(), serve::CLIENTS, opts.seed),
        Kind::Batch => vec![vec![
            workload::Submission { job: 0, hit: false },
            workload::Submission { job: 0, hit: true },
        ]],
    };
    let server = serve::start(w, &opts.work_dir.join("serve"))?;
    let result = serve::run_mix(w, &server, &mix);
    server.handle.stop(true);
    let serve_exchanges = result?.0;
    serve::check_mix(&serve_exchanges, report);
    for e in serve_exchanges.iter().filter(|e| !e.sub.hit) {
        report.check(e.bits == replays[e.sub.job].bits, || {
            format!(
                "{}: served result differs from the traced replay",
                specs[e.sub.job].id
            )
        });
    }

    let spans: Vec<_> = traces.iter().flat_map(|t| t.iters.clone()).collect();
    let iter_ms: Vec<f64> = spans.iter().map(|s| s.total_ms).collect();
    let evals: usize = traces.iter().map(|t| t.evals).sum();
    let step_self: Vec<f64> = spans.iter().map(layers::IterSpan::step_self_ms).collect();
    let kernels: usize = (0..sim.condition_count())
        .map(|i| sim.bank(i).kernels().len())
        .sum();

    report.push("numerics.fft_pair_ms", fft_ms, "ms");
    report.push("numerics.fft_flops", flops, "flop");
    report.push("numerics.fft_bytes", bytes, "B");
    report.push("numerics.fft_flop_per_byte", flops / bytes, "flop/B");
    report.push("numerics.fft_gflops", flops / (fft_ms * 1e6), "GFLOP/s");
    report.push("numerics.plane_mb", mib(w.plane_bytes()), "MiB");
    report.push("numerics.workspace_mb", mib(pool_bytes), "MiB");
    report.push("optics.bank_build_ms", median(&bank_ms), "ms");
    report.push("optics.kernels", kernels as f64, "count");
    report.push("optics.forward_ms", forward_ms, "ms");
    let problem: Vec<f64> = replays.iter().map(|r| r.problem_ms).collect();
    report.push("core.problem_ms", median(&problem), "ms");
    report.push("core.eval_ms", eval_fast_ms, "ms");
    report.push("core.eval_exact_ms", eval_exact_ms, "ms");
    report.push("core.iter_ms_p50", median(&iter_ms), "ms");
    report.push("core.iter_ms_p90", percentile(&iter_ms, 90.0), "ms");
    report.push(
        "core.useful_eval_frac",
        spans.len() as f64 / evals.max(1) as f64,
        "frac",
    );
    report.push("core.step_self_ms", median(&step_self), "ms");
    report.push(
        "core.t2_speedup",
        median(&t1.iter_ms()) / median(&t2.iter_ms()),
        "x",
    );
    let contest: Vec<f64> = replays.iter().map(|r| r.contest_ms).collect();
    report.push("eval.contest_ms", median(&contest), "ms");
    report.push("runtime.job_self_ms", median(&job_self), "ms");
    report.push("runtime.ckpt_save_ms", ckpt.save_ms, "ms");
    report.push("runtime.ckpt_load_ms", ckpt.load_ms, "ms");
    report.push("runtime.ckpt_mb", ckpt.mb, "MiB");
    push_serve_layer(&serve_exchanges, report);
    // Per job, traced minus plain session; the median, so that one
    // host stall does not stand for the whole workload, times the jobs.
    report.push(
        "trace.overhead_s",
        median(&overhead_ms) * specs.len() as f64 / 1e3,
        "s",
    );
    Ok(())
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// A fresh work directory for one run under `root`.
pub fn work_dir(root: &Path) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    root.join(format!("run-{}-{nanos}", std::process::id()))
}
