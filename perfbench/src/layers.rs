//! Per-layer measurements, all taken from outside the engine: a span
//! recorder plugged into `ExecutionSession::run_instrumented`, and
//! timed calls into each layer's public functions.

use crate::report::ClipBits;
use crate::stats::median;
use mosaic_core::objective::{Evaluation, Objective};
use mosaic_core::{
    Instrument, IterationControl, IterationRecord, IterationView, MaskState, Mosaic, MosaicMode,
    OptimizerCheckpoint,
};
use mosaic_eval::Evaluator;
use mosaic_numerics::{Fft2d, Grid, SplitSpectrum, Workspace};
use mosaic_optics::LithoSimulator;
use mosaic_runtime::job::EPE_THRESHOLD_NM;
use mosaic_runtime::{
    checkpoint, execute_job, CancelToken, DegradationLadder, EventSink, JobContext, JobSpec,
    JobStatus, RealVfs, SimCache, Supervisor, SupervisorConfig,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median time of `f`, ms, after one untimed warm-up call: at least
/// `min_reps` samples, more while `budget_s` lasts.
fn time_reps(budget_s: f64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (start.elapsed().as_secs_f64() < budget_s && samples.len() < 200)
    {
        let t = Instant::now();
        f();
        samples.push(ms_since(t));
    }
    median(&samples)
}

/// One iteration's spans.
#[derive(Debug, Clone, Copy)]
pub struct IterSpan {
    /// `on_iteration_start` → `on_iteration_end`, ms.
    pub total_ms: f64,
    /// `on_iteration_start` → first `on_objective_eval`: the iteration's
    /// main objective-and-gradient evaluation, ms.
    pub eval_ms: f64,
    /// Objective evaluations in the iteration, line-search trials
    /// included.
    pub evals: usize,
}

impl IterSpan {
    /// Iteration time not spent evaluating, taking every evaluation of
    /// the iteration to cost what its main one did, ms.
    pub fn step_self_ms(&self) -> f64 {
        self.total_ms - self.evals as f64 * self.eval_ms
    }
}

/// Span recorder for one optimization session: per-iteration spans,
/// guard recoveries, and the checkpoint the session's capture policy
/// hands over.
#[derive(Debug, Default)]
pub struct Tracer {
    open: Option<(Instant, Option<Instant>, usize)>,
    /// Completed iterations.
    pub iters: Vec<IterSpan>,
    /// `on_objective_eval` count, line-search trials included.
    pub evals: usize,
    /// Numerical-guard rollbacks.
    pub recoveries: usize,
    /// Last checkpoint captured.
    pub checkpoint: Option<OptimizerCheckpoint>,
}

impl Tracer {
    /// Iteration wall times, ms.
    pub fn iter_ms(&self) -> Vec<f64> {
        self.iters.iter().map(|s| s.total_ms).collect()
    }
}

impl Instrument for Tracer {
    fn on_iteration_start(&mut self, _iteration: usize) {
        self.open = Some((Instant::now(), None, 0));
    }
    fn on_objective_eval(&mut self) {
        self.evals += 1;
        if let Some((_, first, n)) = &mut self.open {
            first.get_or_insert_with(Instant::now);
            *n += 1;
        }
    }
    fn on_iteration_end(&mut self, _view: &IterationView<'_>) -> IterationControl {
        if let Some((start, Some(first), evals)) = self.open.take() {
            self.iters.push(IterSpan {
                total_ms: ms_since(start),
                eval_ms: first.duration_since(start).as_secs_f64() * 1e3,
                evals,
            });
        }
        IterationControl::Continue
    }
    fn on_checkpoint(&mut self, checkpoint: &OptimizerCheckpoint) {
        self.checkpoint = Some(checkpoint.clone());
    }
    fn on_recovery(&mut self, _record: &IterationRecord) {
        self.recoveries += 1;
        self.open = None;
    }
}

/// One job replayed layer by layer.
#[derive(Debug)]
pub struct Replay {
    /// Clip layout plus `Mosaic::with_simulator`, ms.
    pub problem_ms: f64,
    /// `run_instrumented`, ms.
    pub session_ms: f64,
    /// `Evaluator::new` plus `evaluate_mask` on the final mask, ms.
    pub contest_ms: f64,
    /// Quality outputs.
    pub bits: ClipBits,
}

impl Replay {
    /// Everything the replay timed, ms.
    pub fn total_ms(&self) -> f64 {
        self.problem_ms + self.session_ms + self.contest_ms
    }
}

/// Replays `spec` the way the runtime runs a job (problem build on the
/// shared simulator, one session on a warmed workspace, contest
/// scoring), with `instrument` attached to the session. With `capture`,
/// the session captures a checkpoint after its last iteration.
///
/// # Errors
///
/// Propagates clip, problem and optimizer errors as text.
pub fn replay(
    spec: &JobSpec,
    sim: &Arc<LithoSimulator>,
    threads: usize,
    ws: &mut Workspace,
    capture: bool,
    instrument: &mut impl Instrument,
) -> Result<Replay, String> {
    let t = Instant::now();
    let layout = spec
        .clip
        .layout()
        .map_err(|e| format!("{}: {e}", spec.id))?;
    let mosaic = Mosaic::with_simulator(&layout, spec.config.clone(), Arc::clone(sim))
        .map_err(|e| format!("{}: {e}", spec.id))?;
    let problem_ms = ms_since(t);

    let optics = &spec.config.optics;
    let (w, h) = (optics.grid_width, optics.grid_height);
    ws.warm_spectral(w, h);
    let mut session = mosaic.session(spec.mode).workspace(ws).threads(threads);
    if capture {
        session = session.checkpoints(spec.config.opt.max_iterations);
    }
    let t = Instant::now();
    let result = session
        .run_instrumented(instrument)
        .map_err(|e| format!("{}: {e}", spec.id))?;
    let session_ms = ms_since(t);

    let t = Instant::now();
    let evaluator = Evaluator::new(
        &layout,
        (w, h),
        optics.pixel_nm,
        spec.config.epe_spacing_nm,
        EPE_THRESHOLD_NM,
    );
    let contest = evaluator.evaluate_mask(sim, &result.binary_mask, 0.0);
    let contest_ms = ms_since(t);
    Ok(Replay {
        problem_ms,
        session_ms,
        contest_ms,
        bits: ClipBits {
            epe: contest.epe_violations,
            pvband: contest.pvband_nm2.to_bits(),
            shape: contest.shape_violations,
            quality: contest.score.quality().to_bits(),
        },
    })
}

/// Runs `spec` through the runtime's own per-job path
/// (`execute_job`, with `run_batch`'s supervision and ladder) on
/// the shared `cache`; returns its time, ms, and its quality outputs.
/// With `checkpoint_dir` the job checkpoints every iteration, as serve
/// workers do.
///
/// # Errors
///
/// Fails when the job errors or does not finish cleanly.
pub fn runtime_job(
    spec: &JobSpec,
    cache: &SimCache,
    threads: usize,
    checkpoint_dir: Option<&Path>,
) -> Result<(f64, ClipBits), String> {
    let events = EventSink::null();
    let cancel = CancelToken::new();
    let supervisor = Supervisor::new(SupervisorConfig::default());
    let ladder = DegradationLadder::default();
    let ctx = JobContext {
        cache,
        events: &events,
        cancel: &cancel,
        deadline: None,
        checkpoint_dir,
        checkpoint_every: 1,
        faults: None,
        supervisor: Some(&supervisor),
        ladder: Some(&ladder),
        max_attempts: 2,
        lease: None,
        threads,
        vfs: &RealVfs,
    };
    let t = Instant::now();
    let report = execute_job(spec, 1, &ctx).map_err(|e| format!("{}: {e}", spec.id))?;
    let ms = ms_since(t);
    match (&report.metrics, report.status, report.degraded) {
        (Some(m), JobStatus::Finished, false) => Ok((ms, ClipBits::of(m))),
        _ => Err(format!("{}: runtime job did not finish cleanly", spec.id)),
    }
}

/// Warm split-plane real forward + inverse 2-D FFT pair on `input`, ms.
pub fn fft_pair_ms(input: &Grid<f64>) -> f64 {
    let (w, h) = input.dims();
    let fft = Fft2d::new(w, h);
    let mut ws = Workspace::new();
    let mut half = SplitSpectrum::zeros(fft.half_width(), h);
    let mut out = Grid::zeros(w, h);
    time_reps(0.3, 5, || {
        fft.forward_real_split_into(black_box(input), &mut half, &mut ws);
        fft.inverse_real_split_into(&mut half, &mut out, &mut ws);
        black_box(&out);
    })
}

/// Computed (not measured) cost of one real FFT pair on a `w × h` grid.
///
/// Flops: `2.5·n·log2 n` per real row transform of length `n` and
/// `5·n·log2 n` per complex column transform, both directions. Bytes: a
/// streaming model in which every pass reads and writes its planes once
/// — the real plane (8 B/px) and the split half spectrum (16 B per
/// half-width px) on the row pass, and three read+write sweeps of the
/// half spectrum on the column pass (transpose in, transform, transpose
/// out). Cache reuse is ignored, so the figure bounds traffic from
/// above for grids that fit a cache level.
pub fn fft_pair_model(w: usize, h: usize) -> (f64, f64) {
    let hw = (w / 2 + 1) as f64;
    let (wf, hf) = (w as f64, h as f64);
    let flops_one_way = hf * 2.5 * wf * wf.log2() + hw * 5.0 * hf * hf.log2();
    let real = 8.0 * wf * hf;
    let half = 16.0 * hw * hf;
    let bytes_one_way = real + half + 6.0 * half;
    (2.0 * flops_one_way, 2.0 * bytes_one_way)
}

/// One warm objective-and-gradient evaluation in `mode`, ms, and the
/// scratch pool's size afterwards, bytes.
///
/// # Errors
///
/// Fails when the objective rejects the configuration.
pub fn eval_ms(mosaic: &Mosaic, mode: MosaicMode) -> Result<(f64, usize), String> {
    let config = mosaic.config_for(mode);
    let objective = Objective::new(mosaic.problem(), &config).map_err(|e| e.to_string())?;
    let state = MaskState::from_mask(mosaic.initial_mask(), config.mask_steepness);
    let mut ws = Workspace::new();
    let mut eval = Evaluation::empty();
    let t = time_reps(0.5, 3, || {
        objective.evaluate_into(&state, &mut ws, &mut eval)
    });
    Ok((t, ws.pooled_bytes()))
}

/// `printed_all_conditions` on `mask`, ms.
pub fn forward_ms(sim: &LithoSimulator, mask: &Grid<f64>) -> f64 {
    time_reps(0.5, 3, || {
        black_box(sim.printed_all_conditions(black_box(mask)));
    })
}

/// Checkpoint save and load through the runtime's public functions.
#[derive(Debug)]
pub struct CheckpointCost {
    /// `checkpoint::save`, ms.
    pub save_ms: f64,
    /// `checkpoint::load`, ms.
    pub load_ms: f64,
    /// Bytes on disk, MiB.
    pub mb: f64,
    /// Whether the loaded checkpoint equals the saved one bit for bit.
    pub round_trips: bool,
}

/// Saves and loads `cp` under `dir` repeatedly.
///
/// # Errors
///
/// Propagates I/O errors and a checkpoint that fails to load.
pub fn checkpoint_cost(dir: &Path, cp: &OptimizerCheckpoint) -> Result<CheckpointCost, String> {
    let id = "layer-probe";
    let mut failure = None;
    let save_ms = time_reps(0.3, 5, || {
        if let Err(e) = checkpoint::save(dir, id, cp) {
            failure.get_or_insert(format!("checkpoint save: {e}"));
        }
    });
    let mut loaded = None;
    let load_ms = time_reps(0.3, 5, || match checkpoint::load(dir, id) {
        Ok(c) => loaded = c,
        Err(e) => {
            failure.get_or_insert(format!("checkpoint load: {e}"));
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let bytes: u64 = std::fs::read_dir(checkpoint::job_dir(dir, id))
        .map_err(|e| format!("checkpoint dir: {e}"))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    checkpoint::clear(dir, id).map_err(|e| format!("checkpoint clear: {e}"))?;
    Ok(CheckpointCost {
        save_ms,
        load_ms,
        mb: bytes as f64 / (1 << 20) as f64,
        round_trips: loaded.is_some_and(|l| same_bits(&l, cp)),
    })
}

fn same_bits(a: &OptimizerCheckpoint, b: &OptimizerCheckpoint) -> bool {
    let grid = |x: &Grid<f64>, y: &Grid<f64>| {
        x.dims() == y.dims()
            && x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(p, q)| p.to_bits() == q.to_bits())
    };
    grid(&a.variables, &b.variables)
        && grid(&a.best_variables, &b.best_variables)
        && a.best_value.to_bits() == b.best_value.to_bits()
        && a.prev_value.to_bits() == b.prev_value.to_bits()
        && a.stagnant == b.stagnant
        && a.iterations_done == b.iterations_done
        && a.recoveries == b.recoveries
        && a.step_damp.to_bits() == b.step_damp.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_model_grows_n_log_n() {
        let (f256, b256) = fft_pair_model(256, 256);
        let (f1024, b1024) = fft_pair_model(1024, 1024);
        assert!(f1024 / f256 > 16.0 && f1024 / f256 < 20.0);
        assert!((b1024 / b256 - 16.0).abs() < 0.2);
    }
}
