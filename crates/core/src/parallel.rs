//! Intra-job evaluation state (DESIGN.md §14).
//!
//! [`ParallelExec`] is the per-session execution state every objective
//! evaluation runs on. It is built once per session by
//! [`Objective::parallel_exec`](crate::objective::Objective::parallel_exec)
//! and always holds a [`SpectralTeam`]; serial execution is simply the
//! inline team (no worker threads). On top of the team there are two
//! decompositions of the same per-condition body
//! ([`combined_condition`]):
//!
//! * **Spectral team** — `threads − 1` workers that band the row/column
//!   passes of every 2-D FFT and fan out the per-kernel SOCS
//!   convolutions. Used when the evaluation is dominated by one
//!   condition (nominal-only runs, `β = 0`, or the per-kernel gradient
//!   mode), and — as the inline team — for every single-threaded run.
//! * **Corner fan-out** — a [`WorkerPool`] of [`CornerTask`]s, one per
//!   process corner of `F_pvb` (Eq. (18)). Each worker runs a whole
//!   corner against its own persistent mask-spectrum copy and scratch,
//!   and hands back a *raw* unscaled gradient plane. The calling thread
//!   performs the `grad += scale · r` accumulate and the `report.pvb`
//!   sum itself, in condition order, so every floating-point operation
//!   happens in exactly the order of a one-thread run and results are
//!   bit-identical at any thread count (including signed zeros).
//!
//! Either way at most `threads` OS threads are ever runnable: the pool
//! owns `threads − 1` workers and the calling thread takes a share of
//! each wave.

use mosaic_numerics::{
    Convolver, FftDirection, Grid, KernelSpectrum, PoolTask, SpectralTeam, SplitSpectrum,
    WorkerPool, Workspace,
};
use mosaic_optics::{KernelSet, ResistModel};
use std::sync::Arc;

/// One condition of the combined-mode objective: aerial image → resist
/// → `∂F/∂I` → combined-kernel adjoint (Eq. (14)/(18)/(21)).
///
/// `terms(z, dz, g, ws)` accumulates `∂F/∂I` of the condition's active
/// terms into the zeroed `g`. The adjoint `Re[(G ⊙ (M ⊗ H)) ★ H]` is
/// written **raw and unscaled** into `r_plane`; the caller adds
/// `2·dose · r` to the mask gradient, so a one-thread run and the corner
/// fan-out perform the same accumulate in the same order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn combined_condition(
    bank: &KernelSet,
    conv: &Convolver,
    combined: &KernelSpectrum,
    resist: &ResistModel,
    mask_spectrum: &SplitSpectrum,
    r_plane: &mut Grid<f64>,
    ws: &mut Workspace,
    team: &mut SpectralTeam,
    terms: impl FnOnce(&Grid<f64>, &Grid<f64>, &mut Grid<f64>, &mut Workspace),
) {
    let (gw, gh) = mask_spectrum.dims();
    let mut intensity = ws.take_real_grid(gw, gh);
    let mut z = ws.take_real_grid(gw, gh);
    let mut dz = ws.take_real_grid(gw, gh);
    let mut g = ws.take_real_grid_zeroed(gw, gh);
    bank.aerial_image_accumulate_split(conv, mask_spectrum, &mut intensity, ws, team);
    // Z and dZ/dI in one fused pass (one exponential per pixel).
    resist.develop_with_derivative_into(&intensity, &mut z, &mut dz);
    terms(&z, &dz, &mut g, ws);
    let mut field = ws.take_split(gw, gh);
    conv.convolve_spectrum_split_into(mask_spectrum, combined, &mut field, ws, team);
    scale_split_by_real(&mut field, &g);
    conv.plan()
        .process_split(&mut field, FftDirection::Forward, ws, team);
    conv.correlate_spectrum_re_split_into(&field, combined, r_plane, ws, team);
    ws.give_split(field);
    ws.give_real_grid(g);
    ws.give_real_grid(dz);
    ws.give_real_grid(z);
    ws.give_real_grid(intensity);
}

/// `F_pvb` contribution of one condition, `Σ (Z_c − Z_t)²` (returned
/// unweighted), with its `∂F/∂I` accumulated into `g`.
pub(crate) fn pvb_accumulate(
    z: &Grid<f64>,
    target: &Grid<f64>,
    dz: &Grid<f64>,
    beta: f64,
    pixel_area: f64,
    g: &mut Grid<f64>,
) -> f64 {
    let mut value = 0.0;
    for ((gv, (zv, tv)), dv) in g.iter_mut().zip(z.iter().zip(target.iter())).zip(dz.iter()) {
        let diff = zv - tv;
        value += diff * diff;
        *gv += beta * pixel_area * 2.0 * diff * dv;
    }
    value
}

/// Scales both planes of `field` pixel-wise by the real grid `g`.
pub(crate) fn scale_split_by_real(field: &mut SplitSpectrum, g: &Grid<f64>) {
    let (fr, fi) = field.planes_mut();
    for ((r, i), &gv) in fr.iter_mut().zip(fi.iter_mut()).zip(g.iter()) {
        *r *= gv;
        *i *= gv;
    }
}

/// One process corner of `F_pvb`, runnable on a worker thread.
///
/// The task owns clones of the (Arc-backed) simulator pieces it needs
/// plus two persistent grids, so repeated evaluations perform zero
/// steady-state allocations. Everything it computes lands in its own
/// `pvb_value` / `r_plane`; the deterministic merge is the caller's job.
pub(crate) struct CornerTask {
    pub(crate) bank: Arc<KernelSet>,
    pub(crate) conv: Convolver,
    pub(crate) combined: Arc<KernelSpectrum>,
    pub(crate) resist: ResistModel,
    pub(crate) target: Arc<Grid<f64>>,
    pub(crate) beta: f64,
    pub(crate) pixel_area: f64,
    /// The corner's dose; the caller scales the raw gradient plane by
    /// `2·dose` during the merge.
    pub(crate) dose: f64,
    /// Caller-refreshed copy of the iteration's mask spectrum.
    pub(crate) mask_spectrum: SplitSpectrum,
    /// Output: the raw `Re[(G ⊙ (M ⊗ H)) ★ H]` plane, **unscaled**.
    pub(crate) r_plane: Grid<f64>,
    /// Output: the corner's unweighted `Σ (Z_c − Z_t)²`.
    pub(crate) pvb_value: f64,
}

impl PoolTask for CornerTask {
    /// [`combined_condition`] with the `F_pvb` term alone, on the
    /// worker's own thread.
    fn run(&mut self, ws: &mut Workspace) {
        let (target, beta, pixel_area) = (&self.target, self.beta, self.pixel_area);
        let mut value = 0.0;
        combined_condition(
            &self.bank,
            &self.conv,
            &self.combined,
            &self.resist,
            &self.mask_spectrum,
            &mut self.r_plane,
            ws,
            &mut SpectralTeam::inline(),
            |z, dz, g, _| value = pvb_accumulate(z, target, dz, beta, pixel_area, g),
        );
        self.pvb_value = value;
    }
}

/// The corner fan-out's pool and task slots.
struct Corners {
    pool: WorkerPool<CornerTask>,
    /// One task per corner (conditions `1..m`), in condition order.
    tasks: Vec<Option<CornerTask>>,
    /// In-flight scratch lanes, one per pool worker.
    lanes: Vec<Option<CornerTask>>,
}

/// Reusable execution state for one session's evaluations; see the
/// [module docs](self).
///
/// Built by
/// [`Objective::parallel_exec`](crate::objective::Objective::parallel_exec)
/// and threaded through every
/// [`evaluate_parallel`](crate::objective::Objective::evaluate_parallel)
/// call of the run.
pub struct ParallelExec {
    /// The team the calling thread's transforms run on: `threads − 1`
    /// workers in team mode, inline otherwise.
    team: SpectralTeam,
    /// The corner fan-out, when whole `F_pvb` corners go to workers.
    corners: Option<Corners>,
}

impl std::fmt::Debug for ParallelExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.corners {
            None => f
                .debug_struct("ParallelExec")
                .field("mode", &"team")
                .field("workers", &self.team.workers())
                .finish(),
            Some(c) => f
                .debug_struct("ParallelExec")
                .field("mode", &"corners")
                .field("workers", &c.pool.workers())
                .field("corners", &c.tasks.len())
                .finish(),
        }
    }
}

impl ParallelExec {
    /// Spectral-team shape (`workers = 0` is the inline team).
    pub(crate) fn team(workers: usize) -> Self {
        ParallelExec {
            team: SpectralTeam::new(workers),
            corners: None,
        }
    }

    /// Corner fan-out shape with one prepared task per corner; the
    /// calling thread's own transforms run inline.
    pub(crate) fn corners(workers: usize, tasks: Vec<CornerTask>) -> Self {
        let pool = WorkerPool::new(workers);
        let lanes = (0..pool.workers()).map(|_| None).collect();
        ParallelExec {
            team: SpectralTeam::inline(),
            corners: Some(Corners {
                pool,
                tasks: tasks.into_iter().map(Some).collect(),
                lanes,
            }),
        }
    }

    /// Whether evaluations fan out whole process corners (as opposed to
    /// banding individual transforms).
    pub(crate) fn corner_mode(&self) -> bool {
        self.corners.is_some()
    }

    /// The spectral team the calling thread's transforms run on.
    pub(crate) fn team_mut(&mut self) -> &mut SpectralTeam {
        &mut self.team
    }

    /// Arms a one-shot injected panic on whichever pool this exec drives
    /// (`FaultKind::ParallelPanicAtIteration`); a no-op on the inline
    /// team.
    pub fn arm_panic(&self) {
        match &self.corners {
            Some(c) => c.pool.arm_panic(),
            None => self.team.arm_panic(),
        }
    }

    /// Refreshes every corner task with this evaluation's mask spectrum
    /// and dispatches the first chunk of worker corners, so they overlap
    /// with the caller's nominal-condition work. No-op outside corner
    /// mode.
    pub(crate) fn corners_start(&mut self, mask_spectrum: &SplitSpectrum) {
        let Some(Corners { pool, tasks, lanes }) = &mut self.corners else {
            return;
        };
        for task in tasks.iter_mut().flatten() {
            task.mask_spectrum.copy_from(mask_spectrum);
            task.pvb_value = 0.0;
        }
        dispatch_chunk(pool, tasks, lanes, 0);
    }

    /// Runs the caller's share of every chunk and drains the workers.
    /// After this, each task holds its corner's `pvb_value` / `r_plane`
    /// and the caller can merge them in condition order. No-op outside
    /// corner mode.
    ///
    /// Corners are processed in chunks of `workers + 1`: `workers` on
    /// the pool, one on the calling thread. A worker panic propagates
    /// from the pool's `collect` after every lane drains, leaving the
    /// pool reusable for the retry.
    pub(crate) fn corners_finish(&mut self, ws: &mut Workspace) {
        let Some(Corners { pool, tasks, lanes }) = &mut self.corners else {
            return;
        };
        let stride = pool.workers() + 1;
        let mut base = 0;
        while base < tasks.len() {
            let caller_idx = base + pool.workers();
            if caller_idx < tasks.len() {
                if let Some(task) = tasks[caller_idx].as_mut() {
                    task.run(ws);
                }
            }
            collect_chunk(pool, tasks, lanes, base);
            base += stride;
            if base < tasks.len() {
                dispatch_chunk(pool, tasks, lanes, base);
            }
        }
    }

    /// The finished corner tasks, in condition order (`1..m`).
    pub(crate) fn corner_tasks(&self) -> impl Iterator<Item = &CornerTask> {
        let tasks = match &self.corners {
            Some(c) => c.tasks.as_slice(),
            None => &[],
        };
        tasks.iter().filter_map(|t| t.as_ref())
    }
}

/// Moves tasks `base..base + workers` into the pool lanes and dispatches
/// them.
fn dispatch_chunk(
    pool: &mut WorkerPool<CornerTask>,
    tasks: &mut [Option<CornerTask>],
    lanes: &mut [Option<CornerTask>],
    base: usize,
) {
    for (lane, slot) in lanes.iter_mut().enumerate() {
        let idx = base + lane;
        if idx >= tasks.len() {
            break;
        }
        *slot = tasks[idx].take();
    }
    pool.dispatch(lanes);
}

/// Collects the chunk dispatched at `base` and moves the finished tasks
/// back to their condition slots.
fn collect_chunk(
    pool: &mut WorkerPool<CornerTask>,
    tasks: &mut [Option<CornerTask>],
    lanes: &mut [Option<CornerTask>],
    base: usize,
) {
    pool.collect(lanes);
    for (lane, slot) in lanes.iter_mut().enumerate() {
        let idx = base + lane;
        if idx >= tasks.len() {
            break;
        }
        if slot.is_some() {
            tasks[idx] = slot.take();
        }
    }
}
