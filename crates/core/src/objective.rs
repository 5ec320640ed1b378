//! Objective terms and closed-form gradients (§3.2–§3.5).
//!
//! All three terms share one structure: a scalar field `G = ∂F/∂I` on the
//! image plane, pushed back through the imaging system by the adjoint of
//! the convolution. For the SOCS model `I = dose·Σ_k w_k |M ⊗ h_k|²`,
//!
//! ```text
//! ∂F/∂M = 2·dose · Σ_k w_k · Re[ (G ⊙ (M ⊗ h_k)) ★ h_k ]
//! ```
//!
//! where `★` is cross-correlation with the conjugated kernel (the
//! `H*(−x)` terms of Eq. (14)/(17)). Two gradient modes are provided:
//!
//! * [`GradientMode::PerKernel`] — the exact adjoint, one correlation per
//!   kernel per condition;
//! * [`GradientMode::Combined`] — the paper's Eq. (21) speedup: kernels
//!   are pre-combined into `H = Σ_k w_k h_k`, collapsing the sum to a
//!   single convolution and a single correlation per condition (this is
//!   the form actually written in Eq. (14) and Eq. (17)).
//!
//! The terms:
//!
//! * **F_id** (Eq. (16)) — image difference `Σ |Z_nom − Z_t|^γ`, γ = 4 by
//!   default; `∂F/∂Z = γ·|Z−Z_t|^{γ−1}·sign(Z−Z_t)`.
//! * **F_epe** (Eq. (9)–(14)) — for every EPE site, `Dsum` accumulates
//!   the squared image error along the edge normal over a `±th_epe`
//!   window; since `D ∈ {0,1}` on near-binary images, `Dsum` counts
//!   displaced pixels and so *is* the |EPE| in pixels. A sigmoid with
//!   steepness `θ_epe` turns `Dsum ≥ th_epe` into a differentiable
//!   violation indicator, and the objective is the smoothed violation
//!   count.
//! * **F_pvb** (Eq. (18)) — `Σ_corners Σ (Z_c − Z_t)²`, pulling every
//!   corner's printed edge toward the target to shrink the PV band.

use crate::error::OptimizerError;
use crate::mask::MaskState;
use crate::optimizer::OptimizationConfig;
use crate::parallel::{
    combined_condition, pvb_accumulate, scale_split_by_real, CornerTask, ParallelExec,
};
use crate::problem::OpcProblem;
use mosaic_geometry::Orientation;
use mosaic_numerics::{FftDirection, Grid, KernelSpectrum, SpectralTeam, SplitSpectrum, Workspace};
use mosaic_optics::KernelSet;
use std::sync::Arc;

/// How the gradient folds the kernel bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradientMode {
    /// Exact adjoint: one correlation per kernel (h× the convolutions).
    PerKernel,
    /// Eq. (21): kernels pre-combined into `H = Σ w_k h_k` — the paper's
    /// formulation and default.
    #[default]
    Combined,
}

/// Which design-target term the objective uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetTerm {
    /// Image difference `F_id` (Eq. (16)) — MOSAIC_fast.
    #[default]
    ImageDifference,
    /// Direct EPE-violation minimization `F_epe` (Eq. (12)) —
    /// MOSAIC_exact.
    EdgePlacement,
}

/// Scalar breakdown of one objective evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObjectiveReport {
    /// `α·target + β·pvb`.
    pub total: f64,
    /// Weighted design-target term (`α·F_epe` or `α·F_id`).
    pub target: f64,
    /// Weighted process-window term `β·F_pvb`.
    pub pvb: f64,
}

/// One evaluation: the report plus the gradient w.r.t. the unconstrained
/// variables `P`.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Objective values.
    pub report: ObjectiveReport,
    /// `∂F/∂P` on the simulation grid.
    pub gradient: Grid<f64>,
}

impl Evaluation {
    /// An empty evaluation for [`Objective::evaluate_into`] to fill; the
    /// gradient grid is sized on first use and reused afterwards, so one
    /// `Evaluation` can serve a whole optimization run without
    /// reallocating.
    pub fn empty() -> Self {
        Evaluation {
            report: ObjectiveReport::default(),
            gradient: Grid::zeros(0, 0),
        }
    }
}

impl Default for Evaluation {
    fn default() -> Self {
        Evaluation::empty()
    }
}

/// A reusable objective evaluator bound to one problem and configuration.
///
/// Construction precomputes the combined kernel spectrum of every
/// condition (Eq. (21)), so repeated evaluations only pay FFTs.
#[derive(Debug)]
pub struct Objective<'a> {
    problem: &'a OpcProblem,
    config: &'a OptimizationConfig,
    combined: Vec<Arc<KernelSpectrum>>,
    epe_threshold_px: usize,
}

impl<'a> Objective<'a> {
    /// Binds an evaluator to a problem and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError::InvalidConfig`] if the configuration
    /// fails
    /// [`OptimizationConfig::validate`](crate::optimizer::OptimizationConfig::validate).
    pub fn new(
        problem: &'a OpcProblem,
        config: &'a OptimizationConfig,
    ) -> Result<Self, OptimizerError> {
        config.validate().map_err(OptimizerError::InvalidConfig)?;
        let sim = problem.simulator();
        let combined = (0..sim.condition_count())
            .map(|i| Arc::new(sim.bank(i).combined()))
            .collect();
        let epe_threshold_px =
            ((config.epe_threshold_nm / problem.pixel_nm()).round() as usize).max(1);
        Ok(Objective {
            problem,
            config,
            combined,
            epe_threshold_px,
        })
    }

    /// The EPE window half-width in pixels.
    pub fn epe_threshold_px(&self) -> usize {
        self.epe_threshold_px
    }

    /// Evaluates `F` and `∂F/∂P` at the current mask state.
    pub fn evaluate(&self, state: &MaskState) -> Evaluation {
        let mut ws = Workspace::new();
        let mut eval = Evaluation::empty();
        self.evaluate_into(state, &mut ws, &mut eval);
        eval
    }

    /// Allocation-free twin of [`evaluate`](Self::evaluate): fills `eval`
    /// drawing every intermediate from `ws`. With a warm workspace and a
    /// sized `eval.gradient`, an evaluation in [`GradientMode::Combined`]
    /// performs zero heap allocations (asserted by the allocation smoke
    /// test); [`GradientMode::PerKernel`] additionally keeps one `Vec` of
    /// per-kernel field handles per call.
    ///
    /// There is exactly one numeric path: `evaluate` delegates here, and
    /// this is [`evaluate_parallel`](Self::evaluate_parallel) on the
    /// inline team, so every entry point is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the state's shape differs from the problem grid.
    pub fn evaluate_into(&self, state: &MaskState, ws: &mut Workspace, eval: &mut Evaluation) {
        self.evaluate_parallel(state, ws, eval, &mut ParallelExec::team(0));
    }

    /// Evaluates `F` and `∂F/∂P` on the execution state built by
    /// [`parallel_exec`](Self::parallel_exec) (DESIGN.md §14).
    ///
    /// **Bit-identical** at every thread count: each transform a worker
    /// runs is the same code against task-private state, and every
    /// cross-thread reduction is replayed by the calling thread in a
    /// fixed order.
    ///
    /// # Panics
    ///
    /// Panics if the state's shape differs from the problem grid, or
    /// re-raises a worker panic (fault injection / hardware faults)
    /// after the worker pool has drained — the pool stays reusable, so
    /// callers may retry.
    pub fn evaluate_parallel(
        &self,
        state: &MaskState,
        ws: &mut Workspace,
        eval: &mut Evaluation,
        par: &mut ParallelExec,
    ) {
        let (gw, gh) = state.dims();
        let mut mask = ws.take_real_grid(gw, gh);
        let mut dmask_dp = ws.take_real_grid(gw, gh);
        state.mask_into(&mut mask);
        state.mask_derivative_into(&mut dmask_dp);
        self.evaluate_parameterized_core(&mask, &dmask_dp, ws, eval, par);
        ws.give_real_grid(dmask_dp);
        ws.give_real_grid(mask);
    }

    /// Builds the reusable execution state for
    /// [`evaluate_parallel`](Self::evaluate_parallel).
    ///
    /// `threads − 1` workers are spawned; the calling thread is the
    /// remaining member of the team, so `threads <= 1` is the inline
    /// team with no worker threads at all. The decomposition is chosen
    /// once, from the problem shape: process-corner fan-out when the
    /// objective has corners to farm out (`F_pvb` active, combined
    /// gradient mode) and workers to farm them to, banded-FFT/kernel
    /// fan-out otherwise.
    pub fn parallel_exec(&self, threads: usize) -> ParallelExec {
        let workers = threads.saturating_sub(1);
        let sim = self.problem.simulator();
        let corner_mode = workers > 0
            && sim.condition_count() > 1
            && self.config.beta > 0.0
            && self.config.gradient_mode == GradientMode::Combined;
        if !corner_mode {
            return ParallelExec::team(workers);
        }
        let (gw, gh) = self.problem.grid_dims();
        let pixel_area = self.problem.pixel_nm() * self.problem.pixel_nm();
        let target = Arc::new(self.problem.target().clone());
        let tasks = (1..sim.condition_count())
            .map(|c| CornerTask {
                bank: Arc::clone(&sim.shared_banks()[c]),
                conv: sim.convolver().clone(),
                combined: Arc::clone(&self.combined[c]),
                resist: *sim.resist(),
                target: Arc::clone(&target),
                beta: self.config.beta,
                pixel_area,
                dose: sim.bank(c).condition().dose,
                mask_spectrum: SplitSpectrum::zeros(gw, gh),
                r_plane: Grid::zeros(gw, gh),
                pvb_value: 0.0,
            })
            .collect();
        ParallelExec::corners(workers, tasks)
    }

    /// Evaluates `F` and its gradient for an arbitrary mask
    /// parameterization: `mask` is the transmission field `M(P)` (values
    /// may be negative for phase-shifting masks) and `dmask_dp` the
    /// pixel-wise transform derivative `dM/dP` used for the final chain
    /// rule. [`evaluate`](Self::evaluate) is the binary-mask
    /// specialization.
    ///
    /// # Panics
    ///
    /// Panics if the grids' shape differs from the problem grid.
    pub fn evaluate_parameterized(&self, mask: &Grid<f64>, dmask_dp: &Grid<f64>) -> Evaluation {
        let mut ws = Workspace::new();
        let mut eval = Evaluation::empty();
        self.evaluate_parameterized_into(mask, dmask_dp, &mut ws, &mut eval);
        eval
    }

    /// Workspace-pooled core of
    /// [`evaluate_parameterized`](Self::evaluate_parameterized); see
    /// [`evaluate_into`](Self::evaluate_into) for the pooling contract.
    ///
    /// # Panics
    ///
    /// Panics if the grids' shape differs from the problem grid.
    pub fn evaluate_parameterized_into(
        &self,
        mask: &Grid<f64>,
        dmask_dp: &Grid<f64>,
        ws: &mut Workspace,
        eval: &mut Evaluation,
    ) {
        self.evaluate_parameterized_core(mask, dmask_dp, ws, eval, &mut ParallelExec::team(0));
    }

    /// The single numeric path behind every evaluation entry point.
    ///
    /// Transforms on the calling thread run on `par`'s spectral team (the
    /// inline team for one thread); in corner mode whole `F_pvb` corners
    /// go to the corner pool. Every reduction stays on this thread in a
    /// fixed order, keeping results bit-identical (DESIGN.md §14).
    fn evaluate_parameterized_core(
        &self,
        mask: &Grid<f64>,
        dmask_dp: &Grid<f64>,
        ws: &mut Workspace,
        eval: &mut Evaluation,
        par: &mut ParallelExec,
    ) {
        let sim = self.problem.simulator();
        let conv = sim.convolver();
        let cfg = self.config;
        let pixel_area = self.problem.pixel_nm() * self.problem.pixel_nm();

        assert_eq!(mask.dims(), self.problem.grid_dims(), "mask shape mismatch");
        assert_eq!(dmask_dp.dims(), mask.dims(), "derivative shape mismatch");
        let (gw, gh) = self.problem.grid_dims();
        let mut mask_spectrum = ws.take_split(gw, gh);
        sim.mask_spectrum_split(mask, &mut mask_spectrum, ws, par.team_mut());
        // Corner workers start on this iteration's spectrum while the
        // calling thread evaluates the nominal condition below.
        par.corners_start(&mask_spectrum);
        let mut grad_mask = ws.take_real_grid_zeroed(gw, gh);
        let mut r_plane = ws.take_real_grid(gw, gh);
        // Per-kernel field handles (PerKernel mode only); the plane
        // buffers come from the workspace and are returned after the
        // condition loop.
        let mut fields: Vec<SplitSpectrum> = Vec::new();
        let mut report = ObjectiveReport::default();

        // In corner mode the workers own conditions 1.., so this thread
        // only walks the nominal condition; the corner merge below
        // replays the skipped accumulates in condition order.
        let conditions = if par.corner_mode() {
            1
        } else {
            sim.condition_count()
        };
        for c in 0..conditions {
            // Which terms does this condition carry? Skip the forward
            // simulation entirely when none apply (e.g. corners when
            // β = 0 — the process-window-blind configuration).
            let target_active = c == 0;
            let pvb_active = (c > 0 || cfg.pvb_include_nominal) && cfg.beta > 0.0;
            if !target_active && !pvb_active {
                continue;
            }
            let bank = sim.bank(c);
            let scale = 2.0 * bank.condition().dose;
            // Accumulates ∂F/∂I of every term active at this condition.
            let terms = |z: &Grid<f64>, dz: &Grid<f64>, g: &mut Grid<f64>, ws: &mut Workspace| {
                if target_active {
                    let target = self.problem.target();
                    let value = match cfg.target_term {
                        TargetTerm::ImageDifference => {
                            self.image_difference_accumulate(z, target, dz, pixel_area, g)
                        }
                        TargetTerm::EdgePlacement => {
                            self.epe_violations_accumulate(z, target, dz, g, ws)
                        }
                    };
                    report.target = cfg.alpha * value;
                }
                if pvb_active {
                    let value =
                        pvb_accumulate(z, self.problem.target(), dz, cfg.beta, pixel_area, g);
                    report.pvb += cfg.beta * value * pixel_area;
                }
            };
            match cfg.gradient_mode {
                GradientMode::Combined => {
                    combined_condition(
                        bank,
                        conv,
                        &self.combined[c],
                        sim.resist(),
                        &mask_spectrum,
                        &mut r_plane,
                        ws,
                        par.team_mut(),
                        terms,
                    );
                    grad_mask.accumulate_scaled(&r_plane, scale);
                }
                GradientMode::PerKernel => self.per_kernel_condition(
                    bank,
                    &mask_spectrum,
                    scale,
                    &mut grad_mask,
                    &mut fields,
                    ws,
                    par.team_mut(),
                    terms,
                ),
            }
        }
        // Drain the corner workers, then replay the two cross-corner
        // accumulates exactly as a one-thread run interleaves them — pvb
        // sum then gradient accumulate, condition by condition — on this
        // thread. The tasks hand back *raw* planes, so every
        // floating-point add below is the one-thread run's own.
        par.corners_finish(ws);
        for task in par.corner_tasks() {
            report.pvb += cfg.beta * task.pvb_value * pixel_area;
            grad_mask.accumulate_scaled(&task.r_plane, 2.0 * task.dose);
        }
        report.total = report.target + report.pvb;

        // Chain through the parameterization: ∂F/∂P = ∂F/∂M ⊙ dM/dP.
        if eval.gradient.dims() != (gw, gh) {
            eval.gradient = Grid::zeros(gw, gh);
        }
        for ((o, &gm), &dm) in eval
            .gradient
            .iter_mut()
            .zip(grad_mask.iter())
            .zip(dmask_dp.iter())
        {
            *o = gm * dm;
        }
        eval.report = report;

        for f in fields.drain(..) {
            ws.give_split(f);
        }
        ws.give_real_grid(r_plane);
        ws.give_real_grid(grad_mask);
        ws.give_split(mask_spectrum);
    }

    /// `F_id = Σ |Z − Z_t|^γ · px²`; accumulates `α·∂F_id/∂Z·dZ/dI` into
    /// `g` in the same pass and returns the unweighted value.
    fn image_difference_accumulate(
        &self,
        z: &Grid<f64>,
        target: &Grid<f64>,
        dz: &Grid<f64>,
        pixel_area: f64,
        g: &mut Grid<f64>,
    ) -> f64 {
        let gamma = self.config.gamma;
        let alpha = self.config.alpha;
        let mut value = 0.0;
        for ((gv, (zv, tv)), dzv) in g.iter_mut().zip(z.iter().zip(target.iter())).zip(dz.iter()) {
            let diff = zv - tv;
            value += diff.abs().powf(gamma);
            let dv = pixel_area * gamma * diff.abs().powf(gamma - 1.0) * diff.signum();
            *gv += alpha * dv * dzv;
        }
        value * pixel_area
    }

    /// `F_epe = Σ_sites sig(Dsum − th_epe)`; accumulates
    /// `α·∂F_epe/∂Z·dZ/dI` into `g` and returns the unweighted value.
    ///
    /// The derivative field is assembled by scattering each site's
    /// `θ_epe·s·(1−s)` back over its window and multiplying by
    /// `∂D/∂Z = 2(Z − Z_t)` (Eq. (14)).
    fn epe_violations_accumulate(
        &self,
        z: &Grid<f64>,
        target: &Grid<f64>,
        dz: &Grid<f64>,
        g: &mut Grid<f64>,
        ws: &mut Workspace,
    ) -> f64 {
        let (gw, gh) = z.dims();
        let th = self.epe_threshold_px as i64;
        let theta = self.config.epe_steepness;
        let alpha = self.config.alpha;
        let mut value = 0.0;
        let mut weight = ws.take_real_grid_zeroed(gw, gh);
        for sample in self.problem.samples() {
            let mut dsum = 0.0;
            let window = |k: i64| -> Option<(usize, usize)> {
                let (x, y) = match sample.orientation {
                    Orientation::Horizontal => (sample.x as i64, sample.y as i64 + k),
                    Orientation::Vertical => (sample.x as i64 + k, sample.y as i64),
                };
                (x >= 0 && y >= 0 && (x as usize) < gw && (y as usize) < gh)
                    .then_some((x as usize, y as usize))
            };
            for k in -th..=th {
                if let Some((x, y)) = window(k) {
                    let d = z[(x, y)] - target[(x, y)];
                    dsum += d * d;
                }
            }
            let s = 1.0 / (1.0 + (-theta * (dsum - th as f64)).exp());
            value += s;
            let w = theta * s * (1.0 - s);
            for k in -th..=th {
                if let Some((x, y)) = window(k) {
                    weight[(x, y)] += w;
                }
            }
        }
        for ((gv, (zv, tv)), (wv, dzv)) in g
            .iter_mut()
            .zip(z.iter().zip(target.iter()))
            .zip(weight.iter().zip(dz.iter()))
        {
            let dv = wv * 2.0 * (zv - tv);
            *gv += alpha * dv * dzv;
        }
        ws.give_real_grid(weight);
        value
    }

    /// One condition with the exact per-kernel adjoint: aerial image
    /// with every coherent field `E_k`, resist, `∂F/∂I` (via `terms`),
    /// then `∂F/∂M += scale · Σ_k w_k Re[(G ⊙ E_k) ★ h_k]`.
    #[allow(clippy::too_many_arguments)]
    fn per_kernel_condition(
        &self,
        bank: &KernelSet,
        mask_spectrum: &SplitSpectrum,
        scale: f64,
        grad_mask: &mut Grid<f64>,
        fields: &mut Vec<SplitSpectrum>,
        ws: &mut Workspace,
        team: &mut SpectralTeam,
        terms: impl FnOnce(&Grid<f64>, &Grid<f64>, &mut Grid<f64>, &mut Workspace),
    ) {
        let sim = self.problem.simulator();
        let conv = sim.convolver();
        let (gw, gh) = grad_mask.dims();
        let mut intensity = ws.take_real_grid(gw, gh);
        let mut z = ws.take_real_grid(gw, gh);
        let mut dz = ws.take_real_grid(gw, gh);
        let mut g = ws.take_real_grid_zeroed(gw, gh);
        bank.aerial_image_with_fields_split(conv, mask_spectrum, &mut intensity, fields, ws, team);
        sim.resist()
            .develop_with_derivative_into(&intensity, &mut z, &mut dz);
        terms(&z, &dz, &mut g, ws);
        let mut weighted = ws.take_split(gw, gh);
        for (kernel, field) in bank.kernels().iter().zip(fields.iter()) {
            weighted.copy_from(field);
            scale_split_by_real(&mut weighted, &g);
            conv.plan()
                .process_split(&mut weighted, FftDirection::Forward, ws, team);
            conv.correlate_spectrum_re_accumulate_split(
                &weighted,
                &kernel.spectrum,
                scale * kernel.weight,
                grad_mask,
                ws,
                team,
            );
        }
        ws.give_split(weighted);
        ws.give_real_grid(g);
        ws.give_real_grid(dz);
        ws.give_real_grid(z);
        ws.give_real_grid(intensity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizationConfig;
    use mosaic_geometry::{Layout, Polygon, Rect};
    use mosaic_optics::{OpticsConfig, ProcessCondition, ResistModel};

    fn problem(conditions: Vec<ProcessCondition>) -> OpcProblem {
        let mut layout = Layout::new(256, 256);
        layout.push(Polygon::from_rect(Rect::new(64, 48, 160, 208)));
        let optics = OpticsConfig::builder()
            .grid(96, 96)
            .pixel_nm(4.0)
            .kernel_count(4)
            .build()
            .unwrap();
        OpcProblem::from_layout(&layout, &optics, ResistModel::paper(), conditions, 40).unwrap()
    }

    fn config(term: TargetTerm, mode: GradientMode) -> OptimizationConfig {
        OptimizationConfig {
            target_term: term,
            gradient_mode: mode,
            ..OptimizationConfig::default()
        }
    }

    /// Finite-difference check of the full analytic gradient at a handful
    /// of pixels.
    fn check_gradient(term: TargetTerm, mode: GradientMode, conditions: Vec<ProcessCondition>) {
        let p = problem(conditions);
        let cfg = config(term, mode);
        let obj = Objective::new(&p, &cfg).unwrap();
        let state = MaskState::from_mask(p.target(), cfg.mask_steepness);
        let eval = obj.evaluate(&state);
        // Probe pixels near the pattern edge where gradients are live.
        let probes = [(40usize, 48usize), (48, 30), (56, 48), (30, 40), (48, 64)];
        for &(x, y) in &probes {
            let eps = 1e-4;
            let mut plus = state.clone();
            let mut delta = Grid::<f64>::zeros(96, 96);
            delta[(x, y)] = -1.0; // step() subtracts
            plus.step(&delta, eps);
            let f_plus = obj.evaluate(&plus).report.total;
            let mut minus = state.clone();
            delta[(x, y)] = 1.0;
            minus.step(&delta, eps);
            let f_minus = obj.evaluate(&minus).report.total;
            let fd = (f_plus - f_minus) / (2.0 * eps);
            let analytic = eval.gradient[(x, y)];
            let tol = 1e-4 * (1.0 + analytic.abs().max(fd.abs()));
            assert!(
                (fd - analytic).abs() < tol,
                "{term:?}/{mode:?} at ({x},{y}): fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn image_difference_gradient_matches_finite_difference() {
        check_gradient(
            TargetTerm::ImageDifference,
            GradientMode::PerKernel,
            ProcessCondition::nominal_only(),
        );
    }

    #[test]
    fn epe_gradient_matches_finite_difference() {
        check_gradient(
            TargetTerm::EdgePlacement,
            GradientMode::PerKernel,
            ProcessCondition::nominal_only(),
        );
    }

    #[test]
    fn pvb_gradient_matches_finite_difference() {
        check_gradient(
            TargetTerm::ImageDifference,
            GradientMode::PerKernel,
            vec![
                ProcessCondition::NOMINAL,
                ProcessCondition::new(25.0, 0.98),
                ProcessCondition::new(-25.0, 1.02),
            ],
        );
    }

    #[test]
    fn combined_mode_is_self_consistent() {
        // The combined-kernel gradient is the exact gradient of the
        // *approximated* system I ≈ |M ⊗ H|²; here we only require that
        // it points downhill for the true objective.
        let p = problem(ProcessCondition::nominal_only());
        let cfg = config(TargetTerm::ImageDifference, GradientMode::Combined);
        let obj = Objective::new(&p, &cfg).unwrap();
        let mut state = MaskState::from_mask(p.target(), cfg.mask_steepness);
        let e0 = obj.evaluate(&state);
        let max = e0.gradient.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max > 0.0, "gradient identically zero");
        let normalized = e0.gradient.map(|&g| g / max);
        state.step(&normalized, 0.5);
        let e1 = obj.evaluate(&state);
        assert!(
            e1.report.total < e0.report.total,
            "combined-mode step did not descend: {} -> {}",
            e0.report.total,
            e1.report.total
        );
    }

    #[test]
    fn perfect_print_would_zero_the_target_term() {
        // If Z equals the target exactly, F_id is 0; with a real optical
        // system it cannot be, so the term must be positive.
        let p = problem(ProcessCondition::nominal_only());
        let cfg = config(TargetTerm::ImageDifference, GradientMode::Combined);
        let obj = Objective::new(&p, &cfg).unwrap();
        let state = MaskState::from_mask(p.target(), cfg.mask_steepness);
        let eval = obj.evaluate(&state);
        assert!(eval.report.target > 0.0);
        assert_eq!(eval.report.pvb, 0.0, "no corners -> no PVB term");
    }

    #[test]
    fn pvb_term_counts_corners_only_by_default() {
        let p = problem(vec![
            ProcessCondition::NOMINAL,
            ProcessCondition::new(25.0, 0.98),
        ]);
        let cfg = config(TargetTerm::ImageDifference, GradientMode::Combined);
        let obj = Objective::new(&p, &cfg).unwrap();
        let state = MaskState::from_mask(p.target(), cfg.mask_steepness);
        let eval = obj.evaluate(&state);
        assert!(eval.report.pvb > 0.0);
        let sum = eval.report.target + eval.report.pvb;
        assert!((eval.report.total - sum).abs() <= 1e-12 * sum.abs().max(1.0));
    }

    #[test]
    fn epe_term_counts_between_zero_and_sample_count() {
        let p = problem(ProcessCondition::nominal_only());
        let cfg = config(TargetTerm::EdgePlacement, GradientMode::Combined);
        let obj = Objective::new(&p, &cfg).unwrap();
        let state = MaskState::from_mask(p.target(), cfg.mask_steepness);
        let eval = obj.evaluate(&state);
        let smoothed_count = eval.report.target / cfg.alpha;
        assert!(smoothed_count >= 0.0);
        assert!(smoothed_count <= p.samples().len() as f64);
    }

    #[test]
    fn epe_threshold_converts_nm_to_pixels() {
        let p = problem(ProcessCondition::nominal_only());
        let mut cfg = config(TargetTerm::EdgePlacement, GradientMode::Combined);
        cfg.epe_threshold_nm = 16.0;
        let obj = Objective::new(&p, &cfg).unwrap();
        assert_eq!(obj.epe_threshold_px(), 4); // 16 nm / 4 nm px
    }
}
