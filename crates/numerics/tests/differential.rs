//! Differential test harness for the spectral hot path (DESIGN.md §9).
//!
//! Every fast path in the FFT/convolution stack is checked against a
//! slow, obviously-correct reference on the same inputs:
//!
//! * FFT convolution / correlation vs the O(N⁴) [`convolve_reference`]
//!   and a direct circular-correlation sum;
//! * the planned 1-D FFT vs the O(N²) [`dft_reference`];
//! * the Hermitian real-FFT path vs the full complex transform;
//! * the half-spectrum gradient correlation vs the real part of the
//!   full complex correlation;
//! * every banded entry point on teams of 1, 2 and 4 workers vs the
//!   inline team, pinned at 0 ULP (DESIGN.md §14), and the layout
//!   boundary round trip, pinned at 0 ULP (DESIGN.md §16).
//!
//! Tolerances are explicit ULP budgets: an error bound of
//! `scale · ε · ULPS`, where `scale` is the magnitude of the data
//! feeding the sum and `ε` is `f64::EPSILON`. The budgets are far above
//! anything a healthy implementation produces (different summation
//! orders cost a handful of ULPs) and far below any real defect (an
//! index or conjugation bug shows up at the percent level).

use mosaic_numerics::conv::convolve_reference;
use mosaic_numerics::fft::dft_reference;
use mosaic_numerics::prelude::*;

/// Grid shapes exercised everywhere: odd×odd (Bluestein rows and
/// columns), square power-of-two (pure radix-2), and mixed
/// even×non-pow2-even (packed real rows + Bluestein columns).
const SHAPES: [(usize, usize); 3] = [(7, 5), (8, 8), (16, 12)];

/// ULP budget for a single fast-vs-reference transform comparison.
const ULPS_FFT: f64 = 256.0;

/// ULP budget for chained transforms (forward + pointwise + inverse)
/// against an O(N⁴) direct sum, whose own rounding differs too.
const ULPS_CONV: f64 = 1024.0;

/// Asserts `|a − b| ≤ scale · ε · ulps` with a diagnostic that reports
/// the achieved ULP distance.
fn assert_ulp_close(a: f64, b: f64, scale: f64, ulps: f64, ctx: &str) {
    let tol = scale.max(1.0) * f64::EPSILON * ulps;
    let err = (a - b).abs();
    assert!(
        err <= tol,
        "{ctx}: {a} vs {b}, error {err:.3e} exceeds {ulps} ULPs of scale {scale:.3e} ({:.1} ULPs)",
        err / (scale.max(1.0) * f64::EPSILON)
    );
}

fn assert_complex_ulp_close(a: Complex, b: Complex, scale: f64, ulps: f64, ctx: &str) {
    assert_ulp_close(a.re, b.re, scale, ulps, ctx);
    assert_ulp_close(a.im, b.im, scale, ulps, ctx);
}

fn random_complex_grid(rng: &mut Rng64, w: usize, h: usize) -> Grid<Complex> {
    Grid::from_fn(w, h, |_, _| {
        Complex::new(rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0))
    })
}

fn random_real_grid(rng: &mut Rng64, w: usize, h: usize) -> Grid<f64> {
    Grid::from_fn(w, h, |_, _| rng.range_f64(-2.0, 2.0))
}

/// Magnitude scale of a sum over `n` terms drawn from `data`: the worst
/// partial sum is bounded by `n · max|x|`, which is the quantity the
/// rounding error of a length-`n` summation is proportional to.
fn sum_scale(max_mag: f64, n: usize) -> f64 {
    max_mag * n as f64
}

fn max_mag(grid: &Grid<Complex>) -> f64 {
    grid.iter().map(|c| c.norm()).fold(0.0, f64::max)
}

/// Direct circular correlation `c(x) = Σ_v f(v + x) · conj(k(v))` — the
/// reference for `Convolver::correlate_spectrum_re_split_into`.
fn correlate_reference(field: &Grid<Complex>, kernel: &Grid<Complex>) -> Grid<Complex> {
    assert_eq!(field.dims(), kernel.dims());
    let (w, h) = field.dims();
    Grid::from_fn(w, h, |x, y| {
        let mut acc = Complex::ZERO;
        for vy in 0..h {
            for vx in 0..w {
                let fx = (x + vx) % w;
                let fy = (y + vy) % h;
                acc += field[(fx, fy)] * kernel[(vx, vy)].conj();
            }
        }
        acc
    })
}

/// Worker counts every banded entry point is pinned at.
const TEAMS: [usize; 3] = [1, 2, 4];

/// 1-D transform of an interleaved vector through the split planes.
fn fft_1d(n: usize, data: &[Complex], direction: FftDirection) -> Vec<Complex> {
    let mut re: Vec<f64> = data.iter().map(|c| c.re).collect();
    let mut im: Vec<f64> = data.iter().map(|c| c.im).collect();
    Fft::new(n).process_split(&mut re, &mut im, direction, &mut Workspace::new());
    re.iter()
        .zip(&im)
        .map(|(&r, &i)| Complex::new(r, i))
        .collect()
}

/// Full complex 2-D transform of `grid` on the inline team.
fn fft_2d(plan: &Fft2d, grid: &Grid<Complex>, direction: FftDirection) -> SplitSpectrum {
    let mut spec = SplitSpectrum::from_grid(grid);
    plan.process_split(
        &mut spec,
        direction,
        &mut Workspace::new(),
        &mut SpectralTeam::inline(),
    );
    spec
}

fn kernel_spectrum(conv: &Convolver, kernel: &Grid<Complex>) -> KernelSpectrum {
    conv.kernel_spectrum(
        SplitSpectrum::from_grid(kernel),
        &mut Workspace::new(),
        &mut SpectralTeam::inline(),
    )
}

fn assert_bits(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx} element {i}");
    }
}

fn assert_split_bits(a: &SplitSpectrum, b: &SplitSpectrum, ctx: &str) {
    assert_eq!(a.dims(), b.dims(), "{ctx}");
    assert_bits(a.re(), b.re(), &format!("{ctx} re"));
    assert_bits(a.im(), b.im(), &format!("{ctx} im"));
}

#[test]
fn planned_fft_matches_reference_dft_in_ulps() {
    let mut rng = Rng64::new(0xD1F_0001);
    for n in [5usize, 7, 8, 12, 16] {
        for case in 0..8 {
            let data: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0)))
                .collect();
            let mm = data.iter().map(|c| c.norm()).fold(0.0, f64::max);
            let scale = sum_scale(mm, n);
            for direction in [FftDirection::Forward, FftDirection::Inverse] {
                let fast = fft_1d(n, &data, direction);
                let slow = dft_reference(&data, direction);
                for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    assert_complex_ulp_close(
                        *a,
                        *b,
                        scale,
                        ULPS_FFT,
                        &format!("fft n={n} case={case} {direction:?} bin {i}"),
                    );
                }
            }
        }
    }
}

/// The convolution pipeline (forward FFT, plane-wise Hadamard, inverse
/// FFT) stays inside the chained-transform ULP budget against the O(N⁴)
/// direct sum, on the inline team and on every banded team.
#[test]
fn fft_convolution_matches_direct_sum() {
    let mut rng = Rng64::new(0xD1F_0002);
    let mut ws = Workspace::new();
    let mut teams: Vec<SpectralTeam> = [0]
        .iter()
        .chain(&TEAMS)
        .map(|&n| SpectralTeam::new(n))
        .collect();
    for (w, h) in SHAPES {
        for case in 0..4 {
            let field = random_complex_grid(&mut rng, w, h);
            let kernel = random_complex_grid(&mut rng, w, h);
            let conv = Convolver::new(w, h);
            let kspec = kernel_spectrum(&conv, &kernel);
            let slow = convolve_reference(&field, &kernel);
            let scale = sum_scale(max_mag(&field) * max_mag(&kernel), w * h);
            for team in &mut teams {
                let workers = team.workers();
                let mut spectrum = SplitSpectrum::from_grid(&field);
                conv.plan()
                    .process_split(&mut spectrum, FftDirection::Forward, &mut ws, team);
                let mut out = SplitSpectrum::zeros(w, h);
                conv.convolve_spectrum_split_into(&spectrum, &kspec, &mut out, &mut ws, team);
                for (i, (a, b)) in out.to_grid().iter().zip(slow.iter()).enumerate() {
                    assert_complex_ulp_close(
                        *a,
                        *b,
                        scale,
                        ULPS_CONV,
                        &format!("conv {w}x{h} case={case} workers={workers} pixel {i}"),
                    );
                }
            }
        }
    }
}

/// The gradient correlation (real part, the only part the engine
/// computes) against the direct circular-correlation sum.
#[test]
fn fft_correlation_matches_direct_sum() {
    let mut rng = Rng64::new(0xD1F_0003);
    let mut ws = Workspace::new();
    let mut team = SpectralTeam::inline();
    for (w, h) in SHAPES {
        for case in 0..4 {
            let field = random_complex_grid(&mut rng, w, h);
            let kernel = random_complex_grid(&mut rng, w, h);
            let conv = Convolver::new(w, h);
            let field_spectrum = fft_2d(conv.plan(), &field, FftDirection::Forward);
            let mut fast = Grid::zeros(w, h);
            conv.correlate_spectrum_re_split_into(
                &field_spectrum,
                &kernel_spectrum(&conv, &kernel),
                &mut fast,
                &mut ws,
                &mut team,
            );
            let slow = correlate_reference(&field, &kernel);
            let scale = sum_scale(max_mag(&field) * max_mag(&kernel), w * h);
            for (i, (a, b)) in fast.iter().zip(slow.iter()).enumerate() {
                assert_ulp_close(
                    *a,
                    b.re,
                    scale,
                    ULPS_CONV,
                    &format!("corr {w}x{h} case={case} pixel {i}"),
                );
            }
        }
    }
}

#[test]
fn real_fft_matches_complex_path_in_ulps() {
    let mut rng = Rng64::new(0xD1F_0004);
    let mut ws = Workspace::new();
    for (w, h) in SHAPES {
        for case in 0..4 {
            let real = random_real_grid(&mut rng, w, h);
            let plan = Fft2d::new(w, h);
            let mut half = SplitSpectrum::zeros(plan.half_width(), h);
            plan.forward_real_split_into(&real, &mut half, &mut ws);
            let mut fast = SplitSpectrum::zeros(w, h);
            plan.expand_half_split_into(&half, &mut fast);
            let slow = fft_2d(
                &plan,
                &real.map(|&v| Complex::new(v, 0.0)),
                FftDirection::Forward,
            );
            let mm = real.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            let scale = sum_scale(mm, w * h);
            for (i, (a, b)) in fast.to_grid().iter().zip(slow.to_grid().iter()).enumerate() {
                assert_complex_ulp_close(
                    *a,
                    *b,
                    scale,
                    ULPS_FFT,
                    &format!("real-fft {w}x{h} case={case} bin {i}"),
                );
            }
        }
    }
}

#[test]
fn half_spectrum_correlation_matches_full_complex_re() {
    let mut rng = Rng64::new(0xD1F_0005);
    let mut ws = Workspace::new();
    let mut team = SpectralTeam::inline();
    for (w, h) in SHAPES {
        for case in 0..4 {
            let field = random_complex_grid(&mut rng, w, h);
            let kernel = random_complex_grid(&mut rng, w, h);
            let conv = Convolver::new(w, h);
            let field_spectrum = fft_2d(conv.plan(), &field, FftDirection::Forward);
            let kspec = kernel_spectrum(&conv, &kernel);
            // Full complex path: inverse of the whole product spectrum.
            let (fg, kg) = (field_spectrum.to_grid(), kspec.split().to_grid());
            let product = fg.zip_map(&kg, |&f, &k| f * k.conj());
            let full = fft_2d(conv.plan(), &product, FftDirection::Inverse).to_grid();
            // Hermitian half-spectrum path, with scale folded in.
            let scale_factor: f64 = 0.75;
            let mut acc = Grid::from_fn(w, h, |x, y| (x + y) as f64 * 0.01);
            let expected = acc.zip_map(&full, |&a, c| scale_factor.mul_add(c.re, a));
            conv.correlate_spectrum_re_accumulate_split(
                &field_spectrum,
                &kspec,
                scale_factor,
                &mut acc,
                &mut ws,
                &mut team,
            );
            let scale = sum_scale(max_mag(&fg) * max_mag(&kg), w * h);
            for (i, (a, b)) in acc.iter().zip(expected.iter()).enumerate() {
                assert_ulp_close(
                    *a,
                    *b,
                    scale,
                    ULPS_FFT,
                    &format!("half-corr {w}x{h} case={case} pixel {i}"),
                );
            }
        }
    }
}

/// The banded 2-D FFT is pinned to the inline team at **0 ULP**: same
/// grid, same plan, every bin's bit pattern identical, at every team
/// size. Shapes cover the odd-height transpose path (8×7), the
/// packed-even real-FFT rows (16×12), a pure radix-2 grid (8×8), and
/// Bluestein rows *and* columns (7×5).
#[test]
fn banded_fft2d_is_bit_identical_to_inline() {
    let mut rng = Rng64::new(0xD1F_0007);
    let mut ws = Workspace::new();
    let mut teams: Vec<SpectralTeam> = TEAMS.iter().map(|&n| SpectralTeam::new(n)).collect();
    for (w, h) in [(7, 5), (8, 8), (16, 12), (8, 7)] {
        let plan = Fft2d::new(w, h);
        let data = random_complex_grid(&mut rng, w, h);
        for direction in [FftDirection::Forward, FftDirection::Inverse] {
            let inline = fft_2d(&plan, &data, direction);
            for team in &mut teams {
                let mut banded = SplitSpectrum::from_grid(&data);
                plan.process_split(&mut banded, direction, &mut ws, team);
                assert_split_bits(
                    &banded,
                    &inline,
                    &format!("{w}x{h} {direction:?} workers={}", team.workers()),
                );
            }
        }
    }
}

/// Property: the team size never changes a single output bit of the
/// real-FFT round trip (`forward_real_split_on` /
/// `inverse_real_split_on`), across random grids on every harness
/// shape.
#[test]
fn team_size_never_changes_real_fft_bits() {
    let mut rng = Rng64::new(0xD1F_0008);
    let mut ws = Workspace::new();
    let mut teams: Vec<SpectralTeam> = TEAMS.iter().map(|&n| SpectralTeam::new(n)).collect();
    for (w, h) in [(7, 5), (8, 8), (16, 12), (8, 7)] {
        let plan = Fft2d::new(w, h);
        let hw = w / 2 + 1;
        for case in 0..4 {
            let real = random_real_grid(&mut rng, w, h);
            let mut half_inline = SplitSpectrum::zeros(hw, h);
            plan.forward_real_split_into(&real, &mut half_inline, &mut ws);
            let mut round_inline = Grid::zeros(w, h);
            plan.inverse_real_split_into(&mut half_inline.clone(), &mut round_inline, &mut ws);
            for team in &mut teams {
                let ctx = format!("{w}x{h} case={case} workers={}", team.workers());
                let mut half = SplitSpectrum::zeros(hw, h);
                plan.forward_real_split_on(&real, &mut half, &mut ws, team);
                assert_split_bits(&half, &half_inline, &format!("forward {ctx}"));
                let mut round = Grid::zeros(w, h);
                plan.inverse_real_split_on(&mut half, &mut round, &mut ws, team);
                assert_bits(
                    round.as_slice(),
                    round_inline.as_slice(),
                    &format!("inverse {ctx}"),
                );
            }
        }
    }
}

/// Every banded [`Convolver`] entry point — real forward transform,
/// kernel spectrum, convolution, correlation and correlation
/// accumulate — reproduces the inline team's bits exactly on every
/// harness shape, at every team size.
#[test]
fn banded_convolver_is_bit_identical_to_inline() {
    let mut rng = Rng64::new(0xD1F_000B);
    let mut ws = Workspace::new();
    let mut teams: Vec<SpectralTeam> = [0]
        .iter()
        .chain(&TEAMS)
        .map(|&n| SpectralTeam::new(n))
        .collect();
    for (w, h) in SHAPES {
        let real = random_real_grid(&mut rng, w, h);
        let kernel = random_complex_grid(&mut rng, w, h);
        let conv = Convolver::new(w, h);
        let seed = Grid::from_fn(w, h, |x, y| (x + 2 * y) as f64 * 0.01);
        // One run per team; the inline team (workers = 0) goes first and
        // is the reference for the banded ones.
        let mut reference: Option<(SplitSpectrum, SplitSpectrum, Grid<f64>, Grid<f64>)> = None;
        for team in &mut teams {
            let ctx = format!("{w}x{h} workers={}", team.workers());
            let kspec = conv.kernel_spectrum(SplitSpectrum::from_grid(&kernel), &mut ws, team);
            let mut spectrum = SplitSpectrum::zeros(w, h);
            conv.forward_real_split_into(&real, &mut spectrum, &mut ws, team);
            let mut field = SplitSpectrum::zeros(w, h);
            conv.convolve_spectrum_split_into(&spectrum, &kspec, &mut field, &mut ws, team);
            let mut corr = Grid::zeros(w, h);
            conv.correlate_spectrum_re_split_into(&field, &kspec, &mut corr, &mut ws, team);
            let mut acc = seed.clone();
            conv.correlate_spectrum_re_accumulate_split(
                &field, &kspec, 0.75, &mut acc, &mut ws, team,
            );
            match &reference {
                None => reference = Some((spectrum, field, corr, acc)),
                Some((s0, f0, c0, a0)) => {
                    assert_split_bits(&spectrum, s0, &format!("forward {ctx}"));
                    assert_split_bits(&field, f0, &format!("convolve {ctx}"));
                    assert_bits(corr.as_slice(), c0.as_slice(), &format!("correlate {ctx}"));
                    assert_bits(acc.as_slice(), a0.as_slice(), &format!("accumulate {ctx}"));
                }
            }
        }
    }
}

/// The layout boundary is a pure copy: a round trip through
/// `SplitSpectrum::from_grid` / `to_grid` preserves every bit on every
/// harness shape.
#[test]
fn split_layout_round_trip_is_bit_exact() {
    let mut rng = Rng64::new(0xD1F_0009);
    for (w, h) in SHAPES {
        let grid = random_complex_grid(&mut rng, w, h);
        let back = SplitSpectrum::from_grid(&grid).to_grid();
        for (i, (a, b)) in grid.iter().zip(back.iter()).enumerate() {
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (b.re.to_bits(), b.im.to_bits()),
                "{w}x{h} bin {i}"
            );
        }
    }
}
