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

/// Direct O((w·h)²) 2-D DFT — the reference the band-limited transforms
/// are projections of.
fn dft2_reference(grid: &Grid<Complex>, direction: FftDirection) -> Grid<Complex> {
    let (w, h) = grid.dims();
    let (sign, scale) = match direction {
        FftDirection::Forward => (-1.0, 1.0),
        FftDirection::Inverse => (1.0, 1.0 / (w * h) as f64),
    };
    Grid::from_fn(w, h, |i, j| {
        let mut acc = Complex::ZERO;
        for b in 0..h {
            for a in 0..w {
                let turns = ((i * a) % w) as f64 / w as f64 + ((j * b) % h) as f64 / h as f64;
                acc += grid[(a, b)] * Complex::cis(sign * 2.0 * std::f64::consts::PI * turns);
            }
        }
        acc.scale(scale)
    })
}

/// `grid` with every bin outside `band` set to +0.
fn project(grid: &Grid<Complex>, band: Band) -> Grid<Complex> {
    let (w, h) = grid.dims();
    Grid::from_fn(w, h, |i, j| {
        if band.contains(i, j, w, h) {
            grid[(i, j)]
        } else {
            Complex::ZERO
        }
    })
}

/// Non-covering bands exercised on a `w × h` grid: DC alone, a small
/// box, and the widest box that still leaves lines out.
fn partial_bands(w: usize, h: usize) -> [Band; 3] {
    [
        Band::DC,
        Band::new(1, 1),
        Band::new((w / 2).saturating_sub(1), (h / 2).saturating_sub(1)),
    ]
}

/// Every nonzero value equal bit for bit; zeros may differ in sign.
fn assert_nonzero_bits(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if *x != 0.0 || *y != 0.0 {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx} element {i}: {x} vs {y}");
        }
    }
}

/// A band-limited plan's forward and inverse complex transforms are the
/// projections `P·F` and `F⁻¹·P` of the direct DFT, inside the FFT ULP
/// budget, and the forward writes exact +0 outside the band.
#[test]
fn band_limited_fft2d_matches_projected_reference() {
    let mut rng = Rng64::new(0xD1F_0010);
    let mut ws = Workspace::new();
    let mut team = SpectralTeam::inline();
    for (w, h) in SHAPES {
        for band in partial_bands(w, h) {
            let plan = Fft2d::new(w, h).bandlimited(band);
            assert!(!plan.band().covers(w, h));
            let data = random_complex_grid(&mut rng, w, h);
            let scale = sum_scale(max_mag(&data), w * h);
            let ctx = format!("{w}x{h} {band:?}");
            let mut fast = SplitSpectrum::from_grid(&data);
            plan.process_split(&mut fast, FftDirection::Forward, &mut ws, &mut team);
            let slow = project(&dft2_reference(&data, FftDirection::Forward), band);
            for (i, (a, b)) in fast.to_grid().iter().zip(slow.iter()).enumerate() {
                if !band.contains(i % w, i / w, w, h) {
                    assert_eq!((a.re.to_bits(), a.im.to_bits()), (0, 0), "{ctx} bin {i}");
                }
                assert_complex_ulp_close(*a, *b, scale, ULPS_FFT, &format!("fwd {ctx} bin {i}"));
            }
            let mut fast = SplitSpectrum::from_grid(&data);
            plan.process_split(&mut fast, FftDirection::Inverse, &mut ws, &mut team);
            let slow = dft2_reference(&project(&data, band), FftDirection::Inverse);
            for (i, (a, b)) in fast.to_grid().iter().zip(slow.iter()).enumerate() {
                assert_complex_ulp_close(*a, *b, scale, ULPS_FFT, &format!("inv {ctx} px {i}"));
            }
        }
    }
}

/// The band-limited real transforms: the forward half spectrum expands
/// to the projected DFT of the real grid; the inverse reads only the
/// band box of its half spectrum and returns the real inverse of the
/// projected spectrum.
#[test]
fn band_limited_real_fft_matches_projected_reference() {
    let mut rng = Rng64::new(0xD1F_0011);
    let mut ws = Workspace::new();
    let mut team = SpectralTeam::inline();
    for (w, h) in SHAPES {
        for band in partial_bands(w, h) {
            let plan = Fft2d::new(w, h).bandlimited(band);
            let ctx = format!("{w}x{h} {band:?}");
            let real = random_real_grid(&mut rng, w, h);
            let complex = real.map(|&v| Complex::new(v, 0.0));
            let scale = sum_scale(max_mag(&complex), w * h);
            let spectrum = dft2_reference(&complex, FftDirection::Forward);
            let mut half = SplitSpectrum::zeros(plan.half_width(), h);
            plan.forward_real_split_on(&real, &mut half, &mut ws, &mut team);
            let mut full = SplitSpectrum::zeros(w, h);
            plan.expand_half_split_into(&half, &mut full);
            let slow = project(&spectrum, band);
            for (i, (a, b)) in full.to_grid().iter().zip(slow.iter()).enumerate() {
                assert_complex_ulp_close(*a, *b, scale, ULPS_FFT, &format!("fwd {ctx} bin {i}"));
            }
            // Feed the inverse the unprojected half spectrum: what lies
            // outside the band must not reach the output.
            let mut half =
                SplitSpectrum::from_grid(&Grid::from_fn(plan.half_width(), h, |i, j| {
                    spectrum[(i, j)]
                }));
            let mut fast = Grid::zeros(w, h);
            plan.inverse_real_split_on(&mut half, &mut fast, &mut ws, &mut team);
            let slow = dft2_reference(&project(&spectrum, band), FftDirection::Inverse);
            for (i, (a, b)) in fast.iter().zip(slow.iter()).enumerate() {
                assert_ulp_close(*a, b.re, scale, ULPS_FFT, &format!("inv {ctx} px {i}"));
            }
        }
    }
}

/// A band-limited convolver convolves and correlates with the projected
/// kernel `F⁻¹(P·F(k))`: checked against the O(N⁴) direct sums with that
/// kernel, inside the chained-transform budget.
#[test]
fn band_limited_convolver_matches_projected_direct_sums() {
    let mut rng = Rng64::new(0xD1F_0012);
    let mut ws = Workspace::new();
    let mut team = SpectralTeam::inline();
    for (w, h) in SHAPES {
        for band in partial_bands(w, h) {
            let conv = Convolver::new(w, h).bandlimited(band);
            let ctx = format!("{w}x{h} {band:?}");
            let field = random_complex_grid(&mut rng, w, h);
            let kernel = random_complex_grid(&mut rng, w, h);
            let kspec = kernel_spectrum(&Convolver::new(w, h), &kernel);
            let projected = dft2_reference(
                &project(&dft2_reference(&kernel, FftDirection::Forward), band),
                FftDirection::Inverse,
            );
            let scale = sum_scale(max_mag(&field) * max_mag(&kernel), w * h);
            let mut spectrum = SplitSpectrum::from_grid(&field);
            conv.plan()
                .process_split(&mut spectrum, FftDirection::Forward, &mut ws, &mut team);
            let mut out = SplitSpectrum::zeros(w, h);
            conv.convolve_spectrum_split_into(&spectrum, &kspec, &mut out, &mut ws, &mut team);
            let slow = convolve_reference(&field, &projected);
            for (i, (a, b)) in out.to_grid().iter().zip(slow.iter()).enumerate() {
                assert_complex_ulp_close(*a, *b, scale, ULPS_CONV, &format!("conv {ctx} px {i}"));
            }
            let mut corr = Grid::zeros(w, h);
            conv.correlate_spectrum_re_split_into(&spectrum, &kspec, &mut corr, &mut ws, &mut team);
            let slow = correlate_reference(&field, &projected);
            for (i, (a, b)) in corr.iter().zip(slow.iter()).enumerate() {
                assert_ulp_close(*a, b.re, scale, ULPS_CONV, &format!("corr {ctx} px {i}"));
            }
        }
    }
}

/// On data whose spectrum lies inside the band — a kernel that is +0
/// outside it, as every SOCS kernel is — a band-limited convolver
/// reproduces the full-band convolver bit for bit on every nonzero
/// value, through the whole engine chain (real forward, convolve,
/// forward, correlate, correlate-accumulate, inverse real), at every
/// team size. Workspaces are poisoned with NaN first, so no stale value
/// outside the band may leak in.
#[test]
fn band_limited_plan_matches_full_band_on_band_limited_data() {
    let mut rng = Rng64::new(0xD1F_0013);
    let mut ws = Workspace::new();
    let mut teams: Vec<SpectralTeam> = [0]
        .iter()
        .chain(&TEAMS)
        .map(|&n| SpectralTeam::new(n))
        .collect();
    for (w, h) in SHAPES {
        for band in partial_bands(w, h) {
            let full = Convolver::new(w, h);
            let limited = Convolver::new(w, h).bandlimited(band);
            let kernel =
                KernelSpectrum::from_grid(project(&random_complex_grid(&mut rng, w, h), band));
            let real = random_real_grid(&mut rng, w, h);
            let gain = random_real_grid(&mut rng, w, h);
            let seed = Grid::from_fn(w, h, |x, y| (x + 2 * y) as f64 * 0.01);
            // Outputs start out as stale NaN planes, as workspace
            // buffers do.
            let stale =
                || SplitSpectrum::from_parts(w, h, vec![f64::NAN; w * h], vec![f64::NAN; w * h]);
            let run = |conv: &Convolver, ws: &mut Workspace, team: &mut SpectralTeam| {
                let mut spectrum = stale();
                conv.forward_real_split_into(&real, &mut spectrum, ws, team);
                let mut field = stale();
                conv.convolve_spectrum_split_into(&spectrum, &kernel, &mut field, ws, team);
                let mut weighted = field.clone();
                for (v, g) in weighted.re_mut().iter_mut().zip(gain.iter()) {
                    *v *= g;
                }
                for (v, g) in weighted.im_mut().iter_mut().zip(gain.iter()) {
                    *v *= g;
                }
                conv.plan()
                    .process_split(&mut weighted, FftDirection::Forward, ws, team);
                let mut corr = Grid::zeros(w, h);
                conv.correlate_spectrum_re_split_into(&weighted, &kernel, &mut corr, ws, team);
                let mut acc = seed.clone();
                conv.correlate_spectrum_re_accumulate_split(
                    &weighted, &kernel, 0.75, &mut acc, ws, team,
                );
                (spectrum, field, weighted, corr, acc)
            };
            let reference = run(&full, &mut Workspace::new(), &mut SpectralTeam::inline());
            for team in &mut teams {
                let ctx = format!("{w}x{h} {band:?} workers={}", team.workers());
                poison(&mut ws, w, h);
                let (spectrum, field, weighted, corr, acc) = run(&limited, &mut ws, team);
                for (got, want, what) in [
                    (&spectrum, &reference.0, "forward real"),
                    (&weighted, &reference.2, "forward"),
                ] {
                    // In the band box every bit matches; outside it the
                    // band-limited transform writes exact +0.
                    for idx in 0..w * h {
                        let inside = band.contains(idx % w, idx / w, w, h);
                        let pair = (got.re()[idx].to_bits(), got.im()[idx].to_bits());
                        let expect = if inside {
                            (want.re()[idx].to_bits(), want.im()[idx].to_bits())
                        } else {
                            (0, 0)
                        };
                        assert_eq!(pair, expect, "{what} {ctx} bin {idx}");
                    }
                }
                assert_nonzero_bits(field.re(), reference.1.re(), &format!("convolve {ctx} re"));
                assert_nonzero_bits(field.im(), reference.1.im(), &format!("convolve {ctx} im"));
                assert_nonzero_bits(
                    corr.as_slice(),
                    reference.3.as_slice(),
                    &format!("correlate {ctx}"),
                );
                assert_nonzero_bits(
                    acc.as_slice(),
                    reference.4.as_slice(),
                    &format!("accumulate {ctx}"),
                );
            }
        }
    }
}

/// Fills a workspace with NaN-poisoned planes of every size the
/// transforms above draw.
fn poison(ws: &mut Workspace, w: usize, h: usize) {
    for len in [
        w * h,
        w * h,
        w * h,
        w * h,
        (w / 2 + 1) * h,
        (w / 2 + 1) * h,
        w.max(h),
        w.max(h),
    ] {
        let mut buf = ws.take_real(len);
        buf.fill(f64::NAN);
        ws.give_real(buf);
    }
}

/// Edge cases of the band: a band whose radii reach `2k + 1 ≥ n` on both
/// axes is the full band (every bit of every transform equal, signed
/// zeros included), and the DC-only band (`kx = ky = 0`) reduces the
/// forward transform to the sum and the inverse to a constant field.
#[test]
fn band_edges_reduce_to_full_and_dc() {
    let mut rng = Rng64::new(0xD1F_0014);
    let mut ws = Workspace::new();
    let mut team = SpectralTeam::inline();
    for (w, h) in [(7, 5), (8, 8), (16, 12), (8, 7), (1, 4)] {
        let data = random_complex_grid(&mut rng, w, h);
        let real = random_real_grid(&mut rng, w, h);
        let full = Fft2d::new(w, h);
        assert_eq!(full.band(), Band::full(w, h));
        for covering in [
            Band::new(w / 2, h / 2),
            Band::new(w, h),
            Band::new(usize::MAX, usize::MAX),
        ] {
            let plan = Fft2d::new(w, h).bandlimited(covering);
            assert_eq!(plan.band(), Band::full(w, h), "{w}x{h} {covering:?}");
            let ctx = format!("{w}x{h} {covering:?}");
            for direction in [FftDirection::Forward, FftDirection::Inverse] {
                let mut a = SplitSpectrum::from_grid(&data);
                let mut b = SplitSpectrum::from_grid(&data);
                full.process_split(&mut a, direction, &mut ws, &mut team);
                plan.process_split(&mut b, direction, &mut ws, &mut team);
                assert_split_bits(&b, &a, &format!("{ctx} {direction:?}"));
            }
            let mut ha = SplitSpectrum::zeros(w / 2 + 1, h);
            let mut hb = SplitSpectrum::zeros(w / 2 + 1, h);
            full.forward_real_split_on(&real, &mut ha, &mut ws, &mut team);
            plan.forward_real_split_on(&real, &mut hb, &mut ws, &mut team);
            assert_split_bits(&hb, &ha, &format!("{ctx} forward real"));
            let (mut ra, mut rb) = (Grid::zeros(w, h), Grid::zeros(w, h));
            full.inverse_real_split_on(&mut ha, &mut ra, &mut ws, &mut team);
            plan.inverse_real_split_on(&mut hb, &mut rb, &mut ws, &mut team);
            assert_bits(rb.as_slice(), ra.as_slice(), &format!("{ctx} inverse real"));
        }
        let dc = Fft2d::new(w, h).bandlimited(Band::DC);
        let scale = sum_scale(max_mag(&data), w * h);
        let sum = data.iter().fold(Complex::ZERO, |acc, &v| acc + v);
        let mut fwd = SplitSpectrum::from_grid(&data);
        dc.process_split(&mut fwd, FftDirection::Forward, &mut ws, &mut team);
        let fwd = fwd.to_grid();
        assert_complex_ulp_close(
            fwd[(0, 0)],
            sum,
            scale,
            ULPS_FFT,
            &format!("{w}x{h} DC sum"),
        );
        assert!(fwd
            .iter()
            .skip(1)
            .all(|v| v.re.to_bits() == 0 && v.im.to_bits() == 0));
        let mut inv = SplitSpectrum::from_grid(&data);
        dc.process_split(&mut inv, FftDirection::Inverse, &mut ws, &mut team);
        let mean = data[(0, 0)].scale(1.0 / (w * h) as f64);
        for (i, v) in inv.to_grid().iter().enumerate() {
            assert_complex_ulp_close(*v, mean, scale, ULPS_FFT, &format!("{w}x{h} DC px {i}"));
        }
    }
}
