//! FFT-based circular convolution and correlation.
//!
//! The forward lithography model evaluates `M ⊗ h_k` for every optical
//! kernel `h_k` (Eq. (2)), and the gradient needs the matching correlations
//! with conjugated, flipped kernels (Eq. (14)/(17)). Both reduce to
//! pointwise products in the frequency domain:
//!
//! * convolution: `F⁻¹( F(M) · F(h) )`
//! * correlation with `conj(h(−x))`: `F⁻¹( F(G) · conj(F(h)) )`
//!
//! A [`Convolver`] owns the 2-D FFT plan; kernels are transformed **once**
//! into [`KernelSpectrum`] values and reused every iteration, which is where
//! virtually all of the optimizer's per-iteration cost savings come from.
//!
//! Convolution here is *circular*. Callers embed their pattern with a guard
//! band at least as wide as the kernel support (see
//! [`Grid::embed_centered`](crate::grid::Grid::embed_centered)) so
//! wrap-around never reaches real geometry.

use crate::band::Band;
use crate::complex::Complex;
use crate::fft::{Fft2d, FftDirection};
use crate::grid::Grid;
use crate::pool::SpectralTeam;
use crate::split::SplitSpectrum;
use crate::workspace::Workspace;

/// A kernel held in the frequency domain, ready for repeated use.
///
/// Stored as split re/im planes ([`SplitSpectrum`], DESIGN.md §16) so
/// the per-iteration Hadamard products and Hermitian folds walk
/// unit-stride `f64` slices. Produced by [`Convolver::kernel_spectrum`]
/// or built directly in the frequency domain; consumed by the
/// convolution and correlation calls.
#[derive(Debug, Clone)]
pub struct KernelSpectrum {
    spectrum: SplitSpectrum,
}

impl KernelSpectrum {
    /// Wraps frequency-domain samples built directly by the caller.
    ///
    /// Index `(i, j)` must follow FFT ordering: frequency `i/W` cycles per
    /// pixel for `i < W/2`, `i/W − 1` for `i ≥ W/2` (same for `j`/`H`).
    /// Optical pupils are naturally defined in the frequency domain, so
    /// lithography models construct their kernel spectra this way without
    /// ever materializing a spatial kernel.
    pub fn from_grid(spectrum: Grid<Complex>) -> Self {
        KernelSpectrum {
            spectrum: SplitSpectrum::from_grid(&spectrum),
        }
    }

    /// Wraps frequency-domain samples already in split-plane layout.
    pub fn from_split(spectrum: SplitSpectrum) -> Self {
        KernelSpectrum { spectrum }
    }

    /// The frequency-domain samples as split re/im planes — the native
    /// storage; borrowing it is free.
    pub fn split(&self) -> &SplitSpectrum {
        &self.spectrum
    }

    /// Spectrum shape `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        self.spectrum.dims()
    }

    /// Adds `other · weight` to this spectrum in place.
    ///
    /// Linearity of the Fourier transform makes this equivalent to
    /// combining the kernels in the spatial domain — this is exactly the
    /// pre-combination trick of Eq. (21) (`H = Σ_k w_k h_k`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn accumulate(&mut self, other: &KernelSpectrum, weight: f64) {
        self.spectrum.accumulate(&other.spectrum, weight);
    }

    /// An all-zero spectrum of the given shape, for use as an
    /// [`accumulate`](KernelSpectrum::accumulate) seed.
    pub fn zeros(width: usize, height: usize) -> Self {
        KernelSpectrum {
            spectrum: SplitSpectrum::zeros(width, height),
        }
    }
}

/// A reusable frequency-domain convolution engine for one grid shape.
///
/// Every operation runs on a [`SpectralTeam`]; pass
/// [`SpectralTeam::inline`] for the calling thread alone.
///
/// ```
/// use mosaic_numerics::{Complex, Convolver, Grid, SpectralTeam, SplitSpectrum, Workspace};
///
/// // Identity kernel (impulse at the origin) returns the input unchanged.
/// let n = 8;
/// let conv = Convolver::new(n, n);
/// let (mut ws, mut team) = (Workspace::new(), SpectralTeam::inline());
/// let mut kernel = Grid::<Complex>::zeros(n, n);
/// kernel[(0, 0)] = Complex::ONE;
/// let spec = conv.kernel_spectrum(SplitSpectrum::from_grid(&kernel), &mut ws, &mut team);
/// let image = Grid::from_fn(n, n, |x, y| (x + 2 * y) as f64);
/// let mut image_spec = SplitSpectrum::zeros(n, n);
/// conv.forward_real_split_into(&image, &mut image_spec, &mut ws, &mut team);
/// let mut out = SplitSpectrum::zeros(n, n);
/// conv.convolve_spectrum_split_into(&image_spec, &spec, &mut out, &mut ws, &mut team);
/// for (o, i) in out.re().iter().zip(image.iter()) {
///     assert!((o - i).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Convolver {
    plan: Fft2d,
}

impl Convolver {
    /// Creates a convolver for `width × height` grids.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        Convolver {
            plan: Fft2d::new(width, height),
        }
    }

    /// The same convolver limited to `band`: every transform, product
    /// and fold computes only inside the band box (see [`Fft2d`] for the
    /// projection contract). Kernels whose spectra are +0 outside the
    /// box convolve and correlate to the same nonzero bits as on the full
    /// band. Moves the plan; no allocation.
    #[must_use]
    pub fn bandlimited(self, band: Band) -> Self {
        Convolver {
            plan: self.plan.bandlimited(band),
        }
    }

    /// The frequency band this convolver computes in.
    pub fn band(&self) -> Band {
        self.plan.band()
    }

    /// Expected grid width.
    pub fn width(&self) -> usize {
        self.plan.width()
    }

    /// Expected grid height.
    pub fn height(&self) -> usize {
        self.plan.height()
    }

    /// Access to the underlying FFT plan (for callers that want to manage
    /// spectra themselves).
    pub fn plan(&self) -> &Fft2d {
        &self.plan
    }

    /// Forward-transforms a spatial kernel whose origin is at index
    /// `(0, 0)` into a reusable [`KernelSpectrum`] (+0 outside the band
    /// of a band-limited convolver).
    ///
    /// # Panics
    ///
    /// Panics if the kernel shape differs from the plan.
    pub fn kernel_spectrum(
        &self,
        mut kernel: SplitSpectrum,
        ws: &mut Workspace,
        team: &mut SpectralTeam,
    ) -> KernelSpectrum {
        self.plan
            .process_split(&mut kernel, FftDirection::Forward, ws, team);
        KernelSpectrum::from_split(kernel)
    }

    /// Forward-transforms a real field into a freshly allocated full
    /// spectrum on the calling thread — the cold-path convenience over
    /// [`forward_real_split_into`](Self::forward_real_split_into).
    ///
    /// # Panics
    ///
    /// Panics if the field shape differs from the plan.
    pub fn forward_real(&self, field: &Grid<f64>) -> SplitSpectrum {
        let mut out = SplitSpectrum::zeros(self.width(), self.height());
        let mut ws = Workspace::new();
        self.forward_real_split_into(field, &mut out, &mut ws, &mut SpectralTeam::inline());
        out
    }

    /// Forward-transforms a real field (e.g. the mask `M`) into a
    /// caller-owned full spectrum: the Hermitian half spectrum is
    /// computed first (column pass banded across `team`) and mirrored
    /// out. Computing this once per iteration and reusing it against
    /// every kernel spectrum is the standard SOCS evaluation pattern.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the plan.
    pub fn forward_real_split_into(
        &self,
        field: &Grid<f64>,
        out: &mut SplitSpectrum,
        ws: &mut Workspace,
        team: &mut SpectralTeam,
    ) {
        let mut half = ws.take_split(self.plan.half_width(), self.height());
        self.plan.forward_real_split_on(field, &mut half, ws, team);
        self.plan.expand_half_split_into(&half, out);
        ws.give_split(half);
    }

    /// Writes `field_spectrum · kernel` into `out` and inverse-transforms
    /// it in place: `out = F⁻¹(field_spectrum · kernel)`, the convolution
    /// of the field with the kernel. The Hadamard product
    /// ([`hadamard_split`](Self::hadamard_split)) walks the band box; the
    /// transform is banded across `team`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the plan.
    pub fn convolve_spectrum_split_into(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        out: &mut SplitSpectrum,
        ws: &mut Workspace,
        team: &mut SpectralTeam,
    ) {
        self.hadamard_split(field_spectrum, kernel, out);
        self.plan
            .process_split(out, FftDirection::Inverse, ws, team);
    }

    /// Writes `Re[F⁻¹(field_spectrum · conj(kernel))]` into `re_out`,
    /// overwriting it — the correlation with the conjugate-flipped
    /// kernel (`H*(−x) ⊗ G`) of the closed-form gradients (Eq. (14) and
    /// (17)), which only ever consume the real part.
    ///
    /// Implemented through the Hermitian half spectrum: the product's
    /// Hermitian part `(P(f) + conj(P(−f)))/2` inverse-transforms to
    /// exactly `Re(F⁻¹ P)` (exact arithmetic), so only `w/2 + 1` columns
    /// go through the inverse transform. The fold stays on the calling
    /// thread; the transform's column pass is banded across `team`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the plan.
    pub fn correlate_spectrum_re_split_into(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        re_out: &mut Grid<f64>,
        ws: &mut Workspace,
        team: &mut SpectralTeam,
    ) {
        assert_eq!(
            field_spectrum.dims(),
            re_out.dims(),
            "output shape mismatch"
        );
        let (_, h) = field_spectrum.dims();
        let mut half = ws.take_split(self.plan.half_width(), h);
        self.fold_hermitian_split(field_spectrum, kernel, &mut half);
        self.plan.inverse_real_split_on(&mut half, re_out, ws, team);
        ws.give_split(half);
    }

    /// Accumulates `scale · Re[F⁻¹(field_spectrum · conj(kernel))]` into
    /// `acc` (see
    /// [`correlate_spectrum_re_split_into`](Self::correlate_spectrum_re_split_into)).
    /// The accumulate runs on the calling thread in pixel order, the
    /// fixed-order reduction that keeps results the same at every team
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the plan.
    pub fn correlate_spectrum_re_accumulate_split(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        scale: f64,
        acc: &mut Grid<f64>,
        ws: &mut Workspace,
        team: &mut SpectralTeam,
    ) {
        assert_eq!(field_spectrum.dims(), acc.dims(), "output shape mismatch");
        let (w, h) = field_spectrum.dims();
        let mut re = ws.take_real_grid(w, h);
        self.correlate_spectrum_re_split_into(field_spectrum, kernel, &mut re, ws, team);
        acc.accumulate_scaled(&re, scale);
        ws.give_real_grid(re);
    }

    /// `out = field_spectrum · kernel`, plane-wise
    /// (`re = ar·br − ai·bi`, `im = ar·bi + ai·br`), over the band box
    /// only: `out` keeps whatever it held outside the box, which every
    /// inverse transform of this convolver ignores. This is the one
    /// Hadamard product of the engine; the per-kernel SOCS fan-out fills
    /// its worker lanes with it too.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard_split(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        out: &mut SplitSpectrum,
    ) {
        assert_eq!(
            field_spectrum.dims(),
            kernel.dims(),
            "field/kernel spectrum shape mismatch"
        );
        assert_eq!(field_spectrum.dims(), out.dims(), "output shape mismatch");
        let (w, h) = out.dims();
        let (ar, ai) = field_spectrum.planes();
        let (br, bi) = kernel.spectrum.planes();
        let (or_, oi) = out.planes_mut();
        self.plan.band().for_each_span(w, h, |span| {
            // Equal-length reslices keep the loop free of bounds checks.
            let (ar, ai) = (&ar[span.clone()], &ai[span.clone()]);
            let (br, bi) = (&br[span.clone()], &bi[span.clone()]);
            let (or_, oi) = (&mut or_[span.clone()], &mut oi[span]);
            for k in 0..or_.len() {
                or_[k] = ar[k] * br[k] - ai[k] * bi[k];
                oi[k] = ar[k] * bi[k] + ai[k] * br[k];
            }
        });
    }

    /// Writes the Hermitian part of `field_spectrum · conj(kernel)` into
    /// the band box of the `w/2 + 1`-column `half` spectrum (the rest is
    /// left as it was; the inverse real transform ignores it).
    fn fold_hermitian_split(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        half: &mut SplitSpectrum,
    ) {
        assert_eq!(
            field_spectrum.dims(),
            kernel.dims(),
            "field/kernel spectrum shape mismatch"
        );
        let (w, h) = field_spectrum.dims();
        let hw = self.plan.half_width();
        assert_eq!(half.dims(), (hw, h), "half spectrum shape mismatch");
        let (fr, fi) = field_spectrum.planes();
        let (kr, ki) = kernel.spectrum.planes();
        let (hr, hi) = half.planes_mut();
        let band = self.plan.band();
        let cols = band.half_cols(w)[0].clone();
        for j in band.rows(h).into_iter().flatten() {
            let jm = (h - j) % h;
            for i in cols.clone() {
                let im = (w - i) % w;
                let a = j * w + i;
                let b = jm * w + im;
                let p_re = fr[a] * kr[a] + fi[a] * ki[a];
                let p_im = fi[a] * kr[a] - fr[a] * ki[a];
                let q_re = fr[b] * kr[b] + fi[b] * ki[b];
                let q_im = fi[b] * kr[b] - fr[b] * ki[b];
                hr[j * hw + i] = (p_re + q_re) * 0.5;
                hi[j * hw + i] = (p_im - q_im) * 0.5;
            }
        }
    }
}

/// Direct O(N⁴) circular convolution used as a test reference.
///
/// The kernel origin is taken at index `(0, 0)`, matching
/// [`Convolver::kernel_spectrum`]. Exposed for downstream tests.
pub fn convolve_reference(field: &Grid<Complex>, kernel: &Grid<Complex>) -> Grid<Complex> {
    assert_eq!(field.dims(), kernel.dims(), "shape mismatch");
    let (w, h) = field.dims();
    Grid::from_fn(w, h, |x, y| {
        let mut acc = Complex::ZERO;
        for ky in 0..h {
            for kx in 0..w {
                let fx = (x + w - kx) % w;
                let fy = (y + h - ky) % h;
                acc += field[(fx, fy)] * kernel[(kx, ky)];
            }
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_grid_close(a: &Grid<Complex>, b: &Grid<Complex>, tol: f64) {
        assert_eq!(a.dims(), b.dims());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((*x - *y).norm() < tol, "pixel {i}: {x} vs {y}");
        }
    }

    fn random_ish_grid(w: usize, h: usize, seed: u64) -> Grid<Complex> {
        // Deterministic pseudo-random values without pulling in rand here.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Grid::from_fn(w, h, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
            Complex::new(a, b)
        })
    }

    /// A convolver plus the scratch and inline team its calls need.
    struct Rig {
        conv: Convolver,
        ws: Workspace,
        team: SpectralTeam,
    }

    impl Rig {
        fn new(w: usize, h: usize) -> Self {
            Rig {
                conv: Convolver::new(w, h),
                ws: Workspace::new(),
                team: SpectralTeam::inline(),
            }
        }

        fn kernel(&mut self, kernel: &Grid<Complex>) -> KernelSpectrum {
            self.conv.kernel_spectrum(
                SplitSpectrum::from_grid(kernel),
                &mut self.ws,
                &mut self.team,
            )
        }

        fn forward(&mut self, field: &Grid<Complex>) -> SplitSpectrum {
            self.kernel(field).split().clone()
        }

        fn convolve(&mut self, field: &Grid<Complex>, kernel: &KernelSpectrum) -> Grid<Complex> {
            let spectrum = self.forward(field);
            let mut out = SplitSpectrum::zeros(field.width(), field.height());
            self.conv.convolve_spectrum_split_into(
                &spectrum,
                kernel,
                &mut out,
                &mut self.ws,
                &mut self.team,
            );
            out.to_grid()
        }
    }

    #[test]
    fn matches_direct_convolution() {
        let (w, h) = (8, 4);
        let field = random_ish_grid(w, h, 7);
        let kernel = random_ish_grid(w, h, 99);
        let mut rig = Rig::new(w, h);
        let spec = rig.kernel(&kernel);
        let fast = rig.convolve(&field, &spec);
        let slow = convolve_reference(&field, &kernel);
        assert_grid_close(&fast, &slow, 1e-9);
    }

    #[test]
    fn centered_kernel_does_not_translate() {
        let n = 16;
        let mut rig = Rig::new(n, n);
        // Gaussian-ish bump centered at grid center, shifted to the origin.
        let kernel = Grid::from_fn(n, n, |x, y| {
            let dx = x as f64 - (n / 2) as f64;
            let dy = y as f64 - (n / 2) as f64;
            Complex::new((-0.5 * (dx * dx + dy * dy)).exp(), 0.0)
        });
        let spec = rig.kernel(&kernel.shift_origin(n / 2, n / 2));
        let mut impulse = Grid::<f64>::zeros(n, n);
        impulse[(5, 9)] = 1.0;
        let out = rig.convolve(&impulse.map(|&v| Complex::new(v, 0.0)), &spec);
        // Peak of output must be at the impulse location.
        let mut best = (0, 0);
        let mut best_v = f64::MIN;
        for ((x, y), v) in out.indexed_iter() {
            if v.re > best_v {
                best_v = v.re;
                best = (x, y);
            }
        }
        assert_eq!(best, (5, 9));
    }

    #[test]
    fn correlation_flips_the_kernel() {
        // Re[correlate(field, h)] must equal Re[convolve(field, conj(h(-x)))].
        let (w, h) = (8, 8);
        let field = random_ish_grid(w, h, 3);
        let kernel = random_ish_grid(w, h, 4);
        let mut rig = Rig::new(w, h);
        let spec = rig.kernel(&kernel);
        let field_spectrum = rig.forward(&field);
        let mut corr = Grid::zeros(w, h);
        rig.conv.correlate_spectrum_re_split_into(
            &field_spectrum,
            &spec,
            &mut corr,
            &mut rig.ws,
            &mut rig.team,
        );
        // Build conj(h(-x)) explicitly: index n -> (N - n) mod N, conjugated.
        let flipped = Grid::from_fn(w, h, |x, y| kernel[((w - x) % w, (h - y) % h)].conj());
        let spec_f = rig.kernel(&flipped);
        let conv_f = rig.convolve(&field, &spec_f);
        for (a, b) in corr.iter().zip(conv_f.iter()) {
            assert!((a - b.re).abs() < 1e-9, "{a} vs {}", b.re);
        }
    }

    #[test]
    fn spectrum_accumulate_matches_spatial_sum() {
        // FFT(w1*h1 + w2*h2) == w1*FFT(h1) + w2*FFT(h2) — Eq. (21).
        let n = 8;
        let mut rig = Rig::new(n, n);
        let h1 = random_ish_grid(n, n, 11);
        let h2 = random_ish_grid(n, n, 22);
        let mut combined = KernelSpectrum::zeros(n, n);
        combined.accumulate(&rig.kernel(&h1), 0.7);
        combined.accumulate(&rig.kernel(&h2), 0.3);
        let spatial = h1.zip_map(&h2, |&a, &b| a.scale(0.7) + b.scale(0.3));
        let expect = rig.kernel(&spatial);
        assert_grid_close(&combined.split().to_grid(), &expect.split().to_grid(), 1e-9);
    }

    #[test]
    fn convolution_is_linear_in_field() {
        let n = 8;
        let mut rig = Rig::new(n, n);
        let kernel = rig.kernel(&random_ish_grid(n, n, 5));
        let f1 = random_ish_grid(n, n, 6);
        let f2 = random_ish_grid(n, n, 7);
        let sum = f1.zip_map(&f2, |&a, &b| a + b);
        let c1 = rig.convolve(&f1, &kernel);
        let c2 = rig.convolve(&f2, &kernel);
        let cs = rig.convolve(&sum, &kernel);
        let expect = c1.zip_map(&c2, |&a, &b| a + b);
        assert_grid_close(&cs, &expect, 1e-9);
    }

    #[test]
    fn real_forward_matches_complex_forward() {
        let (w, h) = (12, 10);
        let mut rig = Rig::new(w, h);
        let real = Grid::from_fn(w, h, |x, y| (x as f64 * 0.7 - y as f64 * 0.2).sin());
        let mut spectrum = SplitSpectrum::zeros(w, h);
        rig.conv
            .forward_real_split_into(&real, &mut spectrum, &mut rig.ws, &mut rig.team);
        let expect = rig.forward(&real.map(|&v| Complex::new(v, 0.0)));
        assert_grid_close(&spectrum.to_grid(), &expect.to_grid(), 1e-9);
    }

    #[test]
    fn works_on_non_power_of_two_grids() {
        let (w, h) = (12, 10);
        let field = random_ish_grid(w, h, 9);
        let kernel = random_ish_grid(w, h, 10);
        let mut rig = Rig::new(w, h);
        let spec = rig.kernel(&kernel);
        let fast = rig.convolve(&field, &spec);
        let slow = convolve_reference(&field, &kernel);
        assert_grid_close(&fast, &slow, 1e-8);
    }
}
