//! Coherent kernel banks (SOCS decomposition of the Hopkins model).
//!
//! For each sampled source point `s` (in σ coordinates) the coherent
//! transfer function is the NA-limited pupil shifted by the source
//! direction, times a defocus aberration phase:
//!
//! ```text
//! K_s(f) = P(f + s·NA/λ) · exp(−iπ·λ·z·|f + s·NA/λ|²)
//! ```
//!
//! with `P` the ideal circular pupil of cutoff `NA/λ` and `z` the defocus.
//! The aerial image is then `I = dose · Σ_s w_s |M ⊗ h_s|²` — Eq. (2) of
//! the paper with `h = kernel_count` kernels.
//!
//! Spectra are built directly on the FFT frequency grid, so no transform
//! is needed at construction time and convolution kernels are exact (no
//! spatial truncation).

use crate::config::{OpticsConfig, ProcessCondition};
use mosaic_numerics::{
    Band, Complex, Convolver, Fft2d, FftDirection, Grid, KernelSpectrum, SpectralTeam,
    SplitSpectrum, Workspace,
};
use std::f64::consts::PI;

/// One coherent system: an intensity weight and a transfer function.
#[derive(Debug, Clone)]
pub struct CoherentKernel {
    /// Intensity weight `w_k` (all weights of a set sum to 1).
    pub weight: f64,
    /// Frequency-domain transfer function on the FFT grid.
    pub spectrum: KernelSpectrum,
}

/// The full kernel bank for one process condition.
///
/// The bank records its frequency [`Band`]: the smallest box around DC
/// that holds every nonzero bin of every kernel spectrum (and so of the
/// combined kernel of Eq. (21)). Convolvers limited to it
/// ([`Convolver::bandlimited`]) compute the same nonzero bits as on the
/// full band.
#[derive(Debug, Clone)]
pub struct KernelSet {
    kernels: Vec<CoherentKernel>,
    condition: ProcessCondition,
    width: usize,
    height: usize,
    band: Band,
}

impl KernelSet {
    /// Wraps a prebuilt kernel list (used by the TCC/SVD path in
    /// [`crate::tcc`]); the band comes from a scan of every kernel's
    /// nonzero bins.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty or any spectrum shape differs from
    /// `(width, height)`.
    pub fn from_kernels(
        kernels: Vec<CoherentKernel>,
        condition: ProcessCondition,
        width: usize,
        height: usize,
    ) -> Self {
        assert!(!kernels.is_empty(), "kernel bank cannot be empty");
        let mut band = Band::DC;
        for k in &kernels {
            assert_eq!(k.spectrum.dims(), (width, height), "kernel shape mismatch");
            band = band.union(Band::of_support(k.spectrum.split()));
        }
        KernelSet {
            kernels,
            condition,
            width,
            height,
            band,
        }
    }

    /// Builds the bank for `condition` under the given optics, recording
    /// the band of the pupil bins as it fills them.
    ///
    /// # Errors
    ///
    /// Returns the validation error if `config` fails
    /// [`OpticsConfig::validate`].
    pub fn build(
        config: &OpticsConfig,
        condition: ProcessCondition,
    ) -> Result<Self, crate::error::OpticsError> {
        config.validate()?;
        let (w, h) = (config.grid_width, config.grid_height);
        let cutoff = config.cutoff_frequency();
        let points = config.source.sample(config.kernel_count);
        let fx: Vec<f64> = (0..w).map(|i| freq(i, w, config.pixel_nm)).collect();
        let fy: Vec<f64> = (0..h).map(|j| freq(j, h, config.pixel_nm)).collect();
        let mut band = Band::DC;
        let kernels = points
            .iter()
            .map(|p| {
                let shift_x = p.sx * cutoff;
                let shift_y = p.sy * cutoff;
                // Written straight into split planes, row-major, so no
                // interleaved grid is ever materialized per kernel.
                let mut re = Vec::with_capacity(w * h);
                let mut im = Vec::with_capacity(w * h);
                for (j, &fyj) in fy.iter().enumerate() {
                    for (i, &fxi) in fx.iter().enumerate() {
                        let gx = fxi + shift_x;
                        let gy = fyj + shift_y;
                        let g2 = gx * gx + gy * gy;
                        let value = if g2 <= cutoff * cutoff {
                            // Every pupil bin is nonzero (|cis| = 1).
                            band.include(i, j, w, h);
                            // Paraxial defocus aberration phase.
                            let phase = -PI * config.wavelength_nm * condition.defocus_nm * g2;
                            Complex::cis(phase)
                        } else {
                            Complex::ZERO
                        };
                        re.push(value.re);
                        im.push(value.im);
                    }
                }
                CoherentKernel {
                    weight: p.weight,
                    spectrum: KernelSpectrum::from_split(SplitSpectrum::from_parts(w, h, re, im)),
                }
            })
            .collect();
        Ok(KernelSet {
            kernels,
            condition,
            width: w,
            height: h,
            band,
        })
    }

    /// The coherent systems of this bank.
    pub fn kernels(&self) -> &[CoherentKernel] {
        &self.kernels
    }

    /// The process condition the bank was built for.
    pub fn condition(&self) -> ProcessCondition {
        self.condition
    }

    /// Grid shape `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// The smallest band holding every nonzero bin of the bank.
    pub fn band(&self) -> Band {
        self.band
    }

    /// A convolver narrower than the bank would drop kernel bins
    /// silently.
    fn assert_band_fits(&self, convolver: &Convolver) {
        let band = convolver.band();
        assert_eq!(
            band.union(self.band),
            band,
            "convolver band does not contain the kernel bank's band"
        );
    }

    /// The weight-combined kernel `H = Σ_k w_k h_k` of Eq. (21), in the
    /// frequency domain.
    ///
    /// Convolving with this single kernel replaces `h` convolutions in the
    /// gradient computation (§3.5) — the MOSAIC_fast speedup.
    pub fn combined(&self) -> KernelSpectrum {
        let mut acc = KernelSpectrum::zeros(self.width, self.height);
        for k in &self.kernels {
            acc.accumulate(&k.spectrum, k.weight);
        }
        acc
    }

    /// Computes the aerial image `dose · Σ_k w_k |M ⊗ h_k|²` from a
    /// precomputed mask spectrum, on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if the spectrum shape differs from the bank's grid, or if
    /// the convolver's band does not contain the bank's.
    pub fn aerial_image_from_spectrum(
        &self,
        convolver: &Convolver,
        mask_spectrum: &SplitSpectrum,
    ) -> Grid<f64> {
        let mut intensity = Grid::<f64>::zeros(self.width, self.height);
        let mut ws = Workspace::new();
        self.aerial_image_accumulate_split(
            convolver,
            mask_spectrum,
            &mut intensity,
            &mut ws,
            &mut SpectralTeam::inline(),
        );
        intensity
    }

    /// Overwrites `intensity` with `dose · Σ_k w_k |M ⊗ h_k|²`.
    ///
    /// The independent per-kernel transforms `E_k = M ⊗ h_k` go out in
    /// waves of `workers + 1`: one per worker of `team`, one on the
    /// calling thread. The |E|² accumulate stays on the calling thread in
    /// kernel order — the fixed-order reduction that keeps results the
    /// same at every team size (DESIGN.md §14). On the inline team every
    /// wave is one kernel on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the bank's grid, or if the
    /// convolver's band does not contain the bank's.
    pub fn aerial_image_accumulate_split(
        &self,
        convolver: &Convolver,
        mask_spectrum: &SplitSpectrum,
        intensity: &mut Grid<f64>,
        ws: &mut Workspace,
        team: &mut SpectralTeam,
    ) {
        assert_eq!(
            mask_spectrum.dims(),
            (self.width, self.height),
            "mask spectrum shape mismatch"
        );
        assert_eq!(
            intensity.dims(),
            (self.width, self.height),
            "intensity shape mismatch"
        );
        self.assert_band_fits(convolver);
        intensity.fill(0.0);
        let workers = team.workers();
        // The calling thread's own kernel of each wave runs whole on this
        // thread; the team's lanes are busy with the rest of the wave.
        let mut inline = SpectralTeam::inline();
        let mut field = ws.take_split(self.width, self.height);
        let dose = self.condition.dose;
        let mut start = 0;
        while start < self.kernels.len() {
            let end = (start + workers + 1).min(self.kernels.len());
            for (lane, k) in self.kernels[start + 1..end].iter().enumerate() {
                let mut spec = team.lane_split_grid(lane, self.width, self.height);
                convolver.hadamard_split(mask_spectrum, &k.spectrum, &mut spec);
                team.submit_split_grid(lane, convolver.plan(), FftDirection::Inverse, spec);
            }
            team.dispatch(end - start - 1);
            convolver.convolve_spectrum_split_into(
                mask_spectrum,
                &self.kernels[start].spectrum,
                &mut field,
                ws,
                &mut inline,
            );
            accumulate_intensity_split(intensity, &field, self.kernels[start].weight * dose);
            team.collect();
            for (lane, k) in self.kernels[start + 1..end].iter().enumerate() {
                if let Some(spec) = team.split_grid_result(lane) {
                    accumulate_intensity_split(intensity, spec, k.weight * dose);
                }
            }
            start = end;
        }
        ws.give_split(field);
    }

    /// Overwrites `intensity` and refills `fields` with every coherent
    /// field `E_k = M ⊗ h_k` — the per-kernel gradient (Eq. (14)) needs
    /// them — reusing spectra already in `fields` when their shape
    /// matches (and drawing any missing ones from `ws`). Each transform
    /// is banded across `team`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the bank's grid, or if the
    /// convolver's band does not contain the bank's.
    pub fn aerial_image_with_fields_split(
        &self,
        convolver: &Convolver,
        mask_spectrum: &SplitSpectrum,
        intensity: &mut Grid<f64>,
        fields: &mut Vec<SplitSpectrum>,
        ws: &mut Workspace,
        team: &mut SpectralTeam,
    ) {
        assert_eq!(
            mask_spectrum.dims(),
            (self.width, self.height),
            "mask spectrum shape mismatch"
        );
        assert_eq!(
            intensity.dims(),
            (self.width, self.height),
            "intensity shape mismatch"
        );
        self.assert_band_fits(convolver);
        fields.retain(|f| f.dims() == (self.width, self.height));
        while fields.len() < self.kernels.len() {
            fields.push(ws.take_split(self.width, self.height));
        }
        while fields.len() > self.kernels.len() {
            if let Some(extra) = fields.pop() {
                ws.give_split(extra);
            }
        }
        intensity.fill(0.0);
        for (k, field) in self.kernels.iter().zip(fields.iter_mut()) {
            convolver.convolve_spectrum_split_into(mask_spectrum, &k.spectrum, field, ws, team);
            accumulate_intensity_split(intensity, field, k.weight * self.condition.dose);
        }
    }

    /// The spatial-domain kernel `h_k`, centered on the grid — for
    /// inspection and plotting only (the pipeline never needs it).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn spatial_kernel(&self, index: usize) -> Grid<Complex> {
        let mut field = self.kernels[index].spectrum.split().clone();
        Fft2d::new(self.width, self.height).process_split(
            &mut field,
            FftDirection::Inverse,
            &mut Workspace::new(),
            &mut SpectralTeam::inline(),
        );
        // Move the origin to the grid center for viewing.
        field
            .to_grid()
            .shift_origin(self.width / 2, self.height / 2)
    }
}

/// `intensity += scale · (re² + im²)`, plane-wise.
fn accumulate_intensity_split(intensity: &mut Grid<f64>, field: &SplitSpectrum, scale: f64) {
    let (fr, fi) = field.planes();
    for ((acc, &r), &i) in intensity.iter_mut().zip(fr.iter()).zip(fi.iter()) {
        *acc += scale * (r * r + i * i);
    }
}

/// FFT-ordered spatial frequency of index `i` on an `n`-point axis with
/// pitch `pixel_nm`, in cycles per nm.
pub(crate) fn freq(i: usize, n: usize, pixel_nm: f64) -> f64 {
    let i = i as isize;
    let n_i = n as isize;
    let k = if i < n_i - n_i / 2 { i } else { i - n_i };
    k as f64 / (n as f64 * pixel_nm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> OpticsConfig {
        OpticsConfig::builder()
            .grid(64, 64)
            .pixel_nm(8.0)
            .kernel_count(8)
            .build()
            .unwrap()
    }

    /// The band of every nonzero bin of every kernel, found bin by bin.
    fn scanned_band(set: &KernelSet) -> Band {
        let (w, h) = set.dims();
        let mut band = Band::DC;
        for k in set.kernels() {
            let (re, im) = k.spectrum.split().planes();
            for j in 0..h {
                for i in 0..w {
                    if re[j * w + i] != 0.0 || im[j * w + i] != 0.0 {
                        band.kx = band.kx.max(i.min(w - i));
                        band.ky = band.ky.max(j.min(h - j));
                    }
                }
            }
        }
        band
    }

    #[test]
    fn recorded_band_matches_a_brute_force_scan() {
        for (grid, pixel_nm) in [(64, 16.0), (256, 4.0)] {
            let config = OpticsConfig::contest_32nm(grid, pixel_nm);
            for condition in [ProcessCondition::NOMINAL, ProcessCondition::new(25.0, 0.98)] {
                let set = KernelSet::build(&config, condition).unwrap();
                let ctx = format!("{grid} px, {condition:?}");
                assert_eq!(set.band(), scanned_band(&set), "{ctx}");
                assert!(
                    !set.band().covers(grid, grid),
                    "{ctx}: pupil fills the grid"
                );
                // The combined kernel of Eq. (21) fits the bank's band.
                assert_eq!(
                    Band::of_support(set.combined().split()).union(set.band()),
                    set.band(),
                    "{ctx}"
                );
            }
        }
        // cutoff·(1 + σ_out) = (1.35 / 193 nm)·1024 nm·1.9 ≈ 13.6 bins at
        // 256 px and 4 nm.
        let set = KernelSet::build(
            &OpticsConfig::contest_32nm(256, 4.0),
            ProcessCondition::NOMINAL,
        )
        .unwrap();
        assert_eq!(set.band(), Band::new(13, 13));
    }

    #[test]
    #[should_panic(expected = "convolver band does not contain")]
    fn a_convolver_narrower_than_the_bank_is_rejected() {
        let set = KernelSet::build(&small_config(), ProcessCondition::NOMINAL).unwrap();
        let conv = Convolver::new(64, 64).bandlimited(Band::DC);
        let spectrum = conv.forward_real(&Grid::filled(64, 64, 1.0));
        let _ = set.aerial_image_from_spectrum(&conv, &spectrum);
    }

    #[test]
    fn freq_ordering_matches_fft_convention() {
        assert_eq!(freq(0, 8, 1.0), 0.0);
        assert_eq!(freq(1, 8, 1.0), 0.125);
        assert_eq!(freq(3, 8, 1.0), 0.375);
        assert_eq!(freq(4, 8, 1.0), -0.5);
        assert_eq!(freq(7, 8, 1.0), -0.125);
        // Pitch rescales frequencies.
        assert_eq!(freq(1, 8, 2.0), 0.0625);
    }

    #[test]
    fn bank_has_requested_kernel_count() {
        let set = KernelSet::build(&small_config(), ProcessCondition::NOMINAL).unwrap();
        assert_eq!(set.kernels().len(), 8);
        let total: f64 = set.kernels().iter().map(|k| k.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clear_field_intensity_is_unity() {
        let config = small_config();
        let set = KernelSet::build(&config, ProcessCondition::NOMINAL).unwrap();
        let conv = Convolver::new(64, 64);
        let clear = Grid::filled(64, 64, 1.0);
        let spectrum = conv.forward_real(&clear);
        let intensity = set.aerial_image_from_spectrum(&conv, &spectrum);
        for ((x, y), v) in intensity.indexed_iter() {
            assert!((v - 1.0).abs() < 1e-9, "I({x},{y}) = {v}");
        }
    }

    #[test]
    fn clear_field_unity_even_defocused() {
        let config = small_config();
        let set = KernelSet::build(&config, ProcessCondition::new(25.0, 1.0)).unwrap();
        let conv = Convolver::new(64, 64);
        let spectrum = conv.forward_real(&Grid::filled(64, 64, 1.0));
        let intensity = set.aerial_image_from_spectrum(&conv, &spectrum);
        assert!((intensity[(32, 32)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dark_mask_gives_zero_intensity() {
        let set = KernelSet::build(&small_config(), ProcessCondition::NOMINAL).unwrap();
        let conv = Convolver::new(64, 64);
        let spectrum = conv.forward_real(&Grid::zeros(64, 64));
        let intensity = set.aerial_image_from_spectrum(&conv, &spectrum);
        assert!(intensity.max() < 1e-15);
    }

    #[test]
    fn dose_scales_intensity_linearly() {
        let config = small_config();
        let conv = Convolver::new(64, 64);
        let mut mask = Grid::<f64>::zeros(64, 64);
        for y in 24..40 {
            for x in 28..36 {
                mask[(x, y)] = 1.0;
            }
        }
        let spectrum = conv.forward_real(&mask);
        let nominal = KernelSet::build(&config, ProcessCondition::NOMINAL)
            .unwrap()
            .aerial_image_from_spectrum(&conv, &spectrum);
        let overdosed = KernelSet::build(&config, ProcessCondition::new(0.0, 1.02))
            .unwrap()
            .aerial_image_from_spectrum(&conv, &spectrum);
        for (a, b) in nominal.iter().zip(overdosed.iter()) {
            assert!((b - a * 1.02).abs() < 1e-12);
        }
    }

    #[test]
    fn intensity_is_nonnegative() {
        let set = KernelSet::build(&small_config(), ProcessCondition::new(-25.0, 0.98)).unwrap();
        let conv = Convolver::new(64, 64);
        let mask = Grid::from_fn(
            64,
            64,
            |x, y| if (x / 8 + y / 8) % 2 == 0 { 1.0 } else { 0.0 },
        );
        let intensity = set.aerial_image_from_spectrum(&conv, &conv.forward_real(&mask));
        assert!(intensity.min() >= 0.0);
    }

    #[test]
    fn defocus_blurs_a_small_feature() {
        let config = small_config();
        let conv = Convolver::new(64, 64);
        let mut mask = Grid::<f64>::zeros(64, 64);
        // 5-pixel (40 nm) square — near the resolution limit.
        for y in 30..35 {
            for x in 30..35 {
                mask[(x, y)] = 1.0;
            }
        }
        let spectrum = conv.forward_real(&mask);
        let focused = KernelSet::build(&config, ProcessCondition::NOMINAL)
            .unwrap()
            .aerial_image_from_spectrum(&conv, &spectrum);
        let defocused = KernelSet::build(&config, ProcessCondition::new(60.0, 1.0))
            .unwrap()
            .aerial_image_from_spectrum(&conv, &spectrum);
        assert!(
            defocused[(32, 32)] < focused[(32, 32)],
            "defocus should reduce peak intensity: {} vs {}",
            defocused[(32, 32)],
            focused[(32, 32)]
        );
    }

    #[test]
    fn combined_kernel_matches_weighted_sum() {
        let set = KernelSet::build(&small_config(), ProcessCondition::NOMINAL).unwrap();
        let combined = set.combined();
        let mut manual = Grid::<Complex>::zeros(64, 64);
        for k in set.kernels() {
            for (m, s) in manual.iter_mut().zip(k.spectrum.split().to_grid().iter()) {
                *m += s.scale(k.weight);
            }
        }
        for (a, b) in combined.split().to_grid().iter().zip(manual.iter()) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn spatial_kernel_is_centered_and_low_pass() {
        let set = KernelSet::build(&small_config(), ProcessCondition::NOMINAL).unwrap();
        let h = set.spatial_kernel(0);
        // Peak magnitude at the grid center.
        let mut best = (0, 0);
        let mut best_v = f64::MIN;
        for ((x, y), v) in h.indexed_iter() {
            if v.norm() > best_v {
                best_v = v.norm();
                best = (x, y);
            }
        }
        assert_eq!(best, (32, 32));
    }

    #[test]
    fn fields_returned_match_intensity() {
        let config = small_config();
        let set = KernelSet::build(&config, ProcessCondition::new(10.0, 1.02)).unwrap();
        let conv = Convolver::new(64, 64);
        let mask = Grid::from_fn(64, 64, |x, _| if x > 20 && x < 44 { 1.0 } else { 0.0 });
        let spectrum = conv.forward_real(&mask);
        let mut intensity = Grid::zeros(64, 64);
        let mut fields = Vec::new();
        set.aerial_image_with_fields_split(
            &conv,
            &spectrum,
            &mut intensity,
            &mut fields,
            &mut Workspace::new(),
            &mut SpectralTeam::inline(),
        );
        assert_eq!(fields.len(), set.kernels().len());
        let manual: f64 = set
            .kernels()
            .iter()
            .zip(&fields)
            .map(|(k, f)| k.weight * 1.02 * f.at(32 * 64 + 32).norm_sqr())
            .sum();
        assert!((intensity[(32, 32)] - manual).abs() < 1e-12);
    }

    #[test]
    fn aerial_image_is_bit_identical_across_team_sizes() {
        let config = small_config();
        let set = KernelSet::build(&config, ProcessCondition::new(10.0, 1.02)).unwrap();
        let conv = Convolver::new(64, 64);
        let mask = Grid::from_fn(
            64,
            64,
            |x, y| if (x / 8 + y / 8) % 2 == 0 { 1.0 } else { 0.0 },
        );
        let spectrum = conv.forward_real(&mask);
        let inline = set.aerial_image_from_spectrum(&conv, &spectrum);
        let mut ws = Workspace::new();
        for workers in [1usize, 2, 3] {
            let mut team = SpectralTeam::new(workers);
            let mut banded = Grid::zeros(64, 64);
            set.aerial_image_accumulate_split(&conv, &spectrum, &mut banded, &mut ws, &mut team);
            for (i, (a, b)) in banded.iter().zip(inline.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "workers={workers} pixel {i}");
            }
            let mut fields = Vec::new();
            let mut with_fields = Grid::zeros(64, 64);
            set.aerial_image_with_fields_split(
                &conv,
                &spectrum,
                &mut with_fields,
                &mut fields,
                &mut ws,
                &mut team,
            );
            for (i, (a, b)) in with_fields.iter().zip(inline.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "with-fields workers={workers} pixel {i}"
                );
            }
        }
    }
}
