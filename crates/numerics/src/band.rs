//! The frequency band a spectral plan computes in (DESIGN.md §16).
//!
//! A projection lens passes only the spatial frequencies inside its
//! pupil cutoff, so every SOCS kernel spectrum — and every product with
//! one — is exactly +0 outside a small box around DC. A [`Band`] records
//! that box as two signed-index radii, one per axis. A band-limited
//! [`Fft2d`](crate::fft::Fft2d) or [`Convolver`](crate::conv::Convolver)
//! computes only the 1-D lines that meet the box; the full band
//! ([`Band::full`]) is the plain transform.
//!
//! Index `i` of an `n`-point FFT axis has the signed frequency index `i`
//! for `i < n − n/2` and `i − n` above, so its distance from DC is
//! `min(i, n − i)`. A band of radius `k` on that axis keeps every index
//! with `min(i, n − i) ≤ k`: the two runs `0..=k` and `n−k..n`, or the
//! whole axis once `k ≥ n/2`.

use crate::split::SplitSpectrum;
use std::ops::Range;

/// Signed-index radii of the frequency box a spectral plan computes in.
///
/// `Copy`, two words, no heap: a plan carries its band by value and a
/// simulator unions the bands of its kernel banks in O(banks).
///
/// ```
/// use mosaic_numerics::Band;
///
/// // Bins (1, 0) and (0, 6) of an 8 × 8 grid: column 1 is one step
/// // from DC, row 6 is two steps below it.
/// let mut band = Band::DC;
/// band.include(1, 0, 8, 8);
/// band.include(0, 6, 8, 8);
/// assert_eq!(band, Band::new(1, 2));
/// assert!(band.contains(7, 2, 8, 8));
/// assert!(!band.contains(2, 0, 8, 8));
/// assert!(Band::new(4, 4).covers(8, 8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Band {
    /// Largest distance from DC along x (columns), in bins.
    pub kx: usize,
    /// Largest distance from DC along y (rows), in bins.
    pub ky: usize,
}

impl Band {
    /// The DC bin alone — the seed a support scan widens.
    pub const DC: Band = Band { kx: 0, ky: 0 };

    /// A band of radii `kx` (columns) and `ky` (rows).
    #[must_use]
    pub fn new(kx: usize, ky: usize) -> Self {
        Band { kx, ky }
    }

    /// The band that covers every bin of a `width × height` grid.
    #[must_use]
    pub fn full(width: usize, height: usize) -> Self {
        Band {
            kx: width / 2,
            ky: height / 2,
        }
    }

    /// The smallest band containing both.
    #[must_use]
    pub fn union(self, other: Band) -> Band {
        Band {
            kx: self.kx.max(other.kx),
            ky: self.ky.max(other.ky),
        }
    }

    /// Widens the band to contain bin `(i, j)` of a `width × height`
    /// grid.
    #[inline]
    pub fn include(&mut self, i: usize, j: usize, width: usize, height: usize) {
        self.kx = self.kx.max(signed_abs(i, width));
        self.ky = self.ky.max(signed_abs(j, height));
    }

    /// Whether bin `(i, j)` of a `width × height` grid lies in the band.
    #[must_use]
    pub fn contains(self, i: usize, j: usize, width: usize, height: usize) -> bool {
        signed_abs(i, width) <= self.kx && signed_abs(j, height) <= self.ky
    }

    /// Whether the band covers every bin of a `width × height` grid.
    #[must_use]
    pub fn covers(self, width: usize, height: usize) -> bool {
        self.kx >= width / 2 && self.ky >= height / 2
    }

    /// The same band with each radius capped at the grid's half extent,
    /// so equal coverage compares equal.
    #[must_use]
    pub fn clamp(self, width: usize, height: usize) -> Band {
        Band {
            kx: self.kx.min(width / 2),
            ky: self.ky.min(height / 2),
        }
    }

    /// The band of the nonzero bins of `spectrum` (either plane
    /// nonzero), by a full scan; [`Band::DC`] for an all-zero spectrum.
    #[must_use]
    pub fn of_support(spectrum: &SplitSpectrum) -> Band {
        let (w, h) = spectrum.dims();
        let (re, im) = spectrum.planes();
        let mut band = Band::DC;
        for j in 0..h {
            for i in 0..w {
                let idx = j * w + i;
                if re[idx] != 0.0 || im[idx] != 0.0 {
                    band.include(i, j, w, h);
                }
            }
        }
        band
    }

    /// The band's rows of an `h`-row grid (see [`lines`]).
    pub(crate) fn rows(self, h: usize) -> [Range<usize>; 2] {
        lines(h, self.ky)
    }

    /// The band's columns of a `w`-column grid (see [`lines`]).
    pub(crate) fn cols(self, w: usize) -> [Range<usize>; 2] {
        lines(w, self.kx)
    }

    /// The band's columns of the `w/2 + 1`-column Hermitian half
    /// spectrum of a `w`-column grid: `0..=kx`, or all of them.
    pub(crate) fn half_cols(self, w: usize) -> [Range<usize>; 2] {
        let hw = w / 2 + 1;
        [0..(self.kx + 1).min(hw), hw..hw]
    }

    /// Calls `f` with each linear-index span (`j·w + i`) of the band box
    /// on a `w × h` grid, in ascending order. Where the band spans whole
    /// rows, consecutive rows merge into one span, so the full band is
    /// the single span `0..w·h`.
    pub(crate) fn for_each_span(self, w: usize, h: usize, mut f: impl FnMut(Range<usize>)) {
        let cols = self.cols(w);
        for rows in self.rows(h) {
            if cols[0].len() == w {
                if !rows.is_empty() {
                    f(rows.start * w..rows.end * w);
                }
                continue;
            }
            for j in rows {
                for c in &cols {
                    f(j * w + c.start..j * w + c.end);
                }
            }
        }
    }
}

/// Distance of index `i` from DC on an `n`-point FFT axis:
/// `min(i, n − i)`, the magnitude of its signed frequency index.
#[inline]
fn signed_abs(i: usize, n: usize) -> usize {
    i.min(n - i)
}

/// The indices of an `n`-point axis within distance `k` of DC, as two
/// ascending runs: `0..k+1` and `n−k..n`, or `0..n` and an empty run
/// once `k ≥ n/2` covers the axis.
pub(crate) fn lines(n: usize, k: usize) -> [Range<usize>; 2] {
    if k >= n / 2 {
        [0..n, n..n]
    } else {
        [0..k + 1, n - k..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_into_two_runs_until_the_axis_is_covered() {
        assert_eq!(lines(8, 0), [0..1, 8..8]);
        assert_eq!(lines(8, 2), [0..3, 6..8]);
        assert_eq!(lines(8, 3), [0..4, 5..8]);
        assert_eq!(lines(8, 4), [0..8, 8..8]);
        assert_eq!(lines(7, 2), [0..3, 5..7]);
        assert_eq!(lines(7, 3), [0..7, 7..7]);
        assert_eq!(lines(1, 0), [0..1, 1..1]);
    }

    #[test]
    fn lines_are_exactly_the_contained_indices() {
        for n in 1..12 {
            for k in 0..8 {
                let listed: Vec<usize> = lines(n, k).into_iter().flatten().collect();
                let expect: Vec<usize> = (0..n).filter(|&i| signed_abs(i, n) <= k).collect();
                assert_eq!(listed, expect, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn spans_walk_the_band_box_in_order() {
        for (w, h) in [(8, 8), (7, 5), (16, 12), (1, 4)] {
            for band in [Band::DC, Band::new(1, 2), Band::new(3, 0), Band::full(w, h)] {
                let mut listed = Vec::new();
                band.for_each_span(w, h, |s| listed.extend(s));
                let expect: Vec<usize> = (0..w * h)
                    .filter(|&idx| band.contains(idx % w, idx / w, w, h))
                    .collect();
                assert_eq!(listed, expect, "{w}x{h} {band:?}");
            }
        }
        let mut spans = Vec::new();
        Band::full(8, 8).for_each_span(8, 8, |s| spans.push(s));
        assert_eq!(spans, vec![0..64]);
    }

    #[test]
    fn support_scan_finds_the_outermost_nonzero_bins() {
        let mut spec = SplitSpectrum::zeros(8, 6);
        assert_eq!(Band::of_support(&spec), Band::DC);
        spec.re_mut()[6] = 1.0; // (6, 0): two columns left of DC
        spec.im_mut()[5 * 8] = -0.5; // (0, 5): one row above DC
        assert_eq!(Band::of_support(&spec), Band::new(2, 1));
        assert!(Band::new(4, 3).covers(8, 6));
        assert!(!Band::new(3, 3).covers(8, 6));
        assert_eq!(Band::new(9, 1).clamp(8, 6), Band::new(4, 1));
        assert_eq!(Band::new(1, 5).union(Band::new(3, 0)), Band::new(3, 5));
    }
}
