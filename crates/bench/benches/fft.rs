//! Micro-benchmarks of the FFT substrate (B0 in DESIGN.md).
//!
//! Std-only harness (`cargo bench --bench fft`): each case is warmed up
//! once and then timed over a fixed iteration count with
//! `std::time::Instant` — no external benchmarking dependency.
//!
//! Rows come in explicit families so a cold number is never mistaken
//! for a hot-loop number:
//!
//! * `fft_1d/*` — one in-place 1-D transform on split planes.
//! * `fft_2d_cold/*` — clone + transform per iteration: measures the
//!   transform *plus* a full-grid allocation and copy. Kept as the
//!   worst-case row; never representative of the optimizer loop.
//! * `fft_2d_warm/*` — in-place forward+inverse pair on the inline team
//!   drawing scratch from a warm [`Workspace`] pool: the hot-loop number
//!   of a one-thread run.
//! * `fft_2d_real_fwd/*` — the Hermitian real-input half-spectrum
//!   forward.
//! * `fft_2d_team/*/threads_n` — the same warm pair banded across a team
//!   of `n − 1` workers plus the caller; bit-identical to the inline
//!   rows at any team size.

use mosaic_numerics::{Fft, Fft2d, FftDirection, Grid, SpectralTeam, SplitSpectrum, Workspace};
use std::hint::black_box;
use std::time::Instant;

fn report<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    black_box(f()); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per = start.elapsed().as_secs_f64() / f64::from(iters);
    println!("{name:<32} {:>12.3} us/iter ({iters} iters)", per * 1e6);
}

fn planes(n: usize) -> (Vec<f64>, Vec<f64>) {
    (0..n).map(|i| ((i as f64).sin(), (i as f64).cos())).unzip()
}

fn field(n: usize) -> SplitSpectrum {
    let (re, im) = (0..n * n)
        .map(|i| {
            let (x, y) = ((i % n) as f64, (i / n) as f64);
            ((x * 0.1).sin(), (y * 0.1).cos())
        })
        .unzip();
    SplitSpectrum::from_parts(n, n, re, im)
}

fn main() {
    let mut ws = Workspace::new();
    // The last length takes the Bluestein path (non-power-of-two).
    for n in [256usize, 1024, 4096, 1000] {
        let fft = Fft::new(n);
        let (mut re, mut im) = planes(n);
        report(&format!("fft_1d/{n}"), 200, || {
            fft.process_split(&mut re, &mut im, FftDirection::Forward, &mut ws);
            fft.process_split(&mut re, &mut im, FftDirection::Inverse, &mut ws);
            re[0]
        });
    }

    let mut inline = SpectralTeam::inline();
    for n in [128usize, 256, 512] {
        let plan = Fft2d::new(n, n);
        let spec = field(n);
        report(&format!("fft_2d_cold/{n}"), 20, || {
            let mut s = spec.clone();
            plan.process_split(&mut s, FftDirection::Forward, &mut ws, &mut inline);
            s
        });

        let mut s = spec.clone();
        report(&format!("fft_2d_warm/{n}"), 40, || {
            // Forward+inverse pair, so the buffer magnitudes stay put.
            plan.process_split(&mut s, FftDirection::Forward, &mut ws, &mut inline);
            plan.process_split(&mut s, FftDirection::Inverse, &mut ws, &mut inline);
            s.at(0)
        });

        let real = Grid::from_fn(n, n, |x, y| ((x * 3 + y) % 7) as f64 * 0.1);
        let mut half = SplitSpectrum::zeros(plan.half_width(), n);
        report(&format!("fft_2d_real_fwd/{n}"), 40, || {
            plan.forward_real_split_into(&real, &mut half, &mut ws);
            half.at(0)
        });
    }

    // Banded teams (DESIGN.md §14): the calling thread takes one band,
    // `workers` pooled threads take the rest. On a single-CPU host expect
    // parity or a small loss (the bands serialize on one core plus pay
    // the wave handshake); the rows track the handshake overhead and show
    // the scaling on multi-core hosts.
    for workers in [1usize, 3] {
        let mut team = SpectralTeam::new(workers);
        for n in [128usize, 256, 512] {
            let plan = Fft2d::new(n, n);
            let mut s = field(n);
            report(
                &format!("fft_2d_team/{n}/threads_{}", workers + 1),
                40,
                || {
                    plan.process_split(&mut s, FftDirection::Forward, &mut ws, &mut team);
                    plan.process_split(&mut s, FftDirection::Inverse, &mut ws, &mut team);
                    s.at(0)
                },
            );
        }
    }
}
