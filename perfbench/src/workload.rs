//! The three workloads and the inputs a seed makes for them.

use crate::stats::SplitMix64;
use mosaic_core::{MosaicConfig, MosaicMode, MosaicPreset};
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_runtime::JobSpec;

/// Problem scale: the benchmark proper, or the harness self-test
/// (64 px, one iteration, a two-submission serve mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Smallest sizes that still run every code path.
    Tiny,
}

/// How a workload drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `run_batch` over the workload's jobs, one worker.
    Batch,
    /// An in-process server with two closed-loop client connections.
    Serve,
}

/// One workload: which jobs, at which grid, on how many threads.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// How the workload drives the engine.
    pub kind: Kind,
    /// Distinct jobs (clip × mode), in canonical order.
    pub jobs: Vec<(BenchmarkId, MosaicMode)>,
    /// Grid edge, px.
    pub grid: usize,
    /// Pixel pitch, nm.
    pub pixel_nm: f64,
    /// Optimizer iterations per job.
    pub iterations: usize,
    /// Intra-job threads (`BatchConfig::threads`; serve always runs 1).
    pub threads: usize,
    /// Expected runtime-excluded quality total of one round, where the
    /// repository pins it.
    pub golden_quality: Option<f64>,
}

/// Every workload name, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["batch-256-fast", "batch-1024-t2", "serve-256-ckpt"];

impl Workload {
    /// The named workload at `scale`, or `None` for an unknown name.
    pub fn lookup(name: &str, scale: Scale) -> Option<Workload> {
        use BenchmarkId::*;
        let tiny = scale == Scale::Tiny;
        let fast = |clips: &[BenchmarkId]| clips.iter().map(|&c| (c, MosaicMode::Fast)).collect();
        let mut w = match name {
            "batch-256-fast" => Workload {
                name: "batch-256-fast",
                kind: Kind::Batch,
                jobs: fast(&BenchmarkId::all()),
                grid: 256,
                pixel_nm: 4.0,
                iterations: 10,
                threads: 1,
                golden_quality: Some(1_277_512.0),
            },
            "batch-1024-t2" => Workload {
                name: "batch-1024-t2",
                kind: Kind::Batch,
                jobs: fast(&[B1, B4]),
                grid: 1024,
                pixel_nm: 1.0,
                iterations: 4,
                threads: 2,
                golden_quality: None,
            },
            "serve-256-ckpt" => Workload {
                name: "serve-256-ckpt",
                kind: Kind::Serve,
                jobs: BenchmarkId::all()
                    .into_iter()
                    .flat_map(|c| [(c, MosaicMode::Fast), (c, MosaicMode::Exact)])
                    .collect(),
                grid: 256,
                pixel_nm: 4.0,
                iterations: 10,
                threads: 1,
                golden_quality: None,
            },
            _ => return None,
        };
        if tiny {
            w.jobs = match w.kind {
                Kind::Batch => w.jobs.into_iter().take(2).collect(),
                Kind::Serve => vec![(B1, MosaicMode::Fast), (B1, MosaicMode::Exact)],
            };
            w.grid = 64;
            w.pixel_nm = 18.0;
            w.iterations = 1;
            w.golden_quality = None;
        }
        Some(w)
    }

    /// The job spec of one distinct job at this workload's settings.
    pub fn spec(&self, clip: BenchmarkId, mode: MosaicMode) -> JobSpec {
        let mut config = MosaicConfig::preset(MosaicPreset::Fast, self.grid, self.pixel_nm);
        config.opt.max_iterations = self.iterations;
        JobSpec::new(clip, mode, config)
    }

    /// The batch jobs in the order `seed` puts them.
    pub fn batch_specs(&self, seed: u64) -> Vec<JobSpec> {
        let mut jobs = self.jobs.clone();
        SplitMix64::new(seed).shuffle(&mut jobs);
        jobs.into_iter().map(|(c, m)| self.spec(c, m)).collect()
    }

    /// Set-up repetitions: for serve, per run; for batch, before each
    /// round and after the last. The median is reported; cheap set-ups
    /// repeat more so their median stays steady.
    pub fn setup_reps(&self) -> usize {
        match self.kind {
            Kind::Serve => 5,
            Kind::Batch if self.grid > 256 => 2,
            Kind::Batch => 5,
        }
    }

    /// Plane bytes of one real `f64` grid at this workload's size.
    pub fn plane_bytes(&self) -> usize {
        self.grid * self.grid * std::mem::size_of::<f64>()
    }
}

/// One submission of the serve mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Index into [`Workload::jobs`].
    pub job: usize,
    /// Whether this repeats a submission the same client already saw
    /// complete, so the result cache answers it.
    pub hit: bool,
}

/// The serve mix: one fixed submission sequence per client connection.
///
/// Every distinct job is submitted exactly once as a miss, dealt to the
/// clients in seeded order; each client also sends as many hits as it
/// has misses, each repeating one of its *own* earlier misses. A client
/// waits for each reply before it submits again, so a hit's source has
/// always completed and every seed yields the same hit and miss counts.
pub fn serve_mix(distinct: usize, clients: usize, seed: u64) -> Vec<Vec<Submission>> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..distinct).collect();
    rng.shuffle(&mut order);
    (0..clients)
        .map(|c| {
            let mut misses = order.iter().copied().skip(c).step_by(clients);
            let total = misses.len();
            let mut done: Vec<usize> = Vec::new();
            let mut hits_left = total;
            let mut seq = Vec::with_capacity(2 * total);
            while seq.len() < 2 * total {
                let misses_left = total - done.len();
                let take_hit = !done.is_empty()
                    && hits_left > 0
                    && (misses_left == 0 || rng.below(misses_left + hits_left) < hits_left);
                if take_hit {
                    let job = done[rng.below(done.len())];
                    seq.push(Submission { job, hit: true });
                    hits_left -= 1;
                } else if let Some(job) = misses.next() {
                    done.push(job);
                    seq.push(Submission { job, hit: false });
                }
            }
            seq
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_resolves_at_both_scales() {
        for name in NAMES {
            for scale in [Scale::Full, Scale::Tiny] {
                let w = Workload::lookup(name, scale).expect("known workload");
                assert_eq!(w.name, name);
                assert!(!w.jobs.is_empty());
            }
        }
        assert!(Workload::lookup("nope", Scale::Full).is_none());
    }

    #[test]
    fn serve_mix_counts_are_fixed_and_hits_follow_their_miss() {
        for seed in 0..50 {
            let mix = serve_mix(20, 2, seed);
            assert_eq!(mix, serve_mix(20, 2, seed), "same seed, same mix");
            let all: Vec<_> = mix.iter().flatten().collect();
            assert_eq!(all.iter().filter(|s| s.hit).count(), 20);
            let mut misses: Vec<_> = all.iter().filter(|s| !s.hit).map(|s| s.job).collect();
            misses.sort_unstable();
            assert_eq!(misses, (0..20).collect::<Vec<_>>());
            for client in &mix {
                for (i, s) in client.iter().enumerate().filter(|(_, s)| s.hit) {
                    assert!(client[..i].iter().any(|m| !m.hit && m.job == s.job));
                }
            }
        }
        assert_ne!(serve_mix(20, 2, 1), serve_mix(20, 2, 2));
        let tiny = serve_mix(2, 2, 9);
        assert!(tiny.iter().all(|c| c.len() == 2 && !c[0].hit && c[1].hit));
    }
}
