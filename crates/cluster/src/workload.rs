//! Workload generators.
//!
//! The paper defers workload measurement to future work (§6), so the
//! harness provides synthetic generators spanning the regimes its claims
//! cover: uniform access, Zipf-popular files (cache-friendly, contention
//! on the head), and deliberate hot-file contention (lock demand traffic).

use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use tank_client::{FsOp, OpGen};
use tank_sim::LocalNs;

/// Mix knobs shared by the generators.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Fraction of data ops that are reads (rest are writes).
    pub read_frac: f64,
    /// Fraction of ops that are metadata (stat) rather than data.
    pub meta_frac: f64,
    /// I/O size in bytes.
    pub io_size: u32,
    /// Max file offset the generator addresses.
    pub max_offset: u64,
    /// Mean think time between ops (exponential-ish via uniform 0..2m).
    pub think_mean: LocalNs,
}

impl Default for Mix {
    fn default() -> Self {
        Mix {
            read_frac: 0.7,
            meta_frac: 0.2,
            io_size: 1024,
            max_offset: 12 * 1024,
            think_mean: LocalNs::from_millis(20),
        }
    }
}

impl Mix {
    fn think(&self, rng: &mut ChaCha8Rng) -> LocalNs {
        // Uniform on [0, 2·mean]: same mean as exponential, bounded tail
        // (keeps runs deterministic in length).
        LocalNs(rng.random_range(0..=self.think_mean.0 * 2))
    }

    fn op_for(&self, path: String, rng: &mut ChaCha8Rng) -> FsOp {
        if rng.random_bool(self.meta_frac) {
            return FsOp::Stat { path };
        }
        let offset = if self.max_offset > self.io_size as u64 {
            rng.random_range(0..=(self.max_offset - self.io_size as u64))
        } else {
            0
        };
        if rng.random_bool(self.read_frac) {
            FsOp::Read {
                path,
                offset,
                len: self.io_size,
            }
        } else {
            let base = (offset % 251) as u8;
            FsOp::Write {
                path,
                offset,
                data: vec![base; self.io_size as usize],
            }
        }
    }
}

/// Uniform file popularity over `/f0 … /f{n-1}`.
#[derive(Debug, Clone)]
pub struct UniformGen {
    files: usize,
    mix: Mix,
    remaining: Option<u64>,
}

impl UniformGen {
    /// Uniform generator with explicit mix.
    pub fn new(files: usize, mix: Mix) -> Self {
        UniformGen {
            files,
            mix,
            remaining: None,
        }
    }

    /// Uniform generator with the default mix.
    pub fn default_for(files: usize) -> Self {
        UniformGen::new(files, Mix::default())
    }

    /// Stop after `n` operations.
    pub fn limited(mut self, n: u64) -> Self {
        self.remaining = Some(n);
        self
    }
}

impl OpGen for UniformGen {
    fn next_op(&mut self, rng: &mut ChaCha8Rng, _now: LocalNs) -> Option<(LocalNs, FsOp)> {
        if let Some(r) = &mut self.remaining {
            if *r == 0 {
                return None;
            }
            *r -= 1;
        }
        let f = rng.random_range(0..self.files);
        let op = self.mix.op_for(format!("/f{f}"), rng);
        Some((self.mix.think(rng), op))
    }
}

/// Zipf(α) file popularity: file 0 hottest.
#[derive(Debug, Clone)]
pub struct ZipfGen {
    cdf: Vec<f64>,
    mix: Mix,
}

impl ZipfGen {
    /// Zipf over `files` files with exponent `alpha` (≈1 typical).
    pub fn new(files: usize, alpha: f64, mix: Mix) -> Self {
        assert!(files > 0);
        let mut weights: Vec<f64> = (1..=files).map(|k| 1.0 / (k as f64).powf(alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        ZipfGen { cdf: weights, mix }
    }

    /// Draw one file index from the popularity distribution (0 hottest).
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

impl OpGen for ZipfGen {
    fn next_op(&mut self, rng: &mut ChaCha8Rng, _now: LocalNs) -> Option<(LocalNs, FsOp)> {
        let f = self.sample(rng);
        let op = self.mix.op_for(format!("/f{f}"), rng);
        Some((self.mix.think(rng), op))
    }
}

/// Every operation targets one file — maximal lock contention, maximal
/// demand/revocation traffic.
#[derive(Debug, Clone)]
pub struct HotFileGen {
    path: String,
    mix: Mix,
}

impl HotFileGen {
    /// All traffic on `path`.
    pub fn new(path: impl Into<String>, mix: Mix) -> Self {
        HotFileGen {
            path: path.into(),
            mix,
        }
    }
}

impl OpGen for HotFileGen {
    fn next_op(&mut self, rng: &mut ChaCha8Rng, _now: LocalNs) -> Option<(LocalNs, FsOp)> {
        let op = self.mix.op_for(self.path.clone(), rng);
        Some((self.mix.think(rng), op))
    }
}

/// Mostly works one "primary" file (the one this client's processes have
/// open and locked), with occasional forays into shared files. This is the
/// access pattern that makes partition scenarios bite: the isolated client
/// keeps operating on its cached primary file even while its ops on other
/// files block.
#[derive(Debug, Clone)]
pub struct PrimaryBiasGen {
    primary: String,
    files: usize,
    /// Probability an op targets the primary file.
    bias: f64,
    mix: Mix,
}

impl PrimaryBiasGen {
    /// Generator biased `bias` (e.g. 0.8) toward `/f{primary}` out of
    /// `files` shared files.
    pub fn new(primary: usize, files: usize, bias: f64, mix: Mix) -> Self {
        PrimaryBiasGen {
            primary: format!("/f{primary}"),
            files,
            bias,
            mix,
        }
    }
}

impl OpGen for PrimaryBiasGen {
    fn next_op(&mut self, rng: &mut ChaCha8Rng, _now: LocalNs) -> Option<(LocalNs, FsOp)> {
        let path = if rng.random_bool(self.bias) {
            self.primary.clone()
        } else {
            format!("/f{}", rng.random_range(0..self.files))
        };
        let op = self.mix.op_for(path, rng);
        Some((self.mix.think(rng), op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(9)
    }

    #[test]
    fn uniform_produces_ops_within_bounds() {
        let mut g = UniformGen::default_for(4);
        let mut r = rng();
        for _ in 0..200 {
            let (think, op) = g.next_op(&mut r, LocalNs(0)).unwrap();
            assert!(think.0 <= 2 * Mix::default().think_mean.0);
            let path = op.path();
            assert!(path.starts_with("/f"));
            let idx: usize = path[2..].parse().unwrap();
            assert!(idx < 4);
            if let FsOp::Read { offset, len, .. } = op {
                assert!(offset + len as u64 <= Mix::default().max_offset);
            }
        }
    }

    #[test]
    fn limited_generator_stops() {
        let mut g = UniformGen::default_for(2).limited(3);
        let mut r = rng();
        assert!(g.next_op(&mut r, LocalNs(0)).is_some());
        assert!(g.next_op(&mut r, LocalNs(0)).is_some());
        assert!(g.next_op(&mut r, LocalNs(0)).is_some());
        assert!(g.next_op(&mut r, LocalNs(0)).is_none());
    }

    #[test]
    fn zipf_prefers_the_head() {
        let mut g = ZipfGen::new(16, 1.0, Mix::default());
        let mut r = rng();
        let mut head = 0;
        let n = 2000;
        for _ in 0..n {
            let (_, op) = g.next_op(&mut r, LocalNs(0)).unwrap();
            if op.path() == "/f0" {
                head += 1;
            }
        }
        // With α=1 over 16 files, f0 gets ~30% of traffic; uniform would
        // be 6%.
        assert!(head > n / 6, "f0 hits: {head}/{n}");
    }

    #[test]
    fn hot_file_targets_one_path() {
        let mut g = HotFileGen::new("/hot", Mix::default());
        let mut r = rng();
        for _ in 0..50 {
            let (_, op) = g.next_op(&mut r, LocalNs(0)).unwrap();
            assert_eq!(op.path(), "/hot");
        }
    }
}
