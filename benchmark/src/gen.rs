//! Seeded workload generation for the `tankd` half of every workload.
//!
//! Everything the server sees is a pure function of `--seed`: file
//! names, key draws, op-mix draws and the open-loop schedule. Load is
//! issued by *slots* — sequential actors that each walk their own seeded
//! op stream and have at most one op in flight — so the expected state of
//! every file a slot mutates is known exactly whatever order the server
//! interleaves the slots in. Slots only ever *read* the shared Zipf file
//! set; they mutate files private to themselves.
//!
//! This module depends on `tank-proto` alone: it is compiled into both
//! the timed harness and the probe, which replays the *same* stream
//! through the leaf layers.

use tank_proto::message::RequestBody;
use tank_proto::{Ino, LockMode};

/// Shared files the Zipf key draws range over.
pub const SHARED_FILES: usize = 4096;
/// Zipf exponent of every key draw.
pub const ZIPF_ALPHA: f64 = 1.0;
/// Client sockets (= sessions) the generator speaks through.
pub const SOCKETS: usize = 16;
/// Ops in flight in a closed loop: the smallest window that keeps
/// `tankd` from sleeping between requests (README, sizing fact i).
pub const WINDOW: usize = 32;
/// Sequential actors for `small`/`batch`. The closed loop runs the first
/// [`WINDOW`]; the open loop deals arrivals round-robin over all of them
/// so an arrival rarely finds its slot still busy.
pub const SLOTS: usize = 64;
/// Files each slot owns for `SetAttr`.
pub const PRIVATE_PER_SLOT: usize = 2;
/// Elements per `batch` datagram.
pub const BATCH_ELEMS: usize = 32;
/// Lock chains (`lock` workload), four per session pair.
pub const CHAINS: usize = WINDOW;
/// Keys each lock chain draws its uncontended cycles from: the shared
/// set dealt round-robin, so no two chains ever meet on a key and the
/// hand-off share of the mix is exactly the seeded one.
pub const KEYS_PER_CHAIN: usize = SHARED_FILES / CHAINS;
/// The namespace root of a single-shard server.
pub const ROOT: Ino = Ino(1);

/// The three workloads. Each drives both runtimes (README, "Workloads").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One small request per datagram; unbatched metadata reads in the
    /// simulator.
    Small,
    /// 32-element batches with writes beside reads; the cached, batched
    /// file workload in the simulator.
    Batch,
    /// Lock cycles and demand hand-offs; acquire/release churn in the
    /// simulator.
    Lock,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Small, Workload::Batch, Workload::Lock];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Small => "small",
            Workload::Batch => "batch",
            Workload::Lock => "lock",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Fixed open-loop rate in *datagram-level ops* per second (requests,
    /// batches, lock cycles): about 40 % of the closed-loop ceiling
    /// measured on the 2-vCPU reference box, rounded to a 5 k multiple
    /// (README, sizing fact iii). Fixed once, never derived at run time,
    /// so two commits are always offered the same load.
    pub fn open_rate(self) -> u64 {
        match self {
            Workload::Small => 40_000,
            Workload::Batch => 15_000,
            Workload::Lock => 10_000,
        }
    }

    /// Logical ops one datagram-level op counts for.
    pub fn ops_per_unit(self) -> u64 {
        match self {
            Workload::Batch => BATCH_ELEMS as u64,
            Workload::Small | Workload::Lock => 1,
        }
    }
}

/// SplitMix64: small, seedable, and ours — the op stream must not change
/// because a vendored `rand` stand-in did.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent sub-seed of `seed` for stream `stream`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    r.next_u64()
}

/// Zipf(α) ranks over `n` keys, rank 0 hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Popularity table for `n` keys.
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0);
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// File names, fixed by the seed.
#[derive(Debug, Clone, Copy)]
pub struct Names {
    tag: u32,
}

impl Names {
    /// Names for `seed`.
    pub fn new(seed: u64) -> Names {
        Names {
            tag: derive(seed, 0x6e61_6d65) as u32,
        }
    }

    /// Shared file `i`.
    pub fn shared(&self, i: usize) -> String {
        format!("sh-{:08x}-{i:05}", self.tag)
    }

    /// Private file `j` of `slot`.
    pub fn private(&self, slot: usize, j: usize) -> String {
        format!("pv-{:08x}-{slot:03}-{j}", self.tag)
    }

    /// The `generation`-th scratch name of `slot` (24 bytes).
    pub fn scratch(&self, slot: usize, generation: u32) -> String {
        format!("sc-{:08x}-{slot:03}-{generation:08}", self.tag)
    }
}

/// Which file an op addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRef {
    /// Shared file by index (read-only during a run).
    Shared(u32),
    /// The issuing slot's private file.
    Private(u8),
    /// The issuing slot's scratch file of this generation.
    Scratch(u32),
}

/// One metadata op, before it is bound to inode numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaOp {
    /// `GetAttr` on a file.
    GetAttr(FileRef),
    /// `Lookup` of a file's name under the root.
    Lookup(FileRef),
    /// `KeepAlive`.
    KeepAlive,
    /// `SetAttr` truncating a private file to `size`.
    SetAttr {
        /// Private file index.
        file: u8,
        /// New size.
        size: u64,
    },
    /// `Create` the slot's scratch name of this generation.
    Create(u32),
    /// `Unlink` it again.
    Unlink(u32),
}

/// Resolves a slot's [`FileRef`]s once the server has assigned inodes.
pub trait Binding {
    /// The inode behind `file` as seen by `slot`.
    fn ino(&self, slot: usize, file: FileRef) -> Ino;
}

impl MetaOp {
    /// The wire request for this op issued by `slot`.
    pub fn body(&self, slot: usize, names: &Names, bind: &dyn Binding) -> RequestBody {
        let name_of = |f: FileRef| match f {
            FileRef::Shared(i) => names.shared(i as usize),
            FileRef::Private(j) => names.private(slot, j as usize),
            FileRef::Scratch(g) => names.scratch(slot, g),
        };
        match *self {
            MetaOp::GetAttr(f) => RequestBody::GetAttr {
                ino: bind.ino(slot, f),
            },
            MetaOp::Lookup(f) => RequestBody::Lookup {
                parent: ROOT,
                name: name_of(f),
            },
            MetaOp::KeepAlive => RequestBody::KeepAlive,
            MetaOp::SetAttr { file, size } => RequestBody::SetAttr {
                ino: bind.ino(slot, FileRef::Private(file)),
                size: Some(size),
            },
            MetaOp::Create(g) => RequestBody::Create {
                parent: ROOT,
                name: names.scratch(slot, g),
            },
            MetaOp::Unlink(g) => RequestBody::Unlink {
                parent: ROOT,
                name: names.scratch(slot, g),
            },
        }
    }
}

/// One slot's op stream for `small` (one op per unit) or `batch`
/// ([`BATCH_ELEMS`] per unit).
#[derive(Debug, Clone)]
pub struct MetaStream {
    workload: Workload,
    rng: Rng,
    zipf: Zipf,
    /// Generation of the scratch name; it exists iff `scratch_live`.
    scratch_gen: u32,
    scratch_live: bool,
}

impl MetaStream {
    /// The stream `slot` walks under `seed`.
    pub fn new(workload: Workload, seed: u64, slot: usize) -> MetaStream {
        assert!(matches!(workload, Workload::Small | Workload::Batch));
        MetaStream {
            workload,
            rng: Rng::new(derive(seed, 0x0100 + slot as u64)),
            zipf: Zipf::new(SHARED_FILES, ZIPF_ALPHA),
            scratch_gen: 0,
            scratch_live: false,
        }
    }

    fn shared(&mut self) -> FileRef {
        FileRef::Shared(self.zipf.sample(&mut self.rng) as u32)
    }

    /// `small`: 70 % GetAttr, 25 % Lookup, 5 % KeepAlive.
    fn small_op(&mut self) -> MetaOp {
        match self.rng.below(100) {
            0..=69 => MetaOp::GetAttr(self.shared()),
            70..=94 => MetaOp::Lookup(self.shared()),
            _ => MetaOp::KeepAlive,
        }
    }

    /// `batch` element, in sixteenths: 8 GetAttr, 4 Lookup, 2 SetAttr,
    /// 2 Create-or-Unlink (the slot creates its scratch name, later
    /// unlinks it, then moves to the next generation — so over time the
    /// two are 6.25 % each). While the scratch file exists, one Lookup
    /// in four resolves it instead of a shared file, and one GetAttr in
    /// eight re-reads a private file a SetAttr has changed.
    fn batch_op(&mut self) -> MetaOp {
        match self.rng.below(16) {
            0..=7 => {
                if self.rng.below(8) == 0 {
                    MetaOp::GetAttr(FileRef::Private(
                        self.rng.below(PRIVATE_PER_SLOT as u64) as u8
                    ))
                } else {
                    MetaOp::GetAttr(self.shared())
                }
            }
            8..=11 => {
                if self.scratch_live && self.rng.below(4) == 0 {
                    MetaOp::Lookup(FileRef::Scratch(self.scratch_gen))
                } else {
                    MetaOp::Lookup(self.shared())
                }
            }
            12..=13 => MetaOp::SetAttr {
                file: self.rng.below(PRIVATE_PER_SLOT as u64) as u8,
                size: self.rng.below(1 << 20),
            },
            _ => {
                if self.scratch_live {
                    self.scratch_live = false;
                    let g = self.scratch_gen;
                    self.scratch_gen += 1;
                    MetaOp::Unlink(g)
                } else {
                    self.scratch_live = true;
                    MetaOp::Create(self.scratch_gen)
                }
            }
        }
    }

    /// The next datagram's worth of ops.
    pub fn next_unit(&mut self) -> Vec<MetaOp> {
        match self.workload {
            Workload::Small => vec![self.small_op()],
            Workload::Batch => (0..BATCH_ELEMS).map(|_| self.batch_op()).collect(),
            Workload::Lock => unreachable!("lock chains use LockStream"),
        }
    }
}

/// One step of a lock chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockStep {
    /// Acquire then release a key nobody else touches.
    Cycle {
        /// Index into the chain's own keys (see [`chain_key`]).
        key: u32,
        /// Mode to acquire in.
        mode: LockMode,
    },
    /// Take the chain's hot inode from the partner session that holds it
    /// `Exclusive`: the server must demand it back first.
    Handoff,
}

/// The shared-file index behind key `key` of `chain`.
pub fn chain_key(chain: usize, key: u32) -> usize {
    key as usize * CHAINS + chain
}

/// The two sockets of the session pair `chain` runs on.
pub fn chain_sockets(chain: usize) -> [usize; 2] {
    let pair = chain % (SOCKETS / 2);
    [2 * pair, 2 * pair + 1]
}

/// One chain's step stream: 75 % cycles (alternating `SharedRead` /
/// `Exclusive`, Zipf key), 25 % hand-offs.
#[derive(Debug, Clone)]
pub struct LockStream {
    rng: Rng,
    zipf: Zipf,
    exclusive_next: bool,
}

impl LockStream {
    /// The stream `chain` walks under `seed`.
    pub fn new(seed: u64, chain: usize) -> LockStream {
        LockStream {
            rng: Rng::new(derive(seed, 0x0200 + chain as u64)),
            zipf: Zipf::new(KEYS_PER_CHAIN, ZIPF_ALPHA),
            exclusive_next: false,
        }
    }

    /// The next step.
    pub fn next_step(&mut self) -> LockStep {
        if self.rng.below(4) == 0 {
            return LockStep::Handoff;
        }
        let mode = if self.exclusive_next {
            LockMode::Exclusive
        } else {
            LockMode::SharedRead
        };
        self.exclusive_next = !self.exclusive_next;
        LockStep::Cycle {
            key: self.zipf.sample(&mut self.rng) as u32,
            mode,
        }
    }
}

/// One open-loop arrival: due `at_ns` after the phase starts, on `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, nanoseconds from the start of the phase.
    pub at_ns: u64,
    /// The slot (or chain) whose next op this is.
    pub slot: u32,
}

/// The open-loop schedule: `rate` arrivals per second at fixed spacing
/// for `nanos`, dealt to the slots in a seeded order (each round of
/// `slots` arrivals is a fresh permutation, so every slot gets the same
/// share and none is hit twice in a row by more than chance).
pub fn schedule(seed: u64, rate: u64, nanos: u64, slots: usize) -> Vec<Arrival> {
    assert!(rate > 0 && slots > 0);
    let n = (nanos as u128 * rate as u128 / 1_000_000_000) as usize;
    let mut rng = Rng::new(derive(seed, 0x0300));
    let mut order: Vec<u32> = (0..slots as u32).collect();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let k = i % slots;
        if k == 0 {
            for j in (1..slots).rev() {
                order.swap(j, rng.below(j as u64 + 1) as usize);
            }
        }
        out.push(Arrival {
            at_ns: (i as u128 * 1_000_000_000 / rate as u128) as u64,
            slot: order[k],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_prefers_the_head() {
        let z = Zipf::new(SHARED_FILES, ZIPF_ALPHA);
        let mut r = Rng::new(3);
        let n = 20_000;
        let head = (0..n).filter(|_| z.sample(&mut r) == 0).count();
        // Rank 0 carries 1/H(4096) ≈ 11 % of the mass.
        assert!((0.09..0.13).contains(&(head as f64 / n as f64)), "{head}");
    }

    #[test]
    fn mixes_are_as_documented() {
        let mut s = MetaStream::new(Workload::Small, 11, 0);
        let ops: Vec<MetaOp> = (0..20_000).flat_map(|_| s.next_unit()).collect();
        let share = |f: &dyn Fn(&MetaOp) -> bool| {
            ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64
        };
        assert!((share(&|o| matches!(o, MetaOp::GetAttr(_))) - 0.70).abs() < 0.02);
        assert!((share(&|o| matches!(o, MetaOp::Lookup(_))) - 0.25).abs() < 0.02);
        assert!((share(&|o| matches!(o, MetaOp::KeepAlive)) - 0.05).abs() < 0.01);

        let mut s = MetaStream::new(Workload::Batch, 11, 0);
        let units: Vec<Vec<MetaOp>> = (0..2_000).map(|_| s.next_unit()).collect();
        assert!(units.iter().all(|u| u.len() == BATCH_ELEMS));
        let ops: Vec<MetaOp> = units.into_iter().flatten().collect();
        let share = |f: &dyn Fn(&MetaOp) -> bool| {
            ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64
        };
        assert!((share(&|o| matches!(o, MetaOp::GetAttr(_))) - 0.50).abs() < 0.02);
        assert!((share(&|o| matches!(o, MetaOp::Lookup(_))) - 0.25).abs() < 0.02);
        assert!((share(&|o| matches!(o, MetaOp::SetAttr { .. })) - 0.125).abs() < 0.01);
        assert!((share(&|o| matches!(o, MetaOp::Create(_))) - 0.0625).abs() < 0.01);
        assert!((share(&|o| matches!(o, MetaOp::Unlink(_))) - 0.0625).abs() < 0.01);
    }

    #[test]
    fn scratch_names_alternate_create_unlink_and_are_24_bytes() {
        let mut s = MetaStream::new(Workload::Batch, 5, 9);
        let mut live: Option<u32> = None;
        for _ in 0..500 {
            for op in s.next_unit() {
                match op {
                    MetaOp::Create(g) => {
                        assert_eq!(live, None);
                        live = Some(g);
                    }
                    MetaOp::Unlink(g) => {
                        assert_eq!(live, Some(g));
                        live = None;
                    }
                    MetaOp::Lookup(FileRef::Scratch(g)) => assert_eq!(live, Some(g)),
                    _ => {}
                }
            }
        }
        assert_eq!(Names::new(5).scratch(9, 123).len(), 24);
    }

    #[test]
    fn lock_chains_never_share_a_key() {
        let mut seen = std::collections::HashSet::new();
        for chain in 0..CHAINS {
            for key in 0..KEYS_PER_CHAIN as u32 {
                assert!(seen.insert(chain_key(chain, key)));
            }
        }
        assert_eq!(seen.len(), SHARED_FILES);
        let mut s = LockStream::new(1, 0);
        let steps: Vec<LockStep> = (0..8_000).map(|_| s.next_step()).collect();
        let handoffs = steps.iter().filter(|s| **s == LockStep::Handoff).count();
        assert!((handoffs as f64 / 8_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn schedule_is_evenly_spaced_and_fair() {
        let s = schedule(1, 40_000, 500_000_000, SLOTS);
        assert_eq!(s.len(), 20_000);
        assert_eq!(s[0].at_ns, 0);
        assert_eq!(s[1].at_ns, 25_000);
        let mut per_slot = [0u32; SLOTS];
        for a in &s {
            per_slot[a.slot as usize] += 1;
        }
        let (lo, hi) = (
            per_slot.iter().min().unwrap(),
            per_slot.iter().max().unwrap(),
        );
        assert!(hi - lo <= 1, "{lo}..{hi}");
    }
}
