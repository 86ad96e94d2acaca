//! Architectural checkpoints and interval profiling for sampled
//! simulation.
//!
//! The SimPoint-style sampling pipeline (see `dmdp-sample`) slices a
//! program's execution into fixed-instruction *intervals*, clusters the
//! per-interval [`IntervalFeatures`] vectors, and then simulates only one
//! representative interval per cluster. The detailed pipeline is seeded
//! at a representative's boundary from a [`Checkpoint`] — the complete
//! architectural state (PC, the 32 architectural registers, every
//! resident memory page, and the run statistics accumulated so far) —
//! captured by the functional emulator, which serves as the fast-forward
//! engine.
//!
//! Checkpoints are content-digested (FNV-1a over the canonical byte
//! serialization) so that the campaign store can share one checkpoint
//! set across every model and configuration simulating the same
//! (workload, interval length) pair.

use crate::emu::RunResult;
use crate::sparse::PAGE_BYTES;
use crate::{Pc, Reg, Word};

/// Number of dependence-class feature buckets in an interval vector.
///
/// Buckets `0..=15` hold loads by `log2(store distance + 1)` — the
/// number of dynamic stores between a load and the youngest earlier
/// store writing any byte it reads. Bucket `16` collects larger
/// distances; bucket [`BUCKET_NEVER_WRITTEN`] collects loads from
/// locations no store has written.
pub const DEP_BUCKETS: usize = 18;

/// The [`DEP_BUCKETS`] slot for loads of never-written locations.
pub const BUCKET_NEVER_WRITTEN: usize = DEP_BUCKETS - 1;

/// Maps a load's store distance to its feature bucket.
///
/// `writer_ssn` is the 1-based sequence number of the youngest earlier
/// overlapping store (`0` = never written); `store_count` is the number
/// of stores retired so far.
#[inline]
pub fn dep_bucket(writer_ssn: u32, store_count: u32) -> usize {
    if writer_ssn == 0 {
        return BUCKET_NEVER_WRITTEN;
    }
    let distance = store_count - writer_ssn;
    ((distance + 1).ilog2() as usize).min(DEP_BUCKETS - 2)
}

/// Cache-line granule used by the locality features: 64-byte lines,
/// matching the detailed model's L1D line size order of magnitude. The
/// exact granule is uncritical — the features only need to *separate*
/// cold-footprint intervals from resident ones.
pub const LOC_LINE_BYTES: u32 = 64;

/// The feature vector of one fixed-instruction execution interval.
///
/// Combines a sparse basic-block vector (execution counts of block
/// leaders — PCs entered through a taken control transfer or the
/// interval start) with a dense dependence-class histogram
/// ([`dep_bucket`]) and a pair of cache-locality counters: together
/// they separate *control* phases, *memory-dependence* phases, and
/// *cache-warmth* phases. The locality pair matters because basic-block
/// vectors are address-blind: a kernel whose first pass over an array
/// takes compulsory misses and whose later passes hit in cache executes
/// the identical blocks in both phases at very different CPI.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalFeatures {
    /// `(block leader PC, execution count)` pairs, sorted by PC.
    pub bb_counts: Vec<(Pc, u32)>,
    /// Load counts per store-distance class (see [`dep_bucket`]).
    pub dep_buckets: [u32; DEP_BUCKETS],
    /// [`LOC_LINE_BYTES`]-sized lines touched for the first time in the
    /// whole run during this interval (compulsory-miss proxy).
    pub new_lines: u32,
    /// Distinct lines touched in this interval (footprint proxy).
    pub touched_lines: u32,
    /// Dynamic instructions in this interval (equals the interval
    /// length everywhere but the final, possibly partial, interval).
    pub insns: u64,
}

/// The profile of a complete run, sliced into fixed-instruction
/// intervals by [`crate::Emulator::profile_intervals`].
#[derive(Debug, Clone, Default)]
pub struct IntervalProfile {
    /// Interval length in dynamic instructions.
    pub interval_insns: u64,
    /// One feature vector per interval, in execution order.
    pub intervals: Vec<IntervalFeatures>,
    /// Statistics of the full run (the program ran to `halt`).
    pub result: RunResult,
}

impl IntervalProfile {
    /// Total dynamic instructions profiled.
    pub fn total_insns(&self) -> u64 {
        self.result.retired
    }
}

/// A complete architectural checkpoint at an interval boundary.
///
/// Restoring a checkpoint into a fresh [`crate::Emulator`]
/// ([`crate::Emulator::from_checkpoint`]) or a fresh detailed pipeline
/// (`Simulator::run_from_checkpoint` in `dmdp-core`) reproduces the
/// run from this point bit-identically: the state captured is the full
/// architectural machine state, and both engines are deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// PC of the next instruction to execute.
    pub pc: Pc,
    /// The 32 architectural registers.
    pub regs: [Word; Reg::NUM_ARCH],
    /// Run statistics accumulated up to this point (its `retired`
    /// field is the checkpoint's position in the dynamic stream).
    pub result: RunResult,
    /// Every resident 4 KiB memory page, sorted by page index.
    pub pages: Vec<(u32, Box<[u8; PAGE_BYTES]>)>,
    /// The [`LOC_LINE_BYTES`]-sized lines most recently touched before
    /// the boundary, ordered LRU→MRU and capped by the capture call.
    /// Architectural state strictly speaking ends at `pages`; this is
    /// the warming hint that lets a seeded detailed pipeline start with
    /// realistic cache and TLB contents instead of simulating a
    /// compulsory-miss storm the uncheckpointed run never had. Empty on
    /// a bare [`crate::Emulator::checkpoint`] (cold).
    pub warm_lines: Vec<u32>,
    /// `(pc, next_pc)` of the conditional branches retired most
    /// recently before the boundary, oldest first and capped like
    /// [`Checkpoint::warm_lines`] — the branch-predictor warming hint
    /// (taken-ness is `next_pc != pc + 1`). Empty on a bare
    /// [`crate::Emulator::checkpoint`].
    pub warm_branches: Vec<(Pc, Pc)>,
}

const CKPT_MAGIC: &[u8; 8] = b"DMDPCKP1";

/// FNV-1a over a byte slice — the same construction as
/// `dmdp_harness::Digest64`, re-stated here so `dmdp-isa` stays
/// dependency-free.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Checkpoint {
    /// Content digest over the canonical serialization — equal digests
    /// mean interchangeable checkpoints.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.to_bytes())
    }

    /// Serialized size in bytes (without serializing).
    pub fn byte_len(&self) -> usize {
        8 + 4
            + 4 * (1 + Reg::NUM_ARCH)
            + 4 * 8
            + 4
            + self.pages.len() * (4 + PAGE_BYTES)
            + 4
            + 4 * self.warm_lines.len()
            + 4
            + 8 * self.warm_branches.len()
    }

    /// Canonical little-endian byte serialization (round-trips through
    /// [`Checkpoint::from_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        out.extend_from_slice(CKPT_MAGIC);
        out.extend_from_slice(&2u32.to_le_bytes());
        out.extend_from_slice(&self.pc.to_le_bytes());
        for r in self.regs {
            out.extend_from_slice(&r.to_le_bytes());
        }
        for v in [self.result.retired, self.result.loads, self.result.stores, self.result.branches]
        {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        for (index, page) in &self.pages {
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&page[..]);
        }
        out.extend_from_slice(&(self.warm_lines.len() as u32).to_le_bytes());
        for line in &self.warm_lines {
            out.extend_from_slice(&line.to_le_bytes());
        }
        out.extend_from_slice(&(self.warm_branches.len() as u32).to_le_bytes());
        for (pc, next_pc) in &self.warm_branches {
            out.extend_from_slice(&pc.to_le_bytes());
            out.extend_from_slice(&next_pc.to_le_bytes());
        }
        out
    }

    /// Deserializes a checkpoint produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// A human-readable message on a bad magic, version, page index, or
    /// truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, String> {
        let mut at = 0usize;
        let mut take = |n: usize| -> Result<&[u8], String> {
            let end = at.checked_add(n).filter(|&e| e <= bytes.len());
            let end = end.ok_or_else(|| format!("checkpoint truncated at byte {at}"))?;
            let s = &bytes[at..end];
            at = end;
            Ok(s)
        };
        if take(8)? != CKPT_MAGIC {
            return Err("not a dmdp checkpoint (bad magic)".into());
        }
        let u32_of = |s: &[u8]| u32::from_le_bytes(s.try_into().unwrap());
        let u64_of = |s: &[u8]| u64::from_le_bytes(s.try_into().unwrap());
        let version = u32_of(take(4)?);
        if version != 2 {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let pc = u32_of(take(4)?);
        let mut regs = [0u32; Reg::NUM_ARCH];
        for r in &mut regs {
            *r = u32_of(take(4)?);
        }
        let result = RunResult {
            retired: u64_of(take(8)?),
            loads: u64_of(take(8)?),
            stores: u64_of(take(8)?),
            branches: u64_of(take(8)?),
        };
        let n_pages = u32_of(take(4)?) as usize;
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            let index = u32_of(take(4)?);
            if u64::from(index) * PAGE_BYTES as u64 >= 1 << 32 {
                return Err(format!("page index {index:#x} outside the 32-bit address space"));
            }
            let mut page = Box::new([0u8; PAGE_BYTES]);
            page.copy_from_slice(take(PAGE_BYTES)?);
            pages.push((index, page));
        }
        let n_warm = u32_of(take(4)?) as usize;
        let mut warm_lines = Vec::with_capacity(n_warm);
        for _ in 0..n_warm {
            warm_lines.push(u32_of(take(4)?));
        }
        let n_branches = u32_of(take(4)?) as usize;
        let mut warm_branches = Vec::with_capacity(n_branches);
        for _ in 0..n_branches {
            let pc = u32_of(take(4)?);
            let next_pc = u32_of(take(4)?);
            warm_branches.push((pc, next_pc));
        }
        if at != bytes.len() {
            return Err(format!("{} trailing bytes after checkpoint", bytes.len() - at));
        }
        Ok(Checkpoint { pc, regs, result, pages, warm_lines, warm_branches })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ckpt() -> Checkpoint {
        let mut page = Box::new([0u8; PAGE_BYTES]);
        page[0] = 0xAB;
        page[PAGE_BYTES - 1] = 0xCD;
        let mut regs = [0u32; Reg::NUM_ARCH];
        regs[1] = 42;
        regs[31] = 7;
        Checkpoint {
            pc: 17,
            regs,
            result: RunResult { retired: 1000, loads: 10, stores: 5, branches: 3 },
            pages: vec![(16, page)],
            warm_lines: vec![1024, 7, 1025],
            warm_branches: vec![(3, 9), (12, 13)],
        }
    }

    #[test]
    fn bytes_round_trip() {
        let c = sample_ckpt();
        let bytes = c.to_bytes();
        assert_eq!(bytes.len(), c.byte_len());
        let d = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(c, d);
        assert_eq!(c.digest(), d.digest());
    }

    #[test]
    fn truncation_and_garbage_rejected() {
        let bytes = sample_ckpt().to_bytes();
        for cut in [0, 4, 8, 20, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(Checkpoint::from_bytes(&bad).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(Checkpoint::from_bytes(&long).is_err());
        // The page index field follows the magic, version, pc, registers,
        // statistics and page count.
        let at = 8 + 4 + 4 * (1 + Reg::NUM_ARCH) + 4 * 8 + 4;
        let mut beyond = bytes;
        beyond[at..at + 4].copy_from_slice(&(1u32 << 20).to_le_bytes());
        let err = Checkpoint::from_bytes(&beyond).unwrap_err();
        assert!(err.contains("outside the 32-bit address space"), "{err}");
    }

    #[test]
    fn digest_tracks_content() {
        let a = sample_ckpt();
        let mut b = sample_ckpt();
        assert_eq!(a.digest(), b.digest());
        b.regs[2] = 1;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn dep_buckets_classify_distances() {
        assert_eq!(dep_bucket(0, 100), BUCKET_NEVER_WRITTEN);
        assert_eq!(dep_bucket(100, 100), 0); // distance 0
        assert_eq!(dep_bucket(99, 100), 1); // distance 1
        assert_eq!(dep_bucket(97, 100), 2); // distance 3
        assert_eq!(dep_bucket(1, 2_000_000), DEP_BUCKETS - 2); // clamped
    }
}
