use std::collections::VecDeque;

use dmdp_isa::bab::{bab, place_in_word, word_addr};
use dmdp_isa::{Addr, MemWidth, SparseMem, Word};

use crate::hierarchy::MemHierarchy;

/// Memory consistency model governing store-buffer commit order (§IV-F).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Consistency {
    /// Total Store Order: stores write the cache strictly in program
    /// order; a store's write begins only after the previous one
    /// completes.
    #[default]
    Tso,
    /// Relaxed Memory Order: store writes may overlap (one issues per
    /// cycle); `SSN_commit` still tracks the oldest store remaining in the
    /// buffer, as the paper specifies.
    Rmo,
}

/// A retired store waiting in the store buffer, canonicalized to its
/// aligned word plus Byte Access Bits.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SbEntry {
    /// Store sequence number.
    pub ssn: u32,
    /// Aligned word address.
    pub word_addr: Addr,
    /// Which bytes of the word this store writes.
    pub bab: u8,
    /// The store's bytes positioned within the word.
    pub word_value: Word,
}

impl SbEntry {
    /// Canonicalizes a store.
    ///
    /// # Panics
    ///
    /// Panics on an unaligned access.
    pub fn new(ssn: u32, addr: Addr, width: MemWidth, value: Word) -> SbEntry {
        SbEntry {
            ssn,
            word_addr: word_addr(addr),
            bab: bab(addr, width),
            word_value: place_in_word(addr, width, value),
        }
    }

    /// Applies the store's bytes to the architectural memory image.
    pub fn apply(&self, data: &mut SparseMem) {
        for i in 0..4 {
            if self.bab & (1 << i) != 0 {
                data.write_byte(self.word_addr + i, (self.word_value >> (8 * i)) as u8);
            }
        }
    }

    /// Attempts to absorb a younger store into this entry (store
    /// coalescing, §V): succeeds when both target the same word. The
    /// younger store's bytes win.
    pub fn coalesce(&mut self, younger: &SbEntry) -> bool {
        if self.word_addr != younger.word_addr {
            return false;
        }
        let mut merged = self.word_value;
        for i in 0..4 {
            if younger.bab & (1 << i) != 0 {
                let mask = 0xFFu32 << (8 * i);
                merged = (merged & !mask) | (younger.word_value & mask);
            }
        }
        self.word_value = merged;
        self.bab |= younger.bab;
        self.ssn = younger.ssn;
        true
    }
}

#[derive(Copy, Clone, Debug)]
struct InFlight {
    ssn: u32,
    done_at: u64,
}

/// The post-retirement store buffer (paper §I, §IV-F): holds retired
/// stores until they update the cache. Loads never search it — that is
/// the entire point of the store-queue-free design.
///
/// Occupancy counts both queued and in-flight stores; [`StoreBuffer::push`]
/// fails when full, which makes the core stall retirement (§VI-e measures
/// exactly these stalls).
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    capacity: usize,
    consistency: Consistency,
    queue: VecDeque<SbEntry>,
    in_flight: VecDeque<InFlight>,
    next_issue_at: u64,
    coalesced: u64,
    pushes: u64,
}

impl StoreBuffer {
    /// Creates an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, consistency: Consistency) -> StoreBuffer {
        assert!(capacity > 0, "store buffer needs at least one entry");
        StoreBuffer {
            capacity,
            consistency,
            queue: VecDeque::new(),
            in_flight: VecDeque::new(),
            next_issue_at: 0,
            coalesced: 0,
            pushes: 0,
        }
    }

    /// Current occupancy (queued + in flight).
    pub fn occupancy(&self) -> usize {
        self.queue.len() + self.in_flight.len()
    }

    /// Whether a retiring store would have to stall.
    pub fn is_full(&self) -> bool {
        self.occupancy() >= self.capacity
    }

    /// Whether every store has committed.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The consistency model in force.
    pub fn consistency(&self) -> Consistency {
        self.consistency
    }

    /// Number of stores absorbed by coalescing.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Iterates over queued (not yet issued to the cache) entries,
    /// oldest first. The baseline machine's loads search these; the
    /// store-queue-free machines never do.
    pub fn queued(&self) -> impl Iterator<Item = &SbEntry> {
        self.queue.iter()
    }

    /// Inserts a retired store; returns `false` (and does nothing) when
    /// the buffer is full. When `coalesce` is set and the youngest queued
    /// store targets the same word, the entry is merged instead of
    /// occupying a new slot (only *consecutive* stores coalesce, as TSO
    /// requires — §V).
    pub fn push(&mut self, entry: SbEntry, coalesce: bool) -> bool {
        self.pushes += 1;
        if coalesce {
            if let Some(last) = self.queue.back_mut() {
                if last.coalesce(&entry) {
                    self.coalesced += 1;
                    return true;
                }
            }
        }
        if self.is_full() {
            self.pushes -= 1;
            return false;
        }
        self.queue.push_back(entry);
        true
    }

    /// Advances the buffer by one cycle: issues cache writes according to
    /// the consistency model and appends the SSNs of stores that finished
    /// committing this cycle to `committed`, oldest first. `SSN_commit`
    /// may be advanced to the last appended value.
    ///
    /// Takes the output buffer from the caller so the per-cycle commit
    /// path never allocates — the core reuses one scratch `Vec` for the
    /// whole run.
    ///
    /// Architectural bytes are applied to `data` at issue (in SSN order),
    /// so same-address ordering is preserved even under RMO's overlapped
    /// completion.
    pub fn tick(
        &mut self,
        cycle: u64,
        mem: &mut MemHierarchy,
        data: &mut SparseMem,
        committed: &mut Vec<u32>,
    ) {
        // Issue phase.
        let can_issue = match self.consistency {
            Consistency::Tso => self.in_flight.is_empty(),
            Consistency::Rmo => true,
        };
        if can_issue && cycle >= self.next_issue_at {
            if let Some(entry) = self.queue.pop_front() {
                entry.apply(data);
                let latency = mem.write(entry.word_addr, cycle).max(1);
                self.in_flight.push_back(InFlight { ssn: entry.ssn, done_at: cycle + latency });
                // One write port: next issue no earlier than next cycle.
                self.next_issue_at = cycle + 1;
            }
        }
        // Completion phase: pop the prefix of finished stores so that
        // SSN_commit stays "one preceding the oldest store in the buffer".
        while let Some(front) = self.in_flight.front() {
            if front.done_at <= cycle {
                committed.push(front.ssn);
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    fn env() -> (MemHierarchy, SparseMem) {
        (MemHierarchy::new(MemConfig::default()), SparseMem::new())
    }

    fn drain(sb: &mut StoreBuffer, mem: &mut MemHierarchy, data: &mut SparseMem) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        let mut cycle = 0;
        while !sb.is_empty() {
            sb.tick(cycle, mem, data, &mut batch);
            for ssn in batch.drain(..) {
                out.push((cycle, ssn));
            }
            cycle += 1;
            assert!(cycle < 100_000, "store buffer failed to drain");
        }
        out
    }

    #[test]
    fn entry_canonicalization_and_apply() {
        let mut data = SparseMem::new();
        let e = SbEntry::new(1, 0x102, MemWidth::Half, 0xBEEF);
        assert_eq!(e.word_addr, 0x100);
        assert_eq!(e.bab, 0b1100);
        e.apply(&mut data);
        assert_eq!(data.read_word(0x100), 0xBEEF_0000);
    }

    #[test]
    fn coalesce_same_word() {
        let mut a = SbEntry::new(1, 0x100, MemWidth::Word, 0x1111_1111);
        let b = SbEntry::new(2, 0x102, MemWidth::Half, 0x2222);
        assert!(a.coalesce(&b));
        assert_eq!(a.word_value, 0x2222_1111);
        assert_eq!(a.ssn, 2);
        let c = SbEntry::new(3, 0x104, MemWidth::Word, 0);
        assert!(!a.coalesce(&c));
    }

    #[test]
    fn tso_commits_in_order_serialized() {
        let (mut mem, mut data) = env();
        let mut sb = StoreBuffer::new(4, Consistency::Tso);
        for ssn in 1..=3u32 {
            assert!(sb.push(SbEntry::new(ssn, 0x1000 * ssn, MemWidth::Word, ssn), false));
        }
        let events = drain(&mut sb, &mut mem, &mut data);
        let ssns: Vec<u32> = events.iter().map(|&(_, s)| s).collect();
        assert_eq!(ssns, vec![1, 2, 3]);
        // Serialized: each completion strictly after the previous.
        assert!(events.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(data.read_word(0x1000), 1);
        assert_eq!(data.read_word(0x3000), 3);
    }

    #[test]
    fn rmo_overlaps_commits() {
        // Same stores, one per bank: RMO should finish much earlier than TSO.
        let run = |consistency| {
            let (mut mem, mut data) = env();
            let mut sb = StoreBuffer::new(8, consistency);
            for ssn in 1..=6u32 {
                sb.push(SbEntry::new(ssn, 0x10000 + 0x800 * ssn, MemWidth::Word, ssn), false);
            }
            drain(&mut sb, &mut mem, &mut data).last().unwrap().0
        };
        let tso_done = run(Consistency::Tso);
        let rmo_done = run(Consistency::Rmo);
        assert!(rmo_done < tso_done, "rmo {rmo_done} should beat tso {tso_done}");
    }

    #[test]
    fn rmo_same_address_order_preserved() {
        let (mut mem, mut data) = env();
        let mut sb = StoreBuffer::new(8, Consistency::Rmo);
        sb.push(SbEntry::new(1, 0x100, MemWidth::Word, 0xAAAA), false);
        sb.push(SbEntry::new(2, 0x100, MemWidth::Word, 0xBBBB), false);
        drain(&mut sb, &mut mem, &mut data);
        assert_eq!(data.read_word(0x100), 0xBBBB);
    }

    #[test]
    fn full_buffer_rejects_push() {
        let mut sb = StoreBuffer::new(2, Consistency::Tso);
        assert!(sb.push(SbEntry::new(1, 0x0, MemWidth::Word, 0), false));
        assert!(sb.push(SbEntry::new(2, 0x4, MemWidth::Word, 0), false));
        assert!(sb.is_full());
        assert!(!sb.push(SbEntry::new(3, 0x8, MemWidth::Word, 0), false));
    }

    #[test]
    fn coalescing_saves_slots() {
        let mut sb = StoreBuffer::new(2, Consistency::Tso);
        assert!(sb.push(SbEntry::new(1, 0x100, MemWidth::Byte, 1), true));
        assert!(sb.push(SbEntry::new(2, 0x101, MemWidth::Byte, 2), true));
        assert!(sb.push(SbEntry::new(3, 0x102, MemWidth::Byte, 3), true));
        assert_eq!(sb.occupancy(), 1);
        assert_eq!(sb.coalesced(), 2);
        let (mut mem, mut data) = env();
        drain(&mut sb, &mut mem, &mut data);
        assert_eq!(data.read_word(0x100), 0x0003_0201);
    }

    #[test]
    fn commit_prefix_rule_under_rmo() {
        // Two stores to the same DRAM bank: the second queues behind the
        // first in the bank even under RMO, and commits strictly after.
        let (mut mem, mut data) = env();
        let mut sb = StoreBuffer::new(8, Consistency::Rmo);
        sb.push(SbEntry::new(1, 0x0, MemWidth::Word, 1), false);
        sb.push(SbEntry::new(2, 0x40, MemWidth::Word, 2), false);
        let events = drain(&mut sb, &mut mem, &mut data);
        assert_eq!(events.iter().map(|&(_, s)| s).collect::<Vec<_>>(), vec![1, 2]);
    }
}
