//! The baseline machine's store queue: an age-ordered list of in-flight
//! stores supporting associative search (the structure the
//! store-queue-free designs eliminate) and memory-ordering violation
//! detection.

use dmdp_isa::bab::{bab, extract_from_word, overlaps, place_in_word, word_addr};
use dmdp_isa::{Addr, MemWidth, Word};
use dmdp_mem::StoreBuffer;

use crate::rob::SeqNum;

use super::Pipeline;

/// Result of a load's store-queue (and store-buffer) search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SearchResult {
    /// Forward from the matching store.
    Forward {
        /// The store's SSN (for violation bookkeeping).
        ssn: u32,
        /// The extracted, extended load value.
        value: Word,
    },
    /// An overlapping store does not cover the load (or hasn't produced
    /// its data yet): retry until it leaves the window.
    Retry,
    /// No overlapping store: read the cache.
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct SqEntry {
    seq: SeqNum,
    ssn: u32,
    /// Filled when the store µop executes.
    addr: Option<Addr>,
    bab: u8,
    word_value: Word,
}

/// The baseline store queue (unbounded, per paper §V).
#[derive(Debug, Default)]
pub(crate) struct StoreQueue {
    entries: Vec<SqEntry>,
}

impl StoreQueue {
    pub(crate) fn new() -> StoreQueue {
        StoreQueue::default()
    }

    /// Allocates an entry at store rename (address unknown).
    pub(crate) fn allocate(&mut self, seq: SeqNum, ssn: u32) {
        self.entries.push(SqEntry { seq, ssn, addr: None, bab: 0, word_value: 0 });
    }

    /// Fills address and data when the store µop executes.
    pub(crate) fn fill(&mut self, seq: SeqNum, addr: Addr, width: MemWidth, value: Word) {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.seq == seq)
            .expect("filling a live SQ entry");
        e.addr = Some(word_addr(addr));
        e.bab = bab(addr, width);
        e.word_value = place_in_word(addr, width, value);
    }

    /// Removes the entry when the store retires (moves to the store
    /// buffer) or is squashed.
    pub(crate) fn remove(&mut self, seq: SeqNum) {
        self.entries.retain(|e| e.seq != seq);
    }

    /// Searches for the youngest store older than `load_seq` overlapping
    /// the access; falls back to the (already retired) store buffer.
    pub(crate) fn search(
        &self,
        load_seq: SeqNum,
        addr: Addr,
        width: MemWidth,
        signed: bool,
        sb: &StoreBuffer,
    ) -> SearchResult {
        let w = word_addr(addr);
        let lb = bab(addr, width);
        // Youngest older overlapping SQ entry with a known address.
        let hit = self
            .entries
            .iter()
            .filter(|e| e.seq < load_seq)
            .filter(|e| e.addr == Some(w) && overlaps(e.bab, lb))
            .max_by_key(|e| e.seq);
        if let Some(e) = hit {
            if e.bab & lb == lb {
                return SearchResult::Forward {
                    ssn: e.ssn,
                    value: extract_from_word(e.word_value, addr, width, signed),
                };
            }
            return SearchResult::Retry;
        }
        // Retired-but-uncommitted stores.
        let sb_hit = sb
            .queued()
            .filter(|e| e.word_addr == w && overlaps(e.bab, lb))
            .max_by_key(|e| e.ssn);
        if let Some(e) = sb_hit {
            if e.bab & lb == lb {
                return SearchResult::Forward {
                    ssn: e.ssn,
                    value: extract_from_word(e.word_value, addr, width, signed),
                };
            }
            return SearchResult::Retry;
        }
        SearchResult::Miss
    }
}

impl Pipeline {
    /// Memory-ordering violation check run when a baseline store µop
    /// executes: any younger, already-executed load overlapping the store
    /// that did not forward from this store (or a younger one) read a
    /// stale value. Returns a recovery from the oldest violating load.
    pub(crate) fn check_violation(
        &mut self,
        store_seq: SeqNum,
    ) -> Option<super::exec::RecoveryReq> {
        let (store_ssn, store_w, store_bab, store_pc) = {
            let e = self.rob.get(store_seq)?;
            let info = e.store?;
            let sq = self.sq.entries.iter().find(|s| s.seq == store_seq)?;
            (info.ssn, sq.addr?, sq.bab, e.pc)
        };
        // The oldest executed load younger than the store that overlaps
        // it and did not get its value from this store or a younger one.
        let load_seq = (store_seq + 1..self.rob.next_seq()).find(|&seq| {
            let Some(l) = self.rob.load(seq) else { return false };
            l.executed
                && word_addr(l.addr) == store_w
                && overlaps(store_bab, bab(l.addr & !(l.width.bytes() - 1), l.width))
                && l.forwarded_from.is_none_or(|f| f < store_ssn)
        })?;
        let load_pc = self.rob.get(load_seq).expect("live").pc;
        self.ss.violation(load_pc, store_pc);
        // Squash from the start of the load's instruction group.
        let mut from = load_seq;
        while from > 0 {
            match self.rob.get(from) {
                Some(e) if e.first_of_insn => break,
                _ => from -= 1,
            }
        }
        Some(super::exec::RecoveryReq {
            from,
            refetch: load_pc,
            is_branch: false,
            history_fix: None,
        })
    }
}
