use std::collections::VecDeque;

use dmdp_isa::{MemWidth, Pc};

use crate::regfile::PregId;

/// One in-flight store visible to the renamer (paper Fig. 6, "Store
/// Register Buffer").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrbEntry {
    /// Physical register holding the store's translated address.
    pub addr_preg: PregId,
    /// Physical register holding the store's data (`None`: stores `$0`,
    /// whose value is the constant zero).
    pub data_preg: Option<PregId>,
    /// Access width (needed to build `CMP`/`CMOV` µops and to decide
    /// cloaking legality).
    pub width: MemWidth,
    /// The store's PC (Store-Sets training on recoveries).
    pub pc: Pc,
}

/// The Store Register Buffer: maps the SSN of every in-flight store
/// (renamed but not yet committed) to the physical registers holding its
/// address and data.
///
/// Memory cloaking reads the data register identity here; predication
/// insertion reads both. Entries are created at rename, removed at
/// squash, and invalidated when the store commits and updates the cache
/// (after which forwarding is pointless — the value is in the cache).
///
/// In-flight SSNs are dense and age-ordered, so the buffer is a deque
/// indexed by `ssn - front`: rename pushes at the back, a squash pops the
/// back (stores unwind last-in first-out) and commit pops the front.
///
/// # Example
///
/// ```
/// use dmdp_core::srb::{SrbEntry, StoreRegisterBuffer};
/// use dmdp_isa::MemWidth;
/// let mut srb = StoreRegisterBuffer::new();
/// srb.insert(1, SrbEntry { addr_preg: 40, data_preg: Some(41), width: MemWidth::Word, pc: 0 });
/// assert!(srb.get(1).is_some());
/// assert!(srb.pop_front_through(1).is_some()); // the store committed
/// assert!(srb.get(1).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct StoreRegisterBuffer {
    entries: VecDeque<SrbEntry>,
    /// SSN of `entries[0]` (of the next insert when empty). SSNs start
    /// at 1; 0 means "no store".
    front: u32,
}

impl Default for StoreRegisterBuffer {
    fn default() -> StoreRegisterBuffer {
        StoreRegisterBuffer { entries: VecDeque::new(), front: 1 }
    }
}

impl StoreRegisterBuffer {
    /// Creates an empty buffer.
    pub fn new() -> StoreRegisterBuffer {
        StoreRegisterBuffer::default()
    }

    /// Registers a renamed store.
    ///
    /// # Panics
    ///
    /// Panics unless `ssn` directly follows the youngest store held
    /// (rename assigns SSNs in order).
    pub fn insert(&mut self, ssn: u32, entry: SrbEntry) {
        let next = self.front + self.entries.len() as u32;
        assert_eq!(ssn, next, "SRB inserts must follow SSN order");
        self.entries.push_back(entry);
    }

    /// Looks up an in-flight store by SSN.
    #[inline]
    pub fn get(&self, ssn: u32) -> Option<&SrbEntry> {
        self.entries.get(ssn.checked_sub(self.front)? as usize)
    }

    /// Removes the youngest store (a squash; stores unwind last-in
    /// first-out) and returns its entry.
    pub fn pop_back(&mut self) -> Option<SrbEntry> {
        self.entries.pop_back()
    }

    /// Removes the oldest store if its SSN is at most `ssn`, returning
    /// its entry. Call until `None` at commit: coalescing can skip SSNs,
    /// and every store in the gap is released with the committed one.
    pub fn pop_front_through(&mut self, ssn: u32) -> Option<SrbEntry> {
        if self.front > ssn {
            return None;
        }
        let e = self.entries.pop_front()?;
        self.front += 1;
        Some(e)
    }

    /// Number of in-flight stores tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no stores are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(addr_preg: PregId) -> SrbEntry {
        SrbEntry { addr_preg, data_preg: Some(addr_preg + 1), width: MemWidth::Word, pc: 7 }
    }

    #[test]
    fn insert_get_remove() {
        let mut srb = StoreRegisterBuffer::new();
        srb.insert(1, e(50));
        assert_eq!(srb.get(1).unwrap().addr_preg, 50);
        assert_eq!(srb.len(), 1);
        assert_eq!(srb.pop_front_through(1).unwrap().data_preg, Some(51));
        assert!(srb.is_empty());
        assert!(srb.pop_front_through(1).is_none());
    }

    #[test]
    fn squash_pops_last_in_first_out() {
        let mut srb = StoreRegisterBuffer::new();
        for ssn in 1..=4 {
            srb.insert(ssn, e(10 * ssn as PregId));
        }
        assert_eq!(srb.pop_back().unwrap().addr_preg, 40);
        assert_eq!(srb.pop_back().unwrap().addr_preg, 30);
        assert!(srb.get(3).is_none());
        // The refetched path reuses the squashed SSNs.
        srb.insert(3, e(99));
        assert_eq!(srb.get(3).unwrap().addr_preg, 99);
        assert_eq!(srb.get(2).unwrap().addr_preg, 20);
    }

    #[test]
    fn commit_across_a_coalescing_gap_releases_the_gap() {
        let mut srb = StoreRegisterBuffer::new();
        for ssn in 1..=5 {
            srb.insert(ssn, e(10 * ssn as PregId));
        }
        // The store buffer coalesced SSNs 1-3 and reports only 3.
        let released: Vec<PregId> =
            std::iter::from_fn(|| srb.pop_front_through(3)).map(|x| x.addr_preg).collect();
        assert_eq!(released, vec![10, 20, 30]);
        assert!(srb.get(3).is_none());
        assert_eq!(srb.get(4).unwrap().addr_preg, 40);
        assert_eq!(srb.len(), 2);
    }

    #[test]
    fn get_outside_the_live_range_is_none() {
        let mut srb = StoreRegisterBuffer::new();
        assert!(srb.get(0).is_none());
        srb.insert(1, e(10));
        srb.insert(2, e(20));
        assert!(srb.pop_front_through(1).is_some());
        assert!(srb.get(0).is_none());
        assert!(srb.get(1).is_none(), "committed");
        assert!(srb.get(2).is_some());
        assert!(srb.get(3).is_none(), "not yet renamed");
    }

    #[test]
    #[should_panic(expected = "SSN order")]
    fn duplicate_ssn_panics() {
        let mut srb = StoreRegisterBuffer::new();
        srb.insert(1, e(10));
        srb.insert(1, e(11));
    }

    #[test]
    #[should_panic(expected = "SSN order")]
    fn out_of_order_insert_panics() {
        let mut srb = StoreRegisterBuffer::new();
        srb.insert(1, e(10));
        srb.insert(3, e(11));
    }

    #[test]
    fn missing_ssn_is_none() {
        let srb = StoreRegisterBuffer::new();
        assert!(srb.get(42).is_none());
    }
}
