use dmdp_isa::{Reg, Word};

use crate::rob::SeqNum;

/// Identifier of a physical register.
pub type PregId = u16;

#[derive(Clone, Copy, Debug, Default)]
struct Preg {
    value: Word,
    ready: bool,
    /// Cycle at which the value became ready (drives the paper's
    /// load-execution-time statistic, which clamps at the rename cycle).
    ready_at: u64,
    /// Definitions not yet virtually released (paper Fig. 9).
    producers: u16,
    /// Renamed-but-not-yet-executed consumers, including stores that read
    /// the register at commit (paper §IV-B a).
    consumers: u16,
    free: bool,
}

/// The unified physical register file with the paper's reference-counting
/// release scheme (§IV-B a).
///
/// A physical register may be **defined more than once** (memory cloaking
/// reuses the store's data register as the load's destination; the two
/// `CMOV`s of a predication pair share one destination) and may be **read
/// after its defining instruction retired** (a committed-but-undrained
/// store reads its data/address registers at commit; a `CMP`/`CMOV` reads
/// them even later). Two counters govern release:
///
/// * `producers` — incremented per definition, decremented per *virtual
///   release* (the retirement of the next definition of the same logical
///   register, or of the same shared register),
/// * `consumers` — incremented when an operand renames to the register,
///   decremented when that consumer executes (for stores: commits).
///
/// A register returns to the free list exactly when both counters are
/// zero.
///
/// # Example
///
/// ```
/// use dmdp_core::regfile::RegFile;
/// use dmdp_isa::Reg;
/// let mut rf = RegFile::new(64);
/// let r9 = Reg::new(9);
/// let old = rf.rat(r9);
/// let p = rf.allocate(r9).unwrap();
/// rf.write(p, 42, 100);
/// assert_eq!(rf.read(p), 42);
/// assert_eq!(rf.ready_at(p), 100);
/// // A later definition of $9 retires: the old mapping releases.
/// rf.virtual_release(old);
/// ```
#[derive(Debug, Clone)]
pub struct RegFile {
    pregs: Vec<Preg>,
    rat: [PregId; Reg::NUM_LOGICAL],
    free_list: Vec<PregId>,
    /// High-water mark of live registers (for reporting).
    min_free: usize,
    /// Per-register wake lists for the event-driven scheduler: µops that
    /// dispatched with this register unready and must be notified when it
    /// is written. Parallel to `pregs`.
    waiters: Vec<Vec<SeqNum>>,
}

impl RegFile {
    /// Creates a register file with `phys_regs` registers. The first
    /// `Reg::NUM_LOGICAL` are bound to the architectural registers with
    /// value 0 and one producer each (the initial machine state).
    ///
    /// # Panics
    ///
    /// Panics if `phys_regs` cannot cover the logical registers.
    pub fn new(phys_regs: usize) -> RegFile {
        assert!(phys_regs > Reg::NUM_LOGICAL, "need more physical than logical registers");
        let mut pregs = vec![Preg::default(); phys_regs];
        let mut rat = [0 as PregId; Reg::NUM_LOGICAL];
        for (l, slot) in rat.iter_mut().enumerate() {
            *slot = l as PregId;
            pregs[l] =
                Preg { value: 0, ready: true, ready_at: 0, producers: 1, consumers: 0, free: false };
        }
        let free_list: Vec<PregId> =
            (Reg::NUM_LOGICAL as PregId..phys_regs as PregId).rev().collect();
        for &p in &free_list {
            pregs[p as usize].free = true;
        }
        let min_free = free_list.len();
        let waiters = vec![Vec::new(); phys_regs];
        RegFile { pregs, rat, free_list, min_free, waiters }
    }

    /// Number of free registers right now.
    pub fn free_count(&self) -> usize {
        self.free_list.len()
    }

    /// Minimum free count ever observed (register pressure high-water
    /// mark, §VI-f).
    pub fn min_free_seen(&self) -> usize {
        self.min_free
    }

    /// Current RAT mapping for a logical register.
    pub fn rat(&self, l: Reg) -> PregId {
        self.rat[l.index()]
    }

    /// Points the RAT at `p` (used by rename and by rollback).
    pub fn set_rat(&mut self, l: Reg, p: PregId) {
        self.rat[l.index()] = p;
    }

    /// Allocates a fresh register for a new definition of `l`, updating
    /// the RAT. Returns `None` when the free list is empty (rename must
    /// stall). The previous mapping is *not* released — the caller records
    /// it for virtual release at retirement.
    pub fn allocate(&mut self, l: Reg) -> Option<PregId> {
        let p = self.free_list.pop()?;
        self.min_free = self.min_free.min(self.free_list.len());
        // A register can only free after every waiter executed (which
        // drains the list) or was squashed (which purges it).
        debug_assert!(self.waiters[p as usize].is_empty(), "freed register p{p} kept waiters");
        let preg = &mut self.pregs[p as usize];
        debug_assert!(preg.free, "allocating a non-free register");
        *preg =
            Preg { value: 0, ready: false, ready_at: 0, producers: 1, consumers: 0, free: false };
        self.rat[l.index()] = p;
        Some(p)
    }

    /// Registers a *second (or later) definition* of an existing register
    /// — memory cloaking or the shared `CMOV` destination — optionally
    /// retargeting the RAT entry of `l`.
    ///
    /// Readiness is left untouched: a cloaked load's "definition" *is* the
    /// store's already-produced (or pending) value, which is exactly why
    /// cloaking forwards data "even without knowing the address".
    pub fn redefine(&mut self, p: PregId, l: Option<Reg>) {
        let preg = &mut self.pregs[p as usize];
        debug_assert!(!preg.free, "redefining a free register");
        preg.producers += 1;
        if let Some(l) = l {
            self.rat[l.index()] = p;
        }
    }

    /// Adds a consumer reference (operand renamed to `p`).
    pub fn add_consumer(&mut self, p: PregId) {
        debug_assert!(!self.pregs[p as usize].free, "consuming a free register");
        self.pregs[p as usize].consumers += 1;
    }

    /// Drops a consumer reference (the consumer executed, or a store
    /// committed / was squashed). May free the register.
    pub fn drop_consumer(&mut self, p: PregId) {
        let preg = &mut self.pregs[p as usize];
        debug_assert!(preg.consumers > 0, "consumer underflow on p{p}");
        preg.consumers -= 1;
        self.maybe_free(p);
    }

    /// Virtually releases one definition of `p` (paper Fig. 9): called at
    /// the retirement of the next definition of the same logical register
    /// (or of the sharing µop), and during rollback to undo an
    /// allocation. May free the register.
    pub fn virtual_release(&mut self, p: PregId) {
        let preg = &mut self.pregs[p as usize];
        debug_assert!(preg.producers > 0, "producer underflow on p{p}");
        preg.producers -= 1;
        self.maybe_free(p);
    }

    fn maybe_free(&mut self, p: PregId) {
        let preg = &mut self.pregs[p as usize];
        if preg.producers == 0 && preg.consumers == 0 && !preg.free {
            preg.free = true;
            self.free_list.push(p);
        }
    }

    /// Whether the register's current definition has produced its value.
    #[inline]
    pub fn is_ready(&self, p: PregId) -> bool {
        self.pregs[p as usize].ready
    }

    /// Registers `seq` to be woken when `p` is written. The caller must
    /// only register on not-ready registers; each registration produces
    /// exactly one wake (a µop naming the same register twice registers
    /// — and is decremented — twice).
    pub fn add_waiter(&mut self, p: PregId, seq: SeqNum) {
        debug_assert!(!self.pregs[p as usize].ready, "waiting on a ready register");
        debug_assert!(!self.pregs[p as usize].free, "waiting on a free register");
        self.waiters[p as usize].push(seq);
    }

    /// Whether any µop is registered on `p`.
    #[inline]
    pub fn has_waiters(&self, p: PregId) -> bool {
        !self.waiters[p as usize].is_empty()
    }

    /// Moves `p`'s waiters into `out` (which is cleared first), leaving
    /// the list's capacity in place for reuse.
    pub fn drain_waiters_into(&mut self, p: PregId, out: &mut Vec<SeqNum>) {
        out.clear();
        out.append(&mut self.waiters[p as usize]);
    }

    /// Drops `p`'s registrations of µops with `seq >= from` (recovery, for
    /// each register a squashed µop waits on), so sequence numbers reused
    /// after a squash cannot receive stale wakes.
    pub fn purge_waiters(&mut self, p: PregId, from: SeqNum) {
        let list = &mut self.waiters[p as usize];
        if !list.is_empty() {
            list.retain(|&s| s < from);
        }
    }

    /// Reads the register's value.
    ///
    /// The µarch guarantees readiness before any read; in debug builds
    /// reading a not-ready register panics.
    #[inline]
    pub fn read(&self, p: PregId) -> Word {
        debug_assert!(self.pregs[p as usize].ready, "reading not-ready p{p}");
        self.pregs[p as usize].value
    }

    /// Writes the register and marks it ready as of `cycle` (writeback).
    #[inline]
    pub fn write(&mut self, p: PregId, value: Word, cycle: u64) {
        let preg = &mut self.pregs[p as usize];
        preg.value = value;
        preg.ready = true;
        preg.ready_at = cycle;
    }

    /// The cycle the current value became ready (0 for machine-initial
    /// state).
    #[inline]
    pub fn ready_at(&self, p: PregId) -> u64 {
        debug_assert!(self.pregs[p as usize].ready);
        self.pregs[p as usize].ready_at
    }

    /// Producer count (tests / invariant checks).
    pub fn producers(&self, p: PregId) -> u16 {
        self.pregs[p as usize].producers
    }

    /// Consumer count (tests / invariant checks).
    pub fn consumers(&self, p: PregId) -> u16 {
        self.pregs[p as usize].consumers
    }

    /// Whether `p` is on the free list.
    pub fn is_free(&self, p: PregId) -> bool {
        self.pregs[p as usize].free
    }

    /// Invariant check: every register is either free, or reachable as a
    /// RAT mapping / has outstanding references. Call at quiesce points
    /// (e.g. after the ROB drains) to detect leaks.
    ///
    /// # Panics
    ///
    /// Panics if a non-free register has zero counts, or a RAT-mapped
    /// register has no producer.
    pub fn check_quiesced(&self) {
        for (i, preg) in self.pregs.iter().enumerate() {
            let p = i as PregId;
            assert!(
                self.waiters[i].is_empty(),
                "register p{p} still has scheduler waiters at quiesce"
            );
            let in_rat = self.rat.contains(&p);
            if preg.free {
                assert!(!in_rat, "free register p{p} is RAT-mapped");
            } else {
                assert!(
                    preg.producers > 0 || preg.consumers > 0,
                    "leaked register p{p}: not free but unreferenced"
                );
                if in_rat {
                    assert!(preg.producers > 0, "RAT-mapped p{p} has no producer");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rf() -> RegFile {
        RegFile::new(40)
    }

    #[test]
    fn initial_state_binds_logical_registers() {
        let rf = rf();
        for l in Reg::all() {
            let p = rf.rat(l);
            assert!(rf.is_ready(p));
            assert_eq!(rf.read(p), 0);
        }
        assert_eq!(rf.free_count(), 40 - Reg::NUM_LOGICAL);
    }

    #[test]
    fn allocate_write_release_cycle() {
        let mut rf = rf();
        let l = Reg::new(9);
        let old = rf.rat(l);
        let p = rf.allocate(l).unwrap();
        assert_ne!(p, old);
        assert_eq!(rf.rat(l), p);
        assert!(!rf.is_ready(p));
        rf.write(p, 7, 3);
        assert_eq!(rf.read(p), 7);
        assert_eq!(rf.ready_at(p), 3);
        // Retirement of this definition virtually releases the old one.
        rf.virtual_release(old);
        assert!(rf.is_free(old));
        assert!(!rf.is_free(p));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut rf = RegFile::new(Reg::NUM_LOGICAL + 1);
        assert!(rf.allocate(Reg::new(1)).is_some());
        assert!(rf.allocate(Reg::new(2)).is_none());
    }

    #[test]
    fn consumers_extend_lifetime() {
        let mut rf = rf();
        let l = Reg::new(7);
        let p = rf.allocate(l).unwrap();
        rf.write(p, 1, 0);
        rf.add_consumer(p); // e.g. an in-flight store's data operand
        rf.virtual_release(p); // the next definition of $7 retired
        assert!(!rf.is_free(p), "consumer must keep the register alive");
        rf.drop_consumer(p); // the store committed
        assert!(rf.is_free(p));
    }

    #[test]
    fn double_definition_needs_two_releases() {
        let mut rf = rf();
        let p = rf.allocate(Reg::new(9)).unwrap();
        rf.redefine(p, Some(Reg::new(10))); // cloaking: $10 also maps to p
        rf.virtual_release(p); // $9 redefined and retired
        assert!(!rf.is_free(p));
        rf.virtual_release(p); // $10 redefined and retired
        assert!(rf.is_free(p));
    }

    #[test]
    fn redefine_preserves_readiness() {
        // Memory cloaking aliases the store's value: if it is already
        // produced, the cloaked load's result is immediately ready.
        let mut rf = rf();
        let p = rf.allocate(Reg::new(9)).unwrap();
        rf.write(p, 5, 2);
        assert!(rf.is_ready(p));
        rf.redefine(p, Some(Reg::new(10)));
        assert!(rf.is_ready(p), "cloaking must not lose the produced value");
        assert_eq!(rf.read(p), 5);
        assert_eq!(rf.rat(Reg::new(10)), p);
    }

    #[test]
    fn rollback_pattern() {
        let mut rf = rf();
        let l = Reg::new(3);
        let old = rf.rat(l);
        let p = rf.allocate(l).unwrap();
        // Squash: undo the rename.
        rf.set_rat(l, old);
        rf.virtual_release(p);
        assert!(rf.is_free(p));
        assert_eq!(rf.rat(l), old);
        rf.check_quiesced();
    }

    #[test]
    fn quiesce_check_passes_on_fresh_file() {
        rf().check_quiesced();
    }

    #[test]
    fn waiters_drain_on_demand() {
        let mut rf = rf();
        let p = rf.allocate(Reg::new(5)).unwrap();
        assert!(!rf.has_waiters(p));
        rf.add_waiter(p, 7);
        rf.add_waiter(p, 7); // same µop, both sources on p: two wakes
        rf.add_waiter(p, 9);
        assert!(rf.has_waiters(p));
        let mut out = vec![99]; // stale scratch content must be cleared
        rf.drain_waiters_into(p, &mut out);
        assert_eq!(out, vec![7, 7, 9]);
        assert!(!rf.has_waiters(p));
    }

    #[test]
    fn purge_removes_only_squashed_waiters() {
        let mut rf = rf();
        let p = rf.allocate(Reg::new(5)).unwrap();
        let q = rf.allocate(Reg::new(6)).unwrap();
        rf.add_waiter(p, 3);
        rf.add_waiter(p, 8);
        rf.add_waiter(q, 9);
        rf.purge_waiters(p, 5);
        let mut out = Vec::new();
        rf.drain_waiters_into(p, &mut out);
        assert_eq!(out, vec![3]);
        rf.drain_waiters_into(q, &mut out);
        assert_eq!(out, vec![9], "other registers' lists are untouched");
    }

    #[test]
    #[should_panic(expected = "still has scheduler waiters")]
    fn quiesce_check_catches_leftover_waiters() {
        let mut rf = rf();
        let p = rf.allocate(Reg::new(5)).unwrap();
        rf.add_waiter(p, 1);
        rf.check_quiesced();
    }

    #[test]
    #[should_panic(expected = "leaked register")]
    fn quiesce_check_catches_leak() {
        let mut rf = rf();
        let p = rf.allocate(Reg::new(4)).unwrap();
        // Fabricate a leak: zero the counters without freeing.
        rf.virtual_release(p); // now free... so instead simulate by hand:
        rf.pregs[p as usize].free = false;
        rf.check_quiesced();
    }
}
