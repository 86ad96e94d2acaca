use dmdp_isa::uop::UopKind;
use dmdp_isa::{Addr, MemWidth, Pc, Reg, Word};

use crate::regfile::PregId;

/// Sequence number identifying an in-flight µop; monotonically increasing
/// in rename order, so comparing tags compares age.
pub type SeqNum = u64;

/// Execution state of a µop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopState {
    /// In the issue queue (or, for a delayed load, parked) waiting for
    /// operands.
    Waiting,
    /// Issued; result arrives at the contained cycle.
    Executing(u64),
    /// Completed (or needs no execution: cloaked loads, store-queue-free
    /// stores, `nop`/`halt`).
    Done,
}

/// How a load obtains its value — fixed at rename time by the
/// communication model (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadKind {
    /// Reads the cache when its address is ready.
    Direct,
    /// Memory cloaking: reuses the predicted store's data register.
    Cloaked,
    /// NoSQ low-confidence: waits for the predicted store to commit, then
    /// reads the cache.
    Delayed,
    /// DMDP low-confidence: CMP/CMOV predication selects between the
    /// store's data and the cache value.
    Predicated,
    /// Perfect-model oracle forward from the actual last-writer store.
    Oracle,
}

/// Per-load bookkeeping, attached to the µop whose retirement triggers
/// verification (the load µop itself, or the closing `CMOV` of a
/// predication group). Kept in a ROB side table ([`Rob::load`]) rather
/// than in every [`UopEntry`].
#[derive(Debug, Clone, Copy)]
pub struct LoadInfo {
    /// Access width.
    pub width: MemWidth,
    /// Sign extension for sub-word loads.
    pub signed: bool,
    /// Mechanism chosen at rename.
    pub kind: LoadKind,
    /// Predicted colliding store (`SSN_byp`), when predicted dependent.
    pub ssn_byp: Option<u32>,
    /// `SSN_rename` captured at rename — the reference point store
    /// distances are measured from.
    pub ssn_ref: u32,
    /// `SSN_commit` captured when the cache was read (`SSN_nvul`).
    pub ssn_nvul: u32,
    /// Effective address (filled at execute from the address register).
    pub addr: Addr,
    /// The value delivered to the destination register.
    pub value: Word,
    /// Predicate outcome for a predicated load (set by `CMP`).
    pub pred_matches: Option<bool>,
    /// Whether the prediction was low-confidence (Figure 5's population).
    pub low_conf: bool,
    /// Physical register holding the architectural load result.
    pub result_preg: Option<PregId>,
    /// Branch history at rename (for predictor training).
    pub history: u32,
    /// Baseline: SSN of the store-queue/store-buffer entry the load
    /// forwarded from (`None` = value came from the cache).
    pub forwarded_from: Option<u32>,
    /// NoSQ shift-and-mask forwarding: the predicted (store BAB, load
    /// low-address-bits) pair, verified against the actual collision at
    /// retire (§IV-D).
    pub shift_pred: Option<(u8, u8)>,
    /// Physical register holding the load's effective address (read at
    /// verification for loads that never access the cache).
    pub addr_preg: Option<PregId>,
    /// Whether the cache (or forward) read happened.
    pub executed: bool,
}

impl LoadInfo {
    /// A fresh record for a load of `width`/`signed` renamed when
    /// `SSN_rename == ssn_ref`.
    pub fn new(width: MemWidth, signed: bool, kind: LoadKind, ssn_ref: u32) -> LoadInfo {
        LoadInfo {
            width,
            signed,
            kind,
            ssn_byp: None,
            ssn_ref,
            ssn_nvul: 0,
            addr: 0,
            value: 0,
            pred_matches: None,
            low_conf: false,
            result_preg: None,
            history: 0,
            forwarded_from: None,
            shift_pred: None,
            addr_preg: None,
            executed: false,
        }
    }
}

/// Per-store bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct StoreInfo {
    /// The store's sequence number (assigned at rename).
    pub ssn: u32,
    /// Access width.
    pub width: MemWidth,
    /// Physical register holding the (translated) address.
    pub addr_preg: PregId,
    /// Physical register holding the data, or `None` for a store of `$0`.
    pub data_preg: Option<PregId>,
}

/// Branch/jump bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct BranchInfo {
    /// Fetch-time predicted direction (true for unconditional).
    pub predicted_taken: bool,
    /// Fetch-time predicted target.
    pub predicted_target: Option<Pc>,
    /// Global history before the prediction (for repair/training).
    pub history_before: u32,
}

/// One in-flight µop: the unit the ROB, issue queue and execution lists
/// operate on. Its [`SeqNum`] is where it sits in the ROB.
#[derive(Debug, Clone)]
pub struct UopEntry {
    /// PC of the parent architectural instruction.
    pub pc: Pc,
    /// Operation.
    pub kind: UopKind,
    /// First µop of its architectural instruction.
    pub first_of_insn: bool,
    /// Last µop of its architectural instruction (retirement of this µop
    /// retires the instruction).
    pub last_of_insn: bool,
    /// Logical destination (None for `$0`/no dest).
    pub dest_logical: Option<Reg>,
    /// Physical destination.
    pub dest: Option<PregId>,
    /// RAT mapping of `dest_logical` before this µop renamed (for virtual
    /// release at retire and rollback at squash).
    pub prev_mapping: Option<PregId>,
    /// Physical sources.
    pub src: [Option<PregId>; 2],
    /// Immediate operand.
    pub imm: i32,
    /// Execution state.
    pub state: UopState,
    /// Outstanding wake conditions (unready sources, Store-Sets ordering,
    /// delayed-load SSN commit). The event-driven scheduler moves the µop
    /// to a ready list when this reaches zero.
    pub not_ready: u8,
    /// Whether the µop currently occupies an issue-queue slot (drives the
    /// rename stage's structural backpressure and squash accounting).
    pub in_iq: bool,
    /// Whether this µop's consumer references have been dropped (at
    /// issue, at commit for stores, or at squash).
    pub consumed: bool,
    /// Whether this µop requires the destination register to be ready
    /// before it can retire without executing (cloaked loads).
    pub retire_needs_dest_ready: bool,
    /// Result value (for writeback and co-simulation).
    pub value: Word,
    /// Whether this µop actually writes its destination (losing `CMOV`s
    /// do not).
    pub writes_dest: bool,
    /// Rename cycle (load execution-time statistics measure from here).
    pub rename_cycle: u64,
    /// Branch bookkeeping.
    pub branch: Option<BranchInfo>,
    /// Whether this µop carries its load's [`LoadInfo`] (the verifying
    /// µop of the group), held in the ROB's side table.
    pub has_load: bool,
    /// Store bookkeeping.
    pub store: Option<StoreInfo>,
    /// For µops of a predication group: the seq of the µop carrying the
    /// group's [`LoadInfo`] (the closing `CMOV`), so execute can record
    /// facts there.
    pub group_sink: Option<SeqNum>,
    /// Global branch history captured when the parent instruction was
    /// fetched (path-sensitive prediction and history repair).
    pub fetch_history: u32,
}

// Every ROB access touches an entry; keep it within two cache lines.
const _: () = assert!(std::mem::size_of::<UopEntry>() <= 120);

impl UopEntry {
    /// A µop of `kind` renamed at `rename_cycle`, waiting to issue, with
    /// no operands or bookkeeping yet.
    #[inline]
    pub fn new(pc: Pc, kind: UopKind, rename_cycle: u64, fetch_history: u32) -> UopEntry {
        UopEntry {
            pc,
            kind,
            first_of_insn: false,
            last_of_insn: false,
            dest_logical: None,
            dest: None,
            prev_mapping: None,
            src: [None, None],
            imm: 0,
            state: UopState::Waiting,
            not_ready: 0,
            in_iq: false,
            consumed: false,
            retire_needs_dest_ready: false,
            value: 0,
            writes_dest: true,
            rename_cycle,
            branch: None,
            has_load: false,
            store: None,
            group_sink: None,
            fetch_history,
        }
    }

    /// Whether every state needed to retire is reached.
    pub fn is_done(&self) -> bool {
        self.state == UopState::Done
    }
}

/// The reorder buffer: a bounded FIFO of µops in rename order.
///
/// Entries are addressed by their [`SeqNum`]; slot reuse is handled by the
/// ring mapping, and stale lookups (retired or squashed µops) return
/// `None`. Entries stay in their slots for their whole lifetime: rename
/// builds each one in the slot [`Rob::alloc`] hands out, and retire and
/// squash only move the head and tail, so callers read an entry in place
/// before releasing it.
#[derive(Debug)]
pub struct Rob {
    slots: Vec<UopEntry>,
    /// Load bookkeeping by slot, valid where the entry's `has_load` is set.
    loads: Vec<LoadInfo>,
    capacity: usize,
    /// `capacity - 1` when the capacity is a power of two (the common
    /// configurations), letting the ring index be a mask instead of a
    /// 64-bit modulo on every ROB access; zero otherwise.
    mask: u64,
    head: SeqNum,
    tail: SeqNum,
}

impl Rob {
    /// Creates an empty ROB.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Rob {
        assert!(capacity > 0, "ROB needs capacity");
        let mask = if capacity.is_power_of_two() { capacity as u64 - 1 } else { 0 };
        let blank = UopEntry::new(0, UopKind::Nop, 0, 0);
        let no_load = LoadInfo::new(MemWidth::Word, false, LoadKind::Direct, 0);
        Rob {
            slots: vec![blank; capacity],
            loads: vec![no_load; capacity],
            capacity,
            mask,
            head: 0,
            tail: 0,
        }
    }

    /// Ring slot of a sequence number.
    #[inline]
    fn slot(&self, seq: SeqNum) -> usize {
        if self.mask != 0 {
            (seq & self.mask) as usize
        } else {
            (seq % self.capacity as u64) as usize
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Whether the ROB is empty.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.capacity - self.len()
    }

    /// The next sequence number [`Rob::alloc`] will assign.
    pub fn next_seq(&self) -> SeqNum {
        self.tail
    }

    /// Sequence number of the head (oldest) entry, if any.
    pub fn head_seq(&self) -> Option<SeqNum> {
        (!self.is_empty()).then_some(self.head)
    }

    /// Appends a fresh entry ([`UopEntry::new`]) in the next slot and
    /// returns its seq ([`Rob::next_seq`]); the caller fills in the rest
    /// of the entry in place.
    ///
    /// # Panics
    ///
    /// Panics when full.
    #[inline]
    pub fn alloc(
        &mut self,
        pc: Pc,
        kind: UopKind,
        rename_cycle: u64,
        fetch_history: u32,
    ) -> SeqNum {
        assert!(self.free() > 0, "ROB overflow");
        let seq = self.tail;
        let slot = self.slot(seq);
        self.slots[slot] = UopEntry::new(pc, kind, rename_cycle, fetch_history);
        self.tail += 1;
        seq
    }

    /// Attaches load bookkeeping to the live entry `seq`, its group's
    /// verifying µop.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not live.
    #[inline]
    pub fn attach_load(&mut self, seq: SeqNum, info: LoadInfo) {
        assert!(self.live(seq), "load bookkeeping for dead seq {seq}");
        let slot = self.slot(seq);
        self.slots[slot].has_load = true;
        self.loads[slot] = info;
    }

    /// Whether `seq` names a live entry.
    #[inline]
    fn live(&self, seq: SeqNum) -> bool {
        seq >= self.head && seq < self.tail
    }

    /// Looks up a live entry.
    #[inline]
    pub fn get(&self, seq: SeqNum) -> Option<&UopEntry> {
        self.live(seq).then(|| &self.slots[self.slot(seq)])
    }

    /// Mutable lookup of a live entry.
    #[inline]
    pub fn get_mut(&mut self, seq: SeqNum) -> Option<&mut UopEntry> {
        if !self.live(seq) {
            return None;
        }
        let slot = self.slot(seq);
        Some(&mut self.slots[slot])
    }

    /// The load bookkeeping of a live verifying µop.
    #[inline]
    pub fn load(&self, seq: SeqNum) -> Option<&LoadInfo> {
        let slot = self.slot(seq);
        (self.live(seq) && self.slots[slot].has_load).then(|| &self.loads[slot])
    }

    /// Mutable [`Rob::load`].
    #[inline]
    pub fn load_mut(&mut self, seq: SeqNum) -> Option<&mut LoadInfo> {
        let slot = self.slot(seq);
        if !(self.live(seq) && self.slots[slot].has_load) {
            return None;
        }
        Some(&mut self.loads[slot])
    }

    /// Releases the head entry (retirement; read it first).
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn retire_head(&mut self) {
        assert!(!self.is_empty(), "retire from empty ROB");
        self.head += 1;
    }

    /// Releases every entry with `seq >= from` (recovery; walk them
    /// first, youngest first, to undo their renaming).
    pub fn squash_from(&mut self, from: SeqNum) {
        self.tail = self.tail.min(from.max(self.head));
    }

    /// Iterates over live entries with their seqs, oldest first
    /// (livelock dumps).
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = (SeqNum, &UopEntry)> {
        (self.head..self.tail).map(move |s| (s, &self.slots[self.slot(s)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocates a `nop` whose PC is its expected seq, checking the seq
    /// it gets.
    fn push(rob: &mut Rob, seq: SeqNum) {
        assert_eq!(rob.alloc(seq as Pc, UopKind::Nop, 0, 0), seq, "seqs are allocated in order");
    }

    /// Retires the head, returning its seq.
    fn retire(rob: &mut Rob) -> SeqNum {
        let seq = rob.head_seq().expect("nonempty");
        assert_eq!(rob.get(seq).unwrap().pc as SeqNum, seq);
        rob.retire_head();
        seq
    }

    #[test]
    fn fifo_order() {
        let mut rob = Rob::new(4);
        for s in 0..3 {
            push(&mut rob, s);
        }
        assert_eq!(rob.len(), 3);
        assert_eq!(retire(&mut rob), 0);
        assert_eq!(retire(&mut rob), 1);
        push(&mut rob, 3);
        push(&mut rob, 4); // wraps the ring
        assert_eq!(rob.len(), 3);
        assert_eq!(retire(&mut rob), 2);
    }

    #[test]
    fn non_power_of_two_capacity_wraps() {
        // Exercises the modulo fallback of the ring indexing (power-of-two
        // capacities take the mask path).
        let mut rob = Rob::new(3);
        for s in 0..3 {
            push(&mut rob, s);
        }
        assert_eq!(retire(&mut rob), 0);
        push(&mut rob, 3); // wraps
        assert_eq!(rob.get(3).unwrap().pc, 3);
        assert_eq!(retire(&mut rob), 1);
        assert_eq!(retire(&mut rob), 2);
        assert_eq!(retire(&mut rob), 3);
        assert!(rob.is_empty());
    }

    #[test]
    fn get_rejects_stale_seqs() {
        let mut rob = Rob::new(4);
        push(&mut rob, 0);
        push(&mut rob, 1);
        rob.retire_head();
        assert!(rob.get(0).is_none());
        assert!(rob.get(1).is_some());
        assert!(rob.get(2).is_none());
    }

    #[test]
    fn squash_from_removes_youngest_first() {
        let mut rob = Rob::new(8);
        for s in 0..5 {
            push(&mut rob, s);
        }
        rob.squash_from(2);
        assert_eq!(rob.iter().map(|(s, _)| s).collect::<Vec<_>>(), vec![0, 1]);
        assert!(rob.get(2).is_none());
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.next_seq(), 2);
        // Reuse the freed seqs.
        push(&mut rob, 2);
        assert!(rob.get(2).is_some());
        // Squashing past the tail or below the head is clamped.
        rob.squash_from(9);
        assert_eq!(rob.len(), 3);
        rob.retire_head();
        rob.squash_from(0);
        assert!(rob.is_empty());
        assert_eq!(rob.next_seq(), 1);
    }

    #[test]
    fn squash_everything() {
        let mut rob = Rob::new(4);
        push(&mut rob, 0);
        push(&mut rob, 1);
        rob.squash_from(0);
        assert!(rob.is_empty());
    }

    #[test]
    fn load_info_follows_its_slot() {
        let mut rob = Rob::new(2);
        let mut info = LoadInfo::new(MemWidth::Half, true, LoadKind::Cloaked, 7);
        info.addr = 0x40;
        push(&mut rob, 0);
        rob.attach_load(0, info);
        push(&mut rob, 1);
        assert!(rob.get(0).unwrap().has_load);
        assert_eq!(rob.load(0).unwrap().addr, 0x40);
        assert!(rob.load(1).is_none());
        rob.load_mut(0).unwrap().value = 9;
        assert_eq!(rob.load(0).unwrap().value, 9);
        // A plain µop reusing the slot carries no stale load record.
        rob.retire_head();
        push(&mut rob, 2);
        assert!(rob.load(2).is_none());
        assert!(rob.load(0).is_none(), "retired");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        push(&mut rob, 0);
        push(&mut rob, 1);
    }

    #[test]
    fn iter_oldest_first() {
        let mut rob = Rob::new(4);
        for s in 0..3 {
            push(&mut rob, s);
        }
        let seqs: Vec<(SeqNum, Pc)> = rob.iter().map(|(s, e)| (s, e.pc)).collect();
        assert_eq!(seqs, vec![(0, 0), (1, 1), (2, 2)]);
    }
}
