//! The event-driven scheduler.
//!
//! The original issue/writeback stages re-sorted and rescanned the whole
//! issue queue and executing list every cycle, probing `rf.is_ready` for
//! every source of every waiting µop — O(window) work per cycle even when
//! nothing changed. This module replaces the scans with events, keeping
//! the simulated timing bit-identical (`tests/golden_stats.rs` is the
//! gate):
//!
//! * Each waiting µop carries a `not_ready` count of its unsatisfied wake
//!   conditions. A µop dispatched with unready sources registers on the
//!   **waiter list** of each missing physical register; the register
//!   write in writeback drains the list and decrements the counters.
//! * Baseline Store-Sets ordering (`wait_for_seq`) registers on
//!   [`Scheduler::seq_waiters`]; the waited-on store wakes them when it
//!   completes in writeback or retires.
//! * A NoSQ delayed load additionally waits for `SSN_commit` to reach its
//!   predicted store; commit drains [`Scheduler::ssn_waiters`] in SSN
//!   order.
//! * A µop whose counter hits zero moves to the **ready list**
//!   ([`Scheduler::ready`] or, for delayed loads,
//!   [`Scheduler::delayed_ready`]); issue sorts and pops only those —
//!   age order and the load-port/width limits reproduce the old select
//!   exactly.
//! * Writeback drains a **completion calendar**, a timing wheel of
//!   per-cycle buckets ([`CompletionWheel`]), so it touches only the µops
//!   that complete this cycle. Each bucket keeps its seqs in issue order,
//!   preserving the old executing-list processing order, which predictor
//!   update order (and therefore timing) depends on.
//!
//! Squash is handled eagerly: the recovery walk purges the waiter lists
//! of each squashed µop's sources and [`Pipeline::sched_purge`] removes
//! every other registration, so sequence-number reuse after a recovery
//! can never deliver a stale wake.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::regfile::PregId;
use crate::rob::{SeqNum, UopState};

use super::exec::RecoveryReq;
use super::Pipeline;

/// Event-driven scheduler state: ready lists, wake registrations and the
/// completion calendar, plus reusable scratch buffers so the hot loop
/// performs no per-cycle allocations.
#[derive(Debug, Default)]
pub(crate) struct Scheduler {
    /// Issue-queue µops whose wake conditions are all satisfied, popped
    /// in age order by `issue_stage`. Unsorted between cycles; sorted
    /// once per issue.
    pub(crate) ready: Vec<SeqNum>,
    /// Delayed loads (NoSQ low-confidence) whose address is ready and
    /// whose predicted store has committed.
    pub(crate) delayed_ready: Vec<SeqNum>,
    /// Issue-queue occupancy (ready + still-waiting µops) — drives the
    /// rename stage's structural backpressure exactly like the old
    /// `iq.len()`.
    pub(crate) iq_len: usize,
    /// `(waited_on, waiter)` pairs for Baseline Store-Sets ordering.
    pub(crate) seq_waiters: Vec<(SeqNum, SeqNum)>,
    /// Delayed loads waiting for `SSN_commit >= ssn`, min-first.
    pub(crate) ssn_waiters: BinaryHeap<Reverse<(u32, SeqNum)>>,
    /// Completion calendar: issued µops by completion cycle.
    pub(crate) calendar: CompletionWheel,
    /// Scratch for draining register waiter lists.
    wake_buf: Vec<SeqNum>,
    /// Scratch for writeback's due completions.
    pub(crate) due: Vec<SeqNum>,
    /// Scratch for writeback's recovery requests.
    pub(crate) recoveries: Vec<RecoveryReq>,
}

impl Scheduler {
    /// Free issue-queue slots given the configured capacity.
    pub(crate) fn iq_free(&self, iq_entries: usize) -> usize {
        iq_entries.saturating_sub(self.iq_len)
    }

    /// µops currently ready to issue (issue-queue ready list plus
    /// delayed loads whose wake conditions all fired) — the occupancy
    /// figure both the per-cycle stat and the probe sampler report.
    pub(crate) fn ready_len(&self) -> usize {
        self.ready.len() + self.delayed_ready.len()
    }

    /// One-line occupancy summary for livelock dumps.
    #[cfg(test)]
    pub(crate) fn dump(&self) -> String {
        format!(
            "ready={:?} delayed_ready={:?} iq_len={} seq_waiters={:?} ssn_waiters={} calendar={}",
            self.ready,
            self.delayed_ready,
            self.iq_len,
            self.seq_waiters,
            self.ssn_waiters.len(),
            self.calendar.len()
        )
    }
}

/// Buckets in the completion wheel: a power of two above the longest
/// completion latency the default memory hierarchy produces (368 cycles
/// at Full scale), so only DRAM bank-queueing outliers overflow.
const WHEEL_SPAN: u64 = 512;

/// The completion calendar as a timing wheel. Bucket `d % WHEEL_SPAN`
/// holds the seqs completing at cycle `d`, for `d` in
/// `[now, now + WHEEL_SPAN)`, in push (issue) order: push and drain cost
/// O(1) per µop where a heap paid O(log n).
///
/// A completion pushed at or beyond `now + WHEEL_SPAN` waits in an
/// ordered overflow instead. It was pushed before anything that can
/// land in its cycle's bucket (the window only ever slides forward), so
/// a drain takes a cycle's overflow entries first, then its bucket.
#[derive(Debug)]
pub(crate) struct CompletionWheel {
    buckets: Box<[Vec<SeqNum>]>,
    /// `(done, push order, seq)`, min-first.
    overflow: BinaryHeap<Reverse<(u64, u64, SeqNum)>>,
    overflow_pushes: u64,
    /// The first cycle not yet drained.
    now: u64,
    /// Entries held in `buckets`.
    bucketed: usize,
}

impl Default for CompletionWheel {
    fn default() -> CompletionWheel {
        CompletionWheel {
            buckets: vec![Vec::new(); WHEEL_SPAN as usize].into_boxed_slice(),
            overflow: BinaryHeap::new(),
            overflow_pushes: 0,
            now: 0,
            bucketed: 0,
        }
    }
}

/// The bucket holding completions at `cycle`.
#[inline]
fn slot(cycle: u64) -> usize {
    (cycle % WHEEL_SPAN) as usize
}

impl CompletionWheel {
    /// Entries pending.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.bucketed + self.overflow.len()
    }

    /// Whether nothing is pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `seq` to complete at cycle `done`, which must not be
    /// drained yet.
    pub(crate) fn push(&mut self, seq: SeqNum, done: u64) {
        debug_assert!(done >= self.now, "completion at {done} is before cycle {}", self.now);
        if done - self.now < WHEEL_SPAN {
            self.buckets[slot(done)].push(seq);
            self.bucketed += 1;
        } else {
            self.overflow.push(Reverse((done, self.overflow_pushes, seq)));
            self.overflow_pushes += 1;
        }
    }

    /// Moves every completion due at `cycle` into `out` (cleared first),
    /// in push order. The pipeline drains every cycle exactly once, in
    /// order, so nothing earlier is left pending.
    pub(crate) fn drain_due(&mut self, cycle: u64, out: &mut Vec<SeqNum>) {
        debug_assert_eq!(self.now, cycle, "the wheel drains each cycle once, in order");
        out.clear();
        while let Some(&Reverse((done, _, seq))) = self.overflow.peek() {
            if done != cycle {
                break;
            }
            self.overflow.pop();
            out.push(seq);
        }
        let bucket = &mut self.buckets[slot(cycle)];
        self.bucketed -= bucket.len();
        if out.is_empty() {
            std::mem::swap(out, bucket);
        } else {
            out.append(bucket);
        }
        self.now = cycle + 1;
    }

    /// Removes every entry with `seq >= from` (recovery), including the
    /// current cycle's not-yet-drained bucket.
    pub(crate) fn purge_from(&mut self, from: SeqNum) {
        let mut unseen = self.bucketed;
        let mut d = self.now;
        while unseen > 0 {
            let bucket = &mut self.buckets[slot(d)];
            let before = bucket.len();
            unseen -= before;
            bucket.retain(|&s| s < from);
            self.bucketed -= before - bucket.len();
            d += 1;
        }
        self.overflow.retain(|&Reverse((_, _, s))| s < from);
    }
}

impl Pipeline {
    /// Registers the wake conditions of a newly dispatched issue-queue
    /// µop (sources + Store-Sets ordering), returning the number still
    /// pending.
    pub(crate) fn sched_register_iq(
        &mut self,
        seq: SeqNum,
        src: [Option<PregId>; 2],
        wait_for_seq: Option<SeqNum>,
    ) -> u8 {
        let mut pending = 0u8;
        for p in src.into_iter().flatten() {
            if !self.rf.is_ready(p) {
                self.rf.add_waiter(p, seq);
                pending += 1;
            }
        }
        if let Some(w) = wait_for_seq {
            // A stale Store-Sets token may name this very seq, reused
            // after a squash; only an older µop can be waited on.
            if w < seq && self.rob.get(w).is_some_and(|we| !we.is_done()) {
                self.sched.seq_waiters.push((w, seq));
                pending += 1;
            }
        }
        pending
    }

    /// Registers the wake conditions of a delayed load: address register
    /// readiness plus commit of the predicted store. Returns the number
    /// pending.
    pub(crate) fn sched_register_delayed(
        &mut self,
        seq: SeqNum,
        addr_preg: PregId,
        ssn_byp: u32,
    ) -> u8 {
        let mut pending = 0u8;
        if !self.rf.is_ready(addr_preg) {
            self.rf.add_waiter(addr_preg, seq);
            pending += 1;
        }
        if self.ssn_commit < ssn_byp {
            self.sched.ssn_waiters.push(Reverse((ssn_byp, seq)));
            pending += 1;
        }
        pending
    }

    /// Delivers one wake event to `seq`, moving it to the appropriate
    /// ready list when its last condition fires.
    fn sched_deliver(&mut self, seq: SeqNum) {
        let e = self.rob.get_mut(seq).expect("waker registrations are purged on squash");
        debug_assert_eq!(e.state, UopState::Waiting);
        debug_assert!(e.not_ready > 0, "wake underflow on seq {seq}");
        e.not_ready -= 1;
        self.stats.sched.wakeups += 1;
        if e.not_ready == 0 {
            if e.in_iq {
                self.sched.ready.push(seq);
            } else {
                self.sched.delayed_ready.push(seq);
            }
        }
    }

    /// Drains the waiter list of a just-written register.
    pub(crate) fn sched_wake_preg(&mut self, p: PregId) {
        if !self.rf.has_waiters(p) {
            return;
        }
        let mut buf = std::mem::take(&mut self.sched.wake_buf);
        self.rf.drain_waiters_into(p, &mut buf);
        for seq in buf.drain(..) {
            self.sched_deliver(seq);
        }
        self.sched.wake_buf = buf;
    }

    /// Wakes µops ordered after `done` by Store-Sets (`wait_for_seq`),
    /// called when `done` completes in writeback or retires.
    pub(crate) fn sched_wake_seq(&mut self, done: SeqNum) {
        if self.sched.seq_waiters.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.sched.seq_waiters.len() {
            if self.sched.seq_waiters[i].0 == done {
                let (_, waiter) = self.sched.seq_waiters.swap_remove(i);
                self.sched_deliver(waiter);
            } else {
                i += 1;
            }
        }
    }

    /// Wakes delayed loads whose predicted store has committed. Called
    /// after commit advances `SSN_commit`.
    pub(crate) fn sched_drain_ssn(&mut self) {
        while let Some(&Reverse((ssn, seq))) = self.sched.ssn_waiters.peek() {
            if ssn > self.ssn_commit {
                break;
            }
            self.sched.ssn_waiters.pop();
            self.sched_deliver(seq);
        }
    }

    /// Removes every scheduler registration of µops with `seq >= from`
    /// (recovery), except register waiter lists, which the recovery walk
    /// purges per squashed µop. Eager purging keeps wake delivery simple:
    /// a live registration always refers to a live µop, so
    /// sequence-number reuse after the squash cannot alias.
    pub(crate) fn sched_purge(&mut self, from: SeqNum) {
        self.sched.ready.retain(|&s| s < from);
        self.sched.delayed_ready.retain(|&s| s < from);
        // A waiter is always younger than what it waits on, so filtering
        // on the waiter alone is sufficient.
        self.sched.seq_waiters.retain(|&(_, s)| s < from);
        self.sched.ssn_waiters.retain(|&Reverse((_, s))| s < from);
        self.sched.calendar.purge_from(from);
        self.retry.retain(|&s| s < from);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{CommModel, CoreConfig};
    use crate::pipeline::Pipeline;

    fn pipeline(src: &str, comm: CommModel) -> Pipeline {
        let p = dmdp_isa::asm::assemble(src).unwrap();
        Pipeline::new(CoreConfig::new(comm), &p)
    }

    fn run_to_halt(pl: &mut Pipeline, max: u64) {
        for _ in 0..max {
            if pl.halted {
                return;
            }
            pl.step_cycle();
        }
        panic!("did not halt: {}", pl.sched.dump());
    }

    #[test]
    fn dependent_chain_issues_through_wakeups() {
        let mut pl = pipeline(
            "li $1, 1\nadd $2, $1, $1\nadd $3, $2, $2\nadd $4, $3, $3\nhalt",
            CommModel::Baseline,
        );
        run_to_halt(&mut pl, 200);
        // Every µop entering the IQ with an unready source produces at
        // least one wake event when the producer writes back.
        assert!(pl.stats.sched.wakeups >= 3, "wakeups: {}", pl.stats.sched.wakeups);
        assert!(pl.stats.sched.calendar_pops >= 4);
        assert_eq!(pl.stats.retired_insns, 5);
    }

    #[test]
    fn ready_list_drains_to_empty_at_halt() {
        let mut pl = pipeline("li $1, 7\nadd $2, $1, $1\nhalt", CommModel::Dmdp);
        run_to_halt(&mut pl, 200);
        assert!(pl.sched.ready.is_empty());
        assert!(pl.sched.delayed_ready.is_empty());
        assert_eq!(pl.sched.iq_len, 0, "issue queue must drain");
        assert!(pl.sched.seq_waiters.is_empty());
        assert!(pl.sched.ssn_waiters.is_empty());
        assert!(pl.sched.calendar.is_empty());
    }

    #[test]
    fn recovery_purges_wrong_path_registrations() {
        // A data-dependent branch mispredicts at least once; wrong-path
        // µops registered on never-written registers must be purged
        // rather than leak.
        let src = r#"
            .data
        buf: .space 64
            .text
            lui  $8, %hi(buf)
            ori  $8, $8, %lo(buf)
            li   $4, 0
            li   $5, 12
    loop:
            andi $6, $4, 3
            sll  $7, $6, 2
            add  $7, $7, $8
            lw   $9, 0($7)
            add  $9, $9, $4
            sw   $9, 0($7)
            addi $4, $4, 1
            bne  $4, $5, loop
            halt
        "#;
        let mut pl = pipeline(src, CommModel::Baseline);
        run_to_halt(&mut pl, 20_000);
        assert!(pl.stats.recoveries > 0, "expected at least one recovery");
        // Quiesce invariants: nothing left registered anywhere.
        assert!(pl.sched.ready.is_empty());
        assert!(pl.sched.calendar.is_empty());
        assert_eq!(pl.sched.iq_len, 0);
        pl.rf.check_quiesced();
    }

    /// Drives the wheel and a sorted-list model with the same seeded
    /// stream: several pushes a cycle with latencies up to 3× the span
    /// (so the overflow is exercised), and purges at random seqs — some
    /// raised before the current cycle's bucket drains, as a recovery
    /// in retire is.
    #[test]
    fn wheel_pops_what_a_sorted_model_pops() {
        use super::{CompletionWheel, WHEEL_SPAN};
        let mut rng = dmdp_prng::Prng::new(0x5eed_c0ff_ee16);
        let mut wheel = CompletionWheel::default();
        // (done, issue order, seq): the model pops in (done, order) order.
        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        let mut order = 0u64;
        let mut next_seq = 0u64;
        let mut due = Vec::new();
        let (mut pops, mut overflowed) = (0usize, 0usize);
        let purge = |wheel: &mut CompletionWheel, model: &mut Vec<_>, next_seq: &mut u64, from| {
            wheel.purge_from(from);
            model.retain(|&(_, _, s)| s < from);
            *next_seq = from;
        };
        for cycle in 0..20_000u64 {
            if rng.chance(1, 40) && next_seq > 0 {
                let from = next_seq - 1 - u64::from(rng.below(next_seq.min(48) as u32));
                purge(&mut wheel, &mut model, &mut next_seq, from);
            }
            wheel.drain_due(cycle, &mut due);
            model.sort_unstable();
            let split = model.partition_point(|m| m.0 <= cycle);
            let expect: Vec<u64> = model.drain(..split).map(|m| m.2).collect();
            assert_eq!(due, expect, "cycle {cycle}");
            pops += due.len();
            assert_eq!(wheel.len(), model.len());
            // Issue: seqs out of age order, as out-of-order issue does.
            for _ in 0..rng.below(5) {
                let seq = next_seq + u64::from(rng.below(8));
                next_seq = seq + 1;
                let latency = 1 + if rng.chance(1, 8) {
                    u64::from(rng.below(3 * WHEEL_SPAN as u32))
                } else {
                    u64::from(rng.below(12))
                };
                overflowed += usize::from(latency >= WHEEL_SPAN);
                wheel.push(seq, cycle + latency);
                model.push((cycle + latency, order, seq));
                order += 1;
            }
            if rng.chance(1, 60) && next_seq > 0 {
                let from = next_seq - 1 - u64::from(rng.below(next_seq.min(16) as u32));
                purge(&mut wheel, &mut model, &mut next_seq, from);
            }
        }
        assert!(pops > 20_000 && overflowed > 500, "pops {pops}, overflowed {overflowed}");
    }

    #[test]
    fn a_store_sets_token_naming_the_uop_itself_is_not_waited_on() {
        // After a squash, a stale Store-Sets token can name the seq the
        // ROB hands out next. The µop is live when it registers, and it
        // must not wait on itself; an older unfinished µop is waited on.
        use dmdp_isa::uop::UopKind;
        let mut pl = pipeline("halt", CommModel::Baseline);
        let older = pl.rob.alloc(0, UopKind::Nop, 0, 0);
        let seq = pl.rob.alloc(0, UopKind::Nop, 0, 0);
        assert_eq!(pl.sched_register_iq(seq, [None, None], Some(seq)), 0);
        assert_eq!(pl.sched_register_iq(seq, [None, None], Some(older)), 1);
        assert_eq!(pl.sched.seq_waiters, vec![(older, seq)]);
    }

    #[test]
    fn delayed_load_wakes_on_store_commit() {
        // NoSQ: train the distance predictor with a tight store->load
        // pair; the delayed path (when taken) must still produce the
        // architecturally correct value and drain all ssn waiters.
        let src = r#"
            .data
        x:  .word 0
            .text
            lui  $8, %hi(x)
            ori  $8, $8, %lo(x)
            li   $4, 0
            li   $5, 24
    loop:
            sb   $4, 0($8)
            lb   $9, 0($8)
            add  $10, $10, $9
            addi $4, $4, 1
            bne  $4, $5, loop
            halt
        "#;
        let mut pl = pipeline(src, CommModel::NoSq);
        run_to_halt(&mut pl, 20_000);
        assert!(pl.sched.ssn_waiters.is_empty());
        assert!(pl.sched.delayed_ready.is_empty());
        assert_eq!(pl.stats.retired_insns, 4 + 5 * 24 + 1);
    }
}
