//! Pipeline recovery: squash, rename rollback (the paper's
//! counter-recovery walk), and front-end redirect.

use dmdp_energy::Event;
use dmdp_isa::Pc;

use crate::config::CommModel;
use crate::rob::SeqNum;

use super::Pipeline;

impl Pipeline {
    /// Squashes every µop with `seq >= from`, walking them youngest-first
    /// to undo renaming (RAT, producer/consumer counters, SSNs, SRB/SQ
    /// entries, oracle index), then redirects fetch to `refetch`.
    ///
    /// Branch history is restored to the squash point; for a branch
    /// misprediction the caller passes the *corrected* history (with the
    /// resolved outcome bit) via [`Pipeline::recover_with_history`] —
    /// restoring the pre-squash snapshot there would re-insert the wrong
    /// predicted bit and poison every later index.
    pub(crate) fn recover(&mut self, from: SeqNum, refetch: Pc) {
        self.recover_with_history(from, refetch, None);
    }

    /// [`Pipeline::recover`] with an explicit post-recovery branch
    /// history.
    pub(crate) fn recover_with_history(
        &mut self,
        from: SeqNum,
        refetch: Pc,
        history: Option<u32>,
    ) {
        self.stats.recoveries += 1;
        // Undo the squashed µops' renaming youngest-first, reading each
        // in place before the ROB releases them.
        let tail = self.rob.next_seq();
        let first = from.clamp(self.rob.head_seq().unwrap_or(tail), tail);
        let squashed = tail - first;
        self.stats.squashed_uops += squashed;
        self.stats.energy.record(Event::SquashedUop, squashed);
        let mut oldest_history = None;
        for seq in (first..tail).rev() {
            let e = self.rob.get(seq).expect("squashed entry live");
            // Flush trace records now: the sequence numbers are reused
            // by the refetched path.
            self.probe.on_squashed(self.cycle, seq);
            oldest_history = Some(e.fetch_history);
            // Give the issue-queue slot back.
            if e.in_iq {
                self.sched.iq_len -= 1;
            }
            // A µop still counting wake conditions is registered on the
            // waiter lists of its unready sources; purge just those.
            if e.not_ready > 0 {
                for p in e.src.into_iter().flatten() {
                    self.rf.purge_waiters(p, from);
                }
            }
            // Undo the rename: restore the RAT and release the definition
            // (paper: "walking through squashed instructions to recover
            // the counters").
            if let (Some(l), Some(d)) = (e.dest_logical, e.dest) {
                let prev = e.prev_mapping.expect("renamed dest has a previous mapping");
                self.rf.set_rat(l, prev);
                self.rf.virtual_release(d);
            }
            // Unread operands give their consumer references back.
            if !e.consumed {
                for p in e.src.into_iter().flatten() {
                    self.rf.drop_consumer(p);
                }
            }
            if let Some(s) = e.store {
                debug_assert_eq!(s.ssn, self.ssn_rename, "stores unwind in LIFO order");
                self.ssn_rename -= 1;
                if self.cfg.comm == CommModel::Baseline {
                    self.sq.remove(seq);
                    self.ss.store_squashed(e.pc, seq);
                } else {
                    self.srb.pop_back();
                }
            }
            if e.kind.is_load() {
                self.next_load_idx -= 1;
            }
        }
        self.rob.squash_from(first);
        // Drop the squashed µops' remaining scheduler registrations
        // (ready lists, Store-Sets and SSN waits, calendar, retry) so
        // reused sequence numbers cannot receive stale wakes.
        self.sched_purge(from);
        self.decode_q.clear();
        // Repair speculative branch history: the corrected value for a
        // branch misprediction, else the squash point's snapshot.
        if let Some(h) = history.or(oldest_history) {
            self.bp.set_history(h);
        }
        self.verify = None;
        self.fetch_pc = refetch;
        self.fetch_stall_until = self.cycle + self.cfg.redirect_penalty;
        self.fetch_stopped = false;
    }
}
