//! Issue, execute and writeback.

use dmdp_energy::Event;
use dmdp_isa::bab::{extract_from_word, place_in_word, Predicate};
use dmdp_isa::uop::UopKind;
use dmdp_isa::{AluOp, MemWidth};

use crate::config::CommModel;
use crate::rob::{SeqNum, UopState};

use super::baseline::SearchResult;
use super::Pipeline;

/// A recovery request raised during execution, applied oldest-first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecoveryReq {
    pub from: SeqNum,
    pub refetch: dmdp_isa::Pc,
    /// A branch misprediction (for stats) vs a memory-ordering violation.
    pub is_branch: bool,
    /// For branches: (history_before, actual_taken) to repair gshare.
    pub history_fix: Option<(u32, bool)>,
}

impl Pipeline {
    /// Issues up to `width` µops from the event-driven ready lists:
    /// delayed loads first, then issue-queue µops in age order. Only
    /// µops whose wake conditions all fired are examined — readiness
    /// itself was established by wake events (register writes, store
    /// completion/retire, SSN-commit advance), not by scanning.
    pub(crate) fn issue_stage(&mut self) {
        self.stats.sched.ready_occupancy += self.sched.ready_len() as u64;
        let mut budget = self.cfg.width;
        let mut load_ports = self.cfg.load_ports;

        // Delayed loads (NoSQ): address ready and predicted store
        // committed; only width and a load port can still hold them back.
        if !self.sched.delayed_ready.is_empty() {
            let mut delayed = std::mem::take(&mut self.sched.delayed_ready);
            delayed.sort_unstable();
            let mut kept = 0;
            for i in 0..delayed.len() {
                let seq = delayed[i];
                debug_assert!(self.rob.get(seq).is_some(), "squash must purge delayed_ready");
                if budget > 0 && load_ports > 0 {
                    budget -= 1;
                    load_ports -= 1;
                    self.execute_uop(seq);
                } else {
                    delayed[kept] = seq;
                    kept += 1;
                }
            }
            delayed.truncate(kept);
            self.sched.delayed_ready = delayed;
        }

        // Issue-queue µops, oldest first. Baseline loads that hit a
        // partial-overlap store park themselves on `retry` and are put
        // back at the end of the cycle, so older µops always get the
        // load ports first (no starvation).
        if !self.sched.ready.is_empty() {
            let mut ready = std::mem::take(&mut self.sched.ready);
            ready.sort_unstable();
            let mut kept = 0;
            for i in 0..ready.len() {
                let seq = ready[i];
                if budget == 0 {
                    ready[kept] = seq;
                    kept += 1;
                    continue;
                }
                let Some(e) = self.rob.get(seq) else {
                    debug_assert!(false, "squash must purge the ready list");
                    continue;
                };
                let is_load = e.kind.is_load();
                if is_load && load_ports == 0 {
                    ready[kept] = seq;
                    kept += 1;
                    continue;
                }
                // The budget and port are consumed even if a baseline
                // load then parks itself on `retry`.
                budget -= 1;
                if is_load {
                    load_ports -= 1;
                }
                self.rob.get_mut(seq).expect("live").in_iq = false;
                self.sched.iq_len -= 1;
                self.stats.energy.record(Event::IqWakeup, 1);
                self.execute_uop(seq);
            }
            ready.truncate(kept);
            self.sched.ready = ready;
        }

        // Replayed loads re-occupy an IQ slot and stay ready (their wake
        // conditions already fired; readiness never regresses while a
        // consumer reference pins the register).
        while let Some(seq) = self.retry.pop() {
            self.rob.get_mut(seq).expect("retried load is live").in_iq = true;
            self.sched.iq_len += 1;
            self.sched.ready.push(seq);
        }
    }

    /// Executes one µop: reads operands, computes the result, and
    /// schedules completion. Baseline loads may instead park themselves
    /// on the retry list.
    fn execute_uop(&mut self, seq: SeqNum) {
        // A baseline load parking on `retry` re-issues later and
        // overwrites this with its final issue cycle.
        self.probe.on_issued(self.cycle, seq);
        let e = self.rob.get(seq).expect("executing a live entry");
        let kind = e.kind;
        let pc = e.pc;
        let src0 = e.src[0];
        let src1 = e.src[1];
        let imm = e.imm;
        // Drop consumer references: the values are being read now.
        if !e.consumed {
            for p in [src0, src1].into_iter().flatten() {
                self.rf.drop_consumer(p);
            }
            self.rob.get_mut(seq).expect("live").consumed = true;
        }
        let src_count = [src0, src1].into_iter().flatten().count() as u64;
        self.stats.energy.record(Event::PrfRead, src_count);
        self.stats.energy.record(Event::AluOp, 1);

        let a = self.src_val(src0);
        let b = self.src_val(src1);
        let (value, latency) = match kind {
            UopKind::Alu(op) => {
                let rhs = if src1.is_some() {
                    b
                } else if op == AluOp::Lui {
                    imm as u32 & 0xFFFF
                } else {
                    imm as u32
                };
                (op.apply(a, rhs), op.latency() as u64)
            }
            UopKind::Agi => {
                let addr = a.wrapping_add(imm as u32);
                let walk = self.tlb.translate(addr);
                self.stats.energy.record(Event::TlbAccess, 1);
                (addr, 1 + walk)
            }
            UopKind::Load { width, signed } => {
                match self.execute_load(seq, width, signed, a) {
                    Some(vl) => vl,
                    None => return, // parked on the retry list
                }
            }
            UopKind::Store { width } => {
                // Baseline only: fill the store-queue entry.
                debug_assert_eq!(self.cfg.comm, CommModel::Baseline);
                let addr = align(a, width);
                self.sq.fill(seq, addr, width, b);
                self.stats.energy.record(Event::SqWrite, 1);
                self.ss.store_completed(pc, seq);
                (0, 1)
            }
            UopKind::Branch(c) => (c.taken(a, b) as u32, 1),
            UopKind::Jump { link, indirect } => {
                let _ = indirect;
                (if link { pc + 1 } else { 0 }, 1)
            }
            UopKind::ShiftMask { store_width, store_lo2, load_lo2, load_width, load_signed } => {
                // NoSQ's predicted shift-and-mask bypass: reposition the
                // store's data as the load would see it, using the
                // *predicted* address low bits (verified at retire).
                let word = place_in_word(store_lo2 as u32, store_width, a);
                let v = extract_from_word(word, load_lo2 as u32, load_width, load_signed);
                if let Some(info) = self.rob.load_mut(seq) {
                    info.value = v;
                }
                (v, 1)
            }
            UopKind::Cmp { store_width, load_width } => {
                let load_addr = align(a, load_width);
                let store_addr = align(b, store_width);
                let pred = Predicate::compare(store_addr, store_width, load_addr, load_width);
                if let Some(sink) = self.rob.get(seq).and_then(|e| e.group_sink) {
                    if let Some(info) = self.rob.load_mut(sink) {
                        info.pred_matches = Some(pred.matches);
                    }
                }
                (pred.encode(), 1)
            }
            UopKind::Cmov { on_true, store_width, load_width, load_signed } => {
                let pred = Predicate::decode(a);
                if pred.matches == on_true {
                    let v = if on_true {
                        pred.apply_forward(store_width, b, load_width, load_signed)
                    } else {
                        b // the cache value, already extended by the LOAD
                    };
                    // Record the chosen value for verification.
                    let sink = self.rob.get(seq).and_then(|e| e.group_sink).unwrap_or(seq);
                    if let Some(info) = self.rob.load_mut(sink) {
                        info.value = v;
                    }
                    (v, 1)
                } else {
                    let e = self.rob.get_mut(seq).expect("live");
                    e.writes_dest = false;
                    (0, 1)
                }
            }
            UopKind::Halt | UopKind::Nop => (0, 1),
        };
        let done = self.cycle + latency.max(1);
        {
            let e = self.rob.get_mut(seq).expect("live");
            e.value = value;
            e.state = UopState::Executing(done);
        }
        self.sched.calendar.push(seq, done);
    }

    /// Executes the cache-access half of a load. Returns `None` when a
    /// baseline load must retry later.
    fn execute_load(
        &mut self,
        seq: SeqNum,
        width: MemWidth,
        signed: bool,
        addr_raw: u32,
    ) -> Option<(u32, u64)> {
        use crate::rob::LoadKind;
        if self.rob.load(seq).is_some_and(|l| l.kind == LoadKind::Oracle) {
            // Oracle forward: the value was fixed at rename; it becomes
            // available one cycle after the store's data (bypass).
            let value = self.rob.get(seq).expect("live").value;
            let info = self.rob.load_mut(seq).expect("oracle load carries its record");
            info.executed = true;
            info.value = value;
            return Some((value, 1));
        }
        let addr = align(addr_raw, width);
        if self.cfg.comm == CommModel::Baseline {
            self.stats.energy.record(Event::SqSearch, 1);
            match self.sq.search(seq, addr, width, signed, &self.sb) {
                SearchResult::Forward { ssn, value } => {
                    self.finish_load(seq, seq, addr, value, Some(ssn));
                    return Some((value, 4));
                }
                SearchResult::Retry => {
                    self.retry.push(seq);
                    return None;
                }
                SearchResult::Miss => {}
            }
        }
        // Read the cache (committed state).
        let value = self.data.read(addr, width, signed);
        let latency = self.mem.read(addr, self.cycle);
        self.stats.energy.record(Event::CacheRead, 1);
        let sink = self.rob.get(seq).and_then(|e| e.group_sink).unwrap_or(seq);
        self.finish_load(seq, sink, addr, value, None);
        Some((value, latency))
    }

    /// Records load-execution facts on the verifying entry.
    fn finish_load(
        &mut self,
        seq: SeqNum,
        sink: SeqNum,
        addr: u32,
        value: u32,
        forwarded_from: Option<u32>,
    ) {
        let ssn_commit = self.ssn_commit;
        if let Some(info) = self.rob.load_mut(sink) {
            info.addr = addr;
            info.ssn_nvul = ssn_commit;
            info.executed = true;
            info.forwarded_from = forwarded_from;
            // For a predicated load (sink != seq) the winning CMOV sets
            // the final value; for plain loads this read *is* the value.
            if sink == seq {
                info.value = value;
            }
        }
    }

    /// Writeback: drains the completion calendar's µops whose latency
    /// expired this cycle, writes the register file (delivering register
    /// wake events), resolves branches, and (baseline) runs store-queue
    /// violation checks.
    ///
    /// The calendar delivers same-cycle completions in issue order —
    /// exactly the order the old executing-list rescan produced. That
    /// order is timing-relevant: recovery selection tie-breaks,
    /// Store-Sets violation training and branch-predictor updates all
    /// happen as side effects of this loop.
    pub(crate) fn writeback_stage(&mut self) {
        let mut recoveries = std::mem::take(&mut self.sched.recoveries);
        debug_assert!(recoveries.is_empty());
        let mut due = std::mem::take(&mut self.sched.due);
        self.sched.calendar.drain_due(self.cycle, &mut due);
        for &seq in &due {
            self.stats.sched.calendar_pops += 1;
            let Some(e) = self.rob.get(seq) else {
                debug_assert!(false, "squash must purge the calendar");
                continue;
            };
            let UopState::Executing(d) = e.state else { continue };
            debug_assert_eq!(d, self.cycle, "calendar entry must match the completion cycle");
            // Complete.
            let kind = e.kind;
            let dest = e.dest;
            let writes = e.writes_dest;
            let value = e.value;
            let pc = e.pc;
            {
                let e = self.rob.get_mut(seq).expect("live");
                e.state = UopState::Done;
            }
            self.probe.on_writeback(self.cycle, seq);
            if let Some(d) = dest {
                if writes {
                    self.rf.write(d, value, self.cycle);
                    self.stats.energy.record(Event::PrfWrite, 1);
                    self.sched_wake_preg(d);
                }
            }
            match kind {
                UopKind::Branch(_) => {
                    if let Some(r) = self.resolve_branch(seq, pc, value != 0) {
                        recoveries.push(r);
                    }
                }
                UopKind::Jump { indirect: true, .. } => {
                    if let Some(r) = self.resolve_indirect(seq, pc) {
                        recoveries.push(r);
                    }
                }
                UopKind::Store { .. }
                    if self.cfg.comm == CommModel::Baseline => {
                        if let Some(r) = self.check_violation(seq) {
                            recoveries.push(r);
                        }
                    }
                _ => {}
            }
            // Baseline Store-Sets ordering: µops waiting on this store
            // may issue now.
            self.sched_wake_seq(seq);
        }
        self.sched.due = due;
        if let Some(r) = recoveries.iter().min_by_key(|r| r.from).copied() {
            if r.is_branch {
                self.stats.branch_mispredicts += 1;
            } else {
                self.stats.mem_dep_mispredicts += 1;
            }
            let corrected = r.history_fix.map(|(hist, taken)| {
                self.bp.mispredicted(hist, taken);
                (hist << 1) | taken as u32
            });
            self.recover_with_history(r.from, r.refetch, corrected);
        }
        recoveries.clear();
        self.sched.recoveries = recoveries;
    }

    fn resolve_branch(&mut self, seq: SeqNum, pc: u32, taken: bool) -> Option<RecoveryReq> {
        let e = self.rob.get(seq).expect("live");
        let info = e.branch.expect("branch has prediction info");
        let target = e.imm as u32;
        self.stats.energy.record(Event::PredictorWrite, 1);
        self.bp.resolve(pc, taken, target, info.history_before);
        if taken == info.predicted_taken {
            return None;
        }
        let refetch = if taken { target } else { pc + 1 };
        Some(RecoveryReq {
            from: seq + 1,
            refetch,
            is_branch: true,
            history_fix: Some((info.history_before, taken)),
        })
    }

    fn resolve_indirect(&mut self, seq: SeqNum, pc: u32) -> Option<RecoveryReq> {
        let e = self.rob.get(seq).expect("live");
        let info = e.branch.expect("indirect jump has prediction info");
        let actual = self.src_val(e.src[0]);
        self.bp.btb_install(pc, actual);
        if info.predicted_target == Some(actual) {
            return None;
        }
        Some(RecoveryReq { from: seq + 1, refetch: actual, is_branch: true, history_fix: None })
    }
}

/// Aligns a (possibly wrong-path garbage) address to the access width so
/// the timing machinery never faults; correct-path code is always
/// naturally aligned (the functional emulator enforces it).
#[inline]
fn align(addr: u32, width: MemWidth) -> u32 {
    addr & !(width.bytes() - 1)
}
