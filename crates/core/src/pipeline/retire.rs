//! In-order retirement with SVW-filtered load verification (paper
//! §IV-A c, §IV-C) and store movement into the store buffer.

use dmdp_energy::Event;
use dmdp_isa::bab::bab;
use dmdp_isa::uop::UopKind;
use dmdp_isa::{Pc, Reg, StepOutcome};
use dmdp_mem::SbEntry;
use dmdp_predict::svw::{needs_reexecution, DataSource};
use dmdp_predict::TssbfHit;
use dmdp_stats::LoadSource;

use crate::config::CommModel;
use crate::regfile::PregId;
use crate::rob::{LoadKind, SeqNum};

use super::{Pipeline, VerifyPhase, VerifyState};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VerifyOutcome {
    Ok,
    Stall,
    Recover,
}

/// Figure 5's outcome classes for a dependence prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PredOutcome {
    Correct,
    DiffStore,
    IndepStore,
}

impl Pipeline {
    /// Retires up to `width` µops, instruction groups atomically.
    pub(crate) fn retire_stage(&mut self) {
        let mut budget = self.cfg.width;
        while budget > 0 && !self.halted {
            let Some(head) = self.rob.head_seq() else { return };
            // One walk over the group (rename enters whole groups):
            // where it ends, whether every µop is complete — a cloaked
            // load once its destination is ready — and which µops hold
            // its store and its load record.
            let (mut seq, mut complete, mut has_store, mut vseq) = (head, true, false, None);
            loop {
                let e = self.rob.get(seq).expect("rename enters whole groups");
                complete &= e.is_done()
                    || (e.retire_needs_dest_ready
                        && self.rf.is_ready(e.dest.expect("cloaked load has a destination")));
                has_store |= e.store.is_some();
                if e.has_load && vseq.is_none() {
                    vseq = Some(seq);
                }
                if e.last_of_insn {
                    break;
                }
                seq += 1;
            }
            let group_len = (seq - head + 1) as usize;
            if (group_len > budget && budget < self.cfg.width) || !complete {
                return;
            }
            // A retiring store needs a store-buffer slot.
            if has_store {
                self.hw.note_store_retire(self.sb.occupancy());
            }
            if has_store && self.sb.is_full() {
                self.stats.sb_full_stall_cycles += 1;
                return;
            }
            // Retire-time load verification (store-queue-free models).
            if matches!(self.cfg.comm, CommModel::NoSq | CommModel::Dmdp) {
                if let Some(vseq) = vseq {
                    match self.run_verify(vseq) {
                        VerifyOutcome::Ok => {}
                        VerifyOutcome::Stall => {
                            self.stats.reexec_stall_cycles += 1;
                            return;
                        }
                        VerifyOutcome::Recover => {
                            self.stats.mem_dep_mispredicts += 1;
                            let pc = self.rob.get(head).expect("live").pc;
                            self.recover(head, pc);
                            return;
                        }
                    }
                }
            }
            for _ in 0..group_len {
                self.retire_one();
                if self.halted {
                    return;
                }
            }
            budget = budget.saturating_sub(group_len);
        }
    }

    /// Retires the head µop, applying its architectural effects.
    fn retire_one(&mut self) {
        let seq = self.rob.head_seq().expect("retiring from a nonempty ROB");
        let e = self.rob.get(seq).expect("head entry live");
        let (pc, kind, last_of_insn, rename_cycle, store) =
            (e.pc, e.kind, e.last_of_insn, e.rename_cycle, e.store);
        let arch_dest = e.dest_logical.zip(e.dest);
        let released = e.dest_logical.and(e.prev_mapping);
        let load = self.rob.load(seq).map(|l| (l.kind, l.result_preg, l.low_conf));
        self.rob.retire_head();
        // Baseline Store-Sets ordering treats a target that left the ROB
        // as satisfied; in practice the completion wake in writeback
        // already fired (retirement requires `Done`), so this is a
        // no-op backstop kept for the event-completeness invariant.
        self.sched_wake_seq(seq);
        self.stats.retired_uops += 1;
        // Virtual release of the previous definition (paper Fig. 9).
        if let Some(prev) = released {
            self.rf.virtual_release(prev);
        }
        let mut store_effect = None;
        if let Some(s) = store {
            let addr = self.rf.read(s.addr_preg);
            let data = s.data_preg.map(|p| self.rf.read(p)).unwrap_or(0);
            self.ssn_retire = s.ssn;
            if self.cfg.comm != CommModel::Baseline {
                self.tssbf.store_retired(addr, bab(addr, s.width), s.ssn);
                self.stats.energy.record(Event::TssbfWrite, 1);
            } else {
                self.sq.remove(seq);
            }
            let pushed =
                self.sb.push(SbEntry::new(s.ssn, addr, s.width, data), self.cfg.coalesce_stores);
            assert!(pushed, "store buffer slot was checked before retiring");
            self.stats.energy.record(Event::StoreBufferOp, 1);
            self.stats.retired_stores += 1;
            self.last_commit_addr = Some(addr);
            store_effect = Some((addr, data));
        }
        let mut load_class = None;
        if let Some((kind, result_preg, low_conf)) = load {
            self.stats.retired_loads += 1;
            let class = match kind {
                LoadKind::Direct => LoadSource::Direct,
                LoadKind::Cloaked | LoadKind::Oracle => LoadSource::Bypassed,
                LoadKind::Delayed => LoadSource::Delayed,
                LoadKind::Predicated => LoadSource::Predicated,
            };
            load_class = Some(class);
            let ready = result_preg.map(|p| self.rf.ready_at(p)).unwrap_or(self.cycle);
            self.stats.load_latency.record(class, rename_cycle, ready);
            if low_conf {
                self.stats.lowconf_latency.record(class, rename_cycle, ready);
            }
        }
        self.probe.on_retired(self.cycle, seq, load_class);
        if kind == UopKind::Halt {
            self.halted = true;
        }
        if last_of_insn {
            self.stats.retired_insns += 1;
            self.cosim_check(pc, kind, arch_dest, store_effect);
        }
    }

    /// Lock-step comparison against the functional emulator. The
    /// architectural destination of the retiring instruction is its sink
    /// µop's renamed `(logical, physical)` pair.
    fn cosim_check(
        &mut self,
        pc: Pc,
        kind: UopKind,
        arch_dest: Option<(Reg, PregId)>,
        store: Option<(u32, u32)>,
    ) {
        let Some(emu) = self.cosim.as_mut() else { return };
        let step = emu.step().expect("cosim emulator must not fault");
        match step {
            StepOutcome::Halted => {
                assert_eq!(kind, UopKind::Halt, "pipeline retired {kind:?} but emulator halted");
            }
            StepOutcome::Retired(ev) => {
                assert_eq!(
                    ev.pc, pc,
                    "control divergence: pipeline retired pc {} but emulator is at pc {}",
                    pc, ev.pc
                );
                if let Some((l, p)) = arch_dest {
                    let got = self.rf.read(p);
                    match ev.wrote {
                        Some((el, ev_val)) => {
                            assert_eq!(l, el, "dest register divergence at pc {pc}");
                            assert_eq!(
                                got, ev_val,
                                "value divergence at pc {pc}: pipeline {got:#x} emu {ev_val:#x}"
                            );
                        }
                        None => panic!("pipeline wrote {l} at pc {pc} but emulator did not"),
                    }
                }
                if let Some((addr, data)) = store {
                    let m = ev.mem.expect("emulator saw the store");
                    assert!(m.is_store);
                    assert_eq!(m.addr, addr, "store address divergence at pc {pc}");
                    assert_eq!(m.value, data, "store data divergence at pc {pc}");
                }
            }
        }
    }

    /// Drives the verification state machine for the load at `vseq`.
    fn run_verify(&mut self, vseq: SeqNum) -> VerifyOutcome {
        // Progress an in-flight re-execution first.
        if let Some(v) = self.verify {
            debug_assert_eq!(v.load_seq, vseq);
            match v.phase {
                VerifyPhase::WaitDrain => {
                    if self.sb.is_empty() {
                        let info = *self.rob.load(vseq).expect("verify target");
                        let lat = self.mem.read(info.addr, self.cycle).max(1);
                        self.stats.energy.record(Event::CacheRead, 1);
                        self.verify = Some(VerifyState {
                            phase: VerifyPhase::Reading(self.cycle + lat),
                            ..v
                        });
                    }
                    VerifyOutcome::Stall
                }
                VerifyPhase::Reading(done) => {
                    if self.cycle < done {
                        return VerifyOutcome::Stall;
                    }
                    let info = *self.rob.load(vseq).expect("verify target");
                    let reload = self.data.read(info.addr, info.width, info.signed);
                    self.verify = None;
                    let exception = reload != info.value;
                    self.update_predictors(vseq, v.actual, true, exception);
                    if exception {
                        VerifyOutcome::Recover
                    } else {
                        VerifyOutcome::Ok
                    }
                }
            }
        } else {
            let mut info = *self.rob.load(vseq).expect("verify target has load info");
            if info.kind == LoadKind::Oracle {
                return VerifyOutcome::Ok; // the Perfect model never verifies
            }
            // A cloaked (or shift-masked) load executed no cache access:
            // pick up its address and delivered value from the register
            // file now.
            if !info.executed {
                debug_assert_eq!(info.kind, LoadKind::Cloaked);
                let addr_preg = info.addr_preg.expect("cloaked load keeps its address register");
                info.addr = self.rf.read(addr_preg);
                info.value =
                    self.rf.read(info.result_preg.expect("cloaked load has a result"));
                info.executed = true;
                *self.rob.load_mut(vseq).expect("verify target has load info") = info;
            }
            let lb = bab(info.addr, info.width);
            self.stats.energy.record(Event::TssbfRead, 1);
            let actual = self.tssbf.lookup(info.addr, lb);
            let source = match (info.kind, info.pred_matches) {
                (LoadKind::Cloaked, _) => DataSource::Forwarded {
                    predicted_ssn: info.ssn_byp.expect("cloaked load has a prediction"),
                },
                (LoadKind::Predicated, Some(true)) => DataSource::Forwarded {
                    predicted_ssn: info.ssn_byp.expect("predicated load has a prediction"),
                },
                _ => DataSource::Cache { ssn_nvul: info.ssn_nvul },
            };
            // Shift-and-mask forwarding additionally requires the
            // *predicted* byte geometry to match the actual collision.
            let shift_ok = info.shift_pred.is_none_or(|(sb, lo2)| {
                actual.store_bab == Some(sb) && (info.addr & 3) as u8 == lo2
            });
            if !needs_reexecution(source, actual, lb) && shift_ok {
                self.update_predictors(vseq, actual, false, false);
                return VerifyOutcome::Ok;
            }
            self.stats.reexecutions += 1;
            self.probe.on_reexec(vseq);
            self.verify =
                Some(VerifyState { load_seq: vseq, actual, phase: VerifyPhase::WaitDrain });
            VerifyOutcome::Stall
        }
    }

    /// Applies predictor training and Figure 5 bookkeeping once the
    /// load's actual dependence is known.
    fn update_predictors(
        &mut self,
        vseq: SeqNum,
        actual: TssbfHit,
        was_reexec: bool,
        exception: bool,
    ) {
        let pc = self.rob.get(vseq).expect("live").pc;
        let info = *self.rob.load(vseq).expect("load info");
        let hist = info.history;
        let outcome = info.ssn_byp.map(|p| match actual.store_bab {
            Some(_) if actual.ssn == p => PredOutcome::Correct,
            Some(_) => PredOutcome::DiffStore,
            None => PredOutcome::IndepStore,
        });
        if info.low_conf {
            match outcome {
                Some(PredOutcome::Correct) => self.stats.lowconf.correct += 1,
                Some(PredOutcome::DiffStore) => self.stats.lowconf.diff_store += 1,
                Some(PredOutcome::IndepStore) => self.stats.lowconf.indep_store += 1,
                None => {}
            }
        }
        // The original (non-silent-store-aware) policy only updates on an
        // exception (paper §IV-C a).
        if was_reexec && !exception && !self.cfg.silent_store_update {
            return;
        }
        self.stats.energy.record(Event::PredictorWrite, 1);
        match outcome {
            // A "correct" store prediction that still cost a full recovery
            // (e.g. the store does not cover the load's bytes, Fig. 11) is
            // a misprediction as far as confidence is concerned.
            Some(PredOutcome::Correct) if exception => self.dp.punish(pc, hist),
            Some(PredOutcome::Correct) => {
                // Same distance strengthens confidence; training (rather
                // than a bare reward) also refreshes the remembered byte
                // geometry that NoSQ's shift prediction replays.
                if actual.ssn <= info.ssn_ref {
                    self.dp.train_with_geometry(
                        pc,
                        hist,
                        info.ssn_ref - actual.ssn,
                        actual.store_bab.unwrap_or(0b1111),
                        (info.addr & 3) as u8,
                    );
                } else {
                    self.dp.reward(pc, hist);
                }
            }
            Some(PredOutcome::DiffStore) => {
                if actual.ssn <= info.ssn_ref {
                    self.dp.train_with_geometry(
                        pc,
                        hist,
                        info.ssn_ref - actual.ssn,
                        actual.store_bab.unwrap_or(0b1111),
                        (info.addr & 3) as u8,
                    );
                } else {
                    self.dp.punish(pc, hist);
                }
            }
            Some(PredOutcome::IndepStore) => self.dp.punish(pc, hist),
            None => {
                // Predicted independent: a re-execution reveals a missed
                // dependence — create it (the silent-store-aware rule
                // trains even without an exception).
                if was_reexec
                    && actual.store_bab.is_some()
                    && actual.ssn > 0
                    && actual.ssn <= info.ssn_ref
                {
                    self.dp.train_with_geometry(
                        pc,
                        hist,
                        info.ssn_ref - actual.ssn,
                        actual.store_bab.unwrap_or(0b1111),
                        (info.addr & 3) as u8,
                    );
                }
            }
        }
    }
}
