//! Rename/dispatch: µop expansion, register renaming, and the
//! model-specific load treatment — cloaking, delaying, or predication
//! insertion (paper Figs. 7 and 8).

use dmdp_energy::Event;
use dmdp_isa::uop::{Uop, UopKind};
use dmdp_isa::{MemWidth, Reg};

use crate::config::CommModel;
use crate::plan::{InsnPlan, PlanKind};
use crate::regfile::PregId;
use crate::rob::{LoadInfo, LoadKind, SeqNum, StoreInfo, UopEntry, UopState};
use crate::srb::SrbEntry;

use super::{Fetched, Pipeline};

/// How a load will obtain its value, decided at rename.
enum LoadPlan {
    Direct,
    Cloak { ssn: u32 },
    /// NoSQ partial-word bypassing through a predicted shift-and-mask µop.
    ShiftCloak { ssn: u32, store_bab: u8, load_lo2: u8 },
    Delayed { ssn: u32, low_conf: bool },
    Predicate { ssn: u32, low_conf: bool },
    Oracle { ssn: u32, value: u32 },
}

impl Pipeline {
    /// Renames up to `width` µops from the decode queue, stopping at any
    /// resource shortage (ROB, physical registers, issue queue).
    pub(crate) fn rename_stage(&mut self) {
        let mut budget = self.cfg.width;
        while budget > 0 {
            let Some(front) = self.decode_q.front() else { break };
            let plan = *self.plans.plan(front.pc);
            let worst = self.plan_width(front, &plan);
            if worst > budget && budget < self.cfg.width {
                break; // let the group start on a fresh cycle
            }
            self.hw.note_rename(
                self.rob.len(),
                self.sched.iq_len,
                self.cfg.phys_regs - self.rf.free_count(),
                worst,
            );
            if self.rob.free() < worst
                || self.rf.free_count() < 4
                || self.sched.iq_free(self.cfg.iq_entries) < worst
            {
                break;
            }
            let f = self.decode_q.pop_front().expect("peeked entry");
            let used = self.rename_insn(&f, &plan);
            budget = budget.saturating_sub(used);
            if plan.is_halt() {
                break;
            }
        }
    }

    fn rename_insn(&mut self, f: &Fetched, plan: &InsnPlan) -> usize {
        match plan.kind {
            PlanKind::Load { width, signed, rd, base, imm } => {
                self.rename_load(f, width, signed, rd, base, imm)
            }
            PlanKind::Store { width, data, base, imm } => {
                self.rename_store(f, width, data, base, imm)
            }
            PlanKind::Simple(u) => self.rename_simple(f, u),
        }
    }

    /// Allocates the µop's ROB entry, blank but for its per-µop
    /// bookkeeping, and returns its seq; the caller fills in the rest in
    /// place.
    fn make_entry(&mut self, f: &Fetched, kind: UopKind) -> SeqNum {
        self.stats.energy.record(Event::Rename, 1);
        self.stats.energy.record(Event::Rob, 1);
        self.probe.on_renamed(self.cycle, self.rob.next_seq(), f.pc, kind, f.fetch_cycle);
        self.rob.alloc(f.pc, kind, self.cycle, f.fetch_history)
    }

    /// The live entry `seq` that rename is filling in.
    fn entry(&mut self, seq: SeqNum) -> &mut UopEntry {
        self.rob.get_mut(seq).expect("renamed µop is live")
    }

    /// Maps a logical source to its physical register, taking a consumer
    /// reference. `$0` maps to `None`.
    fn map_src(&mut self, l: Reg) -> Option<PregId> {
        if l.is_zero() {
            return None;
        }
        let p = self.rf.rat(l);
        self.rf.add_consumer(p);
        Some(p)
    }

    /// Allocates a fresh destination register for `l` and records it,
    /// with the mapping it replaces, in the entry `seq`. Returns the new
    /// register.
    fn alloc_dest(&mut self, seq: SeqNum, l: Reg) -> PregId {
        let prev = self.rf.rat(l);
        let p = self.rf.allocate(l).expect("free-list checked by rename_stage");
        let e = self.entry(seq);
        e.dest = Some(p);
        e.dest_logical = Some(l);
        e.prev_mapping = Some(prev);
        p
    }

    /// Dispatches the renamed µop `seq`, whose sources rename mapped to
    /// `src`: records them in the entry, attaches its load bookkeeping if
    /// it is the group's verifying µop, and enters it in the issue queue
    /// unless it needs no execution. `wait_for_seq` is Baseline
    /// Store-Sets ordering: the µop may not issue until that one has
    /// executed (or vanished).
    fn dispatch(
        &mut self,
        seq: SeqNum,
        src: [Option<PregId>; 2],
        load: Option<LoadInfo>,
        wait_for_seq: Option<SeqNum>,
    ) {
        self.probe.on_dispatched(self.cycle, seq);
        if let Some(info) = load {
            self.rob.attach_load(seq, info);
        }
        let e = self.entry(seq);
        e.src = src;
        if e.state != UopState::Waiting || e.retire_needs_dest_ready {
            return;
        }
        self.stats.energy.record(Event::IqWrite, 1);
        // Register on every wake condition still outstanding; the µop
        // becomes ready the moment the count hits zero.
        let pending = self.sched_register_iq(seq, src, wait_for_seq);
        let e = self.entry(seq);
        e.not_ready = pending;
        e.in_iq = true;
        self.sched.iq_len += 1;
        if pending == 0 {
            self.sched.ready.push(seq);
        }
    }

    /// Renames a single-µop instruction (ALU, branch, jump, nop, halt);
    /// `u` is the plan's precomputed µop.
    fn rename_simple(&mut self, f: &Fetched, u: Uop) -> usize {
        let seq = self.make_entry(f, u.kind);
        let srcs = u.sources();
        let src = [srcs[0].and_then(|l| self.map_src(l)), srcs[1].and_then(|l| self.map_src(l))];
        let dest = u.dest().map(|l| self.alloc_dest(seq, l));
        let e = self.entry(seq);
        e.first_of_insn = true;
        e.last_of_insn = true;
        e.imm = u.imm;
        match u.kind {
            UopKind::Branch(_) => {
                e.branch = f.branch;
            }
            UopKind::Jump { indirect, link } => {
                e.branch = f.branch;
                if !indirect {
                    // Direct jumps resolve at fetch; only the link value
                    // needs producing.
                    e.state = UopState::Done;
                    e.consumed = true;
                    if link {
                        e.value = f.pc + 1;
                        let dest = dest.expect("jal links");
                        self.rf.write(dest, f.pc + 1, self.cycle);
                    }
                }
            }
            UopKind::Nop | UopKind::Halt => {
                e.state = UopState::Done;
                e.consumed = true;
            }
            _ => {}
        }
        self.dispatch(seq, src, None, None);
        1
    }

    /// Renames a store: `AGI` + a store µop that is never dispatched in
    /// the store-queue-free models (paper Fig. 7).
    fn rename_store(
        &mut self,
        f: &Fetched,
        width: MemWidth,
        data: Reg,
        base: Reg,
        imm: i32,
    ) -> usize {
        let addr_preg = self.rename_agi(f, base, imm);
        let ssn = self.ssn_rename + 1;
        self.ssn_rename = ssn;

        let seq = self.make_entry(f, UopKind::Store { width });
        // The store reads its address and data registers (at commit in
        // the SQ-free machines, at SQ write in the baseline).
        self.rf.add_consumer(addr_preg);
        let data_preg = self.map_src(data);
        let src = [Some(addr_preg), data_preg];
        let baseline = self.cfg.comm == CommModel::Baseline;
        let e = self.entry(seq);
        e.last_of_insn = true;
        e.store = Some(StoreInfo { ssn, width, addr_preg, data_preg });

        let mut wait_for_seq = None;
        if baseline {
            wait_for_seq = self.ss.store_dispatched(f.pc, seq);
            self.sq.allocate(seq, ssn);
            self.stats.energy.record(Event::SqWrite, 1);
        } else {
            // Never issued: it executes when it commits (paper §I).
            e.state = UopState::Done;
            self.srb.insert(ssn, SrbEntry { addr_preg, data_preg, width, pc: f.pc });
        }
        self.dispatch(seq, src, None, wait_for_seq);
        2
    }

    /// Renames the address-generation µop shared by loads and stores,
    /// returning the address register.
    fn rename_agi(&mut self, f: &Fetched, base: Reg, imm: i32) -> PregId {
        let seq = self.make_entry(f, UopKind::Agi);
        let src = [self.map_src(base), None];
        let p = self.alloc_dest(seq, Reg::ADDR_TMP);
        let e = self.entry(seq);
        e.first_of_insn = true;
        e.imm = imm;
        self.dispatch(seq, src, None, None);
        p
    }

    /// Renames a load according to the communication model (paper
    /// Table I): direct access, memory cloaking, delayed execution,
    /// predication insertion, or oracle forwarding.
    fn rename_load(
        &mut self,
        f: &Fetched,
        width: MemWidth,
        signed: bool,
        rd: Option<Reg>,
        base: Reg,
        imm: i32,
    ) -> usize {
        let addr_preg = self.rename_agi(f, base, imm);
        let ssn_ref = self.ssn_rename;
        let dyn_idx = self.next_load_idx;
        self.next_load_idx += 1;

        let plan = self.plan_load(f, width, rd, ssn_ref, dyn_idx);
        let mut info = LoadInfo::new(width, signed, LoadKind::Direct, ssn_ref);
        info.history = f.fetch_history;
        info.addr_preg = Some(addr_preg);

        match plan {
            LoadPlan::Direct | LoadPlan::Delayed { .. } | LoadPlan::Oracle { .. } => {
                let seq = self.make_entry(f, UopKind::Load { width, signed });
                let mut value = 0;
                let src = match plan {
                    LoadPlan::Oracle { ssn, value: v } => {
                        info.kind = LoadKind::Oracle;
                        info.ssn_byp = Some(ssn);
                        value = v;
                        let srb_e = *self.srb.get(ssn).expect("oracle store in flight");
                        [srb_e.data_preg.inspect(|&p| self.rf.add_consumer(p)), None]
                    }
                    LoadPlan::Delayed { ssn, low_conf } => {
                        info.kind = LoadKind::Delayed;
                        info.ssn_byp = Some(ssn);
                        info.low_conf = low_conf;
                        self.rf.add_consumer(addr_preg);
                        [Some(addr_preg), None]
                    }
                    _ => {
                        self.rf.add_consumer(addr_preg);
                        [Some(addr_preg), None]
                    }
                };
                if let Some(l) = rd {
                    info.result_preg = Some(self.alloc_dest(seq, l));
                }
                let e = self.entry(seq);
                e.last_of_insn = true;
                e.value = value;
                if let LoadPlan::Delayed { ssn, .. } = plan {
                    // Parked outside the IQ: wakes on its address
                    // register's write and on `SSN_commit` reaching the
                    // predicted store.
                    e.src = src;
                    self.probe.on_dispatched(self.cycle, seq);
                    let pending = self.sched_register_delayed(seq, addr_preg, ssn);
                    self.entry(seq).not_ready = pending;
                    self.rob.attach_load(seq, info);
                    if pending == 0 {
                        self.sched.delayed_ready.push(seq);
                    }
                } else {
                    let wait_for_seq = if self.cfg.comm == CommModel::Baseline {
                        self.ss.load_dispatched(f.pc)
                    } else {
                        None
                    };
                    self.dispatch(seq, src, Some(info), wait_for_seq);
                }
                2
            }
            LoadPlan::ShiftCloak { ssn, store_bab, load_lo2 } => {
                let l = rd.expect("shift-cloak requires a destination");
                let srb_e = *self.srb.get(ssn).expect("shifted store in flight");
                let data_preg = srb_e.data_preg.expect("shift-cloak requires store data");
                let store_width = width_of_bab(store_bab);
                let store_lo2 = store_bab.trailing_zeros() as u8;
                let seq = self.make_entry(
                    f,
                    UopKind::ShiftMask {
                        store_width,
                        store_lo2,
                        load_lo2,
                        load_width: width,
                        load_signed: signed,
                    },
                );
                self.rf.add_consumer(data_preg);
                let src = [Some(data_preg), None];
                let p = self.alloc_dest(seq, l);
                let e = self.entry(seq);
                e.last_of_insn = true;
                info.kind = LoadKind::Cloaked;
                info.ssn_byp = Some(ssn);
                info.result_preg = Some(p);
                info.shift_pred = Some((store_bab, load_lo2));
                self.dispatch(seq, src, Some(info), None);
                2
            }
            LoadPlan::Cloak { ssn } => {
                let l = rd.expect("cloak requires a destination");
                let srb_e = *self.srb.get(ssn).expect("cloaked store in flight");
                let data_preg = srb_e.data_preg.expect("cloak requires store data register");
                let seq = self.make_entry(f, UopKind::Load { width, signed });
                let prev = self.rf.rat(l);
                self.rf.redefine(data_preg, Some(l));
                // The address register is read only at verification; no
                // consumer reference is needed because the next AGI's
                // retirement (younger than this group) releases it.
                let src = [Some(addr_preg), None];
                let e = self.entry(seq);
                e.last_of_insn = true;
                e.dest = Some(data_preg);
                e.dest_logical = Some(l);
                e.prev_mapping = Some(prev);
                e.consumed = true;
                e.retire_needs_dest_ready = true;
                info.kind = LoadKind::Cloaked;
                info.ssn_byp = Some(ssn);
                info.result_preg = Some(data_preg);
                self.dispatch(seq, src, Some(info), None);
                2
            }
            LoadPlan::Predicate { ssn, low_conf } => {
                let l = rd.expect("predication requires a destination");
                let srb_e = *self.srb.get(ssn).expect("predicated store in flight");
                self.stats.predication_uops += 3;
                // Seq layout: AGI(seq-1) LOAD CMP CMOVt CMOVf.
                let sink = self.rob.next_seq() + 3;

                // Cache-access half: LOAD $33, (addr).
                let ld = self.make_entry(f, UopKind::Load { width, signed });
                self.rf.add_consumer(addr_preg);
                let src = [Some(addr_preg), None];
                let pl = self.alloc_dest(ld, Reg::LOAD_TMP);
                let e = self.entry(ld);
                e.group_sink = Some(sink);
                self.dispatch(ld, src, None, None);

                // CMP $34, load_addr, store_addr.
                let cmp = self
                    .make_entry(f, UopKind::Cmp { store_width: srb_e.width, load_width: width });
                self.rf.add_consumer(addr_preg);
                self.rf.add_consumer(srb_e.addr_preg);
                let src = [Some(addr_preg), Some(srb_e.addr_preg)];
                let pp = self.alloc_dest(cmp, Reg::PRED_TMP);
                let e = self.entry(cmp);
                e.group_sink = Some(sink);
                self.dispatch(cmp, src, None, None);

                // CMOV rd, $34, store_data (predicate-true path).
                let ct = self.make_entry(
                    f,
                    UopKind::Cmov {
                        on_true: true,
                        store_width: srb_e.width,
                        load_width: width,
                        load_signed: signed,
                    },
                );
                self.rf.add_consumer(pp);
                let src = [Some(pp), srb_e.data_preg.inspect(|&p| self.rf.add_consumer(p))];
                let pd = self.alloc_dest(ct, l);
                let e = self.entry(ct);
                e.group_sink = Some(sink);
                self.dispatch(ct, src, None, None);

                // CMOV rd, !$34, $33 (predicate-false path) — shares pd.
                let cf = self.make_entry(
                    f,
                    UopKind::Cmov {
                        on_true: false,
                        store_width: srb_e.width,
                        load_width: width,
                        load_signed: signed,
                    },
                );
                debug_assert_eq!(cf, sink);
                self.rf.add_consumer(pp);
                self.rf.add_consumer(pl);
                let src = [Some(pp), Some(pl)];
                self.rf.redefine(pd, Some(l));
                let e = self.entry(cf);
                e.last_of_insn = true;
                e.dest = Some(pd);
                e.dest_logical = Some(l);
                e.prev_mapping = Some(pd);
                info.kind = LoadKind::Predicated;
                info.ssn_byp = Some(ssn);
                info.low_conf = low_conf;
                info.result_preg = Some(pd);
                self.dispatch(cf, src, Some(info), None);
                5
            }
        }
    }

    /// The model-specific rename-time decision for a load.
    fn plan_load(
        &mut self,
        f: &Fetched,
        width: MemWidth,
        rd: Option<Reg>,
        ssn_ref: u32,
        dyn_idx: u64,
    ) -> LoadPlan {
        match self.cfg.comm {
            CommModel::Baseline => LoadPlan::Direct,
            CommModel::Perfect => {
                let trace = self.oracle.as_ref().expect("perfect model has a trace");
                let Some(&ssn) = trace.last_writer_ssn.get(dyn_idx as usize) else {
                    return LoadPlan::Direct; // wrong-path overrun
                };
                if ssn == 0 || ssn <= self.ssn_commit || rd.is_none() {
                    return LoadPlan::Direct;
                }
                let Some(srb_e) = self.srb.get(ssn) else {
                    return LoadPlan::Direct;
                };
                // A word-word in-flight collision is exactly the cloaking
                // case: give Perfect the same zero-µop bypass DMDP gets.
                if width == MemWidth::Word
                    && srb_e.width == MemWidth::Word
                    && srb_e.data_preg.is_some()
                {
                    return LoadPlan::Cloak { ssn };
                }
                LoadPlan::Oracle { ssn, value: trace.load_values[dyn_idx as usize] }
            }
            CommModel::NoSq | CommModel::Dmdp => {
                self.stats.energy.record(Event::PredictorRead, 1);
                let Some(p) = self.dp.predict(f.pc, f.fetch_history) else {
                    return LoadPlan::Direct;
                };
                if p.distance >= ssn_ref && ssn_ref == 0 {
                    return LoadPlan::Direct;
                }
                let ssn = ssn_ref.saturating_sub(p.distance);
                if ssn == 0 || ssn <= self.ssn_commit {
                    return LoadPlan::Direct;
                }
                let Some(srb_e) = self.srb.get(ssn) else {
                    return LoadPlan::Direct;
                };
                let can_cloak = p.confident
                    && rd.is_some()
                    && width == MemWidth::Word
                    && srb_e.width == MemWidth::Word
                    && srb_e.data_preg.is_some();
                if can_cloak {
                    return LoadPlan::Cloak { ssn };
                }
                match self.cfg.comm {
                    CommModel::NoSq => {
                        // Confident partial-word collisions use the
                        // predicted shift-and-mask bypass (paper §IV-D's
                        // description of NoSQ); everything else delays.
                        let load_bab_ok = width.is_aligned(p.load_lo2 as u32);
                        let covered = load_bab_ok
                            && dmdp_isa::bab::covers(
                                p.store_bab,
                                dmdp_isa::bab::bab(p.load_lo2 as u32, width),
                            );
                        if p.confident
                            && covered
                            && rd.is_some()
                            && srb_e.data_preg.is_some()
                            && p.store_bab.count_ones().is_power_of_two()
                        {
                            LoadPlan::ShiftCloak {
                                ssn,
                                store_bab: p.store_bab,
                                load_lo2: p.load_lo2,
                            }
                        } else {
                            LoadPlan::Delayed { ssn, low_conf: !p.confident }
                        }
                    }
                    CommModel::Dmdp => {
                        if rd.is_none() {
                            LoadPlan::Delayed { ssn, low_conf: !p.confident }
                        } else {
                            LoadPlan::Predicate { ssn, low_conf: !p.confident }
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
    }
}

impl Pipeline {
    /// Upper bound on the µops the front instruction expands to, using a
    /// side-effect-free predictor peek so a DMDP load that will not be
    /// predicated does not reserve predication width.
    fn plan_width(&self, f: &Fetched, plan: &InsnPlan) -> usize {
        match plan.kind {
            PlanKind::Load { width, rd, .. } => {
                if self.cfg.comm != CommModel::Dmdp {
                    return 2;
                }
                // Mirror `plan_load`'s Predicate conditions exactly: an
                // underestimate here could overflow the checked ROB/PRF
                // headroom.
                let Some(p) = self.dp.peek(f.pc, f.fetch_history) else {
                    return 2;
                };
                let ssn = self.ssn_rename.saturating_sub(p.distance);
                if ssn == 0 || ssn <= self.ssn_commit || rd.is_none() {
                    return 2;
                }
                let Some(srb_e) = self.srb.get(ssn) else {
                    return 2;
                };
                let can_cloak = p.confident
                    && width == MemWidth::Word
                    && srb_e.width == MemWidth::Word
                    && srb_e.data_preg.is_some();
                if can_cloak {
                    2
                } else {
                    5
                }
            }
            PlanKind::Store { .. } => 2,
            PlanKind::Simple(_) => 1,
        }
    }
}

/// The access width a contiguous BAB encodes.
fn width_of_bab(bab: u8) -> MemWidth {
    match bab.count_ones() {
        1 => MemWidth::Byte,
        2 => MemWidth::Half,
        _ => MemWidth::Word,
    }
}


