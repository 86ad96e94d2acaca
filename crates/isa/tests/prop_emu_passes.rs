//! Property tests for the emulator's passes: `run_with_trace_insns`,
//! `capture_checkpoints` and `profile_intervals` must each agree with a
//! model driven one instruction at a time through `Emulator::step`, on
//! seeded random programs.
//!
//! The programs load and store every width on both sides of page
//! boundaries — at both ends of the 32-bit address space and across a
//! page-directory table boundary — and take forward branches, jumps,
//! calls and a loop back-edge. The models keep their state in
//! `BTreeMap`s keyed by byte, line and PC.

use std::collections::{BTreeMap, VecDeque};

use dmdp_isa::checkpoint::{dep_bucket, IntervalFeatures, LOC_LINE_BYTES};
use dmdp_isa::{
    Addr, Emulator, Insn, MemWidth, Pc, Program, ProgramBuilder, Reg, StepOutcome, StopReason,
};
use dmdp_prng::Prng;

/// Page boundaries the accesses straddle: the bottom of memory (whose
/// negative offsets wrap to the top page), the data segment, the first
/// page of the second page-directory table, and the top page.
const EDGES: [Addr; 6] = [0, 0x1000, 0x2000, 0x0001_0000, 0x0040_0000, 0xFFFF_F000];
const WIDTHS: [MemWidth; 3] = [MemWidth::Byte, MemWidth::Half, MemWidth::Word];
/// Base registers, one per edge.
const BASES: [u8; 6] = [8, 9, 10, 11, 12, 13];
/// Registers the program computes with and loads into.
const DATA: [u8; 6] = [1, 2, 3, 4, 5, 6];
const COUNTER: u8 = 20;
const CALL_TARGET: u8 = 21;

fn reg(i: u8) -> Reg {
    Reg::new(i)
}

fn pick(r: &mut Prng, regs: &[u8]) -> Reg {
    reg(regs[r.index(regs.len())])
}

/// A naturally aligned load or store within 8 bytes of a base's edge.
fn mem_op(r: &mut Prng) -> Insn {
    let width = WIDTHS[r.index(3)];
    let offset = r.range_i32(-8, 7) & !(width.bytes() as i32 - 1);
    let base = pick(r, &BASES);
    if r.flip() {
        Insn::store(pick(r, &DATA), base, offset, width)
    } else {
        Insn::load(pick(r, &DATA), base, offset, width, r.flip())
    }
}

/// A straight-line instruction: mostly memory operations, some ALU work
/// on the data registers, and now and then a base register drifting by
/// a word or a line.
fn plain(r: &mut Prng) -> Insn {
    match r.below(10) {
        0..=5 => mem_op(r),
        6 => Insn::add(pick(r, &DATA), pick(r, &DATA), pick(r, &DATA)),
        7 => Insn::xori(pick(r, &DATA), pick(r, &DATA), r.range_i32(-64, 63)),
        8 => {
            let base = pick(r, &BASES);
            Insn::addi(base, base, [4, -4, 64, -64][r.index(4)])
        }
        _ => Insn::nop(),
    }
}

/// A random halting program: a prologue setting the bases and data, a
/// loop of 1–4 iterations over a body of memory operations with forward
/// branches, jumps and calls, `halt`, and the called subroutine.
fn arb_program(r: &mut Prng, id: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("prop-{id}"));
    let words: Vec<u32> = (0..8).map(|_| r.next_u32()).collect();
    b.data_words(&words);
    for (&base, &edge) in BASES.iter().zip(&EDGES) {
        b.load_addr(reg(base), edge);
    }
    for &d in &DATA {
        b.push(Insn::li(reg(d), r.range_i32(-40_000, 40_000)));
    }
    b.push(Insn::li(reg(COUNTER), 1 + r.below(4) as i32));
    let call_target = b.reserve();
    let top = b.here();
    // (slot, kind) of each control transfer to patch once the layout is
    // known: 0 = branch, 1 = jump, 2 = call.
    let mut patches: Vec<(Pc, u32)> = Vec::new();
    for _ in 0..8 + r.index(40) {
        match r.below(12) {
            0 => patches.push((b.reserve(), 0)),
            1 => patches.push((b.reserve(), 1)),
            2 => patches.push((b.reserve(), 2)),
            3 => {
                b.push(Insn::jalr(Reg::RA, reg(CALL_TARGET)));
            }
            _ => {
                b.push(plain(r));
            }
        }
    }
    let latch = b.push(Insn::addi(reg(COUNTER), reg(COUNTER), -1));
    b.push(Insn::bgtz(reg(COUNTER), top));
    b.push(Insn::halt());
    let sub = b.here();
    for _ in 0..1 + r.index(6) {
        b.push(mem_op(r));
    }
    b.push(Insn::jr(Reg::RA));
    b.patch(call_target, Insn::li(reg(CALL_TARGET), sub as i32));
    for (at, kind) in patches {
        // Forward, and never past the loop latch.
        let target = (at + 2 + r.below(3)).min(latch);
        let insn = match kind {
            0 if r.flip() => Insn::beq(pick(r, &DATA), pick(r, &DATA), target),
            0 => Insn::bne(pick(r, &DATA), pick(r, &DATA), target),
            1 => Insn::j(target),
            _ => Insn::jal(sub),
        };
        b.patch(at, insn);
    }
    b.build()
}

/// Per-byte last-writer model: SSN of the youngest store to each byte.
#[derive(Default)]
struct WriterModel {
    bytes: BTreeMap<Addr, u32>,
    stores: u32,
}

impl WriterModel {
    fn store(&mut self, addr: Addr, width: MemWidth) {
        self.stores += 1;
        for i in 0..width.bytes() {
            self.bytes.insert(addr + i, self.stores);
        }
    }

    fn youngest(&self, addr: Addr, width: MemWidth) -> u32 {
        (0..width.bytes()).map(|i| self.bytes.get(&(addr + i)).copied().unwrap_or(0)).max().unwrap()
    }
}

fn programs(seed: u64, n: usize) -> impl Iterator<Item = (Prng, Program)> {
    let mut r = Prng::new(seed);
    (0..n).map(move |id| {
        let p = arb_program(&mut r, id);
        (Prng::new(r.next_u64()), p)
    })
}

fn retired_total(p: &Program) -> u64 {
    Emulator::new(p).run(1_000_000).expect("generated programs halt").retired
}

#[test]
fn oracle_trace_matches_a_byte_model() {
    let mut windows = 0;
    for (mut r, p) in programs(0x0E3A_7001, 200) {
        let total = retired_total(&p);
        // The whole run, then a window from a random point (the sampled
        // Perfect model traces one interval from a checkpoint), which
        // may run past the halt.
        for (skip, n) in [(0, u64::MAX), (r.below(total as u32) as u64, 1 + r.below(200) as u64)] {
            let mut fast = Emulator::new(&p);
            fast.run_insns(skip).unwrap();
            let (trace, stop) = fast.run_with_trace_insns(n).unwrap();

            let mut slow = Emulator::new(&p);
            slow.run_insns(skip).unwrap();
            let mut model = WriterModel::default();
            let (mut ssns, mut values) = (Vec::new(), Vec::new());
            let mut want_stop = StopReason::BudgetExhausted;
            for _ in 0..n.min(total) {
                match slow.step().unwrap() {
                    StepOutcome::Halted => {
                        want_stop = StopReason::Halted;
                        break;
                    }
                    StepOutcome::Retired(ev) => {
                        let Some(m) = ev.mem else { continue };
                        let width = ev.insn.mem_width().unwrap();
                        if m.is_store {
                            model.store(m.addr, width);
                        } else {
                            ssns.push(model.youngest(m.addr, width));
                            values.push(m.value);
                        }
                    }
                }
            }
            if slow.is_halted() {
                want_stop = StopReason::Halted;
            }
            assert_eq!(trace.last_writer_ssn, ssns, "{}: skip {skip}, {n} insns", p.name());
            assert_eq!(trace.load_values, values, "{}: skip {skip}", p.name());
            assert_eq!(trace.store_count, model.stores, "{}: skip {skip}", p.name());
            assert_eq!(stop, want_stop, "{}: skip {skip}, {n} insns", p.name());
            assert_eq!(fast.stats(), slow.stats(), "{}", p.name());
            windows += 1;
        }
    }
    assert_eq!(windows, 400);
}

#[test]
fn checkpoints_match_a_run_then_checkpoint() {
    let mut captured = 0;
    for (mut r, p) in programs(0x0E3A_7002, 120) {
        let total = retired_total(&p);
        let mut boundaries: Vec<u64> =
            (0..1 + r.index(6)).map(|_| r.below(total as u32 + 1) as u64).collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        let cap = [1, 3, 16, 4096][r.index(4)];
        let ckpts = Emulator::new(&p).capture_checkpoints(&boundaries, cap).unwrap();
        assert_eq!(ckpts.len(), boundaries.len());

        // The warming hints, from `step`: per-line recency and the last
        // `cap` conditional branches.
        let mut model = Emulator::new(&p);
        let mut recency: BTreeMap<u32, u64> = BTreeMap::new();
        let mut accesses = 0u64;
        let mut branches: VecDeque<(Pc, Pc)> = VecDeque::new();
        for (&b, got) in boundaries.iter().zip(&ckpts) {
            let mut want = Emulator::new(&p);
            want.run_insns(b).unwrap();
            let want = want.checkpoint();
            assert_eq!(got.pc, want.pc, "{}: boundary {b}", p.name());
            assert_eq!(got.regs, want.regs, "{}: boundary {b}", p.name());
            assert_eq!(got.pages, want.pages, "{}: boundary {b}", p.name());
            assert_eq!(got.result, want.result, "{}: boundary {b}", p.name());

            while model.stats().retired < b {
                let StepOutcome::Retired(ev) = model.step().unwrap() else {
                    break;
                };
                if let Some(m) = ev.mem {
                    accesses += 1;
                    recency.insert(m.addr / LOC_LINE_BYTES, accesses);
                }
                if matches!(ev.insn.op, dmdp_isa::Op::Branch(_)) {
                    if branches.len() == cap {
                        branches.pop_front();
                    }
                    branches.push_back((ev.pc, ev.next_pc));
                }
            }
            let mut lines: Vec<(u64, u32)> = recency.iter().map(|(&l, &s)| (s, l)).collect();
            lines.sort_unstable();
            let lru: Vec<u32> = lines.iter().rev().take(cap).rev().map(|&(_, l)| l).collect();
            assert_eq!(got.warm_lines, lru, "{}: boundary {b}, cap {cap}", p.name());
            assert_eq!(
                got.warm_branches,
                Vec::from(branches.clone()),
                "{}: boundary {b}",
                p.name()
            );
            captured += 1;
        }
    }
    assert!(captured > 200, "{captured} checkpoints");
}

/// The original profiling algorithm over `step`, with its counters in
/// `BTreeMap`s.
fn profile_model(p: &Program, interval: u64) -> Vec<IntervalFeatures> {
    let mut out = Vec::new();
    let mut cur = IntervalFeatures::default();
    let mut bb: BTreeMap<Pc, u32> = BTreeMap::new();
    let mut writers = WriterModel::default();
    let mut stamps: BTreeMap<u32, usize> = BTreeMap::new();
    *bb.entry(p.entry()).or_default() += 1;
    let flush = |cur: &mut IntervalFeatures, bb: &mut BTreeMap<Pc, u32>, out: &mut Vec<_>| {
        cur.bb_counts = std::mem::take(bb).into_iter().collect();
        out.push(std::mem::take(cur));
    };
    let mut e = Emulator::new(p);
    loop {
        cur.insns += 1;
        let StepOutcome::Retired(ev) = e.step().unwrap() else {
            flush(&mut cur, &mut bb, &mut out);
            return out;
        };
        if let Some(m) = ev.mem {
            let width = ev.insn.mem_width().unwrap();
            if m.is_store {
                writers.store(m.addr, width);
            } else {
                let ssn = writers.youngest(m.addr, width);
                cur.dep_buckets[dep_bucket(ssn, writers.stores)] += 1;
            }
            let last = stamps.insert(m.addr / LOC_LINE_BYTES, out.len());
            cur.new_lines += u32::from(last.is_none());
            cur.touched_lines += u32::from(last != Some(out.len()));
        }
        if ev.next_pc != ev.pc + 1 {
            *bb.entry(ev.next_pc).or_default() += 1;
        }
        if cur.insns == interval {
            flush(&mut cur, &mut bb, &mut out);
            *bb.entry(e.pc()).or_default() += 1;
        }
    }
}

#[test]
fn profile_matches_a_step_model() {
    for (mut r, p) in programs(0x0E3A_7003, 150) {
        let total = retired_total(&p);
        let interval = [1, 7, 64, 1 + r.below(total as u32) as u64, total, total + 5][r.index(6)];
        let profile = Emulator::new(&p).profile_intervals(interval, total).unwrap();
        let want = profile_model(&p, interval);
        assert_eq!(profile.intervals.len(), want.len(), "{}: interval {interval}", p.name());
        for (i, (got, want)) in profile.intervals.iter().zip(&want).enumerate() {
            let at = format!("{}: interval {interval}, #{i}", p.name());
            assert_eq!(got.insns, want.insns, "{at}");
            assert_eq!(got.bb_counts, want.bb_counts, "{at}");
            assert_eq!(got.dep_buckets, want.dep_buckets, "{at}");
            assert_eq!(got.new_lines, want.new_lines, "{at}");
            assert_eq!(got.touched_lines, want.touched_lines, "{at}");
        }
        assert_eq!(profile.result.retired, total);
        // One instruction short of the halt is a named budget error.
        let short = Emulator::new(&p).profile_intervals(interval, total - 1);
        assert_eq!(short.unwrap_err(), dmdp_isa::EmuError::StepLimit { limit: total - 1 });
    }
}
