//! The heaviest correctness hammer in the repository: generate random
//! structured programs — counted loops, data-dependent hammocks, loads
//! and stores of every width into a shared arena — and run each one under
//! all four communication models with lock-step functional checking.
//! Any renaming, forwarding, predication, verification or recovery bug
//! shows up as an architectural divergence here.
//!
//! Program shapes are drawn from the deterministic
//! [`dmdp_prng::Prng`] stream, so a failing case reproduces exactly
//! from its printed listing.

use std::sync::Arc;

use dmdp_core::{BatchSimulator, CommModel, CoreConfig, PlanCache, Simulator};
use dmdp_isa::{Insn, MemWidth, Program, ProgramBuilder, Reg};
use dmdp_prng::Prng;

const ARENA: u32 = 0x0001_0000;
const ARENA_WORDS: u32 = 32;

/// One random body operation. Offsets are expressed in arena slots so
/// every access is naturally aligned.
#[derive(Debug, Clone)]
enum OpG {
    Alu { rd: u8, rs: u8, rt: u8, kind: u8 },
    AluImm { rd: u8, rs: u8, imm: i16, kind: u8 },
    Load { rd: u8, slot: u8, width: u8, signed: bool },
    Store { rs: u8, slot: u8, width: u8 },
    /// A data-dependent forward skip over the next instruction.
    Hammock { rs: u8 },
}

fn arb_op(r: &mut Prng) -> OpG {
    let reg = |r: &mut Prng| 1 + r.below(11) as u8;
    // Weights 3:3:3:3:1, matching the original generator's distribution.
    match r.below(13) {
        0..=2 => OpG::Alu { rd: reg(r), rs: reg(r), rt: reg(r), kind: r.below(6) as u8 },
        3..=5 => OpG::AluImm {
            rd: reg(r),
            rs: reg(r),
            imm: r.range_i32(i16::MIN as i32, i16::MAX as i32) as i16,
            kind: r.below(4) as u8,
        },
        6..=8 => OpG::Load {
            rd: reg(r),
            slot: r.below(ARENA_WORDS) as u8,
            width: r.below(3) as u8,
            signed: r.flip(),
        },
        9..=11 => OpG::Store {
            rs: reg(r),
            slot: r.below(ARENA_WORDS) as u8,
            width: r.below(3) as u8,
        },
        _ => OpG::Hammock { rs: reg(r) },
    }
}

fn emit(b: &mut ProgramBuilder, op: &OpG) {
    let r = |i: u8| Reg::new(i);
    match *op {
        OpG::Alu { rd, rs, rt, kind } => {
            let i = match kind {
                0 => Insn::add(r(rd), r(rs), r(rt)),
                1 => Insn::sub(r(rd), r(rs), r(rt)),
                2 => Insn::xor(r(rd), r(rs), r(rt)),
                3 => Insn::and(r(rd), r(rs), r(rt)),
                4 => Insn::slt(r(rd), r(rs), r(rt)),
                _ => Insn::mul(r(rd), r(rs), r(rt)),
            };
            b.push(i);
        }
        OpG::AluImm { rd, rs, imm, kind } => {
            let i = match kind {
                0 => Insn::addi(r(rd), r(rs), imm as i32),
                1 => Insn::xori(r(rd), r(rs), (imm as u16) as i32),
                2 => Insn::andi(r(rd), r(rs), (imm as u16) as i32),
                _ => Insn::sll(r(rd), r(rs), (imm as i32).rem_euclid(31)),
            };
            b.push(i);
        }
        OpG::Load { rd, slot, width, signed } => {
            let addr = (ARENA + (slot as u32 % ARENA_WORDS) * 4) as i32;
            let i = match width {
                0 => Insn::load(r(rd), Reg::ZERO, addr, MemWidth::Byte, signed),
                1 => Insn::load(r(rd), Reg::ZERO, addr, MemWidth::Half, signed),
                _ => Insn::lw(r(rd), Reg::ZERO, addr),
            };
            b.push(i);
        }
        OpG::Store { rs, slot, width } => {
            let addr = (ARENA + (slot as u32 % ARENA_WORDS) * 4) as i32;
            let i = match width {
                0 => Insn::sb(r(rs), Reg::ZERO, addr),
                1 => Insn::sh(r(rs), Reg::ZERO, addr),
                _ => Insn::sw(r(rs), Reg::ZERO, addr),
            };
            b.push(i);
        }
        OpG::Hammock { rs } => {
            let skip = b.reserve();
            b.push(Insn::addi(Reg::new(13), Reg::new(13), 1));
            let target = b.here();
            b.patch(skip, Insn::bgtz(r(rs), target));
        }
    }
}

/// Builds a program: initialize registers, then run the body in a
/// counted loop, then checksum the arena.
fn build_program(body: &[OpG], trips: u8) -> Program {
    let mut b = ProgramBuilder::new("random");
    b.data_space((ARENA_WORDS * 4) as usize);
    for i in 1..14u8 {
        b.push(Insn::li(Reg::new(i), i as i32 * 7 - 40));
    }
    let counter = Reg::new(20);
    b.push(Insn::li(counter, trips as i32));
    let top = b.here();
    for op in body {
        emit(&mut b, op);
    }
    b.push(Insn::addi(counter, counter, -1));
    b.push(Insn::bgtz(counter, top));
    // Checksum sweep so every stored byte feeds the final state.
    let acc = Reg::new(21);
    let idx = Reg::new(22);
    b.push(Insn::li(idx, 0));
    let sweep = b.here();
    b.push(Insn::lw(Reg::new(23), idx, ARENA as i32));
    b.push(Insn::add(acc, acc, Reg::new(23)));
    b.push(Insn::addi(idx, idx, 4));
    b.push(Insn::slti(Reg::new(24), idx, (ARENA_WORDS * 4) as i32));
    b.push(Insn::bgtz(Reg::new(24), sweep));
    b.push(Insn::sw(acc, Reg::ZERO, ARENA as i32));
    b.push(Insn::halt());
    b.build()
}

fn arb_body(r: &mut Prng, min: usize, max: usize) -> Vec<OpG> {
    let n = min + r.index(max - min);
    (0..n).map(|_| arb_op(r)).collect()
}

#[test]
fn random_programs_are_architecturally_exact_under_every_model() {
    let mut r = Prng::new(0xC0DE_0001);
    for _ in 0..24 {
        let body = arb_body(&mut r, 4, 40);
        let trips = 3 + r.below(21) as u8;
        let program = build_program(&body, trips);
        for model in CommModel::ALL {
            let mut cfg = CoreConfig::new(model);
            cfg.max_cycles = 3_000_000;
            Simulator::with_config(cfg)
                .run_checked(&program)
                .unwrap_or_else(|e| panic!("{model:?}: {e}\n{}", program.listing()));
        }
    }
}

#[test]
fn random_programs_survive_stressed_geometries() {
    let mut r = Prng::new(0xC0DE_0002);
    for _ in 0..24 {
        let body = arb_body(&mut r, 4, 24);
        let trips = 3 + r.below(13) as u8;
        // Tiny structures force every backpressure path: ROB/PRF/IQ
        // stalls, store-buffer-full retire stalls, predication width
        // overflow handling.
        let program = build_program(&body, trips);
        for model in CommModel::ALL {
            let mut cfg = CoreConfig::new(model);
            cfg.rob_entries = 24;
            cfg.phys_regs = Reg::NUM_LOGICAL + 5 * cfg.width + 8;
            cfg.iq_entries = 12;
            cfg.store_buffer_entries = 2;
            cfg.max_cycles = 3_000_000;
            Simulator::with_config(cfg)
                .run_checked(&program)
                .unwrap_or_else(|e| panic!("{model:?} stressed: {e}\n{}", program.listing()));
        }
    }
}

/// Derivation, a batch lane's statistics copied from a finished run that
/// provably never bound it, must equal simulation bit for bit. Per random
/// program and model, one batch holds one roomy lane, lanes whose PRF
/// differs from the roomy lane's yet clears its demand (so their
/// `min_free_pregs` must be shifted), and random sizing lanes; every lane
/// must equal a solo run of its configuration.
#[test]
fn derived_lanes_equal_simulated_lanes_on_random_programs() {
    let mut r = Prng::new(0xC0DE_0003);
    let mut derived = 0;
    for _ in 0..16 {
        let body = arb_body(&mut r, 4, 40);
        let trips = 3 + r.below(21) as u8;
        let program = Arc::new(build_program(&body, trips));
        let plans = PlanCache::shared(&program);
        let solo = |cfg: &CoreConfig| {
            Simulator::with_config(cfg.clone()).run_planned(&program, &plans).map(|rep| rep.stats)
        };
        for model in CommModel::ALL {
            let base = CoreConfig { max_cycles: 3_000_000, ..CoreConfig::new(model) };
            let min_regs = Reg::NUM_LOGICAL + 5 * base.width;
            let roomy = CoreConfig {
                rob_entries: 512,
                phys_regs: 640,
                iq_entries: 256,
                store_buffer_entries: 64,
                ..base.clone()
            };
            // The roomy run's register high-water bounds its PRF demand,
            // so every PRF from `need` up clears it.
            let roomy_stats = solo(&roomy).expect("roomy lane halts");
            let high_water = roomy.phys_regs - roomy_stats.min_free_pregs;
            let need = (high_water + 4).max(min_regs);
            let mut lanes = vec![roomy.clone()];
            for phys_regs in [need, (need + roomy.phys_regs) / 2] {
                lanes.push(CoreConfig { phys_regs, ..roomy.clone() });
            }
            // Random sizes from the valid range, no roomier than `roomy`.
            for _ in 0..3 {
                lanes.push(CoreConfig {
                    rob_entries: 2 * base.width + r.index(513 - 2 * base.width),
                    phys_regs: min_regs + r.index(641 - min_regs),
                    iq_entries: base.width + r.index(257 - base.width),
                    store_buffer_entries: 1 + r.index(64),
                    ..base.clone()
                });
            }
            let mut batch = BatchSimulator::new(Arc::clone(&program), Arc::clone(&plans));
            lanes.iter().for_each(|cfg| batch.push(cfg.clone()));
            let run = batch.run_detailed();
            derived += run.derived;
            for (cfg, got) in lanes.iter().zip(&run.results) {
                let (rob, prf, iq, sb) =
                    (cfg.rob_entries, cfg.phys_regs, cfg.iq_entries, cfg.store_buffer_entries);
                assert_eq!(
                    got,
                    &solo(cfg),
                    "{model:?} rob={rob} prf={prf} iq={iq} sb={sb}\n{}",
                    program.listing()
                );
            }
        }
    }
    assert!(derived > 0, "no lane was derived");
}
