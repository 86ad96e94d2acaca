//! The static µop plan cache (host-performance layer).
//!
//! Every dynamic instruction used to re-pay decode work fixed at program
//! load: `fetch_stage` re-matched `Op` variants to classify branches, and
//! rename re-cracked the same static instruction into its AGI/access µop
//! templates on every dynamic instance. The plan cache amortises that the
//! way a real decoded-µop cache does: one immutable [`InsnPlan`] per
//! static PC, built once per [`Program`](dmdp_isa::Program) and shared
//! (`Arc`) by every pipeline running that image — campaign runners fan a
//! single [`PlanCache`] out across all (model × variant) jobs of a
//! workload.
//!
//! The cache is a pure host-side optimisation: it precomputes exactly
//! what the `Op`-matching paths computed, so simulated timing is
//! bit-identical with it on (`tests/golden_stats.rs` gates this; the
//! exhaustive plan-vs-legacy equivalence lives in `tests/plan_cache.rs`).

use std::sync::Arc;

use dmdp_isa::uop::{self, Uop};
use dmdp_isa::{Insn, MemWidth, Op, Pc, Program, Reg};

/// Fetch-time classification of a static instruction: everything the
/// fetch stage needs to follow predicted control flow without touching
/// the `Op` enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchClass {
    /// Falls through to `pc + 1`.
    Seq,
    /// Conditional branch with its static target.
    CondBranch {
        /// Taken-path target.
        target: Pc,
    },
    /// Direct jump (`j`) — resolves at fetch, never mispredicts.
    Jump {
        /// Jump target.
        target: Pc,
    },
    /// Direct call (`jal`): pushes `pc + 1` on the RAS, then jumps.
    JumpLink {
        /// Call target.
        target: Pc,
    },
    /// Indirect jump (`jr`/`jalr`), predicted through the RAS/BTB.
    JumpInd {
        /// `jalr`: pushes the return address before predicting.
        link: bool,
    },
    /// Stops fetch.
    Halt,
}

/// Rename-time classification with the operands rename reads, so
/// `rename_insn`/`plan_width` never re-match `Op` variants or re-run the
/// µop expansion.
#[derive(Debug, Clone, Copy)]
pub enum PlanKind {
    /// Single-µop instruction, its decoded µop precomputed.
    Simple(Uop),
    /// Load: expands to `AGI` + access µop (+ a predication group under
    /// DMDP, decided dynamically at rename).
    Load {
        /// Access width.
        width: MemWidth,
        /// Sub-word sign extension.
        signed: bool,
        /// Destination register, `None` for a load to `$0`.
        rd: Option<Reg>,
        /// Address base register.
        base: Reg,
        /// Address displacement.
        imm: i32,
    },
    /// Store: expands to `AGI` + store placeholder µop.
    Store {
        /// Access width.
        width: MemWidth,
        /// Data register (may be `$0`).
        data: Reg,
        /// Address base register.
        base: Reg,
        /// Address displacement.
        imm: i32,
    },
}

/// The immutable decode plan of one static instruction.
#[derive(Debug, Clone, Copy)]
pub struct InsnPlan {
    /// Fetch-stage control-flow class.
    pub fetch: FetchClass,
    /// Rename-stage expansion class.
    pub kind: PlanKind,
}

impl InsnPlan {
    /// Builds the plan for one instruction (the one-time cost the cache
    /// amortises over every dynamic instance).
    pub fn build(insn: Insn) -> InsnPlan {
        let fetch = match insn.op {
            Op::Branch(_) => FetchClass::CondBranch { target: insn.imm as Pc },
            Op::Jump => FetchClass::Jump { target: insn.imm as Pc },
            Op::JumpAndLink => FetchClass::JumpLink { target: insn.imm as Pc },
            Op::JumpReg => FetchClass::JumpInd { link: false },
            Op::JumpAndLinkReg => FetchClass::JumpInd { link: true },
            Op::Halt => FetchClass::Halt,
            _ => FetchClass::Seq,
        };
        let kind = match insn.op {
            Op::Load { width, signed } => PlanKind::Load {
                width,
                signed,
                rd: (!insn.rd.is_zero()).then_some(insn.rd),
                base: insn.rs,
                imm: insn.imm,
            },
            Op::Store { width } => {
                PlanKind::Store { width, data: insn.rt, base: insn.rs, imm: insn.imm }
            }
            _ => PlanKind::Simple(uop::expand(insn).as_slice()[0]),
        };
        InsnPlan { fetch, kind }
    }

    /// Whether fetch must stop at this instruction.
    #[inline]
    pub fn is_halt(&self) -> bool {
        matches!(self.fetch, FetchClass::Halt)
    }

    /// The static µop count of the expansion (DMDP predication may widen
    /// a load to 5 dynamically; that decision stays in rename).
    #[inline]
    pub fn min_width(&self) -> usize {
        match self.kind {
            PlanKind::Simple(_) => 1,
            PlanKind::Load { .. } | PlanKind::Store { .. } => 2,
        }
    }
}

/// Per-[`Program`] plan table: one [`InsnPlan`] per static PC, addressed
/// exactly like [`Program::fetch`] (instruction "addresses" are text
/// indices).
#[derive(Debug)]
pub struct PlanCache {
    plans: Box<[InsnPlan]>,
}

impl PlanCache {
    /// Builds the full table eagerly (plans are tiny; every PC of a
    /// halting program is decoded at least once anyway).
    pub fn build(program: &Program) -> PlanCache {
        PlanCache { plans: program.text().iter().map(|&i| InsnPlan::build(i)).collect() }
    }

    /// [`PlanCache::build`] wrapped for sharing across pipelines.
    pub fn shared(program: &Program) -> Arc<PlanCache> {
        Arc::new(PlanCache::build(program))
    }

    /// The plan at `pc`, or `None` past the end of text (wrong-path
    /// fetch).
    #[inline]
    pub fn get(&self, pc: Pc) -> Option<&InsnPlan> {
        self.plans.get(pc as usize)
    }

    /// The plan at a PC known to be inside the text segment (anything
    /// the fetch stage enqueued).
    ///
    /// # Panics
    ///
    /// Panics if `pc` is outside the text segment.
    #[inline]
    pub fn plan(&self, pc: Pc) -> &InsnPlan {
        &self.plans[pc as usize]
    }

    /// Number of static plans (== program length).
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the program had no text.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmdp_isa::uop::UopKind;

    #[test]
    fn plans_cover_every_pc_and_classify_memory_ops() {
        let p = dmdp_isa::asm::assemble(
            r#"
                .data
            x:  .word 7
                .text
                lui  $8, %hi(x)
                ori  $8, $8, %lo(x)
                lw   $9, 0($8)
                sb   $9, 2($8)
                beq  $9, $0, 6
                j    6
                halt
            "#,
        )
        .unwrap();
        let cache = PlanCache::build(&p);
        assert_eq!(cache.len(), p.len());
        assert!(!cache.is_empty());
        assert!(cache.get(p.len() as Pc).is_none());

        let lw = cache.plan(2);
        assert_eq!(lw.fetch, FetchClass::Seq);
        assert_eq!(lw.min_width(), 2);
        match lw.kind {
            PlanKind::Load { width, rd, base, imm, .. } => {
                assert_eq!(width, MemWidth::Word);
                assert_eq!(rd, Some(Reg::new(9)));
                assert_eq!(base, Reg::new(8));
                assert_eq!(imm, 0);
            }
            other => panic!("lw plan is {other:?}"),
        }
        match cache.plan(3).kind {
            PlanKind::Store { width, data, base, imm } => {
                assert_eq!(width, MemWidth::Byte);
                assert_eq!(data, Reg::new(9));
                assert_eq!(base, Reg::new(8));
                assert_eq!(imm, 2);
            }
            other => panic!("sb plan is {other:?}"),
        }
        assert_eq!(cache.plan(4).fetch, FetchClass::CondBranch { target: 6 });
        assert_eq!(cache.plan(5).fetch, FetchClass::Jump { target: 6 });
        assert!(cache.plan(6).is_halt());
        match cache.plan(0).kind {
            PlanKind::Simple(u) => assert!(matches!(u.kind, UopKind::Alu(_))),
            other => panic!("lui plan is {other:?}"),
        }
    }

    #[test]
    fn load_to_zero_register_has_no_dest() {
        let p = dmdp_isa::asm::assemble("lw $0, 0($1)\nhalt").unwrap();
        match PlanCache::build(&p).plan(0).kind {
            PlanKind::Load { rd, .. } => assert_eq!(rd, None),
            other => panic!("{other:?}"),
        }
    }
}
