//! Fetch stage: follows predicted control flow, filling the decode queue.
//!
//! Control-flow classification comes from the static [`PlanCache`] — one
//! `FetchClass` lookup per instruction instead of re-matching `Op`
//! variants on every dynamic instance.

use dmdp_energy::Event;

use crate::plan::FetchClass;
use crate::rob::BranchInfo;

use super::{Fetched, Pipeline};

impl Pipeline {
    /// Fetches up to `width` instructions along the predicted path.
    /// Stops at `halt`, at a PC outside the text segment (wrong path —
    /// a recovery will redirect), or when the decode queue is full.
    pub(crate) fn fetch_stage(&mut self) {
        if self.fetch_stopped || self.cycle < self.fetch_stall_until {
            return;
        }
        let max_queue = 3 * self.cfg.width;
        for _ in 0..self.cfg.width {
            if self.decode_q.len() >= max_queue {
                break;
            }
            let pc = self.fetch_pc;
            let Some(&plan) = self.plans.get(pc) else {
                // Wrong-path fetch ran off the text segment; wait for the
                // inevitable redirect.
                self.fetch_stopped = true;
                break;
            };
            self.stats.plan.hits += 1;
            self.stats.energy.record(Event::Fetch, 1);
            self.stats.energy.record(Event::Decode, 1);
            let fetch_history = self.bp.history();
            let mut branch = None;
            let next_pc = match plan.fetch {
                FetchClass::CondBranch { target } => {
                    self.stats.energy.record(Event::PredictorRead, 1);
                    let p = self.bp.predict_cond(pc);
                    branch = Some(BranchInfo {
                        predicted_taken: p.taken,
                        predicted_target: Some(target),
                        history_before: p.history,
                    });
                    if p.taken {
                        target
                    } else {
                        pc + 1
                    }
                }
                FetchClass::Jump { target } => target,
                FetchClass::JumpLink { target } => {
                    self.bp.ras_push(pc + 1);
                    target
                }
                FetchClass::JumpInd { link } => {
                    if link {
                        self.bp.ras_push(pc + 1);
                    }
                    // Predict through the RAS, then the BTB, else fall
                    // through (and take the misprediction).
                    let predicted = if link {
                        self.bp.btb_lookup(pc)
                    } else {
                        self.bp.ras_pop().or_else(|| self.bp.btb_lookup(pc))
                    }
                    .unwrap_or(pc + 1);
                    branch = Some(BranchInfo {
                        predicted_taken: true,
                        predicted_target: Some(predicted),
                        history_before: self.bp.history(),
                    });
                    predicted
                }
                FetchClass::Halt => {
                    self.probe.on_fetch();
                    self.decode_q.push_back(Fetched {
                        pc,
                        branch: None,
                        fetch_history,
                        fetch_cycle: self.cycle,
                    });
                    self.fetch_stopped = true;
                    break;
                }
                FetchClass::Seq => pc + 1,
            };
            // Direct jumps never mispredict; record their (trivially
            // correct) target so execute can skip resolution.
            if let FetchClass::Jump { target } | FetchClass::JumpLink { target } = plan.fetch {
                branch = Some(BranchInfo {
                    predicted_taken: true,
                    predicted_target: Some(target),
                    history_before: self.bp.history(),
                });
            }
            self.probe.on_fetch();
            self.decode_q.push_back(Fetched {
                pc,
                branch,
                fetch_history,
                fetch_cycle: self.cycle,
            });
            self.fetch_pc = next_pc;
        }
    }
}
