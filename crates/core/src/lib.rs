#![warn(missing_docs)]
//! # dmdp-core
//!
//! The out-of-order core and store-load communication models of the DMDP
//! reproduction (Jin & Önder, *Dynamic Memory Dependence Predication*,
//! ISCA 2018).
//!
//! One cycle-level 8-wide pipeline — fetch, decode/µop-expansion, rename,
//! issue, execute, writeback, retire, commit — hosts four interchangeable
//! store-load communication mechanisms ([`CommModel`]):
//!
//! * **Baseline**: a conventional associatively-searched store queue with
//!   Store-Sets dependence prediction,
//! * **NoSQ**: store-queue-free memory cloaking with *delayed* execution
//!   of low-confidence loads,
//! * **DMDP** *(the paper's contribution)*: store-queue-free with dynamic
//!   **memory dependence predication** — low-confidence loads are
//!   expanded at rename into a cache access, a `CMP` of the predicted
//!   store's address register against the load's, and a pair of `CMOV`s
//!   selecting the correct value,
//! * **Perfect**: an oracle dependence predictor (limit study).
//!
//! The paper's supporting mechanisms are all here: address-generation
//! µops with dedicated address registers (no load queue), SSN tracking,
//! T-SSBF + Store Vulnerability Window verification at retire, load
//! re-execution gated on store-buffer drain, physical-register reference
//! counting with producer/consumer counters, biased confidence updates,
//! silent-store-aware predictor training, and partial-word forwarding
//! through the predicate.
//!
//! Entry point: [`Simulator`].
//!
//! ```
//! use dmdp_core::{CommModel, Simulator};
//! use dmdp_isa::asm;
//! let p = asm::assemble("li $1, 41\naddi $1, $1, 1\nhalt")?;
//! let r = Simulator::new(CommModel::Baseline).run(&p)?;
//! assert_eq!(r.stats.retired_insns, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod batch;
mod config;
mod pipeline;
/// The static µop plan cache: per-PC decode plans built once per program
/// and shared across every pipeline running it (host-side speed only —
/// simulated timing is bit-identical with the cache on).
pub mod plan;
/// The pipeline probe layer: per-µop stage tracing and windowed
/// time-series sampling, zero-cost when no sink is attached.
pub mod probe;
/// The physical register file with the paper's producer/consumer
/// reference-counting release protocol (§IV-B a).
pub mod regfile;
mod rob;
mod sim;
/// The Store Register Buffer: SSN → (address, data) physical registers of
/// every in-flight store (paper Fig. 6).
pub mod srb;
mod stats;

pub use batch::{BatchRun, BatchSimulator};
pub use config::{CommModel, CoreConfig, SIM_VERSION};
/// The distance predictor's confidence-update policy, as set in
/// [`CoreConfig::distance`].
pub use dmdp_predict::ConfidencePolicy;
pub use pipeline::{Pipeline, SimError};
pub use plan::{FetchClass, InsnPlan, PlanCache, PlanKind};
pub use probe::{Probe, ProbeReport, Sample};
pub use sim::{IntervalRun, SimReport, Simulator};
pub use stats::{LowConfBreakdown, PlanStats, SchedStats, SimStats};
