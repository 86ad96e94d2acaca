#![warn(missing_docs)]
//! # dmdp-harness
//!
//! The experiment-campaign engine: builds a job list of (workload ×
//! communication model × configuration variant) simulations, executes it
//! on a work-stealing `std::thread` pool — every [`dmdp_core::Simulator`]
//! run is independent and deterministic, so parallel and serial
//! executions are bit-identical — and collects the results into a
//! [`Campaign`] with per-job wall-clock, simulated-MIPS throughput and
//! per-suite geometric means.
//!
//! Campaigns serialize to human-diffable JSON artifacts
//! (`bench-results/<campaign>.json`) through a hand-rolled, offline
//! writer and reader ([`json`] — no serde) that rows and campaigns use
//! directly, without building a [`Json`] tree. Every job carries a
//! content digest over the simulator's timing version, the full core
//! configuration and the assembled workload image. A campaign resolves
//! its jobs through a content-addressed result [`store`], the same one
//! `dmdp serve` keeps: a row any earlier campaign or daemon stored there
//! is reused and a sampled bundle is read from its blob, so an unchanged
//! campaign re-runs **zero** simulations and profiles no workload.
//!
//! Used by the `dmdp campaign` CLI subcommand, and by `dmdp report
//! --figure`: every table and figure of the paper's evaluation is a view
//! ([`figures`]) over the rows of one campaign artifact, each cell found
//! by its job digest.
//!
//! # Example
//!
//! ```
//! use dmdp_harness::{CampaignSpec, RunOptions};
//! use dmdp_core::CommModel;
//! use dmdp_workloads::{Scale, Suite};
//!
//! let campaign = CampaignSpec::new("demo", Scale::Test)
//!     .models([CommModel::NoSq, CommModel::Dmdp])
//!     .kernels(["hmmer"])
//!     .run(&RunOptions { jobs: 2, ..RunOptions::default() })
//!     .unwrap();
//! let nosq = campaign.get("hmmer", CommModel::NoSq).unwrap();
//! let dmdp = campaign.get("hmmer", CommModel::Dmdp).unwrap();
//! assert!(nosq.ipc > 0.0 && dmdp.ipc > 0.0);
//! ```

pub mod digest;
pub mod figures;
pub mod json;
pub mod pool;
pub mod report;
pub mod store;

mod campaign;
mod group;
mod job;
mod sampled;

pub use campaign::{Campaign, CampaignSpec, RunOptions, StageWall};
pub use digest::Digest64;
pub use figures::render_figure;
pub use group::{partition_units, resolve, Inflight, Outcome, Resolve, Source};
pub use job::{CfgPatch, FigureCounters, FigureText, JobResult, JobSpec, PlannedImage, ResidentImages, WorkloadImage};
pub use sampled::{build_bundle, Sampling, SamplingSpec};
pub use json::{Field, Json, Parser, Writer};
pub use pool::{default_workers, map_ordered};
pub use report::{error_table, render_campaign, render_error_table, ErrorRow, ErrorTable};
