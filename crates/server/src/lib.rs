#![warn(missing_docs)]
//! # dmdp-server
//!
//! The `dmdp serve` campaign daemon and its `dmdp submit` client: a
//! long-running process that keeps workload images and µop plan caches
//! resident across requests, persists every job result in a
//! content-addressed on-disk [`Store`], and dedups identical in-flight
//! jobs across concurrent clients — so a fleet of sweeps shares one
//! simulation per distinct job digest, forever.
//!
//! The store is `dmdp_harness::store`, the one `dmdp campaign` resolves
//! through too: a daemon and a campaign pointed at one directory serve
//! each other's rows and bundles. [`Store`] and [`StoreStats`] are
//! re-exported here for callers that name them through this crate.
//!
//! The wire is hand-rolled newline-delimited JSON over a unix socket,
//! the daemon's one listener, built entirely on `dmdp_harness::json` —
//! no new dependencies. Artifacts fetched through [`Client::submit`] are
//! byte-compatible with `dmdp campaign` output, so `dmdp report` works
//! on them unchanged.
//!
//! The daemon also scales out: `dmdp serve --workers N` spawns N
//! `dmdp worker` children ([`run_worker`]) and becomes their
//! coordinator, placing job groups on the least-loaded child over its
//! stdin and reading the rows back from its stdout, and requeueing the
//! work of any child that dies mid-group. Only the coordinator's own
//! children are workers, and they only execute: the coordinator resolves
//! every job and writes every row to the store, so sharded artifacts
//! stay bit-identical to single-process ones.

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod worker;

pub use client::{retry_transient, Client};
pub use daemon::{serve, ServeOptions};
pub use protocol::{Request, SubmitRequest, PROTOCOL_VERSION};
pub use dmdp_harness::store::{Store, StoreStats};
pub use worker::{run_worker, WorkerOptions};
