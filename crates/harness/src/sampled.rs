//! Harness-side glue for sampled simulation: the campaign/daemon-facing
//! sampling configuration, bundle construction with observability, and
//! the digest key under which a bundle is shared.
//!
//! A [`dmdp_sample::SampledBundle`] is model- and
//! configuration-independent, so one bundle (profile + clustering +
//! checkpoints) serves every (model × variant) job of a workload —
//! campaigns build it once per workload, the daemon additionally
//! persists it in the content-addressed store keyed by
//! [`Sampling::bundle_digest`] and shares it across requests and
//! restarts.

use std::sync::Arc;
use std::time::Instant;

use dmdp_isa::Program;
use dmdp_sample::{SampleParams, SampledBundle};

use crate::digest::Digest64;

/// Process-wide sampled-simulation metrics: a few relaxed atomic adds
/// per bundle build / sampled job, never inside simulator loops.
pub(crate) struct SampledMetrics {
    pub intervals_profiled: &'static dmdp_obs::Counter,
    pub intervals_simulated: &'static dmdp_obs::Counter,
    pub checkpoint_bytes: &'static dmdp_obs::Counter,
    pub bundle_builds: &'static dmdp_obs::Counter,
    pub ff_mips: &'static dmdp_obs::LogHistogram,
}

pub(crate) fn sampled_metrics() -> &'static SampledMetrics {
    static METRICS: std::sync::OnceLock<SampledMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = dmdp_obs::registry();
        SampledMetrics {
            intervals_profiled: r.counter(
                "dmdp_sampled_intervals_profiled_total",
                "execution intervals profiled for sampled simulation",
            ),
            intervals_simulated: r.counter(
                "dmdp_sampled_intervals_simulated_total",
                "representative intervals simulated in detail",
            ),
            checkpoint_bytes: r.counter(
                "dmdp_sampled_checkpoint_bytes_total",
                "serialized architectural-checkpoint bytes captured",
            ),
            bundle_builds: r.counter(
                "dmdp_sampled_bundle_builds_total",
                "sampled bundles built (profile + cluster + checkpoint passes)",
            ),
            ff_mips: r.histogram(
                "dmdp_sampled_ff_mips",
                "functional fast-forward throughput during bundle builds, MIPS",
            ),
        }
    })
}

/// The sampling knobs a campaign or submit request carries: interval
/// length and warmup depth. Everything else (clustering seed, `max_k`)
/// is fixed by [`SampleParams::new`] so that equal knobs mean equal
/// bundles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampling {
    /// Interval length in dynamic instructions.
    pub interval_insns: u64,
    /// Intervals of detailed warmup before each measurement.
    pub warmup_intervals: u32,
}

impl Sampling {
    /// The corresponding profiling/clustering parameters.
    pub fn params(&self) -> SampleParams {
        SampleParams::new(self.interval_insns, self.warmup_intervals)
    }

    /// The digest-stream suffix distinguishing a sampled job from the
    /// full-simulation job of the same (config, workload, image).
    /// Appended only for sampled jobs, so full-run digests — and every
    /// golden artifact keyed by them — are untouched.
    pub fn digest_suffix(&self) -> String {
        format!("sampled:{}:{}", self.interval_insns, self.warmup_intervals)
    }

    /// Content digest of the bundle this sampling configuration produces
    /// for `program` — the daemon's store key. Covers the program image
    /// and both knobs (warmup shifts checkpoint boundaries, so it is
    /// part of the bundle's identity), but *not* the simulator timing
    /// version: bundles are architectural artifacts and survive timing
    /// changes.
    pub fn bundle_digest(&self, program: &Program) -> String {
        let mut d = Digest64::new();
        d.write_str("bundle").write_str(&self.digest_suffix()).write(&program.to_image());
        d.hex()
    }
}

/// A job's sampling work order: the knobs plus the shared bundle.
#[derive(Debug, Clone)]
pub struct SamplingSpec {
    /// The sampling knobs.
    pub sampling: Sampling,
    /// The workload's bundle, shared by every (model × variant) job.
    pub bundle: Arc<SampledBundle>,
}

/// Builds (and times) the sampled bundle for one workload, recording
/// the profiled-interval count, checkpoint payload size and functional
/// fast-forward throughput in the metrics registry.
///
/// # Errors
///
/// Bundle-construction errors (emulation faults, step-budget
/// exhaustion), stringified.
pub fn build_bundle(program: &Program, sampling: Sampling) -> Result<Arc<SampledBundle>, String> {
    let start = Instant::now();
    let bundle = SampledBundle::build(program, &sampling.params())?;
    let wall = start.elapsed().as_secs_f64();
    let m = sampled_metrics();
    m.bundle_builds.inc();
    m.intervals_profiled.add(bundle.plan.total_intervals);
    m.checkpoint_bytes.add(bundle.checkpoint_bytes());
    m.ff_mips.observe((emulated_insns(&bundle) as f64 / wall / 1e6) as u64);
    Ok(Arc::new(bundle))
}

/// Instructions the two functional passes of a bundle build emulate: the
/// profile runs the whole program, the capture pass stops at the last
/// checkpoint boundary.
fn emulated_insns(bundle: &SampledBundle) -> u64 {
    let captured = bundle.checkpoints.last().map_or(0, |c| c.result.retired);
    bundle.profile_result.retired + captured
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmdp_isa::{Checkpoint, RunResult};
    use dmdp_sample::{Representative, SamplePlan};

    #[test]
    fn digest_separates_knobs_and_images() {
        let a = dmdp_workloads::by_name("lib", dmdp_workloads::Scale::Test).unwrap().program;
        let b = dmdp_workloads::by_name("mcf", dmdp_workloads::Scale::Test).unwrap().program;
        let s1 = Sampling { interval_insns: 1000, warmup_intervals: 1 };
        let s2 = Sampling { interval_insns: 2000, warmup_intervals: 1 };
        let s3 = Sampling { interval_insns: 1000, warmup_intervals: 2 };
        assert_eq!(s1.bundle_digest(&a), s1.bundle_digest(&a));
        assert_ne!(s1.bundle_digest(&a), s2.bundle_digest(&a));
        assert_ne!(s1.bundle_digest(&a), s3.bundle_digest(&a));
        assert_ne!(s1.bundle_digest(&a), s1.bundle_digest(&b));
        assert_eq!(s1.digest_suffix(), "sampled:1000:1");
    }

    #[test]
    fn emulated_insns_stop_at_the_last_checkpoint() {
        // A long run whose only representative sits early: capture
        // emulates 4 000 instructions, not the whole 100 000 again.
        let ckpt = |retired| Checkpoint {
            pc: 0,
            regs: [0; 32],
            result: RunResult { retired, ..RunResult::default() },
            pages: Vec::new(),
            warm_lines: Vec::new(),
            warm_branches: Vec::new(),
        };
        let bundle = SampledBundle {
            warmup_intervals: 1,
            warmup_insns: 1_000,
            plan: SamplePlan {
                interval_insns: 1_000,
                total_intervals: 100,
                total_insns: 100_000,
                k: 1,
                reps: vec![Representative { interval: 5, weight: 1.0, cluster_size: 100 }],
            },
            checkpoints: vec![ckpt(4_000)],
            profile_result: RunResult { retired: 100_000, ..RunResult::default() },
        };
        assert_eq!(emulated_insns(&bundle), 104_000);
    }

    #[test]
    fn build_bundle_produces_a_usable_plan() {
        let p = dmdp_workloads::by_name("lib", dmdp_workloads::Scale::Test).unwrap().program;
        let bundle =
            build_bundle(&p, Sampling { interval_insns: 500, warmup_intervals: 1 }).unwrap();
        assert!(bundle.plan.k >= 1);
        assert!(!bundle.rep_runs().is_empty());
    }
}
