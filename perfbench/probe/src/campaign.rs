//! The traced campaign run: the same job list `dmdp campaign` builds,
//! driven through the layers' public calls with a span around each.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dmdp_core::{CommModel, CoreConfig, Simulator, SIM_VERSION};
use dmdp_harness::{
    pool, Campaign, CfgPatch, JobResult, JobSpec, PlannedImage, Sampling, SamplingSpec, StageWall,
};
use dmdp_isa::{Emulator, Program};
use dmdp_sample::{IntervalMeasurement, SampleParams, SampledBundle};
use dmdp_workloads::Scale;

use crate::trace::{self, Tracer};
use crate::Metrics;

/// Counts gathered next to the spans.
#[derive(Default)]
pub struct Counts {
    emu_insns: u64,
    intervals: u64,
    reps: u64,
    ckpt_bytes: u64,
}

/// Runs the campaign traced, saves its artifact to `out`, and returns
/// the campaign wall and the per-layer metrics.
pub fn run(
    scale: Scale,
    sampling: Option<Sampling>,
    jobs: usize,
    out: &Path,
    tr: &Tracer,
) -> Result<(f64, Metrics), String> {
    let start = Instant::now();
    let root = tr.open("harness.campaign", None, 0);
    let main = [("main".to_string(), CfgPatch::default())];
    let mut counts = Counts::default();
    let specs = build_jobs(scale, &main, sampling, Some(root), tr, &mut counts)?;
    let build_s = start.elapsed().as_secs_f64();

    let exec_start = Instant::now();
    let pool_span = tr.open("harness.pool", Some(root), 0);
    let outcomes: Vec<Result<(JobResult, u64, u64), String>> =
        pool::map_ordered(&specs, jobs, |i, spec| {
            tr.span(
                "core.pipeline",
                Some(pool_span),
                i as u64,
                |job_span| match &spec.sampling {
                    Some(s) => execute_sampled(spec, s, job_span, i as u64, tr),
                    None => spec.execute().map(|r| (r, 0, 0)),
                },
            )
        });
    tr.close(pool_span);
    let exec_s = exec_start.elapsed().as_secs_f64();

    let mut results = Vec::with_capacity(outcomes.len());
    let (mut detail_insns, mut warmup_insns, mut full_cycles) = (0u64, 0u64, 0u64);
    for o in outcomes {
        let (r, detail, warm) = o?;
        if !r.sampled {
            full_cycles += r.cycles;
        }
        detail_insns += detail;
        warmup_insns += warm;
        results.push(r);
    }
    let campaign = Campaign {
        name: "campaign".to_string(),
        scale,
        sim_version: SIM_VERSION.to_string(),
        created_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        wall_s: start.elapsed().as_secs_f64(),
        stages: StageWall {
            build_s,
            cache_s: 0.0,
            exec_s,
            aggregate_s: 0.0,
        },
        executed: results.len(),
        cached: 0,
        cache_warning: None,
        trace_id: None,
        sampling,
        jobs: results,
    };
    tr.span("harness.artifact.write", Some(root), 0, |_| {
        campaign.save(out)
    })?;
    let parsed = tr.span("harness.artifact.parse", Some(root), 0, |_| {
        Campaign::load(out)
    })?;
    if parsed.jobs.len() != campaign.jobs.len() {
        return Err(format!("{}: artifact round trip lost rows", out.display()));
    }
    tr.close(root);
    let wall = start.elapsed().as_secs_f64();

    let spans = tr.spans();
    let selfs = trace::self_times(&spans);
    let sum = |name: &str| trace::self_sum(&spans, &selfs, name);
    let job_durs = trace::durations(&spans, "core.pipeline");
    let pool_wall: f64 = trace::durations(&spans, "harness.pool").iter().sum();
    let busy = sum("core.pipeline");
    let emu_s = sum("isa.emu.profile") + sum("isa.emu.capture");
    let mut m = Metrics::default();
    m.put("workloads.build_s", sum("workloads"));
    m.put("core.plan.build_s", sum("core.plan"));
    m.put("harness.jobs_s", sum("harness.jobs"));
    m.put("core.pipeline.busy_s", busy);
    m.put("core.pipeline.cycles", full_cycles as f64);
    m.put(
        "core.pipeline.ns_per_cycle",
        ratio(busy * 1e9, full_cycles as f64),
    );
    m.put("core.pipeline.job_s_p50", trace::median(&job_durs));
    m.put(
        "core.pipeline.job_s_max",
        job_durs.iter().copied().fold(0.0, f64::max),
    );
    m.put(
        "harness.pool.idle_s",
        jobs as f64 * pool_wall - job_durs.iter().sum::<f64>(),
    );
    m.put("harness.artifact.write_s", sum("harness.artifact.write"));
    m.put("harness.artifact.parse_s", sum("harness.artifact.parse"));
    m.put(
        "harness.artifact.bytes",
        std::fs::metadata(out)
            .map_err(|e| format!("{}: {e}", out.display()))?
            .len() as f64,
    );
    m.put("isa.emu.profile_s", sum("isa.emu.profile"));
    m.put("isa.emu.capture_s", sum("isa.emu.capture"));
    m.put("isa.emu.insns", counts.emu_insns as f64);
    m.put("isa.emu.mips", ratio(counts.emu_insns as f64 / 1e6, emu_s));
    m.put("sample.cluster_s", sum("sample.cluster"));
    m.put("sample.intervals", counts.intervals as f64);
    m.put("sample.reps", counts.reps as f64);
    m.put("sample.ckpt_bytes", counts.ckpt_bytes as f64);
    m.put("core.interval.busy_s", sum("core.interval"));
    m.put("core.interval.detail_insns", detail_insns as f64);
    m.put(
        "core.interval.warmup_share",
        ratio(warmup_insns as f64, detail_insns as f64),
    );
    Ok((wall, m))
}

/// The job list [`dmdp_harness::CampaignSpec::jobs`] builds — every
/// workload at `scale` × every model × `variants`, in the same order and
/// with the same digests — with a span around workload generation, each
/// plan-cache build, each sampled-bundle pass and each workload's
/// `JobSpec::new` calls.
pub fn build_jobs(
    scale: Scale,
    variants: &[(String, CfgPatch)],
    sampling: Option<Sampling>,
    parent: Option<usize>,
    tr: &Tracer,
    counts: &mut Counts,
) -> Result<Vec<JobSpec>, String> {
    let workloads = tr.span("workloads", parent, 0, |_| dmdp_workloads::all(scale));
    let mut specs = Vec::new();
    for w in workloads {
        let image = tr.span("core.plan", parent, 0, |_| {
            PlannedImage::new(Arc::new(w.program))
        });
        let bundle = match sampling {
            Some(s) => Some(build_bundle(&image.program, s, parent, tr, counts)?),
            None => None,
        };
        tr.span("harness.jobs", parent, 0, |_| {
            for model in CommModel::ALL {
                for (label, patch) in variants {
                    let mut cfg = CoreConfig::new(model);
                    patch.apply(&mut cfg);
                    let mut job = JobSpec::new(w.name, w.suite, model, scale, label, cfg, &image);
                    if let (Some(s), Some(b)) = (sampling, &bundle) {
                        job = job.sampled(SamplingSpec {
                            sampling: s,
                            bundle: Arc::clone(b),
                        });
                    }
                    specs.push(job);
                }
            }
        });
    }
    Ok(specs)
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload bypasses).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// [`SampledBundle::build`], one span per pass: functional profiling,
/// clustering, checkpoint capture.
fn build_bundle(
    program: &Program,
    sampling: Sampling,
    parent: Option<usize>,
    tr: &Tracer,
    counts: &mut Counts,
) -> Result<Arc<SampledBundle>, String> {
    let params: SampleParams = sampling.params();
    let profile = tr.span("isa.emu.profile", parent, 0, |_| {
        Emulator::new(program).profile_intervals(params.interval_insns, params.max_steps)
    });
    let profile = profile.map_err(|e| format!("{}: profiling failed: {e}", program.name()))?;
    let plan = tr.span("sample.cluster", parent, 0, |_| {
        dmdp_sample::cluster(&profile, &params)
    });
    let warmup_insns =
        (params.warmup_intervals as u64 * params.interval_insns).max(params.min_warmup_insns);
    let mut boundaries: Vec<u64> = plan
        .reps
        .iter()
        .map(|r| (r.interval * params.interval_insns).saturating_sub(warmup_insns))
        .collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    let checkpoints = tr.span("isa.emu.capture", parent, 0, |_| {
        Emulator::new(program).capture_checkpoints(&boundaries, params.warm_lines_cap)
    });
    let checkpoints =
        checkpoints.map_err(|e| format!("{}: checkpoint capture failed: {e}", program.name()))?;
    let bundle = SampledBundle {
        warmup_intervals: params.warmup_intervals,
        warmup_insns,
        plan,
        checkpoints,
        profile_result: profile.result,
    };
    counts.emu_insns += bundle.profile_result.retired + boundaries.last().copied().unwrap_or(0);
    counts.intervals += bundle.plan.total_intervals;
    counts.reps += bundle.plan.reps.len() as u64;
    counts.ckpt_bytes += bundle.checkpoint_bytes();
    Ok(Arc::new(bundle))
}

/// A sampled job as [`JobSpec::execute`] runs it, with a span around
/// each representative interval. Returns the row plus the instructions
/// simulated in detail and the warmup part of them.
fn execute_sampled(
    spec: &JobSpec,
    s: &SamplingSpec,
    parent: usize,
    req: u64,
    tr: &Tracer,
) -> Result<(JobResult, u64, u64), String> {
    let start = Instant::now();
    let sim = Simulator::with_config(spec.cfg.clone());
    let mut measurements = Vec::new();
    let (mut simulated, mut warmup) = (0u64, 0u64);
    for r in s.bundle.rep_runs() {
        let iv = tr
            .span("core.interval", Some(parent), req, |_| {
                sim.run_from_checkpoint(
                    &spec.program,
                    &spec.plans,
                    &s.bundle.checkpoints[r.ckpt],
                    r.warmup_insns,
                    r.measure_insns,
                )
            })
            .map_err(|e| {
                format!(
                    "{} × {} interval {}: {e}",
                    spec.workload,
                    spec.model.name(),
                    r.interval
                )
            })?;
        simulated += iv.warmup_insns + iv.insns;
        warmup += iv.warmup_insns;
        measurements.push(IntervalMeasurement {
            interval: r.interval,
            weight: r.weight,
            cycles: iv.cycles,
            insns: iv.insns,
        });
    }
    let report = dmdp_sample::recombine(&s.bundle.plan, measurements);
    let wall = start.elapsed().as_secs_f64();
    Ok((
        JobResult::from_sampled(spec, s, &report, wall, simulated),
        simulated,
        warmup,
    ))
}
