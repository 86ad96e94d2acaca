//! The `served_mix` load generator: one process, two closed-loop client
//! threads against a running `dmdp serve --workers 2`.
//!
//! - The cold client submits a series of new sizing sweeps, one after
//!   another; every job misses the store and runs batched on the
//!   workers.
//! - The warm client re-submits already-completed sweeps in seeded
//!   order, one connection per submit; every job is a store hit.
//!
//! After the timed phase every served row's digest has been checked
//! against a locally built `JobSpec`, and a seeded sample of rows is
//! re-simulated solo with `JobSpec::execute`. In a traced run the work
//! done inside the daemon's worker processes (batch units, store
//! writes and reads) is then replayed locally, and the daemon's own
//! metrics snapshot is folded in.

use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use dmdp_harness::{partition_units, pool, Campaign, CfgPatch, JobResult, JobSpec, Json};
use dmdp_prng::Prng;
use dmdp_server::{Client, Store, SubmitRequest};
use dmdp_workloads::Scale;

use crate::campaign::{build_jobs, ratio, Counts};
use crate::trace::{self, Tracer};
use crate::Metrics;

/// The load generator's input, written by the benchmark runner
/// (`perfbench/run.py`).
pub struct Spec {
    socket: PathBuf,
    scale: Scale,
    sweeps: Vec<Vec<(String, CfgPatch)>>,
    warm_submits: usize,
    warm_seed: u64,
    resim: Vec<(usize, usize)>,
    cold_deadline_s: f64,
    warm_deadline_s: f64,
    out_dir: PathBuf,
    store_dir: PathBuf,
}

impl Spec {
    /// Parses the runner's spec document.
    pub fn from_json(v: &Json) -> Result<Spec, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("spec: missing `{k}`"));
        let num = |k: &str| -> Result<f64, String> {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("spec: `{k}` must be a number"))
        };
        let text = |k: &str| -> Result<String, String> {
            Ok(field(k)?
                .as_str()
                .ok_or_else(|| format!("spec: `{k}` must be a string"))?
                .to_string())
        };
        let arr = |k: &str| -> Result<&[Json], String> {
            field(k)?
                .as_arr()
                .ok_or_else(|| format!("spec: `{k}` must be an array"))
        };
        let scale = Scale::from_name(&text("scale")?).ok_or("spec: unknown scale")?;
        let mut sweeps = Vec::new();
        for sweep in arr("sweeps")? {
            let mut variants = Vec::new();
            for var in sweep.as_arr().ok_or("spec: a sweep must be an array")? {
                let label = var
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or("spec: variant label")?;
                let knob = |k: &str| var.get(k).and_then(Json::as_u64).map(|n| n as usize);
                let patch = CfgPatch {
                    sb: knob("sb"),
                    rob: knob("rob"),
                    prf: knob("prf"),
                    ..CfgPatch::default()
                };
                variants.push((label.to_string(), patch));
            }
            sweeps.push(variants);
        }
        let mut resim = Vec::new();
        for pair in arr("resim")? {
            let p = pair
                .as_arr()
                .ok_or("spec: resim entries are [sweep, row]")?;
            match (
                p.first().and_then(Json::as_u64),
                p.get(1).and_then(Json::as_u64),
            ) {
                (Some(s), Some(r)) => resim.push((s as usize, r as usize)),
                _ => return Err("spec: resim entries are [sweep, row]".to_string()),
            }
        }
        Ok(Spec {
            socket: PathBuf::from(text("socket")?),
            scale,
            sweeps,
            warm_submits: num("warm_submits")? as usize,
            warm_seed: num("warm_seed")? as u64,
            resim,
            cold_deadline_s: num("cold_deadline_s")?,
            warm_deadline_s: num("warm_deadline_s")?,
            out_dir: PathBuf::from(text("out_dir")?),
            store_dir: PathBuf::from(text("store_dir")?),
        })
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Shared state between the two client threads.
struct Progress {
    completed: Vec<usize>,
    cold_done: bool,
}

/// One submit on its own connection, spanned as the request `id`: cold
/// sweep `i` is request `i + 1`, the `k`-th warm re-submit `1000 + k`.
/// The replay reuses these ids for the work each request caused.
fn submit(socket: &Path, req: &SubmitRequest, id: u64, tr: &Tracer) -> Result<Campaign, String> {
    tr.span("server.submit", None, id, |root| {
        let mut client = tr.span("server.client.connect", Some(root), id, |_| {
            Client::connect_unix(socket)
        })?;
        tr.span("server.client.submit", Some(root), id, |_| {
            client.submit(req, |_| {})
        })
    })
}

/// Checks a served artifact against the locally built job list: same
/// rows, same order, same digests.
fn check_rows(campaign: &Campaign, expected: &[JobSpec]) -> Result<(), String> {
    if campaign.jobs.len() != expected.len() {
        return Err(format!(
            "served {} rows, the job list has {}",
            campaign.jobs.len(),
            expected.len()
        ));
    }
    for (row, spec) in campaign.jobs.iter().zip(expected) {
        if row.digest != spec.digest {
            return Err(format!(
                "{} × {} [{}]: served digest {} != local {}",
                spec.workload,
                spec.model.name(),
                spec.variant,
                row.digest,
                spec.digest
            ));
        }
    }
    Ok(())
}

/// Bit-for-bit equality of the simulated outcome of two rows.
fn same_outcome(a: &JobResult, b: &JobResult) -> Result<(), String> {
    if a.cycles == b.cycles
        && a.retired_insns == b.retired_insns
        && a.ipc.to_bits() == b.ipc.to_bits()
    {
        Ok(())
    } else {
        Err(format!(
            "{} × {} [{}]: served cycles {} insns {} ipc {} != local cycles {} insns {} ipc {}",
            a.workload,
            a.model.name(),
            a.variant,
            a.cycles,
            a.retired_insns,
            a.ipc,
            b.cycles,
            b.retired_insns,
            b.ipc
        ))
    }
}

/// Runs the load, the checks and (when `tr` records) the replay.
/// Returns the result document the runner reads.
pub fn run(spec: &Spec, tr: &Tracer) -> Result<Json, String> {
    let mut counts = Counts::default();
    let expected: Vec<Vec<JobSpec>> = spec
        .sweeps
        .iter()
        .map(|variants| {
            build_jobs(
                spec.scale,
                variants,
                None,
                None,
                &Tracer::off(),
                &mut counts,
            )
        })
        .collect::<Result<_, _>>()?;
    let requests: Vec<SubmitRequest> = spec
        .sweeps
        .iter()
        .enumerate()
        .map(|(i, variants)| {
            let mut req = SubmitRequest::new(&format!("sweep{i}"), spec.scale);
            req.variants = variants.clone();
            req
        })
        .collect();

    let progress = Mutex::new(Progress {
        completed: Vec::new(),
        cold_done: false,
    });
    let wake = Condvar::new();
    let cold_tally = Mutex::new(Tally::default());
    let warm_tally = Mutex::new(Tally::default());
    let mut cold_rows: Vec<Option<Campaign>> = vec![None; requests.len()];
    let mut warm_lat: Vec<f64> = Vec::new();
    let mut warm_order: Vec<(usize, u64)> = Vec::new();
    let mut cold_wall = 0.0;

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let start = Instant::now();
            for (i, req) in requests.iter().enumerate() {
                let t0 = Instant::now();
                let outcome = submit(&spec.socket, req, i as u64 + 1, tr).and_then(|c| {
                    check_rows(&c, &expected[i])?;
                    if c.executed != c.jobs.len() {
                        return Err(format!(
                            "cold sweep {i}: {} of {} rows were not executed",
                            c.jobs.len() - c.executed,
                            c.jobs.len()
                        ));
                    }
                    let path = spec.out_dir.join(format!("cold{i}.json"));
                    tr.span("harness.artifact.write", None, i as u64 + 1, |_| {
                        c.save(&path)
                    })?;
                    Ok(c)
                });
                let took = t0.elapsed().as_secs_f64();
                let outcome = outcome.and_then(|c| {
                    if took > spec.cold_deadline_s {
                        Err(format!(
                            "cold sweep {i} took {took:.1}s, past its {:.0}s deadline",
                            spec.cold_deadline_s
                        ))
                    } else {
                        Ok(c)
                    }
                });
                let ok = outcome.map(|c| cold_rows[i] = Some(c));
                let done = ok.is_ok();
                cold_tally.lock().expect("tally lock").record(ok);
                let mut p = progress.lock().expect("progress lock");
                if done {
                    p.completed.push(i);
                }
                wake.notify_all();
            }
            cold_wall = start.elapsed().as_secs_f64();
            progress.lock().expect("progress lock").cold_done = true;
            wake.notify_all();
        });
        scope.spawn(|| {
            let mut rng = Prng::new(spec.warm_seed);
            let mut sent = 0;
            while sent < spec.warm_submits {
                let pick = {
                    let mut p = progress.lock().expect("progress lock");
                    while p.completed.is_empty() && !p.cold_done {
                        p = wake.wait(p).expect("progress lock");
                    }
                    if p.completed.is_empty() {
                        break;
                    }
                    p.completed[rng.index(p.completed.len())]
                };
                sent += 1;
                let id = 1000 + sent as u64;
                let t0 = Instant::now();
                let outcome = submit(&spec.socket, &requests[pick], id, tr);
                let took = t0.elapsed().as_secs_f64();
                let outcome = outcome.and_then(|c| {
                    check_rows(&c, &expected[pick])?;
                    if c.executed != 0 {
                        return Err(format!(
                            "warm re-submit of sweep {pick} executed {} jobs",
                            c.executed
                        ));
                    }
                    if took > spec.warm_deadline_s {
                        return Err(format!(
                            "warm re-submit took {took:.2}s, past its {:.0}s deadline",
                            spec.warm_deadline_s
                        ));
                    }
                    Ok(())
                });
                if outcome.is_ok() {
                    warm_lat.push(took);
                    warm_order.push((pick, id));
                }
                warm_tally.lock().expect("tally lock").record(outcome);
            }
        });
    });

    // Solo re-simulation of a seeded sample of served rows.
    let mut resim_tally = Tally::default();
    for &(s, r) in &spec.resim {
        let outcome = match (
            cold_rows.get(s).and_then(Option::as_ref),
            expected.get(s).and_then(|e| e.get(r)),
        ) {
            (Some(c), Some(job)) => job
                .execute()
                .and_then(|local| same_outcome(&c.jobs[r], &local)),
            (None, Some(_)) => Err(format!("re-simulation: sweep {s} was not served")),
            _ => Err(format!("re-simulation: no row {r} in sweep {s}")),
        };
        resim_tally.record(outcome);
    }

    let cold_insns: u64 = cold_rows
        .iter()
        .flatten()
        .flat_map(|c| &c.jobs)
        .map(|r| r.retired_insns)
        .sum();
    let mut tally = Tally::default();
    for t in [
        cold_tally.into_inner().expect("tally"),
        warm_tally.into_inner().expect("tally"),
        resim_tally,
    ] {
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        tally.errors.extend(t.errors);
    }
    let mut doc = vec![
        ("cold_wall_s".to_string(), Json::Num(cold_wall)),
        ("cold_insns".to_string(), Json::Num(cold_insns as f64)),
        (
            "warm_lat_s".to_string(),
            Json::Arr(warm_lat.iter().map(|&x| Json::Num(x)).collect()),
        ),
        ("attempted".to_string(), Json::Num(tally.attempted as f64)),
        ("failed".to_string(), Json::Num(tally.failed as f64)),
        (
            "errors".to_string(),
            Json::Arr(tally.errors.into_iter().map(Json::Str).collect()),
        ),
    ];
    if !tr.enabled() {
        return Ok(Json::Obj(doc));
    }

    let metrics = Client::connect_unix(&spec.socket).and_then(|mut c| c.metrics())?;
    let (mut m, replay_failed) = replay(spec, &expected, &cold_rows, &warm_order, tr)?;
    fold_daemon_metrics(&metrics, &mut m);
    doc.push(("replay_failed".to_string(), Json::Num(replay_failed as f64)));
    doc.push(("metrics".to_string(), m.to_json()));
    Ok(Json::Obj(doc))
}

/// Replays, in this process, what the run made the worker processes
/// and the store do: every batch unit of the cold sweeps through
/// `JobSpec::execute_batch` (two threads, like the two workers),
/// every row write through `Store::put` into a scratch store, and every
/// row read of the warm re-submits through `Store::get` on the run's
/// store. Returns the per-layer metrics and the number of replayed rows
/// that disagree with the served ones.
fn replay(
    spec: &Spec,
    expected: &[Vec<JobSpec>],
    cold_rows: &[Option<Campaign>],
    warm_order: &[(usize, u64)],
    tr: &Tracer,
) -> Result<(Metrics, u64), String> {
    // The job-list build the daemon performs for one sweep.
    let mut counts = Counts::default();
    let root = tr.open("server.joblist", None, 0);
    build_jobs(
        spec.scale,
        &spec.sweeps[0],
        None,
        Some(root),
        tr,
        &mut counts,
    )?;
    tr.close(root);

    // The batch engine counts derived lanes and fast-forwarded cycles in
    // the process-wide registry; the replay reads their growth.
    let batch_counter = |name: &'static str| dmdp_obs::registry().counter(name, "").get();
    let lanes0 = batch_counter("dmdp_batch_lanes_total");
    let derived0 = batch_counter("dmdp_batch_derived_total");
    let ff0 = batch_counter("dmdp_batch_ff_cycles_total");
    let mut lane_cycles = 0u64;
    let mut full_cycles = 0u64;
    let mut replayed: Vec<(u64, JobResult)> = Vec::new();
    let mut mismatches = 0u64;
    for (s, specs) in expected.iter().enumerate() {
        let units = partition_units(specs, |_| true);
        let outcomes = pool::map_ordered(&units, 2, |_, unit| {
            let members: Vec<&JobSpec> = unit.iter().map(|&i| &specs[i]).collect();
            let layer = if members.len() == 1 {
                "core.pipeline"
            } else {
                "core.batch"
            };
            tr.span(layer, None, s as u64 + 1, |_| {
                JobSpec::execute_batch(&members)
            })
        });
        for (unit, rows) in units.iter().zip(outcomes) {
            let rows: Vec<JobResult> = rows.into_iter().collect::<Result<_, _>>()?;
            if unit.len() > 1 {
                lane_cycles += rows.iter().map(|r| r.cycles).sum::<u64>();
            } else {
                full_cycles += rows.iter().map(|r| r.cycles).sum::<u64>();
            }
            for (&i, row) in unit.iter().zip(rows) {
                let served = cold_rows[s].as_ref().map(|c| &c.jobs[i]);
                if served.is_none_or(|c| same_outcome(c, &row).is_err()) {
                    mismatches += 1;
                }
                replayed.push((s as u64 + 1, row));
            }
        }
    }

    let scratch = Store::open(&spec.out_dir.join("replay-store"), None)?;
    let mut writes = 0u64;
    for (id, row) in &replayed {
        if tr.span("server.store.put", None, *id, |_| scratch.put(row))? {
            writes += 1;
        }
    }
    let store = Store::open(&spec.store_dir, None)?;
    for &(s, id) in warm_order {
        for job in &expected[s] {
            if tr
                .span("server.store.get", None, id, |_| store.get(&job.digest))
                .is_none()
            {
                mismatches += 1;
            }
        }
    }
    let mut artifact_bytes = 0u64;
    for i in 0..cold_rows.len() {
        let path = spec.out_dir.join(format!("cold{i}.json"));
        if let Ok(meta) = std::fs::metadata(&path) {
            artifact_bytes += meta.len();
            tr.span("harness.artifact.parse", None, i as u64 + 1, |_| {
                Campaign::load(&path)
            })?;
        }
    }

    let spans = tr.spans();
    let selfs = trace::self_times(&spans);
    let sum = |name: &str| trace::self_sum(&spans, &selfs, name);
    let us_p50 = |name: &str| trace::median(&trace::durations(&spans, name)) * 1e6;
    let job_durs = trace::durations(&spans, "core.pipeline");
    let busy = sum("core.pipeline");
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
    m.put("harness.artifact.write_s", sum("harness.artifact.write"));
    m.put("harness.artifact.parse_s", sum("harness.artifact.parse"));
    m.put("harness.artifact.bytes", artifact_bytes as f64);
    let lanes = batch_counter("dmdp_batch_lanes_total") - lanes0;
    let derived = batch_counter("dmdp_batch_derived_total") - derived0;
    let ff_cycles = batch_counter("dmdp_batch_ff_cycles_total") - ff0;
    m.put("core.batch.busy_s", sum("core.batch"));
    m.put("core.batch.lanes", lanes as f64);
    m.put(
        "core.batch.derived_share",
        ratio(derived as f64, lanes as f64),
    );
    m.put(
        "core.batch.ff_share",
        ratio(ff_cycles as f64, lane_cycles as f64),
    );
    m.put(
        "server.client.connect_s_p50",
        trace::median(&trace::durations(&spans, "server.client.connect")),
    );
    m.put("server.store.get_us_p50", us_p50("server.store.get"));
    m.put("server.store.put_us_p50", us_p50("server.store.put"));
    m.put("server.store.writes", writes as f64);
    m.put("server.store.bytes", scratch.stats().bytes as f64);
    Ok((m, mismatches))
}

/// Interpolated quantile of a histogram from the daemon's `metrics`
/// reply: sparse cumulative `[le, count]` pairs over log₂ buckets, where
/// bucket `le = 2^i - 1` holds the values in `[2^(i-1), 2^i - 1]` and
/// `le = -1` is the overflow bucket.
pub fn hist_quantile(buckets: &[(f64, f64)], q: f64) -> f64 {
    let Some(&(_, total)) = buckets.last() else {
        return 0.0;
    };
    let target = q * total;
    let mut below = 0.0;
    for &(le, cum) in buckets {
        if cum >= target && cum > below {
            if le < 0.0 {
                // Overflow: no upper bound to interpolate towards.
                return f64::from(u32::MAX);
            }
            let (lo, hi) = if le == 0.0 {
                (0.0, 0.0)
            } else {
                ((le + 1.0) / 2.0, le + 1.0)
            };
            return lo + (hi - lo) * (target - below) / (cum - below);
        }
        below = cum;
    }
    0.0
}

/// The entries of the daemon's metrics reply named `name`.
fn entries<'a>(snapshot: &'a Json, name: &'a str) -> impl Iterator<Item = &'a Json> + 'a {
    snapshot
        .get("metrics")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(move |e| e.get("name").and_then(Json::as_str) == Some(name))
}

fn p50(snapshot: &Json, name: &str) -> f64 {
    let Some(h) = entries(snapshot, name).next() else {
        return 0.0;
    };
    let buckets: Vec<(f64, f64)> = h
        .get("buckets")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|b| {
            let pair = b.as_arr()?;
            Some((pair.first()?.as_f64()?, pair.get(1)?.as_f64()?))
        })
        .collect();
    hist_quantile(&buckets, 0.5)
}

fn counter_sum(snapshot: &Json, name: &str, label: Option<(&str, &str)>) -> f64 {
    entries(snapshot, name)
        .filter(|e| match label {
            Some((k, v)) => {
                e.get("labels")
                    .and_then(|l| l.get(k))
                    .and_then(Json::as_str)
                    == Some(v)
            }
            None => true,
        })
        .filter_map(|e| e.get("value").and_then(Json::as_f64))
        .sum()
}

/// Folds the coordinator's metrics snapshot into the per-layer metrics.
fn fold_daemon_metrics(snapshot: &Json, m: &mut Metrics) {
    m.put("server.daemon.parse_us_p50", p50(snapshot, "dmdp_parse_us"));
    m.put(
        "server.daemon.queue_wait_s_p50",
        p50(snapshot, "dmdp_queue_wait_us") / 1e6,
    );
    m.put(
        "server.daemon.submit_wall_s_p50",
        p50(snapshot, "dmdp_submit_wall_us") / 1e6,
    );
    let hits = counter_sum(snapshot, "dmdp_jobs_total", Some(("source", "store")));
    m.put(
        "server.daemon.store_hit_share",
        ratio(hits, counter_sum(snapshot, "dmdp_jobs_total", None)),
    );
    m.put(
        "server.worker.placement_us_p50",
        p50(snapshot, "dmdp_placement_us"),
    );
    m.put(
        "server.worker.dispatches",
        counter_sum(snapshot, "dmdp_dispatch_total", None),
    );
    m.put(
        "server.worker.requeues",
        counter_sum(snapshot, "dmdp_requeue_total", None),
    );
}

#[cfg(test)]
mod tests {
    use super::hist_quantile;

    #[test]
    fn quantile_interpolates_inside_the_log2_bucket() {
        // 10 values in [64, 127] and 10 in [128, 255].
        let b = [(127.0, 10.0), (255.0, 20.0)];
        assert_eq!(hist_quantile(&b, 0.5), 128.0);
        assert_eq!(hist_quantile(&b, 0.25), 96.0);
        assert_eq!(hist_quantile(&b, 0.75), 192.0);
        assert_eq!(hist_quantile(&[], 0.5), 0.0);
    }
}
