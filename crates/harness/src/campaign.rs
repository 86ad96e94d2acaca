//! Campaign construction, parallel execution, aggregation, artifact I/O
//! and the content-digest cache.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dmdp_core::{CommModel, CoreConfig, SIM_VERSION};
use dmdp_sample::SampledBundle;
use dmdp_stats::geomean;
use dmdp_workloads::{Scale, Suite};

use crate::group::{execute_here, resolve, Inflight, Outcome, Resolve, Source};
use crate::job::{CfgPatch, JobConfig, JobResult, JobSpec, WorkloadImage};
use crate::json::{obj, Json};
use crate::pool;
use crate::sampled::{build_bundle, Sampling, SamplingSpec};

/// Declarative description of an experiment campaign: which workloads,
/// under which communication models, at which scale, with which
/// configuration variants. The job list is the cross product.
///
/// # Example
///
/// ```
/// use dmdp_harness::{CampaignSpec, RunOptions};
/// use dmdp_core::CommModel;
/// use dmdp_workloads::Scale;
///
/// let campaign = CampaignSpec::new("doc", Scale::Test)
///     .models([CommModel::Baseline, CommModel::Dmdp])
///     .kernels(["lib", "mcf"])
///     .run(&RunOptions { jobs: 2, ..RunOptions::default() })
///     .unwrap();
/// assert_eq!(campaign.jobs.len(), 4);
/// assert!(campaign.get("mcf", CommModel::Dmdp).unwrap().ipc > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (also the default artifact stem).
    pub name: String,
    /// Workload scale for every job.
    pub scale: Scale,
    /// Communication models to sweep.
    pub models: Vec<CommModel>,
    /// Workload-name filter; `None` means all 21 kernels.
    pub kernels: Option<Vec<String>>,
    /// Configuration variants as `(label, patch)`; the default is the
    /// single unpatched variant `"main"`.
    pub variants: Vec<(String, CfgPatch)>,
    /// Run every job sampled (profile + cluster + checkpoint fast-
    /// forward) instead of in full. One bundle is built per workload
    /// and shared by all its (model × variant) jobs.
    pub sampling: Option<Sampling>,
}

impl CampaignSpec {
    /// A campaign over all 21 kernels under every model, main config.
    pub fn new(name: &str, scale: Scale) -> CampaignSpec {
        CampaignSpec {
            name: name.to_string(),
            scale,
            models: CommModel::ALL.to_vec(),
            kernels: None,
            variants: vec![("main".to_string(), CfgPatch::default())],
            sampling: None,
        }
    }

    /// Switches every job to sampled simulation with the given interval
    /// length and warmup depth.
    pub fn sampled(mut self, interval_insns: u64, warmup_intervals: u32) -> CampaignSpec {
        self.sampling = Some(Sampling { interval_insns, warmup_intervals });
        self
    }

    /// Restricts the model sweep.
    pub fn models(mut self, models: impl IntoIterator<Item = CommModel>) -> CampaignSpec {
        self.models = models.into_iter().collect();
        self
    }

    /// Restricts the workload set by name.
    pub fn kernels<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> CampaignSpec {
        self.kernels = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Replaces the variant list.
    pub fn variants(
        mut self,
        variants: impl IntoIterator<Item = (String, CfgPatch)>,
    ) -> CampaignSpec {
        self.variants = variants.into_iter().collect();
        self
    }

    /// Materializes the job list over fresh images of the selected
    /// workloads only. Sampled bundles are built one after another on the
    /// calling thread; [`CampaignSpec::run`] builds them `RunOptions::jobs`
    /// wide instead.
    ///
    /// # Errors
    ///
    /// As [`CampaignSpec::jobs_over`].
    pub fn jobs(&self) -> Result<Vec<JobSpec>, String> {
        self.jobs_on(1)
    }

    /// [`CampaignSpec::jobs`] with the sampled bundles built on up to
    /// `workers` threads.
    fn jobs_on(&self, workers: usize) -> Result<Vec<JobSpec>, String> {
        let all = dmdp_workloads::all(self.scale).into_iter();
        let images: Vec<WorkloadImage> = all.filter(|w| self.selects(w.name)).map(WorkloadImage::new).collect();
        self.jobs_over(&images, workers, |w, s| build_bundle(&w.image.program, s))
    }

    /// The job list over a given image set: the selected workloads (in
    /// `images` order) × models × variants. The spec is checked first —
    /// unique variant labels, known kernels, a consistent core
    /// configuration for every (model, variant) — so a bad request fails
    /// before any job runs. When sampling, `bundle` supplies each
    /// selected workload's bundle (shared by its jobs), called on up to
    /// `workers` threads.
    ///
    /// # Errors
    ///
    /// A duplicate variant label, an unknown kernel, an impossible
    /// configuration (naming the variant), or a bundle that failed.
    pub fn jobs_over<B>(
        &self,
        images: &[WorkloadImage],
        workers: usize,
        bundle: B,
    ) -> Result<Vec<JobSpec>, String>
    where
        B: Fn(&WorkloadImage, Sampling) -> Result<Arc<SampledBundle>, String> + Sync,
    {
        // Duplicate variant labels would silently collide in artifacts,
        // reports and the sweep table — reject them up front.
        for (i, (label, _)) in self.variants.iter().enumerate() {
            if self.variants[..i].iter().any(|(prior, _)| prior == label) {
                return Err(format!(
                    "duplicate variant label `{label}`: variant labels must be unique \
                     within a campaign"
                ));
            }
        }
        let mut configs = Vec::with_capacity(self.models.len() * self.variants.len());
        for &model in &self.models {
            for (label, patch) in &self.variants {
                let mut cfg = CoreConfig::new(model);
                patch.apply(&mut cfg);
                cfg.check().map_err(|e| format!("variant `{label}` ({}): {e}", model.name()))?;
                configs.push(JobConfig::new(model, label, cfg));
            }
        }
        let known = dmdp_workloads::names();
        for name in self.kernels.iter().flatten() {
            if !known.contains(&name.as_str()) {
                return Err(format!(
                    "unknown workload `{name}`; valid kernels: {}",
                    known.join(", ")
                ));
            }
        }
        let selected: Vec<&WorkloadImage> = images.iter().filter(|w| self.selects(w.name)).collect();
        // The bundle builds are independent, so they run side by side; an
        // unsampled campaign skips this phase and spawns no threads.
        let bundles = match self.sampling {
            Some(s) => pool::map_ordered(&selected, workers, |_, w| bundle(w, s).map(Some))
                .into_iter()
                .collect::<Result<Vec<_>, String>>()?,
            None => vec![None; selected.len()],
        };
        let mut jobs = Vec::with_capacity(selected.len() * configs.len());
        for (w, b) in selected.iter().zip(&bundles) {
            for job in JobSpec::over_configs(w.name, w.suite, self.scale, &w.image, &configs) {
                jobs.push(match (self.sampling, b) {
                    (Some(s), Some(b)) => job.sampled(SamplingSpec { sampling: s, bundle: Arc::clone(b) }),
                    _ => job,
                });
            }
        }
        Ok(jobs)
    }

    fn selects(&self, workload: &str) -> bool {
        self.kernels.as_ref().is_none_or(|f| f.iter().any(|n| n == workload))
    }

    /// Runs the campaign through [`resolve`]: rows the prior artifact at
    /// `opts.cache` holds are reused, the rest execute `opts.jobs` wide.
    ///
    /// # Errors
    ///
    /// The first job error (cycle-limit abort), or any error of
    /// [`CampaignSpec::jobs_over`]. An unreadable cache artifact is only
    /// a warning.
    pub fn run(&self, opts: &RunOptions) -> Result<Campaign, String> {
        let start = Instant::now();
        // Bundles are built here, before the job pool starts, so no job's
        // claimed→finished window includes bundle time.
        let specs = self.jobs_on(opts.jobs)?;
        let build_s = start.elapsed().as_secs_f64();

        let cache_start = Instant::now();
        let mut cache_warning: Option<String> = None;
        let prior: Vec<JobResult> = match &opts.cache {
            // A cache artifact that fails to load — a schema version from
            // a different binary generation, a truncated write, plain
            // garbage — must not abort the campaign: it is only a cache.
            // Warn, pretend it was absent and recompute every job.
            Some(path) if path.exists() => match Campaign::load(path) {
                Ok(prior) => prior.jobs,
                Err(e) => {
                    let msg = format!(
                        "cache artifact {} is unusable ({e}); re-running every job",
                        path.display()
                    );
                    eprintln!("dmdp: warning: {msg}");
                    cache_warning = Some(msg);
                    Vec::new()
                }
            },
            _ => Vec::new(),
        };
        let local = Local::new(&specs, &prior, opts.progress);
        let cache_s = cache_start.elapsed().as_secs_f64();

        let exec_start = Instant::now();
        let outcomes = resolve(&specs, opts.jobs, &Inflight::default(), &local);
        let exec_s = exec_start.elapsed().as_secs_f64();

        let agg_start = Instant::now();
        let jobs = outcomes.into_iter().map(|o| o.map(|(row, _)| row)).collect::<Result<_, _>>()?;
        let stages = StageWall { build_s, cache_s, exec_s, aggregate_s: 0.0 };
        let mut campaign = Campaign::new(self, jobs, start.elapsed().as_secs_f64(), stages);
        campaign.cache_warning = cache_warning;
        campaign.stages.aggregate_s = agg_start.elapsed().as_secs_f64();
        Ok(campaign)
    }
}

/// A local campaign's half of [`resolve`]: lookups in the prior
/// artifact, execution in this process, one progress line per job it
/// did not find there.
struct Local<'a> {
    prior: HashMap<&'a str, &'a JobResult>,
    progress: bool,
    to_run: usize,
    done: AtomicUsize,
}

impl<'a> Local<'a> {
    fn new(specs: &[JobSpec], prior: &'a [JobResult], progress: bool) -> Local<'a> {
        let prior: HashMap<&str, &JobResult> = prior.iter().map(|r| (r.digest.as_str(), r)).collect();
        let to_run = specs.iter().filter(|s| !prior.contains_key(s.digest.as_str())).count();
        Local { prior, progress, to_run, done: AtomicUsize::new(0) }
    }
}

impl Resolve for Local<'_> {
    fn lookup(&self, spec: &JobSpec) -> Option<JobResult> {
        self.prior.get(spec.digest.as_str()).map(|&r| r.clone())
    }

    fn execute(&self, specs: &[&JobSpec]) -> Vec<Outcome> {
        execute_here(specs)
    }

    fn finished(&self, rows: &[(usize, Outcome)]) {
        if !self.progress {
            return;
        }
        for (_, outcome) in rows {
            if matches!(outcome, Ok((_, Source::Store))) {
                continue;
            }
            let n = self.done.fetch_add(1, Ordering::Relaxed) + 1;
            match outcome {
                Ok((r, _)) => println!(
                    "[{n}/{}] {:>9} × {:<8} [{}]  IPC {:.3}  {:.2}s  {:.2} MIPS",
                    self.to_run,
                    r.workload,
                    r.model.name(),
                    r.variant,
                    r.ipc,
                    r.wall_s,
                    r.mips,
                ),
                Err(e) => println!("[{n}/{}] FAILED: {e}", self.to_run),
            }
        }
    }
}

/// Execution options for [`CampaignSpec::run`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads (1 = serial on the calling thread).
    pub jobs: usize,
    /// A previous artifact to reuse digest-matched results from
    /// (typically the output path itself).
    pub cache: Option<PathBuf>,
    /// Print one line per finished job.
    pub progress: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions { jobs: pool::default_workers(), cache: None, progress: false }
    }
}

/// Per-stage wall-clock breakdown of one campaign run (all seconds).
/// Zero for artifacts written before the breakdown existed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageWall {
    /// Building the job list (workload generation + assembly, and the
    /// sampled bundles when sampling).
    pub build_s: f64,
    /// Scanning the digest cache.
    pub cache_s: f64,
    /// Executing the job pool.
    pub exec_s: f64,
    /// Aggregating results into the campaign.
    pub aggregate_s: f64,
}

/// A completed campaign: every job's result plus run-level metadata.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name.
    pub name: String,
    /// Workload scale all jobs ran at.
    pub scale: Scale,
    /// [`SIM_VERSION`] of the producing simulator.
    pub sim_version: String,
    /// Creation time (unix seconds; 0 if the clock was unavailable).
    pub created_unix: u64,
    /// Wall-clock seconds for the whole campaign (this run only).
    pub wall_s: f64,
    /// Per-stage wall-time breakdown of this run.
    pub stages: StageWall,
    /// Jobs actually executed in this run.
    pub executed: usize,
    /// Jobs satisfied from the digest cache.
    pub cached: usize,
    /// Why the digest cache was ignored this run, if it was (an
    /// unreadable or schema-mismatched prior artifact). Transient — not
    /// serialized into the artifact.
    pub cache_warning: Option<String>,
    /// Trace id of the daemon request that produced this campaign
    /// (`None` for local runs and older artifacts). Greppable against
    /// the daemon's JSONL event log.
    pub trace_id: Option<String>,
    /// Sampling configuration the campaign ran under (`None` = full
    /// simulation, including every older artifact).
    pub sampling: Option<Sampling>,
    /// Per-job results, in job-list order.
    pub jobs: Vec<JobResult>,
}

impl Campaign {
    /// The artifact of `spec` over its resolved rows (in job-list
    /// order): rows marked `cached` count as cached, the rest as
    /// executed.
    pub fn new(spec: &CampaignSpec, jobs: Vec<JobResult>, wall_s: f64, stages: StageWall) -> Campaign {
        let cached = jobs.iter().filter(|j| j.cached).count();
        Campaign {
            name: spec.name.clone(),
            scale: spec.scale,
            sim_version: SIM_VERSION.to_string(),
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            wall_s,
            stages,
            executed: jobs.len() - cached,
            cached,
            cache_warning: None,
            trace_id: None,
            sampling: spec.sampling,
            jobs,
        }
    }

    /// The result for (workload, model) under the `"main"` variant.
    pub fn get(&self, workload: &str, model: CommModel) -> Option<&JobResult> {
        self.get_variant(workload, model, "main")
    }

    /// The result for (workload, model, variant).
    pub fn get_variant(
        &self,
        workload: &str,
        model: CommModel,
        variant: &str,
    ) -> Option<&JobResult> {
        self.jobs
            .iter()
            .find(|r| r.workload == workload && r.model == model && r.variant == variant)
    }

    /// Geometric-mean IPC of a model over one suite (`"main"` variant);
    /// `None` if the campaign has no such jobs.
    pub fn geomean_ipc(&self, model: CommModel, suite: Suite) -> Option<f64> {
        let vals: Vec<f64> = self
            .jobs
            .iter()
            .filter(|r| r.model == model && r.suite == suite && r.variant == "main")
            .map(|r| r.ipc)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(geomean(vals))
        }
    }

    /// Geometric-mean speedup of `model` over `baseline` across one
    /// suite, pairing jobs by workload (`"main"` variant).
    pub fn geomean_speedup(
        &self,
        baseline: CommModel,
        model: CommModel,
        suite: Suite,
    ) -> Option<f64> {
        let ratios: Vec<f64> = self
            .jobs
            .iter()
            .filter(|r| r.model == model && r.suite == suite && r.variant == "main")
            .filter_map(|r| {
                let base = self.get(&r.workload, baseline)?;
                (base.ipc > 0.0).then(|| r.ipc / base.ipc)
            })
            .collect();
        if ratios.is_empty() {
            None
        } else {
            Some(geomean(ratios))
        }
    }

    /// The `n` slowest jobs of this campaign by simulation wall-clock,
    /// slowest first. Cached rows keep the wall time of the run that
    /// produced them, so they participate too.
    pub fn slowest_jobs(&self, n: usize) -> Vec<&JobResult> {
        let mut rows: Vec<&JobResult> = self.jobs.iter().collect();
        rows.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
        rows.truncate(n);
        rows
    }

    /// The variant labels present, `"main"` first.
    pub fn variants(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for r in &self.jobs {
            if !out.contains(&r.variant) {
                out.push(r.variant.clone());
            }
        }
        out.sort_by_key(|v| (v != "main", v.clone()));
        out
    }

    /// The models present in this campaign, in reporting order.
    pub fn models(&self) -> Vec<CommModel> {
        CommModel::ALL
            .into_iter()
            .filter(|&m| self.jobs.iter().any(|r| r.model == m))
            .collect()
    }

    /// Serializes the campaign, including derived per-suite aggregates
    /// (informational — the reader recomputes nothing from them).
    pub fn to_json(&self) -> Json {
        let mut aggregates = Vec::new();
        for model in self.models() {
            for suite in [Suite::Int, Suite::Fp] {
                if let Some(g) = self.geomean_ipc(model, suite) {
                    let mut entry = vec![
                        ("model".to_string(), Json::Str(model.name().to_string())),
                        ("suite".to_string(), Json::Str(suite.name().to_string())),
                        ("geomean_ipc".to_string(), Json::Num(g)),
                    ];
                    if model != CommModel::Baseline {
                        if let Some(s) = self.geomean_speedup(CommModel::Baseline, model, suite) {
                            entry.push(("geomean_speedup".to_string(), Json::Num(s)));
                        }
                    }
                    aggregates.push(Json::Obj(entry));
                }
            }
        }
        // Informational top-5 (derived from `jobs`; the reader ignores
        // it, `dmdp report` recomputes from the rows).
        let slowest = Json::Arr(
            self.slowest_jobs(5)
                .into_iter()
                .map(|r| {
                    obj([
                        ("workload", Json::Str(r.workload.clone())),
                        ("model", Json::Str(r.model.name().to_string())),
                        ("variant", Json::Str(r.variant.clone())),
                        ("wall_s", Json::Num(r.wall_s)),
                        ("mips", Json::Num(r.mips)),
                    ])
                })
                .collect(),
        );
        let mut members = vec![
            ("schema", Json::Num(1.0)),
            ("campaign", Json::Str(self.name.clone())),
            ("sim_version", Json::Str(self.sim_version.clone())),
            ("scale", Json::Str(self.scale.name().to_string())),
            ("created_unix", Json::Num(self.created_unix as f64)),
            ("wall_s", Json::Num(self.wall_s)),
            (
                "stages",
                obj([
                    ("build_s", Json::Num(self.stages.build_s)),
                    ("cache_s", Json::Num(self.stages.cache_s)),
                    ("exec_s", Json::Num(self.stages.exec_s)),
                    ("aggregate_s", Json::Num(self.stages.aggregate_s)),
                ]),
            ),
            ("executed", Json::Num(self.executed as f64)),
            ("cached", Json::Num(self.cached as f64)),
        ];
        if let Some(trace) = &self.trace_id {
            members.push(("trace_id", Json::Str(trace.clone())));
        }
        if let Some(s) = self.sampling {
            members.push((
                "sampling",
                obj([
                    ("interval_insns", Json::Num(s.interval_insns as f64)),
                    ("warmup_intervals", Json::Num(s.warmup_intervals as f64)),
                ]),
            ));
        }
        members.extend([
            ("jobs", Json::Arr(self.jobs.iter().map(JobResult::to_json).collect())),
            ("slowest_jobs", slowest),
            ("aggregates", Json::Arr(aggregates)),
        ]);
        obj(members)
    }

    /// Deserializes a campaign artifact.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Campaign, String> {
        let schema = v.get("schema").and_then(Json::as_u64).unwrap_or(0);
        if schema != 1 {
            return Err(format!("unsupported campaign schema {schema}"));
        }
        let scale_name = v
            .get("scale")
            .and_then(Json::as_str)
            .ok_or("campaign: missing `scale`")?
            .to_string();
        let jobs = v
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or("campaign: missing `jobs` array")?
            .iter()
            .map(JobResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Campaign {
            name: v
                .get("campaign")
                .and_then(Json::as_str)
                .ok_or("campaign: missing `campaign`")?
                .to_string(),
            scale: Scale::from_name(&scale_name)
                .ok_or_else(|| format!("campaign: unknown scale `{scale_name}`"))?,
            sim_version: v
                .get("sim_version")
                .and_then(Json::as_str)
                .ok_or("campaign: missing `sim_version`")?
                .to_string(),
            created_unix: v.get("created_unix").and_then(Json::as_u64).unwrap_or(0),
            wall_s: v.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
            // Stage breakdown: tolerate pre-PR 3 artifacts (all zero).
            stages: {
                let f = |k: &str| {
                    v.get("stages").and_then(|s| s.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
                };
                StageWall {
                    build_s: f("build_s"),
                    cache_s: f("cache_s"),
                    exec_s: f("exec_s"),
                    aggregate_s: f("aggregate_s"),
                }
            },
            executed: v.get("executed").and_then(Json::as_u64).unwrap_or(0) as usize,
            cached: v.get("cached").and_then(Json::as_u64).unwrap_or(0) as usize,
            cache_warning: None,
            // Daemon-request trace id (PR 8): tolerate older artifacts.
            trace_id: v.get("trace_id").and_then(Json::as_str).map(str::to_string),
            // Sampling echo (PR 9): absent means full simulation.
            sampling: v.get("sampling").and_then(|s| {
                Some(Sampling {
                    interval_insns: s.get("interval_insns").and_then(Json::as_u64)?,
                    warmup_intervals: s.get("warmup_intervals").and_then(Json::as_u64)? as u32,
                })
            }),
            jobs,
        })
    }

    /// Writes the artifact, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Filesystem errors, stringified.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
        }
        std::fs::write(path, self.to_json().pretty())
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Reads an artifact back.
    ///
    /// # Errors
    ///
    /// Filesystem or parse errors, stringified.
    pub fn load(path: &Path) -> Result<Campaign, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Campaign::from_json(&Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_list_is_the_cross_product() {
        let spec = CampaignSpec::new("x", Scale::Test)
            .models([CommModel::Baseline, CommModel::Dmdp])
            .kernels(["lib", "mcf", "gcc"])
            .variants([
                ("main".to_string(), CfgPatch::default()),
                ("rob128".to_string(), CfgPatch { rob: Some(128), ..CfgPatch::default() }),
            ]);
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs.len(), 3 * 2 * 2);
        // Workload program built once per workload, shared by its jobs.
        let lib_jobs: Vec<_> = jobs.iter().filter(|j| j.workload == "lib").collect();
        assert_eq!(lib_jobs.len(), 4);
        assert!(lib_jobs.windows(2).all(|w| Arc::ptr_eq(&w[0].program, &w[1].program)));
        // ... and so is its plan cache.
        assert!(lib_jobs.windows(2).all(|w| Arc::ptr_eq(&w[0].plans, &w[1].plans)));
        // All digests distinct.
        let mut digests: Vec<&str> = jobs.iter().map(|j| j.digest.as_str()).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), jobs.len());
    }

    #[test]
    fn duplicate_variant_labels_are_rejected() {
        let err = CampaignSpec::new("x", Scale::Test)
            .variants([
                ("main".to_string(), CfgPatch::default()),
                ("rob64".to_string(), CfgPatch { rob: Some(64), ..CfgPatch::default() }),
                ("rob64".to_string(), CfgPatch { rob: Some(128), ..CfgPatch::default() }),
            ])
            .jobs()
            .unwrap_err();
        assert!(err.contains("duplicate variant label `rob64`"), "{err}");
        // And `run` surfaces the same rejection.
        let err = CampaignSpec::new("x", Scale::Test)
            .kernels(["lib"])
            .variants([
                ("a".to_string(), CfgPatch::default()),
                ("a".to_string(), CfgPatch::default()),
            ])
            .run(&RunOptions { jobs: 1, ..RunOptions::default() })
            .unwrap_err();
        assert!(err.contains("duplicate variant label `a`"), "{err}");
    }

    fn sweep_spec(name: &str) -> CampaignSpec {
        CampaignSpec::new(name, Scale::Test)
            .models([CommModel::NoSq, CommModel::Dmdp])
            .kernels(["lib", "mcf"])
            .variants([
                ("main".to_string(), CfgPatch::default()),
                ("rob32".to_string(), CfgPatch { rob: Some(32), ..CfgPatch::default() }),
                ("sb2".to_string(), CfgPatch { sb: Some(2), ..CfgPatch::default() }),
            ])
    }

    /// Each spec run on its own through [`JobSpec::execute`] — the
    /// reference every batched path must match bit for bit.
    fn solo_rows(spec: &CampaignSpec) -> Vec<JobResult> {
        spec.jobs().unwrap().iter().map(|s| s.execute().unwrap()).collect()
    }

    #[test]
    fn batched_campaign_matches_job_per_variant() {
        let batched = sweep_spec("b")
            .run(&RunOptions { jobs: 2, ..RunOptions::default() })
            .unwrap();
        let solo = solo_rows(&sweep_spec("u"));
        assert_eq!(batched.jobs.len(), 2 * 2 * 3);
        assert_eq!(batched.jobs.len(), solo.len());
        for (b, u) in batched.jobs.iter().zip(&solo) {
            assert_eq!(b.digest, u.digest);
            assert_eq!(b.variant, u.variant);
            // Full-stats bit-identity between the two execution paths.
            assert_eq!(b.stats, u.stats, "{} × {} [{}]", b.workload, b.model.name(), b.variant);
        }
    }

    #[test]
    fn partial_cache_hit_batches_only_the_misses() {
        let dir = std::env::temp_dir().join(format!("dmdp-batch-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("sweep.json");
        // Seed the cache with the main-variant rows only.
        let seed = sweep_spec("seed")
            .variants([("main".to_string(), CfgPatch::default())])
            .run(&RunOptions { jobs: 1, ..RunOptions::default() })
            .unwrap();
        seed.save(&artifact).unwrap();
        // The full sweep reuses those rows and batch-executes the rest.
        let full = sweep_spec("seed")
            .run(&RunOptions { jobs: 1, cache: Some(artifact.clone()), ..RunOptions::default() })
            .unwrap();
        assert_eq!(full.cached, 4, "main rows come from the artifact");
        assert_eq!(full.executed, 8, "variant rows are executed");
        for job in &full.jobs {
            assert_eq!(job.cached, job.variant == "main");
        }
        // And the batched misses match solo runs bit-for-bit.
        for (got, want) in full.jobs.iter().zip(&solo_rows(&sweep_spec("ref"))) {
            assert_eq!(got.digest, want.digest);
            assert_eq!(got.cycles, want.cycles);
            assert_eq!(got.ipc, want.ipc);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prior_artifact_hits_carry_the_requested_label() {
        let artifact = std::env::temp_dir().join(format!("dmdp-relabel-{}.json", std::process::id()));
        let labelled = |label: &str| {
            let rob64 = CfgPatch { rob: Some(64), ..CfgPatch::default() };
            CampaignSpec::new("relabel", Scale::Test).kernels(["mcf"]).models([CommModel::Dmdp]).variants([(label.to_string(), rob64)])
        };
        let opts = RunOptions { jobs: 1, cache: Some(artifact.clone()), ..RunOptions::default() };
        labelled("a").run(&opts).unwrap().save(&artifact).unwrap();
        // Same config under another label: a digest hit, relabelled.
        let b = labelled("b").run(&opts).unwrap();
        assert_eq!((b.executed, b.cached, b.jobs[0].variant.as_str()), (0, 1, "b"));
        std::fs::remove_file(&artifact).ok();
    }

    #[test]
    fn impossible_variant_is_rejected_before_any_job_runs() {
        let tiny = CfgPatch { prf: Some(10), ..CfgPatch::default() };
        let spec = CampaignSpec::new("x", Scale::Test).kernels(["lib"]).variants([("tiny".to_string(), tiny)]);
        let err = spec.run(&RunOptions { jobs: 1, ..RunOptions::default() }).unwrap_err();
        assert!(err.contains("variant `tiny`") && err.contains("register file too small"), "{err}");
    }

    #[test]
    fn unknown_kernel_is_rejected() {
        let err = CampaignSpec::new("x", Scale::Test).kernels(["nope"]).jobs().unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn geomeans_cover_models_and_speedups() {
        let campaign = CampaignSpec::new("g", Scale::Test)
            .models([CommModel::Baseline, CommModel::Dmdp])
            .kernels(["lib", "bwaves"])
            .run(&RunOptions { jobs: 1, ..RunOptions::default() })
            .unwrap();
        assert_eq!(campaign.jobs.len(), 4);
        assert!(campaign.geomean_ipc(CommModel::Dmdp, Suite::Int).unwrap() > 0.0);
        assert!(campaign.geomean_ipc(CommModel::Dmdp, Suite::Fp).unwrap() > 0.0);
        assert!(campaign.geomean_speedup(CommModel::Baseline, CommModel::Dmdp, Suite::Int).is_some());
        assert!(campaign.geomean_ipc(CommModel::Perfect, Suite::Int).is_none());
        assert_eq!(campaign.models(), vec![CommModel::Baseline, CommModel::Dmdp]);
    }
}
