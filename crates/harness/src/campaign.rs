//! Campaign construction, resolution through the result store, parallel
//! execution, aggregation and artifact I/O.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dmdp_core::{CommModel, CoreConfig, SIM_VERSION};
use dmdp_obs::log::{EventLog, Level};
use dmdp_sample::SampledBundle;
use dmdp_stats::geomean;
use dmdp_workloads::{Scale, Suite};

use crate::group::{resolve, Inflight, Outcome, Resolve, Source};
use crate::job::{CfgPatch, JobConfig, JobResult, JobSpec, WorkloadImage};
use crate::json::{Field, Parser, Writer};
use crate::pool;
use crate::sampled::{build_bundle, Sampling, SamplingSpec};
use crate::store::Store;

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
    /// wide instead, or reads them from its store.
    ///
    /// # Errors
    ///
    /// As [`CampaignSpec::jobs_over`].
    pub fn jobs(&self) -> Result<Vec<JobSpec>, String> {
        self.jobs_over(&self.images(), 1, |w, s| build_bundle(&w.image.program, s))
    }

    /// Fresh images of the selected workloads.
    fn images(&self) -> Vec<WorkloadImage> {
        let all = dmdp_workloads::all(self.scale).into_iter();
        all.filter(|w| self.selects(w.name)).map(WorkloadImage::new).collect()
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

    /// Runs the campaign through [`resolve`]. With `opts.store`, the
    /// store opens first: the rows it holds are reused, its blobs supply
    /// the sampled bundles, and every executed row is appended to it.
    /// Misses execute `opts.jobs` wide, at the caller's CPU priority.
    ///
    /// # Errors
    ///
    /// The first job error (cycle-limit abort), or any error of
    /// [`CampaignSpec::jobs_over`]. A store that will not open is only a
    /// warning: every job then runs without it.
    pub fn run(&self, opts: &RunOptions) -> Result<Campaign, String> {
        let start = Instant::now();
        let log = EventLog::stderr(Level::Warn);
        let mut cache_warning = None;
        // A store that will not open (a foreign row log, an unreadable
        // directory) must not abort the campaign: it is only a cache.
        let store = opts.store.as_deref().and_then(|dir| match Store::open_logged(dir, None, &log) {
            Ok(store) => Some(store),
            Err(e) => {
                let msg = format!("result store {} is unusable ({e}); running every job without it", dir.display());
                eprintln!("dmdp: warning: {msg}");
                cache_warning = Some(msg);
                None
            }
        });
        let cache_s = start.elapsed().as_secs_f64();

        // Bundles are built here, before the job pool starts, so no job's
        // claimed→finished window includes bundle time.
        let build_start = Instant::now();
        let specs = self.jobs_over(&self.images(), opts.jobs, |w, s| match &store {
            Some(store) => store.blobs().bundle(w, s, &log),
            None => build_bundle(&w.image.program, s),
        })?;
        let build_s = build_start.elapsed().as_secs_f64();

        let exec_start = Instant::now();
        let local = Local::new(&specs, store.as_ref(), &log, opts.progress);
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

/// A local campaign's half of [`resolve`]: lookups in and appends to its
/// result store, if it has one, execution in this process, and one
/// progress line per job the store did not hold.
struct Local<'a> {
    store: Option<&'a Store>,
    log: &'a EventLog,
    progress: bool,
    to_run: usize,
    done: AtomicUsize,
}

impl<'a> Local<'a> {
    fn new(specs: &[JobSpec], store: Option<&'a Store>, log: &'a EventLog, progress: bool) -> Local<'a> {
        let to_run = specs.iter().filter(|s| !store.is_some_and(|st| st.contains(&s.digest))).count();
        Local { store, log, progress, to_run, done: AtomicUsize::new(0) }
    }
}

impl Resolve for Local<'_> {
    fn lookup(&self, spec: &JobSpec) -> Option<JobResult> {
        self.store?.get(&spec.digest)
    }

    fn execute(&self, specs: &[&JobSpec]) -> Vec<Result<JobResult, String>> {
        JobSpec::execute_batch(specs)
    }

    fn publish(&self, row: &JobResult) {
        if let Some(store) = self.store {
            store.publish(row, self.log);
        }
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
    /// The result store directory to resolve through; `None` executes
    /// every job and keeps no row.
    pub store: Option<PathBuf>,
    /// Print one line per finished job.
    pub progress: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions { jobs: pool::default_workers(), store: None, progress: false }
    }
}

/// Per-stage wall-clock breakdown of one campaign run (all seconds).
/// Zero for artifacts written before the breakdown existed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageWall {
    /// Building the job list (workload generation + assembly, and the
    /// sampled bundles when sampling: built, or read from the store).
    pub build_s: f64,
    /// Opening the result store (indexing its row log).
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
    /// Jobs this run did not execute: found in the result store, or
    /// shared with another request's identical job in flight.
    pub cached: usize,
    /// Why the result store went unused this run, if it did (a foreign
    /// row log, an unreadable directory). Transient — not serialized
    /// into the artifact.
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

    /// Writes the campaign, including derived per-suite aggregates and the
    /// five slowest jobs (informational: the reader recomputes nothing
    /// from them, and `dmdp report` recomputes both from the rows).
    pub fn write(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("schema").count(1);
            w.key("campaign").str(&self.name);
            w.key("sim_version").str(&self.sim_version);
            w.key("scale").str(self.scale.name());
            w.key("created_unix").count(self.created_unix);
            w.key("wall_s").num(self.wall_s);
            w.key("stages").object(|w| {
                w.key("build_s").num(self.stages.build_s);
                w.key("cache_s").num(self.stages.cache_s);
                w.key("exec_s").num(self.stages.exec_s);
                w.key("aggregate_s").num(self.stages.aggregate_s);
            });
            w.key("executed").count(self.executed as u64);
            w.key("cached").count(self.cached as u64);
            if let Some(trace) = &self.trace_id {
                w.key("trace_id").str(trace);
            }
            if let Some(s) = self.sampling {
                w.key("sampling").object(|w| {
                    w.key("interval_insns").count(s.interval_insns);
                    w.key("warmup_intervals").count(u64::from(s.warmup_intervals));
                });
            }
            w.key("jobs").array(|w| self.jobs.iter().for_each(|r| r.write(w.elem())));
            w.key("slowest_jobs").array(|w| {
                for r in self.slowest_jobs(5) {
                    w.elem().object(|w| {
                        w.key("workload").str(&r.workload);
                        w.key("model").str(r.model.name());
                        w.key("variant").str(&r.variant);
                        w.key("wall_s").num(r.wall_s);
                        w.key("mips").num(r.mips);
                    });
                }
            });
            w.key("aggregates").array(|w| {
                for model in self.models() {
                    for suite in [Suite::Int, Suite::Fp] {
                        let Some(g) = self.geomean_ipc(model, suite) else { continue };
                        w.elem().object(|w| {
                            w.key("model").str(model.name());
                            w.key("suite").str(suite.name());
                            w.key("geomean_ipc").num(g);
                            if model != CommModel::Baseline {
                                if let Some(s) = self.geomean_speedup(CommModel::Baseline, model, suite) {
                                    w.key("geomean_speedup").num(s);
                                }
                            }
                        });
                    }
                }
            });
        });
    }

    /// Reads a campaign artifact: the head members and each `jobs` row
    /// (through [`JobResult::read`]), skipping `slowest_jobs`,
    /// `aggregates` and any unknown member. As in a row, the first of two
    /// duplicate keys wins and the members added after the first
    /// artifacts default when absent.
    ///
    /// # Errors
    ///
    /// A syntax error, a schema other than 1, or a message naming the
    /// missing or malformed field.
    pub fn read(p: &mut Parser) -> Result<Campaign, String> {
        let unsupported = |schema: u64| format!("unsupported campaign schema {schema}");
        let mut schema_seen = false;
        let [mut name, mut sim_version, mut scale, mut trace_id] = <[Field<String>; 4]>::default();
        let [mut created_unix, mut executed, mut cached] = <[Field<u64>; 3]>::default();
        let mut wall_s = Field::default();
        let mut stages = Field::default();
        let mut sampling = Field::default();
        let mut jobs = Field::default();
        p.members(|p, key| match key {
            // The first `schema` decides, before any row is read.
            "schema" if !schema_seen => {
                schema_seen = true;
                match p.count()?.unwrap_or(0) {
                    1 => Ok(()),
                    other => Err(unsupported(other)),
                }
            }
            "campaign" => name.read(p, Parser::string),
            "sim_version" => sim_version.read(p, Parser::string),
            "scale" => scale.read(p, Parser::string),
            "created_unix" => created_unix.read(p, Parser::count),
            "wall_s" => wall_s.read(p, Parser::number),
            "stages" => stages.read(p, read_stages),
            "executed" => executed.read(p, Parser::count),
            "cached" => cached.read(p, Parser::count),
            "trace_id" => trace_id.read(p, Parser::string),
            "sampling" => sampling.read(p, read_sampling),
            "jobs" => jobs.read(p, |p| {
                let mut rows = Vec::new();
                let found = p.elements(|p| {
                    rows.push(JobResult::read(p)?);
                    Ok(())
                })?;
                Ok(found.then_some(rows))
            }),
            _ => p.skip(),
        })?;
        if !schema_seen {
            return Err(unsupported(0));
        }
        let scale_name = scale.get().ok_or("campaign: missing `scale`")?;
        let jobs = jobs.get().ok_or("campaign: missing `jobs` array")?;
        Ok(Campaign {
            name: name.get().ok_or("campaign: missing `campaign`")?,
            scale: Scale::from_name(&scale_name)
                .ok_or_else(|| format!("campaign: unknown scale `{scale_name}`"))?,
            sim_version: sim_version.get().ok_or("campaign: missing `sim_version`")?,
            created_unix: created_unix.get().unwrap_or(0),
            wall_s: wall_s.get().unwrap_or(0.0),
            // Stage breakdown: tolerate pre-PR 3 artifacts (all zero).
            stages: stages.get().unwrap_or_default(),
            executed: executed.get().unwrap_or(0) as usize,
            cached: cached.get().unwrap_or(0) as usize,
            cache_warning: None,
            // Daemon-request trace id (PR 8): tolerate older artifacts.
            trace_id: trace_id.get(),
            // Sampling echo (PR 9): absent means full simulation.
            sampling: sampling.get(),
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
        std::fs::write(path, Writer::pretty(|w| self.write(w)))
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
        Parser::document(&text, Campaign::read).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The `stages` member: each stage first-wins, zero when absent or
/// mistyped; `None` when the member is not an object.
fn read_stages(p: &mut Parser) -> Result<Option<StageWall>, String> {
    let [mut build_s, mut cache_s, mut exec_s, mut aggregate_s] = <[Field<f64>; 4]>::default();
    let found = p.members(|p, key| match key {
        "build_s" => build_s.read(p, Parser::number),
        "cache_s" => cache_s.read(p, Parser::number),
        "exec_s" => exec_s.read(p, Parser::number),
        "aggregate_s" => aggregate_s.read(p, Parser::number),
        _ => p.skip(),
    })?;
    Ok(found.then(|| StageWall {
        build_s: build_s.get().unwrap_or(0.0),
        cache_s: cache_s.get().unwrap_or(0.0),
        exec_s: exec_s.get().unwrap_or(0.0),
        aggregate_s: aggregate_s.get().unwrap_or(0.0),
    }))
}

/// The `sampling` member: `None` unless it is an object with both knobs
/// as counts.
fn read_sampling(p: &mut Parser) -> Result<Option<Sampling>, String> {
    let [mut interval_insns, mut warmup_intervals] = <[Field<u64>; 2]>::default();
    p.members(|p, key| match key {
        "interval_insns" => interval_insns.read(p, Parser::count),
        "warmup_intervals" => warmup_intervals.read(p, Parser::count),
        _ => p.skip(),
    })?;
    let knobs = interval_insns.get().zip(warmup_intervals.get());
    Ok(knobs.map(|(interval_insns, warmup)| Sampling { interval_insns, warmup_intervals: warmup as u32 }))
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

    /// A fresh store directory under the system temp directory.
    fn tmp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dmdp-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn partial_cache_hit_batches_only_the_misses() {
        let dir = tmp_store("batch-cache");
        let opts = RunOptions { jobs: 1, store: Some(dir.clone()), ..RunOptions::default() };
        // Seed the store with the main-variant rows only.
        let seed = sweep_spec("seed").variants([("main".to_string(), CfgPatch::default())]).run(&opts).unwrap();
        assert_eq!(seed.executed, 4);
        // The full sweep reuses those rows and batch-executes the rest.
        let full = sweep_spec("seed").run(&opts).unwrap();
        assert_eq!(full.cached, 4, "main rows come from the store");
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
        let dir = tmp_store("relabel");
        let labelled = |label: &str| {
            let rob64 = CfgPatch { rob: Some(64), ..CfgPatch::default() };
            CampaignSpec::new("relabel", Scale::Test).kernels(["mcf"]).models([CommModel::Dmdp]).variants([(label.to_string(), rob64)])
        };
        let opts = RunOptions { jobs: 1, store: Some(dir.clone()), ..RunOptions::default() };
        let a = labelled("a").run(&opts).unwrap();
        assert_eq!((a.executed, a.jobs[0].variant.as_str()), (1, "a"));
        // Same config under another label: a store hit, relabelled.
        let b = labelled("b").run(&opts).unwrap();
        assert_eq!((b.executed, b.cached, b.jobs[0].variant.as_str()), (0, 1, "b"));
        std::fs::remove_dir_all(&dir).ok();
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
