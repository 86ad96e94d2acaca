//! Job specifications and per-job results.
//!
//! A campaign is a list of jobs, one per (workload × communication model
//! × configuration variant). Each job is self-contained — it owns its
//! full [`CoreConfig`] and a shared handle to the assembled program — so
//! any worker thread can execute it independently and deterministically.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use dmdp_core::{
    BatchSimulator, CommModel, ConfidencePolicy, CoreConfig, LowConfBreakdown, PlanCache, SimStats, Simulator,
    SIM_VERSION,
};
use dmdp_isa::Program;
use dmdp_stats::LoadSource;
use dmdp_workloads::{Scale, Suite};

use crate::digest::Digest64;
use crate::json::{Field, Json, Parser, Writer};
use crate::sampled::{sampled_metrics, SamplingSpec};

/// Process-wide simulation-path metrics, registered lazily on first
/// job execution. A handful of relaxed atomic adds per *job* (never per
/// simulated cycle), so the simulator hot path is untouched whether or
/// not anything ever scrapes them.
struct SimMetrics {
    jobs: &'static dmdp_obs::Counter,
    exec_us: &'static dmdp_obs::LogHistogram,
    batch_units: &'static dmdp_obs::Counter,
    batch_lanes: &'static dmdp_obs::Counter,
    batch_derived: &'static dmdp_obs::Counter,
}

fn sim_metrics() -> &'static SimMetrics {
    static METRICS: std::sync::OnceLock<SimMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = dmdp_obs::registry();
        SimMetrics {
            jobs: r.counter("dmdp_sim_jobs_total", "simulation jobs executed in-process"),
            exec_us: r.histogram(
                "dmdp_sim_exec_us",
                "per-job simulation wall-clock in microseconds",
            ),
            batch_units: r.counter(
                "dmdp_batch_units_total",
                "multi-variant groups run through the batch engine",
            ),
            batch_lanes: r.counter(
                "dmdp_batch_lanes_total",
                "variant lanes entering the batch engine",
            ),
            batch_derived: r.counter(
                "dmdp_batch_derived_total",
                "lanes derived from a never-bound reference instead of simulated",
            ),
        }
    })
}

fn wall_to_us(wall_s: f64) -> u64 {
    (wall_s * 1e6).max(0.0) as u64
}

/// A sparse configuration override — the §VI-f/g alternative-machine
/// knobs and the §IV-C/E ablation policies a campaign can sweep. Fields
/// left `None`/`false` keep the paper's main configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CfgPatch {
    /// Pipeline width override.
    pub width: Option<usize>,
    /// ROB capacity override.
    pub rob: Option<usize>,
    /// Physical register file size override.
    pub prf: Option<usize>,
    /// Store buffer capacity override.
    pub sb: Option<usize>,
    /// Switch the store buffer to release consistency (RMO).
    pub rmo: bool,
    /// Use the balanced (−1) confidence update whatever the model
    /// (§IV-E ablation).
    pub balanced: bool,
    /// Train the distance predictor on exceptions only, not on every
    /// re-execution (§IV-C a ablation).
    pub nosilent: bool,
}

/// Where a knob lands in a [`CfgPatch`]: a size (`rob:64`) or a bare
/// switch (`rmo`).
#[derive(Clone, Copy)]
enum Slot {
    Size(fn(&mut CfgPatch) -> &mut Option<usize>),
    Switch(fn(&mut CfgPatch) -> &mut bool),
}

/// Every knob a variant can set, in the order both forms list them: the
/// one place a knob is named.
const KNOBS: [(&str, Slot); 7] = [
    ("width", Slot::Size(|p| &mut p.width)),
    ("rob", Slot::Size(|p| &mut p.rob)),
    ("prf", Slot::Size(|p| &mut p.prf)),
    ("sb", Slot::Size(|p| &mut p.sb)),
    ("rmo", Slot::Switch(|p| &mut p.rmo)),
    ("balanced", Slot::Switch(|p| &mut p.balanced)),
    ("nosilent", Slot::Switch(|p| &mut p.nosilent)),
];

fn knob(key: &str) -> Option<Slot> {
    KNOBS.iter().find(|(k, _)| *k == key).map(|&(_, slot)| slot)
}

fn knob_names() -> String {
    KNOBS.map(|(k, _)| k).join("/")
}

impl CfgPatch {
    /// True if the patch changes nothing.
    pub fn is_empty(&self) -> bool {
        *self == CfgPatch::default()
    }

    /// Applies the overrides to a base configuration.
    pub fn apply(&self, cfg: &mut CoreConfig) {
        if let Some(w) = self.width {
            cfg.width = w;
        }
        if let Some(r) = self.rob {
            cfg.rob_entries = r;
        }
        if let Some(p) = self.prf {
            cfg.phys_regs = p;
        }
        if let Some(s) = self.sb {
            cfg.store_buffer_entries = s;
        }
        if self.rmo {
            cfg.consistency = dmdp_mem::Consistency::Rmo;
        }
        if self.balanced {
            cfg.distance.policy = ConfidencePolicy::Balanced;
        }
        if self.nosilent {
            cfg.silent_store_update = false;
        }
    }

    /// Sets one knob from its text form: `key` with `value` for a size
    /// (`rob`, `"64"`), without one for a switch (`rmo`).
    ///
    /// # Errors
    ///
    /// An unknown key, a size without a value or a bad number, or a
    /// switch given a value.
    pub fn set(&mut self, key: &str, value: Option<&str>) -> Result<(), String> {
        let slot = knob(key).ok_or_else(|| format!("unknown knob `{key}` ({})", knob_names()))?;
        match (slot, value) {
            (Slot::Size(field), Some(v)) => {
                *field(self) = Some(v.parse().map_err(|e| format!("knob `{key}`: {e}"))?);
            }
            (Slot::Size(_), None) => return Err(format!("knob `{key}` needs a value ({key}:<N>)")),
            (Slot::Switch(field), None) => *field(self) = true,
            (Slot::Switch(_), Some(_)) => return Err(format!("knob `{key}` takes no value")),
        }
        Ok(())
    }

    /// Parses the text form of `--variant LABEL=KNOBS`: comma-separated
    /// `width/rob/prf/sb:<N>` and bare `rmo`, `balanced`, `nosilent`;
    /// empty text is the main configuration.
    ///
    /// # Errors
    ///
    /// As [`CfgPatch::set`], or a knob given twice.
    pub fn parse(text: &str) -> Result<CfgPatch, String> {
        let mut patch = CfgPatch::default();
        let mut seen = Vec::new();
        for item in text.split(',').filter(|k| !k.is_empty()) {
            let (key, value) = match item.split_once(':') {
                Some((key, value)) => (key, Some(value)),
                None => (item, None),
            };
            if seen.contains(&key) {
                return Err(format!("knob `{key}` given twice"));
            }
            seen.push(key);
            patch.set(key, value)?;
        }
        Ok(patch)
    }

    /// The wire form: one member per set knob, a size as a number and a
    /// switch as `true`.
    pub fn to_json(&self) -> Json {
        // The knob table hands out `&mut` fields, so read a scratch copy.
        let mut p = self.clone();
        let members = KNOBS.iter().filter_map(|&(key, slot)| {
            let v = match slot {
                Slot::Size(field) => Json::Num((*field(&mut p))? as f64),
                Slot::Switch(field) => (*field(&mut p)).then_some(Json::Bool(true))?,
            };
            Some((key.to_string(), v))
        });
        Json::Obj(members.collect())
    }

    /// Parses the wire form. An unknown, repeated or mistyped key is an
    /// error naming it: ignoring it would run the wrong configuration
    /// under the variant's label.
    ///
    /// # Errors
    ///
    /// A message naming the offending key.
    pub fn from_json(v: &Json) -> Result<CfgPatch, String> {
        let Json::Obj(members) = v else {
            return Err("patch: must be an object".to_string());
        };
        let mut patch = CfgPatch::default();
        for (i, (k, n)) in members.iter().enumerate() {
            if members[..i].iter().any(|(prior, _)| prior == k) {
                return Err(format!("patch: `{k}` given twice"));
            }
            match knob(k).ok_or_else(|| format!("patch: unknown key `{k}` ({})", knob_names()))? {
                Slot::Size(field) => {
                    let n = n.as_u64().ok_or_else(|| format!("patch: `{k}` must be a non-negative integer"))?;
                    *field(&mut patch) = Some(n as usize);
                }
                Slot::Switch(field) => {
                    let on = n.as_bool().ok_or_else(|| format!("patch: `{k}` must be a boolean"))?;
                    *field(&mut patch) = on;
                }
            }
        }
        Ok(patch)
    }
}

/// A workload's assembled program paired with its static µop plan
/// cache — built once per workload and shared (both `Arc`s) by every
/// (model × variant) job that runs the image.
#[derive(Debug, Clone)]
pub struct PlannedImage {
    /// The assembled program.
    pub program: Arc<Program>,
    /// The program's decode-plan table.
    pub plans: Arc<PlanCache>,
}

impl PlannedImage {
    /// Builds the plan cache for `program` (the one place a campaign
    /// pays the decode cost; jobs then share the result).
    pub fn new(program: Arc<Program>) -> PlannedImage {
        let plans = PlanCache::shared(&program);
        PlannedImage { program, plans }
    }
}

/// A workload's planned image with the name and suite its jobs report.
#[derive(Debug, Clone)]
pub struct WorkloadImage {
    /// Workload (SPEC analogue) name.
    pub name: &'static str,
    /// The suite the paper reports the workload under.
    pub suite: Suite,
    /// The assembled program and its plan cache.
    pub image: PlannedImage,
}

impl WorkloadImage {
    /// Plans a generated workload.
    pub fn new(w: dmdp_workloads::Workload) -> WorkloadImage {
        WorkloadImage { name: w.name, suite: w.suite, image: PlannedImage::new(Arc::new(w.program)) }
    }
}

/// All 21 workload images per scale, built on first use and kept for the
/// life of a daemon or worker, so repeat requests never pay generation
/// or decode again.
#[derive(Debug, Default)]
pub struct ResidentImages {
    scales: Mutex<HashMap<&'static str, Arc<Vec<WorkloadImage>>>>,
}

impl ResidentImages {
    /// The image set for `scale`, in the paper's reporting order. Holding
    /// the lock across the build serializes concurrent first requests, so
    /// each set is built once.
    pub fn at(&self, scale: Scale) -> Arc<Vec<WorkloadImage>> {
        let mut scales = self.scales.lock().unwrap_or_else(PoisonError::into_inner);
        let set = scales.entry(scale.name()).or_insert_with(|| {
            Arc::new(dmdp_workloads::all(scale).into_iter().map(WorkloadImage::new).collect())
        });
        Arc::clone(set)
    }

    /// Images resident across every scale.
    pub fn count(&self) -> usize {
        self.scales.lock().unwrap_or_else(PoisonError::into_inner).values().map(|v| v.len()).sum()
    }
}

/// One runnable experiment: a workload under a model and configuration.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Workload (SPEC analogue) name.
    pub workload: String,
    /// The suite the paper reports the workload under.
    pub suite: Suite,
    /// Communication model under test.
    pub model: CommModel,
    /// Workload scale.
    pub scale: Scale,
    /// Configuration-variant label (`"main"` for the paper's default).
    pub variant: String,
    /// The full, patched core configuration.
    pub cfg: CoreConfig,
    /// The assembled program, shared across the jobs of one workload.
    pub program: Arc<Program>,
    /// The program's static µop plan cache, built once per workload and
    /// shared across all its (model × variant) jobs.
    pub plans: Arc<PlanCache>,
    /// Sampled-simulation work order; `None` runs the full simulation.
    pub sampling: Option<SamplingSpec>,
    /// Content digest identifying this job's result (hex).
    pub digest: String,
}

/// One (model, variant) configuration of a job list, with its digest
/// prefix: the digest state after `SIM_VERSION` and the full config
/// identity, which every workload's job digest under it continues from.
pub(crate) struct JobConfig<'a> {
    model: CommModel,
    variant: &'a str,
    cfg: CoreConfig,
    prefix: Digest64,
}

impl<'a> JobConfig<'a> {
    /// Formats and hashes the config identity, once per configuration.
    pub(crate) fn new(model: CommModel, variant: &'a str, cfg: CoreConfig) -> JobConfig<'a> {
        let mut prefix = Digest64::new();
        prefix.write_str(SIM_VERSION).write_str(&cfg.identity());
        JobConfig { model, variant, cfg, prefix }
    }
}

impl JobSpec {
    /// Builds a spec, computing its content digest from everything that
    /// determines the result: simulator timing version, full config
    /// identity, workload name and the assembled program image (which
    /// captures scale and generator seeds). The one-config case of the
    /// routine a job list's digests come from.
    pub fn new(
        workload: &str,
        suite: Suite,
        model: CommModel,
        scale: Scale,
        variant: &str,
        cfg: CoreConfig,
        image: &PlannedImage,
    ) -> JobSpec {
        let configs = [JobConfig::new(model, variant, cfg)];
        let mut jobs = JobSpec::over_configs(workload, suite, scale, image, &configs);
        jobs.pop().expect("one job per configuration")
    }

    /// One workload's jobs under each configuration, in order — the one
    /// place a job digest is defined. Each digest continues its
    /// configuration's prefix with the workload name and the program
    /// image; the image is encoded once and absorbed by all the digests
    /// together.
    pub(crate) fn over_configs(
        workload: &str,
        suite: Suite,
        scale: Scale,
        image: &PlannedImage,
        configs: &[JobConfig],
    ) -> Vec<JobSpec> {
        let mut digests: Vec<Digest64> = configs
            .iter()
            .map(|c| {
                let mut d = c.prefix;
                d.write_str(workload);
                d
            })
            .collect();
        // The plan cache is a pure host-side decode of the program image,
        // so it contributes nothing to the digest beyond what
        // `program.to_image()` already covers.
        Digest64::write_lanes(&mut digests, &image.program.to_image());
        configs
            .iter()
            .zip(digests)
            .map(|(c, d)| JobSpec {
                workload: workload.to_string(),
                suite,
                model: c.model,
                scale,
                variant: c.variant.to_string(),
                cfg: c.cfg.clone(),
                program: Arc::clone(&image.program),
                plans: Arc::clone(&image.plans),
                sampling: None,
                digest: d.hex(),
            })
            .collect()
    }

    /// Turns a full-simulation spec into a sampled one: attaches the
    /// workload's bundle and appends the sampling knobs to the digest
    /// stream, so a sampled result can never be confused with (or
    /// satisfied from the cache of) the full run it estimates. Full-run
    /// digests are untouched — the suffix exists only on sampled jobs.
    /// The stream resumes from the full-run digest, which is its state.
    pub fn sampled(mut self, spec: SamplingSpec) -> JobSpec {
        let mut d = Digest64::from_hex(&self.digest).expect("a job digest is 16 hex digits");
        d.write_str(&spec.sampling.digest_suffix());
        self.digest = d.hex();
        self.sampling = Some(spec);
        self
    }

    /// Runs the simulation (full or sampled), timing it.
    ///
    /// # Errors
    ///
    /// A human-readable message if the simulator aborts (cycle limit).
    pub fn execute(&self) -> Result<JobResult, String> {
        if let Some(s) = &self.sampling {
            return self.execute_sampled(s);
        }
        let start = Instant::now();
        let report = Simulator::with_config(self.cfg.clone())
            .run_planned(&self.program, &self.plans)
            .map_err(|e| format!("{} × {} [{}]: {e}", self.workload, self.model.name(), self.variant))?;
        let wall = start.elapsed().as_secs_f64();
        let m = sim_metrics();
        m.jobs.inc();
        m.exec_us.observe(wall_to_us(wall));
        Ok(JobResult::from_stats(self, report.stats, wall))
    }

    /// Runs only the bundle's representative intervals (checkpoint
    /// fast-forward + warmup + measurement each) and recombines them
    /// into the whole-run estimate.
    fn execute_sampled(&self, s: &SamplingSpec) -> Result<JobResult, String> {
        let start = Instant::now();
        let sim = Simulator::with_config(self.cfg.clone());
        let runs = s.bundle.rep_runs();
        let mut measurements = Vec::with_capacity(runs.len());
        let mut simulated_insns = 0u64;
        for r in &runs {
            let iv = sim
                .run_from_checkpoint(
                    &self.program,
                    &self.plans,
                    &s.bundle.checkpoints[r.ckpt],
                    r.warmup_insns,
                    r.measure_insns,
                )
                .map_err(|e| {
                    format!(
                        "{} × {} [{}] interval {}: {e}",
                        self.workload,
                        self.model.name(),
                        self.variant,
                        r.interval
                    )
                })?;
            simulated_insns += iv.warmup_insns + iv.insns;
            measurements.push(dmdp_sample::IntervalMeasurement {
                interval: r.interval,
                weight: r.weight,
                cycles: iv.cycles,
                insns: iv.insns,
            });
        }
        let report = dmdp_sample::recombine(&s.bundle.plan, measurements);
        let wall = start.elapsed().as_secs_f64();
        let m = sim_metrics();
        m.jobs.inc();
        m.exec_us.observe(wall_to_us(wall));
        sampled_metrics().intervals_simulated.add(report.intervals_simulated);
        Ok(JobResult::from_sampled(self, s, &report, wall, simulated_insns))
    }

    /// Runs a group of variant jobs of one (workload, model) through the
    /// batch engine ([`BatchSimulator`]): one shared front end (program
    /// image, decode plans, Perfect-model oracle pre-pass), each variant
    /// run in turn or derived from a never-bound run. Results are
    /// bit-identical to [`JobSpec::execute`] per variant; the batch's
    /// wall-clock is attributed to each job proportionally to its
    /// simulated cycles, so per-job MIPS stay meaningful and the shares
    /// sum to the batch wall.
    ///
    /// A singleton group takes the plain path — callers need no special
    /// case for non-sweep campaigns.
    pub fn execute_batch(specs: &[&JobSpec]) -> Vec<Result<JobResult, String>> {
        if specs.len() == 1 {
            return vec![specs[0].execute()];
        }
        let Some(first) = specs.first() else {
            return Vec::new();
        };
        debug_assert!(
            specs.iter().all(|s| Arc::ptr_eq(&s.program, &first.program)
                && Arc::ptr_eq(&s.plans, &first.plans)),
            "a batch group must share one planned image"
        );
        debug_assert!(
            specs.iter().all(|s| s.sampling.is_none()),
            "sampled jobs run one interval at a time, never through the batch engine"
        );
        let start = Instant::now();
        let mut batch = BatchSimulator::new(Arc::clone(&first.program), Arc::clone(&first.plans));
        for spec in specs {
            batch.push(spec.cfg.clone());
        }
        let run = batch.run_detailed();
        let wall = start.elapsed().as_secs_f64();
        let m = sim_metrics();
        m.jobs.add(specs.len() as u64);
        m.batch_units.inc();
        m.batch_lanes.add(specs.len() as u64);
        m.batch_derived.add(run.derived as u64);
        let outcomes = run.results;
        let total_cycles: u64 =
            outcomes.iter().filter_map(|r| r.as_ref().ok()).map(|s| s.cycles).sum();
        specs
            .iter()
            .zip(outcomes)
            .map(|(spec, outcome)| match outcome {
                Ok(stats) => {
                    let share = if total_cycles > 0 {
                        stats.cycles as f64 / total_cycles as f64
                    } else {
                        1.0 / specs.len() as f64
                    };
                    m.exec_us.observe(wall_to_us(wall * share));
                    Ok(JobResult::from_stats(spec, stats, wall * share))
                }
                Err(e) => Err(format!(
                    "{} × {} [{}]: {e}",
                    spec.workload,
                    spec.model.name(),
                    spec.variant
                )),
            })
            .collect()
    }
}

/// The counters the paper's figures read beyond a row's summary columns
/// (`dmdp report --figure`). Each is copied from [`SimStats`]; a row has
/// them only when it was fully simulated by a binary that records them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FigureCounters {
    /// Loads per class, in [`LoadSource::ALL`] order: direct, bypassed,
    /// delayed, predicated (Fig. 2).
    pub loads: [u64; 4],
    /// Mean execution time of delayed loads, cycles (Fig. 3).
    pub delayed_latency: f64,
    /// Mean execution time of bypassing loads, cycles (Fig. 3).
    pub bypassed_latency: f64,
    /// Low-confidence outcome breakdown (Fig. 5).
    pub lowconf: LowConfBreakdown,
    /// Low-confidence loads timed (Table V).
    pub lowconf_loads: u64,
    /// Mean execution time of low-confidence loads, cycles (Table V).
    pub lowconf_latency: f64,
    /// Retire-stall cycles with a full store buffer (Fig. 14).
    pub sb_full_stall_cycles: u64,
    /// Dynamic energy, nJ (Fig. 15).
    pub energy_nj: f64,
    /// Predication µops inserted (§IV-E ablation).
    pub predication_uops: u64,
}

impl FigureCounters {
    /// The counters of a finished simulation.
    pub fn from_stats(s: &SimStats) -> FigureCounters {
        let ll = &s.load_latency;
        FigureCounters {
            loads: LoadSource::ALL.map(|c| ll.count(c)),
            delayed_latency: ll.mean_latency(LoadSource::Delayed),
            bypassed_latency: ll.mean_latency(LoadSource::Bypassed),
            lowconf: s.lowconf,
            lowconf_loads: s.lowconf_latency.total(),
            lowconf_latency: s.lowconf_latency.overall_mean(),
            sb_full_stall_cycles: s.sb_full_stall_cycles,
            energy_nj: s.energy.total_nj(),
            predication_uops: s.predication_uops,
        }
    }

    /// The counters as a row carries them.
    pub fn to_text(&self) -> FigureText {
        let ([direct, bypassed, delayed, predicated], l) = (self.loads, self.lowconf);
        FigureText(format!(
            "{direct} {bypassed} {delayed} {predicated} {:?} {:?} {} {} {} {} {:?} {} {:?} {}",
            self.delayed_latency,
            self.bypassed_latency,
            l.indep_store,
            l.diff_store,
            l.correct,
            self.lowconf_loads,
            self.lowconf_latency,
            self.sb_full_stall_cycles,
            self.energy_nj,
            self.predication_uops
        ))
    }
}

/// [`FigureCounters`] as a row carries them: one `figures` string of 14
/// space-separated numbers in field order. Rows cross the store and the
/// daemon with the text unparsed, so serving a row costs one string
/// rather than fourteen numbers; only the figure views parse it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureText(String);

impl FigureText {
    /// The counters the text holds.
    ///
    /// # Errors
    ///
    /// The text is not 14 numbers of the right kinds.
    pub fn counters(&self) -> Result<FigureCounters, String> {
        let bad = || format!("figure counters `{}` are not 14 space-separated numbers", self.0);
        let f: Vec<&str> = self.0.split(' ').collect();
        if f.len() != 14 {
            return Err(bad());
        }
        let int = |i: usize| f[i].parse::<u64>().map_err(|_| bad());
        let num = |i: usize| f[i].parse::<f64>().map_err(|_| bad());
        Ok(FigureCounters {
            loads: [int(0)?, int(1)?, int(2)?, int(3)?],
            delayed_latency: num(4)?,
            bypassed_latency: num(5)?,
            lowconf: LowConfBreakdown { indep_store: int(6)?, diff_store: int(7)?, correct: int(8)? },
            lowconf_loads: int(9)?,
            lowconf_latency: num(10)?,
            sb_full_stall_cycles: int(11)?,
            energy_nj: num(12)?,
            predication_uops: int(13)?,
        })
    }
}

/// The measured outcome of one job: timing-simulation statistics plus
/// harness-side wall-clock and throughput.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Workload name.
    pub workload: String,
    /// Reporting suite.
    pub suite: Suite,
    /// Communication model.
    pub model: CommModel,
    /// Configuration-variant label.
    pub variant: String,
    /// Content digest of the producing job (hex).
    pub digest: String,
    /// Host wall-clock seconds the simulation took.
    pub wall_s: f64,
    /// Seconds after the campaign's execute phase began that a worker
    /// claimed this job (zero for cached rows and standalone executes).
    pub started_s: f64,
    /// Seconds after the execute phase began that this job finished
    /// (zero for cached rows and standalone executes).
    pub finished_s: f64,
    /// Host throughput: simulated (retired) instructions per second, in
    /// millions.
    pub mips: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired architectural instructions.
    pub retired_insns: u64,
    /// Retired µops.
    pub retired_uops: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Memory dependence mispredictions per kilo-instruction.
    pub mem_dep_mpki: f64,
    /// Mean load execution latency in cycles.
    pub load_mean_latency: f64,
    /// Branch mispredictions.
    pub branch_mispredicts: u64,
    /// Memory dependence mispredictions (Table VI numerator).
    pub mem_dep_mispredicts: u64,
    /// Load re-executions.
    pub reexecutions: u64,
    /// Re-execution retire-stall cycles per kilo-instruction.
    pub reexec_stalls_per_ki: f64,
    /// Mean scheduler ready-list length per cycle (simulator-side
    /// observability; zero for artifacts predating the counter).
    pub mean_ready_len: f64,
    /// Scheduler wake events per kilo-cycle (zero for old artifacts).
    pub wakeups_per_kilocycle: f64,
    /// Completion-calendar pops (zero for old artifacts).
    pub calendar_pops: u64,
    /// Static µop plans built by this job's pipeline (zero when the
    /// campaign shared a prebuilt cache in; zero for old artifacts).
    pub plan_builds: u64,
    /// Dynamic instructions fetched through the plan cache (zero for old
    /// artifacts).
    pub plan_hits: u64,
    /// True if this row was satisfied from a previous artifact instead
    /// of being executed.
    pub cached: bool,
    /// True if this row is a sampled-simulation *estimate* (IPC, cycles
    /// and instruction counts recombined from representative intervals;
    /// the detailed per-event counters are zero).
    pub sampled: bool,
    /// Sampling interval length in instructions (zero when not sampled).
    pub interval_insns: u64,
    /// Detailed-warmup intervals per representative (zero when not
    /// sampled).
    pub warmup_intervals: u64,
    /// Intervals the profile sliced the run into (zero when not
    /// sampled).
    pub intervals_total: u64,
    /// Representative intervals simulated in detail (zero when not
    /// sampled).
    pub intervals_simulated: u64,
    /// The counters the paper's figures read; `None` on sampled rows and
    /// on rows written before they were recorded.
    pub figures: Option<FigureText>,
    /// The complete statistics of a *live* run. `None` when the row was
    /// loaded from a JSON artifact (artifacts keep only the summary) or
    /// produced by sampled simulation. Boxed, so the rows a daemon moves
    /// and holds stay small.
    pub stats: Option<Box<SimStats>>,
}

impl JobResult {
    /// Summarizes a finished simulation.
    pub fn from_stats(spec: &JobSpec, stats: SimStats, wall_s: f64) -> JobResult {
        JobResult {
            workload: spec.workload.clone(),
            suite: spec.suite,
            model: spec.model,
            variant: spec.variant.clone(),
            digest: spec.digest.clone(),
            wall_s,
            started_s: 0.0,
            finished_s: 0.0,
            mips: if wall_s > 0.0 { stats.retired_insns as f64 / wall_s / 1e6 } else { 0.0 },
            cycles: stats.cycles,
            retired_insns: stats.retired_insns,
            retired_uops: stats.retired_uops,
            ipc: stats.ipc(),
            mem_dep_mpki: stats.mem_dep_mpki(),
            load_mean_latency: stats.load_latency.overall_mean(),
            branch_mispredicts: stats.branch_mispredicts,
            mem_dep_mispredicts: stats.mem_dep_mispredicts,
            reexecutions: stats.reexecutions,
            reexec_stalls_per_ki: stats.reexec_stalls_per_ki(),
            mean_ready_len: stats.sched.mean_ready_len(stats.cycles),
            wakeups_per_kilocycle: stats.sched.wakeups_per_kilocycle(stats.cycles),
            calendar_pops: stats.sched.calendar_pops,
            plan_builds: stats.plan.builds,
            plan_hits: stats.plan.hits,
            cached: false,
            sampled: false,
            interval_insns: 0,
            warmup_intervals: 0,
            intervals_total: 0,
            intervals_simulated: 0,
            figures: Some(FigureCounters::from_stats(&stats).to_text()),
            stats: Some(Box::new(stats)),
        }
    }

    /// Summarizes a sampled run: the whole-run columns (cycles, retired
    /// instructions, IPC) carry the recombined *estimate*; MIPS reflects
    /// the instructions actually simulated in detail, so sampled rows
    /// report honest host throughput. Detailed per-event counters
    /// (mispredictions, latencies) are zero — sampling estimates IPC.
    pub fn from_sampled(
        spec: &JobSpec,
        sampling: &SamplingSpec,
        report: &dmdp_sample::SampledReport,
        wall_s: f64,
        simulated_insns: u64,
    ) -> JobResult {
        JobResult {
            workload: spec.workload.clone(),
            suite: spec.suite,
            model: spec.model,
            variant: spec.variant.clone(),
            digest: spec.digest.clone(),
            wall_s,
            started_s: 0.0,
            finished_s: 0.0,
            mips: if wall_s > 0.0 { simulated_insns as f64 / wall_s / 1e6 } else { 0.0 },
            cycles: report.est_cycles,
            retired_insns: report.total_insns,
            retired_uops: 0,
            ipc: report.ipc,
            mem_dep_mpki: 0.0,
            load_mean_latency: 0.0,
            branch_mispredicts: 0,
            mem_dep_mispredicts: 0,
            reexecutions: 0,
            reexec_stalls_per_ki: 0.0,
            mean_ready_len: 0.0,
            wakeups_per_kilocycle: 0.0,
            calendar_pops: 0,
            plan_builds: 0,
            plan_hits: 0,
            cached: false,
            sampled: true,
            interval_insns: sampling.sampling.interval_insns,
            warmup_intervals: sampling.sampling.warmup_intervals as u64,
            intervals_total: report.intervals_total,
            intervals_simulated: report.intervals_simulated,
            figures: None,
            stats: None,
        }
    }

    /// Writes the summary row (full `stats` are not persisted). Figure
    /// counters are emitted only when the row has them, sampling columns
    /// only on sampled rows.
    pub fn write(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("workload").str(&self.workload);
            w.key("suite").str(self.suite.name());
            w.key("model").str(self.model.name());
            w.key("variant").str(&self.variant);
            w.key("digest").str(&self.digest);
            w.key("wall_s").num(self.wall_s);
            w.key("started_s").num(self.started_s);
            w.key("finished_s").num(self.finished_s);
            w.key("mips").num(self.mips);
            w.key("cycles").count(self.cycles);
            w.key("retired_insns").count(self.retired_insns);
            w.key("retired_uops").count(self.retired_uops);
            w.key("ipc").num(self.ipc);
            w.key("mem_dep_mpki").num(self.mem_dep_mpki);
            w.key("load_mean_latency").num(self.load_mean_latency);
            w.key("branch_mispredicts").count(self.branch_mispredicts);
            w.key("mem_dep_mispredicts").count(self.mem_dep_mispredicts);
            w.key("reexecutions").count(self.reexecutions);
            w.key("reexec_stalls_per_ki").num(self.reexec_stalls_per_ki);
            w.key("mean_ready_len").num(self.mean_ready_len);
            w.key("wakeups_per_kilocycle").num(self.wakeups_per_kilocycle);
            w.key("calendar_pops").count(self.calendar_pops);
            w.key("plan_builds").count(self.plan_builds);
            w.key("plan_hits").count(self.plan_hits);
            w.key("cached").bool(self.cached);
            if let Some(f) = &self.figures {
                w.key("figures").str(&f.0);
            }
            if self.sampled {
                w.key("sampled").bool(true);
                w.key("interval_insns").count(self.interval_insns);
                w.key("warmup_intervals").count(self.warmup_intervals);
                w.key("intervals_total").count(self.intervals_total);
                w.key("intervals_simulated").count(self.intervals_simulated);
            }
        });
    }

    /// Reads a summary row, member by member. Members may come in any
    /// order, unknown ones are skipped, and the first of two duplicate
    /// keys wins. Members added after the first artifacts (lifecycle
    /// timestamps, scheduler and plan-cache counters, sampling columns,
    /// figure counters) default when absent or mistyped.
    ///
    /// # Errors
    ///
    /// A syntax error, or a message naming the missing or malformed
    /// field.
    pub fn read(p: &mut Parser) -> Result<JobResult, String> {
        let [mut workload, mut suite, mut model, mut variant, mut digest, mut figures] =
            <[Field<String>; 6]>::default();
        let [mut wall_s, mut started_s, mut finished_s, mut mips, mut ipc, mut mem_dep_mpki, mut load_mean_latency, mut reexec_stalls_per_ki, mut mean_ready_len, mut wakeups_per_kilocycle] =
            <[Field<f64>; 10]>::default();
        let [mut cycles, mut retired_insns, mut retired_uops, mut branch_mispredicts, mut mem_dep_mispredicts, mut reexecutions, mut calendar_pops, mut plan_builds, mut plan_hits, mut interval_insns, mut warmup_intervals, mut intervals_total, mut intervals_simulated] =
            <[Field<u64>; 13]>::default();
        let [mut cached, mut sampled] = <[Field<bool>; 2]>::default();
        p.members(|p, key| match key {
            "workload" => workload.read(p, Parser::string),
            "suite" => suite.read(p, Parser::string),
            "model" => model.read(p, Parser::string),
            "variant" => variant.read(p, Parser::string),
            "digest" => digest.read(p, Parser::string),
            "wall_s" => wall_s.read(p, Parser::number),
            "started_s" => started_s.read(p, Parser::number),
            "finished_s" => finished_s.read(p, Parser::number),
            "mips" => mips.read(p, Parser::number),
            "cycles" => cycles.read(p, Parser::count),
            "retired_insns" => retired_insns.read(p, Parser::count),
            "retired_uops" => retired_uops.read(p, Parser::count),
            "ipc" => ipc.read(p, Parser::number),
            "mem_dep_mpki" => mem_dep_mpki.read(p, Parser::number),
            "load_mean_latency" => load_mean_latency.read(p, Parser::number),
            "branch_mispredicts" => branch_mispredicts.read(p, Parser::count),
            "mem_dep_mispredicts" => mem_dep_mispredicts.read(p, Parser::count),
            "reexecutions" => reexecutions.read(p, Parser::count),
            "reexec_stalls_per_ki" => reexec_stalls_per_ki.read(p, Parser::number),
            "mean_ready_len" => mean_ready_len.read(p, Parser::number),
            "wakeups_per_kilocycle" => wakeups_per_kilocycle.read(p, Parser::number),
            "calendar_pops" => calendar_pops.read(p, Parser::count),
            "plan_builds" => plan_builds.read(p, Parser::count),
            "plan_hits" => plan_hits.read(p, Parser::count),
            "cached" => cached.read(p, Parser::bool),
            "figures" => figures.read(p, Parser::string),
            "sampled" => sampled.read(p, Parser::bool),
            "interval_insns" => interval_insns.read(p, Parser::count),
            "warmup_intervals" => warmup_intervals.read(p, Parser::count),
            "intervals_total" => intervals_total.read(p, Parser::count),
            "intervals_simulated" => intervals_simulated.read(p, Parser::count),
            _ => p.skip(),
        })?;
        let string = |f: Field<String>, k: &str| f.get().ok_or_else(|| format!("job row: missing string `{k}`"));
        let num = |f: Field<f64>, k: &str| f.get().ok_or_else(|| format!("job row: missing number `{k}`"));
        let int = |f: Field<u64>, k: &str| f.get().ok_or_else(|| format!("job row: missing count `{k}`"));
        let suite_name = string(suite, "suite")?;
        let model_name = string(model, "model")?;
        Ok(JobResult {
            workload: string(workload, "workload")?,
            suite: Suite::from_name(&suite_name)
                .ok_or_else(|| format!("job row: unknown suite `{suite_name}`"))?,
            model: CommModel::from_name(&model_name)
                .ok_or_else(|| format!("job row: unknown model `{model_name}`"))?,
            variant: string(variant, "variant")?,
            digest: string(digest, "digest")?,
            wall_s: num(wall_s, "wall_s")?,
            // Job lifecycle timestamps (PR 3 reporter): tolerate older
            // artifacts, like the scheduler counters below.
            started_s: started_s.get().unwrap_or(0.0),
            finished_s: finished_s.get().unwrap_or(0.0),
            mips: num(mips, "mips")?,
            cycles: int(cycles, "cycles")?,
            retired_insns: int(retired_insns, "retired_insns")?,
            retired_uops: int(retired_uops, "retired_uops")?,
            ipc: num(ipc, "ipc")?,
            mem_dep_mpki: num(mem_dep_mpki, "mem_dep_mpki")?,
            load_mean_latency: num(load_mean_latency, "load_mean_latency")?,
            branch_mispredicts: int(branch_mispredicts, "branch_mispredicts")?,
            mem_dep_mispredicts: int(mem_dep_mispredicts, "mem_dep_mispredicts")?,
            reexecutions: int(reexecutions, "reexecutions")?,
            reexec_stalls_per_ki: num(reexec_stalls_per_ki, "reexec_stalls_per_ki")?,
            // Scheduler-occupancy counters: tolerate artifacts written
            // before PR 2 (they carry the same timing, just not these
            // observability fields).
            mean_ready_len: mean_ready_len.get().unwrap_or(0.0),
            wakeups_per_kilocycle: wakeups_per_kilocycle.get().unwrap_or(0.0),
            calendar_pops: calendar_pops.get().unwrap_or(0),
            // Plan-cache counters (PR 4): tolerate older artifacts.
            plan_builds: plan_builds.get().unwrap_or(0),
            plan_hits: plan_hits.get().unwrap_or(0),
            cached: cached.get().unwrap_or(false),
            // Sampling columns (PR 9): absent means a full-simulation
            // row, including every older artifact.
            sampled: sampled.get().unwrap_or(false),
            interval_insns: interval_insns.get().unwrap_or(0),
            warmup_intervals: warmup_intervals.get().unwrap_or(0),
            intervals_total: intervals_total.get().unwrap_or(0),
            intervals_simulated: intervals_simulated.get().unwrap_or(0),
            // Figure counters: absent on sampled rows and older ones.
            figures: figures.get().map(FigureText),
            stats: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(model: CommModel) -> JobSpec {
        let w = dmdp_workloads::by_name("lib", Scale::Test).unwrap();
        let image = PlannedImage::new(Arc::new(w.program));
        JobSpec::new("lib", w.suite, model, Scale::Test, "main", CoreConfig::new(model), &image)
    }

    #[test]
    fn digest_depends_on_model_and_patch() {
        let a = tiny_spec(CommModel::Dmdp);
        let b = tiny_spec(CommModel::Dmdp);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, tiny_spec(CommModel::NoSq).digest);

        let w = dmdp_workloads::by_name("lib", Scale::Test).unwrap();
        let mut cfg = CoreConfig::new(CommModel::Dmdp);
        CfgPatch { rob: Some(128), ..CfgPatch::default() }.apply(&mut cfg);
        let image = PlannedImage::new(Arc::new(w.program));
        let patched =
            JobSpec::new("lib", w.suite, CommModel::Dmdp, Scale::Test, "rob128", cfg, &image);
        assert_ne!(a.digest, patched.digest);
    }

    #[test]
    fn execute_produces_consistent_summary() {
        let r = tiny_spec(CommModel::Dmdp).execute().unwrap();
        assert!(r.cycles > 0 && r.retired_insns > 0);
        assert!((r.ipc - r.retired_insns as f64 / r.cycles as f64).abs() < 1e-12);
        assert!(!r.cached);
        // The prebuilt cache was shared in, so this pipeline built no
        // plans but fetched every dynamic instruction through them.
        assert_eq!(r.plan_builds, 0);
        assert!(r.plan_hits >= r.retired_insns);
        let stats = r.stats.as_ref().expect("live run keeps full stats");
        assert_eq!(stats.cycles, r.cycles);
    }

    #[test]
    fn batched_execution_matches_job_per_variant_bit_for_bit() {
        let variants = [
            ("main", CfgPatch::default()),
            ("rob32", CfgPatch { rob: Some(32), ..CfgPatch::default() }),
            ("sb2", CfgPatch { sb: Some(2), ..CfgPatch::default() }),
            ("rmo", CfgPatch { rmo: true, ..CfgPatch::default() }),
        ];
        for model in CommModel::ALL {
            let w = dmdp_workloads::by_name("mcf", Scale::Test).unwrap();
            let image = PlannedImage::new(Arc::new(w.program));
            let specs: Vec<JobSpec> = variants
                .iter()
                .map(|(label, patch)| {
                    let mut cfg = CoreConfig::new(model);
                    patch.apply(&mut cfg);
                    JobSpec::new("mcf", w.suite, model, Scale::Test, label, cfg, &image)
                })
                .collect();
            let refs: Vec<&JobSpec> = specs.iter().collect();
            let batched = JobSpec::execute_batch(&refs);
            assert_eq!(batched.len(), specs.len());
            for (spec, outcome) in specs.iter().zip(&batched) {
                let got = outcome.as_ref().expect("batch lane runs");
                let solo = spec.execute().expect("solo run");
                // Full-stats bit-identity, not just the summary row.
                assert_eq!(
                    got.stats, solo.stats,
                    "batched diverged from solo: {} [{}]",
                    model.name(),
                    spec.variant
                );
                assert_eq!(got.digest, solo.digest);
                assert_eq!(got.cycles, solo.cycles);
                assert_eq!(got.ipc, solo.ipc);
            }
        }
    }

    #[test]
    fn result_json_round_trips() {
        let r = tiny_spec(CommModel::Baseline).execute().unwrap();
        let read = |row: &JobResult| {
            Parser::document(&Writer::compact(|w| row.write(w)), JobResult::read).unwrap()
        };
        let back = read(&r);
        assert_eq!(back.workload, r.workload);
        assert_eq!(back.model, r.model);
        assert_eq!(back.digest, r.digest);
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.ipc, r.ipc);
        assert!(back.stats.is_none(), "artifacts keep only the summary");
        // The figure counters survive bit for bit, floats included.
        let stats = r.stats.as_ref().unwrap();
        assert_eq!(back.figures, r.figures);
        let figures = back.figures.expect("a full row carries figure counters").counters().unwrap();
        assert_eq!(figures, FigureCounters::from_stats(stats));
        assert_eq!(figures.energy_nj.to_bits(), stats.energy.total_nj().to_bits());
        assert!(figures.loads[0] + figures.loads[1] > 0);
        // A row without them (sampled, or written before they existed)
        // reads back without them, never as zeros.
        let bare = JobResult { figures: None, ..r };
        assert_eq!(read(&bare).figures, None);
    }

    #[test]
    fn patch_applies_all_fields() {
        let mut cfg = CoreConfig::new(CommModel::Dmdp);
        let patch = CfgPatch::parse("width:4,rob:64,prf:200,sb:32,rmo,balanced,nosilent").unwrap();
        assert_eq!(
            patch,
            CfgPatch {
                width: Some(4),
                rob: Some(64),
                prf: Some(200),
                sb: Some(32),
                rmo: true,
                balanced: true,
                nosilent: true
            }
        );
        assert!(!patch.is_empty());
        patch.apply(&mut cfg);
        assert_eq!(cfg.width, 4);
        assert_eq!(cfg.rob_entries, 64);
        assert_eq!(cfg.phys_regs, 200);
        assert_eq!(cfg.store_buffer_entries, 32);
        assert_eq!(cfg.consistency, dmdp_mem::Consistency::Rmo);
        assert_eq!(cfg.distance.policy, ConfidencePolicy::Balanced);
        assert!(!cfg.silent_store_update);
        assert!(CfgPatch::default().is_empty());
        assert_eq!(CfgPatch::from_json(&patch.to_json()).unwrap(), patch);
        assert_eq!(CfgPatch::parse("").unwrap(), CfgPatch::default());
    }
}
