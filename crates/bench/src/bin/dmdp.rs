//! `dmdp` — command-line driver for the simulator. Run `dmdp --help`
//! (or `dmdp <subcommand> --help`) for usage.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dmdp_core::{CommModel, CoreConfig, Probe, Sample, SimReport, Simulator};
use dmdp_harness::json::obj;
use dmdp_harness::{
    error_table, render_campaign, render_error_table, render_figure, Campaign, CampaignSpec, CfgPatch,
    Json, RunOptions, Sampling,
};
use dmdp_isa::{asm, Program};
use dmdp_server::{serve, Client, ServeOptions, SubmitRequest, PROTOCOL_VERSION};
use dmdp_workloads::Scale;

const TOP_HELP: &str = "\
dmdp — cycle-level simulator of Dynamic Memory Dependence Predication (ISCA 2018)

USAGE:
    dmdp <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    workloads    List the 21 SPEC-2006 analogue kernels
    run          Simulate one workload (or an .s/.img file) and print a report
    campaign     Run a parallel experiment campaign, write a JSON artifact
    serve        Run a campaign daemon with a persistent result store
    worker       One shard of a sharded daemon, spawned by `dmdp serve --workers`
    submit       Submit a campaign to a running daemon, save the artifact
    metrics      Fetch a running daemon's metrics snapshot as JSON
    report       Render a campaign JSON artifact as human-readable tables
    asm          Assemble a source file into a binary program image
    disasm       Print the disassembly listing of a program image

Run `dmdp <SUBCOMMAND> --help` for that subcommand's options.
";

const RUN_HELP: &str = "\
dmdp run — simulate a workload and print a report

USAGE:
    dmdp run [OPTIONS]

OPTIONS:
    --model <M>      baseline | nosq | dmdp | perfect | all   [default: dmdp]
                     (repeatable; each model runs once)
    --scale <S>      test | small | full | huge               [default: small]
    --workload <W>   kernel name (see `dmdp workloads`)       [default: bzip2]
    --asm <FILE.s>   simulate an assembly source file instead
    --image <FILE>   simulate a binary program image instead
    --width <N>      pipeline width override
    --rob <N>        ROB capacity override
    --prf <N>        physical register file size override
    --sb <N>         store buffer capacity override
    --rmo            release consistency instead of TSO
    --energy         print the dynamic-energy breakdown
    -h, --help       print this help

PROBE OPTIONS (observability only — simulated timing is unchanged):
    --trace <FILE>        write a per-µop stage-timeline JSONL trace
    --trace-from <CYCLE>  start tracing µops renamed at this cycle  [default: 0]
    --trace-cycles <N>    trace a window of N cycles (default: to the end)
    --sample-every <N>    collect a time-series sample every N cycles
    --sample-out <FILE>   samples JSON path  [default: samples.json]

With `--model all`, per-model output paths get a `-<model>` suffix
before the extension (e.g. trace-dmdp.jsonl).
";

const CAMPAIGN_HELP: &str = "\
dmdp campaign — run a (workload × model) sweep in parallel and write a
JSON result artifact with per-job wall-clock, MIPS and suite geomeans

USAGE:
    dmdp campaign [OPTIONS]

OPTIONS:
    --name <NAME>     campaign name                      [default: campaign]
    --model <M>       baseline | nosq | dmdp | perfect | all  [default: all]
                      (repeatable; each model runs once)
    --scale <S>       test | small | full | huge         [default: small]
    --kernel <W>      restrict to one kernel (repeatable)
    --jobs <N>        worker threads                     [default: all cores]
    --out <FILE>      artifact path   [default: bench-results/<name>.json]
    --store <DIR>     result store directory, shared with `dmdp serve
                      --store`                [default: bench-results/store]
    --force           run every job without a store: read no stored row
                      or bundle and write none (not with --store)
    --quiet           suppress per-job progress lines
    --variant <LABEL=KNOBS>
                      add a config variant to the sweep (repeatable).
                      KNOBS is comma-separated width/rob/prf/sb:<N> and
                      the bare switches rmo (release consistency),
                      balanced (balanced confidence update) and nosilent
                      (no silent-store-aware predictor update), e.g.
                      --variant rob64=rob:64,sb:8 --variant main=.
                      Each (workload, model)'s variants run as one batch
                      over a shared front end (bit-identical to solo runs)
    --width/--rob/--prf/--sb <N>, --rmo
                      configuration overrides, as in `dmdp run`
                      (shorthand for a single `custom` variant)
    --sampled         estimate IPC by sampled simulation: profile each
                      workload into intervals, cluster them, and simulate
                      only representative intervals from checkpoints
    --interval-insns <N>
                      sampling interval length in instructions (implies
                      --sampled)                        [default: 10000]
    --warmup-intervals <W>
                      detailed-warmup intervals before each measurement
                      (implies --sampled; 0 still gets a short
                      micro-warmup on top of the checkpoint's
                      functional cache/branch warming)  [default: 1]
    -h, --help        print this help

Jobs resolve through the result store, as a daemon's submits do: a job
whose digest (simulator version, config and workload content) an earlier
campaign or daemon stored there is reused, a sampled workload's
checkpoint bundle is read from the store, and every executed row is
appended to it. A repeated campaign executes zero jobs and still writes
a complete artifact to --out, which is never read. A store directory has
one row writer at a time: do not run a campaign on the store of a
running daemon. Sampled jobs carry their own digests, so sampled and
full artifacts never mix; compare them with
`dmdp report SAMPLED.json --error-vs FULL.json`.
";

const SERVE_HELP: &str = "\
dmdp serve — long-running campaign daemon with a persistent
content-addressed result store

USAGE:
    dmdp serve [OPTIONS]

OPTIONS:
    --socket <PATH>   unix socket to listen on        [default: dmdp.sock]
    --store <DIR>     result store directory          [default: dmdp-store]
    --cap-mb <N>      store size cap in MiB, applied at startup by
                      compacting the row log to the newest rows that
                      fit                             [default: unbounded]
    --jobs <N>        worker threads per submission   [default: all cores]
    --quiet           suppress per-request log lines
    --log <FILE>      append structured JSONL events to FILE
                      instead of stderr
    --log-level <L>   debug | info | warn | error     [default: info]
    --slow-job-ms <N> warn (slow_job event) about executed jobs whose
                      simulation wall clock reaches N milliseconds
    --workers <N>     spawn N `dmdp worker` shard processes with disjoint
                      core-affinity hints and dispatch job groups to
                      them over their stdin and stdout
    -h, --help        print this help

With --workers the daemon becomes a coordinator over its own children:
job groups are placed on the least-loaded worker, every worker runs its
own thread pool and resident workload images and only executes, and
the coordinator alone looks rows up and writes them to the store — so
sharded artifacts stay byte-compatible with single-process ones. A worker that dies mid-group has its
unfinished digests requeued on the others, or run in-process once none
is left. No other process can become a worker.

The daemon keeps workload images and µop plan caches resident across
requests, appends every job result under its content digest to one
row log (store/rows.log; checkpoint bundles of sampled runs stay files,
store/<d[0..2]>/<digest>.ckpt), and dedups identical in-flight jobs
across concurrent clients — each distinct job digest is simulated at
most once, ever. Simulation runs at background CPU priority (nice 19)
in workers and in-process alike, so requests are answered while a
sweep runs. Stop it with `dmdp submit --shutdown`; running
submissions drain first.

The socket is the daemon's one listener, and every client speaks
newline-delimited JSON over it: `dmdp submit` and `dmdp metrics`,
which reads the process metrics registry. Each request gets a trace
id, logged with its events and embedded in the artifact, so artifacts
grep back to their daemon-side event lines.
";

const WORKER_HELP: &str = "\
dmdp worker — one shard of a sharded `dmdp serve`

USAGE:
    dmdp worker [OPTIONS]

OPTIONS:
    --store <DIR>     the coordinator's store directory  [default: dmdp-store]
                      (for the checkpoint bundles of sampled groups)
    --jobs <N>        runner threads   [default: one per --cores core]
    --cores <LIST>    comma-separated cores to pin to (best-effort),
                      e.g. --cores 0,1
    --quiet           suppress per-group log lines
    -h, --help        print this help

`dmdp serve --workers N` spawns its workers and links to each over the
worker's stdin and stdout: job groups arrive on stdin, one JSON line
each, and every group is answered on stdout. The worker executes each
group against its own resident workload images and returns its rows;
it never reads or writes a stored row, since the coordinator does
both, and never opens the store's row log. It simulates at nice 19.
End of file on stdin is the order to drain and exit. Its event log
goes to stderr, since stdout is the link.
";

const METRICS_HELP: &str = "\
dmdp metrics — fetch a running daemon's metrics snapshot

USAGE:
    dmdp metrics [OPTIONS]

OPTIONS:
    --socket <PATH>   daemon unix socket              [default: dmdp.sock]
    -h, --help        print this help

Prints the daemon's `metrics` protocol reply: one JSON document listing
every registered counter, gauge and histogram (a histogram as its
count, sum and cumulative log2 buckets). Two snapshots taken a while
apart give rates and window percentiles by subtraction.
";

const SUBMIT_HELP: &str = "\
dmdp submit — submit a campaign to a running `dmdp serve` daemon

USAGE:
    dmdp submit [OPTIONS]
    dmdp submit --shutdown | --ping

OPTIONS:
    --socket <PATH>   daemon unix socket              [default: dmdp.sock]
    --name <NAME>     campaign name                   [default: campaign]
    --model <M>       baseline | nosq | dmdp | perfect | all  [default: all]
                      (repeatable; each model runs once)
    --scale <S>       test | small | full | huge      [default: small]
    --kernel <W>      restrict to one kernel (repeatable)
    --out <FILE>      artifact path   [default: bench-results/<name>.json]
    --quiet           suppress per-job progress lines
    --variant <LABEL=KNOBS>
                      add a config variant to the sweep (repeatable),
                      as in `dmdp campaign`
    --width/--rob/--prf/--sb <N>, --rmo
                      configuration overrides, as in `dmdp campaign`
    --sampled, --interval-insns <N>, --warmup-intervals <W>
                      sampled simulation, as in `dmdp campaign`; the
                      daemon persists each workload's checkpoint bundle
                      in its store and shares it across models, requests
                      and restarts
    --connect-retries <N>
                      transient connect failures (daemon still binding
                      its socket, backlog resets) to retry with capped
                      exponential backoff             [default: 3]
    --shutdown        drain the daemon and stop it
    --ping            liveness check
    -h, --help        print this help

A submit pings the daemon first and refuses one whose protocol version
differs from its own. The saved artifact is byte-compatible with
`dmdp campaign` output — `dmdp report` renders it unchanged. Jobs
already in the daemon's store are not re-simulated, so a repeated
submission executes zero jobs.
`dmdp metrics` prints the daemon's counters.
";

const REPORT_HELP: &str = "\
dmdp report — render a campaign JSON artifact as human-readable tables

USAGE:
    dmdp report <ARTIFACT.json> [OPTIONS]

OPTIONS:
    --figure <ID>|all
                  render one of the paper's sixteen tables and figures,
                  or all of them, from the artifact's full-simulation
                  rows; ids name the figure (fig12_speedup, tab06_mpki,
                  alt_rmo, ...), and an unknown id lists them all. A cell
                  is found by its configuration, not its variant label; a
                  missing one is an error naming the `dmdp campaign` line
                  that adds it (EXPERIMENTS.md has the one campaign that
                  holds every cell)
    --error-vs <FULL.json>
                  compare a sampled artifact's IPC estimates against the
                  full-simulation artifact at FULL.json: per-row signed
                  errors, geomean/worst |error| and the wall-clock ratio
    --json        with --error-vs, print the comparison as JSON instead
                  of a table (stable shape, for jq/CI)
    -h, --help    print this help

Prints per-variant workload × model IPC tables (with deltas against the
baseline model), per-suite geometric means, scheduler-occupancy means,
the stage wall-time breakdown and the slowest jobs. Works on any
campaign artifact, including `bench-results/ci-smoke.json`.
";

const ASM_HELP: &str = "\
dmdp asm — assemble a source file into a binary program image

USAGE:
    dmdp asm FILE.s [-o FILE.img]     (default output: FILE.s.img)
    dmdp asm -h | --help
";

const DISASM_HELP: &str = "\
dmdp disasm — print the disassembly listing of a program image

USAGE:
    dmdp disasm FILE.img
    dmdp disasm -h | --help
";

const WORKLOADS_HELP: &str = "\
dmdp workloads — list the 21 SPEC-2006 analogue kernels

USAGE:
    dmdp workloads
";

fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("workloads") => helped(&args[1..], WORKLOADS_HELP, |_| cmd_workloads()),
        Some("run") => helped(&args[1..], RUN_HELP, cmd_run),
        Some("campaign") => helped(&args[1..], CAMPAIGN_HELP, cmd_campaign),
        Some("serve") => helped(&args[1..], SERVE_HELP, cmd_serve),
        Some("worker") => helped(&args[1..], WORKER_HELP, cmd_worker),
        Some("submit") => helped(&args[1..], SUBMIT_HELP, cmd_submit),
        Some("metrics") => helped(&args[1..], METRICS_HELP, cmd_metrics),
        Some("report") => helped(&args[1..], REPORT_HELP, cmd_report),
        Some("asm") => helped(&args[1..], ASM_HELP, cmd_asm),
        Some("disasm") => helped(&args[1..], DISASM_HELP, cmd_disasm),
        Some("--help" | "-h") => {
            print!("{TOP_HELP}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprint!("{TOP_HELP}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dmdp: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn helped(args: &[String], help: &str, f: impl FnOnce(&[String]) -> CliResult) -> CliResult {
    if wants_help(args) {
        print!("{help}");
        Ok(())
    } else {
        f(args)
    }
}

fn cmd_workloads() -> CliResult {
    println!("{:10} {:5} character", "name", "suite");
    for w in dmdp_workloads::all(Scale::Test) {
        println!("{:10} {:5} {}", w.name, w.suite.name(), w.character);
    }
    Ok(())
}

/// Adds one `--model` value: the flag repeats, a model given twice counts
/// once, and `all` adds every model.
fn add_models(models: &mut Vec<CommModel>, v: &str) -> Result<(), String> {
    let named = match v {
        "all" => CommModel::ALL.to_vec(),
        _ => vec![CommModel::from_name(v).ok_or_else(|| format!("unknown model `{v}`"))?],
    };
    for m in named {
        if !models.contains(&m) {
            models.push(m);
        }
    }
    Ok(())
}

fn parse_scale(v: &str) -> Result<Scale, String> {
    Scale::from_name(v).ok_or_else(|| format!("unknown scale `{v}`"))
}

struct RunOpts {
    models: Vec<CommModel>,
    scale: Scale,
    workload: Option<String>,
    asm_file: Option<String>,
    image_file: Option<String>,
    patch: CfgPatch,
    energy: bool,
    trace: Option<PathBuf>,
    trace_from: u64,
    trace_cycles: Option<u64>,
    sample_every: Option<u64>,
    sample_out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        models: Vec::new(),
        scale: Scale::Small,
        workload: None,
        asm_file: None,
        image_file: None,
        patch: CfgPatch::default(),
        energy: false,
        trace: None,
        trace_from: 0,
        trace_cycles: None,
        sample_every: None,
        sample_out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--model" => add_models(&mut o.models, &val()?)?,
            "--scale" => o.scale = parse_scale(&val()?)?,
            "--workload" => o.workload = Some(val()?),
            "--asm" => o.asm_file = Some(val()?),
            "--image" => o.image_file = Some(val()?),
            "--width" | "--rob" | "--prf" | "--sb" => o.patch.set(&a[2..], Some(&val()?))?,
            "--rmo" => o.patch.rmo = true,
            "--energy" => o.energy = true,
            "--trace" => o.trace = Some(PathBuf::from(val()?)),
            "--trace-from" => {
                o.trace_from = val()?.parse().map_err(|e| format!("--trace-from: {e}"))?
            }
            "--trace-cycles" => {
                o.trace_cycles = Some(val()?.parse().map_err(|e| format!("--trace-cycles: {e}"))?)
            }
            "--sample-every" => {
                let n: u64 = val()?.parse().map_err(|e| format!("--sample-every: {e}"))?;
                if n == 0 {
                    return Err("--sample-every must be at least 1".to_string());
                }
                o.sample_every = Some(n);
            }
            "--sample-out" => o.sample_out = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown option `{other}` (see `dmdp run --help`)")),
        }
    }
    if o.trace.is_none() && (o.trace_from != 0 || o.trace_cycles.is_some()) {
        return Err("--trace-from/--trace-cycles need --trace <FILE>".to_string());
    }
    if o.sample_out.is_some() && o.sample_every.is_none() {
        return Err("--sample-out needs --sample-every <N>".to_string());
    }
    if o.models.is_empty() {
        o.models.push(CommModel::Dmdp);
    }
    Ok(o)
}

fn load_program(o: &RunOpts) -> Result<Program, Box<dyn std::error::Error>> {
    if let Some(f) = &o.asm_file {
        let src = std::fs::read_to_string(f)?;
        return Ok(asm::assemble_named(f, &src)?);
    }
    if let Some(f) = &o.image_file {
        let bytes = std::fs::read(f)?;
        return Ok(Program::from_image(&bytes)?);
    }
    let name = o.workload.as_deref().unwrap_or("bzip2");
    dmdp_workloads::by_name(name, o.scale).map(|w| w.program).ok_or_else(|| {
        format!("unknown workload `{name}`; valid kernels: {}", dmdp_workloads::names().join(", "))
            .into()
    })
}

/// `trace.jsonl` → `trace-dmdp.jsonl` — keeps per-model artifacts apart
/// when one `dmdp run --model all` writes several.
fn suffixed(path: &Path, model: CommModel) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
    let name = match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}-{}.{ext}", model.name()),
        None => format!("{stem}-{}", model.name()),
    };
    path.with_file_name(name)
}

fn samples_json(samples: &[Sample]) -> Json {
    Json::Arr(
        samples
            .iter()
            .map(|s| {
                obj([
                    ("cycle", Json::Num(s.cycle as f64)),
                    ("insns", Json::Num(s.insns as f64)),
                    ("ipc", Json::Num(s.ipc)),
                    ("fetched", Json::Num(s.fetched as f64)),
                    ("rob", Json::Num(s.rob as f64)),
                    ("iq", Json::Num(s.iq as f64)),
                    ("ready", Json::Num(s.ready as f64)),
                    ("sb", Json::Num(s.sb as f64)),
                    ("branch_mispredicts", Json::Num(s.branch_mispredicts as f64)),
                    ("mem_dep_mispredicts", Json::Num(s.mem_dep_mispredicts as f64)),
                    ("recoveries", Json::Num(s.recoveries as f64)),
                    ("squashed_uops", Json::Num(s.squashed_uops as f64)),
                ])
            })
            .collect(),
    )
}

fn cmd_run(args: &[String]) -> CliResult {
    let o = parse_run(args)?;
    let program = load_program(&o)?;
    println!("program: {} ({} static instructions)", program.name(), program.len());
    let probing = o.trace.is_some() || o.sample_every.is_some();
    let many = o.models.len() > 1;
    for model in &o.models {
        let mut cfg = CoreConfig::new(*model);
        o.patch.apply(&mut cfg);
        cfg.check().map_err(|e| format!("model {}: {e}", model.name()))?;
        let sim = Simulator::with_config(cfg);
        if !probing {
            print_report(&sim.run(&program)?, o.energy);
            continue;
        }
        let mut probe = Probe::default();
        let trace_path = o.trace.as_ref().map(|p| if many { suffixed(p, *model) } else { p.clone() });
        if let Some(path) = &trace_path {
            probe = probe
                .with_trace(path, o.trace_from, o.trace_cycles)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        if let Some(every) = o.sample_every {
            probe = probe.with_samples(every);
        }
        let (report, probes) = sim.run_probed(&program, probe)?;
        print_report(&report, o.energy);
        if let Some(path) = &trace_path {
            if let Some(e) = &probes.trace_error {
                return Err(format!("{}: trace write failed: {e}", path.display()).into());
            }
            println!("  trace             {:>12} records -> {}", probes.trace_records, path.display());
        }
        if o.sample_every.is_some() {
            let out = o.sample_out.clone().unwrap_or_else(|| PathBuf::from("samples.json"));
            let out = if many { suffixed(&out, *model) } else { out };
            std::fs::write(&out, samples_json(&probes.samples).pretty())
                .map_err(|e| format!("{}: {e}", out.display()))?;
            println!("  samples           {:>12} windows -> {}", probes.samples.len(), out.display());
        }
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> CliResult {
    let mut artifact: Option<PathBuf> = None;
    let mut error_vs: Option<PathBuf> = None;
    let mut figure: Option<String> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--error-vs" => {
                let v = it.next().ok_or("--error-vs needs a value")?;
                error_vs = Some(PathBuf::from(v));
            }
            "--figure" => figure = Some(it.next().ok_or("--figure needs a value")?.clone()),
            "--json" => json = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}` (see `dmdp report --help`)").into())
            }
            path => {
                if artifact.replace(PathBuf::from(path)).is_some() {
                    return Err("usage: dmdp report <ARTIFACT.json> [OPTIONS]".into());
                }
            }
        }
    }
    let Some(path) = artifact else {
        return Err("usage: dmdp report <ARTIFACT.json> [OPTIONS]".into());
    };
    if json && error_vs.is_none() {
        return Err("--json needs --error-vs <FULL.json>".into());
    }
    if figure.is_some() && error_vs.is_some() {
        return Err("--figure cannot be combined with --error-vs".into());
    }
    let campaign = Campaign::load(&path)?;
    if let Some(id) = figure {
        print!("{}", render_figure(&id, &campaign, &path)?);
        return Ok(());
    }
    let Some(full_path) = error_vs else {
        print!("{}", render_campaign(&campaign));
        return Ok(());
    };
    let full = Campaign::load(&full_path)?;
    let table = error_table(&campaign, &full)?;
    if json {
        println!("{}", table.to_json().pretty());
    } else {
        print!("{}", render_error_table(&table));
    }
    Ok(())
}

/// Parses a `--variant LABEL=KNOBS` spec; KNOBS is [`CfgPatch::parse`]'s
/// text form, and an empty KNOBS (`main=`) the default configuration.
fn parse_variant(spec: &str) -> Result<(String, CfgPatch), String> {
    let Some((label, knobs)) = spec.split_once('=') else {
        return Err(format!("--variant `{spec}`: expected LABEL=KNOBS (e.g. rob64=rob:64,sb:8)"));
    };
    if label.is_empty() {
        return Err(format!("--variant `{spec}`: label must not be empty"));
    }
    let patch = CfgPatch::parse(knobs).map_err(|e| format!("--variant `{spec}`: {e}"))?;
    Ok((label.to_string(), patch))
}

/// The flags `dmdp campaign` and `dmdp submit` share: what to sweep,
/// where the artifact goes, and how chatty to be.
struct SweepOpts {
    /// The sweep as a daemon request; `dmdp campaign` runs its
    /// [`SubmitRequest::campaign`] locally.
    request: SubmitRequest,
    out: Option<PathBuf>,
    quiet: bool,
    models: Vec<CommModel>,
    patch: CfgPatch,
    variants: Vec<(String, CfgPatch)>,
    /// `--sampled`, `--interval-insns`, `--warmup-intervals`; either knob
    /// implies `--sampled`, and an unset knob keeps its default.
    sampled: bool,
    interval_insns: Option<u64>,
    warmup_intervals: Option<u32>,
}

impl SweepOpts {
    fn new() -> SweepOpts {
        SweepOpts {
            request: SubmitRequest::new("campaign", Scale::Small),
            out: None,
            quiet: false,
            models: Vec::new(),
            patch: CfgPatch::default(),
            variants: Vec::new(),
            sampled: false,
            interval_insns: None,
            warmup_intervals: None,
        }
    }

    /// Applies flag `a` if it is a sweep flag (`val` yields its value);
    /// `Ok(false)` leaves it to the caller.
    fn flag(&mut self, a: &str, mut val: impl FnMut() -> Result<String, String>) -> Result<bool, String> {
        match a {
            "--name" => self.request.name = val()?,
            "--model" => add_models(&mut self.models, &val()?)?,
            "--scale" => self.request.scale = parse_scale(&val()?)?,
            "--kernel" => self.request.kernels.get_or_insert_with(Vec::new).push(val()?),
            "--out" => self.out = Some(PathBuf::from(val()?)),
            "--quiet" => self.quiet = true,
            "--width" | "--rob" | "--prf" | "--sb" => self.patch.set(&a[2..], Some(&val()?))?,
            "--rmo" => self.patch.rmo = true,
            "--variant" => self.variants.push(parse_variant(&val()?)?),
            "--sampled" => self.sampled = true,
            "--interval-insns" => {
                self.interval_insns = Some(val()?.parse().map_err(|e| format!("{a}: {e}"))?);
            }
            "--warmup-intervals" => {
                self.warmup_intervals = Some(val()?.parse().map_err(|e| format!("{a}: {e}"))?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The swept campaign: bare overrides become a single `custom`
    /// variant, `--variant`s replace the main one.
    fn finish(mut self) -> Result<SweepOpts, String> {
        if !self.models.is_empty() {
            self.request.models = self.models.clone();
        }
        if !self.variants.is_empty() && !self.patch.is_empty() {
            return Err("--variant cannot be combined with bare --width/--rob/--prf/--sb/--rmo; fold the overrides into a variant spec".to_string());
        }
        if !self.variants.is_empty() {
            self.request.variants = self.variants.clone();
        } else if !self.patch.is_empty() {
            self.request.variants = vec![("custom".to_string(), self.patch.clone())];
        }
        if self.sampled || self.interval_insns.is_some() || self.warmup_intervals.is_some() {
            let interval_insns = self.interval_insns.unwrap_or(10_000);
            if interval_insns == 0 {
                return Err("--interval-insns must be at least 1".to_string());
            }
            let warmup_intervals = self.warmup_intervals.unwrap_or(1);
            self.request.sampling = Some(Sampling { interval_insns, warmup_intervals });
        }
        self.request.watch = !self.quiet;
        Ok(self)
    }

    fn out_path(&self) -> PathBuf {
        self.out.clone().unwrap_or_else(|| PathBuf::from(format!("bench-results/{}.json", self.request.name)))
    }
}

struct CampaignOpts {
    sweep: SweepOpts,
    jobs: usize,
    /// `--store`, or the default; `None` under `--force`.
    store: Option<PathBuf>,
}

fn parse_campaign(args: &[String]) -> Result<CampaignOpts, String> {
    let mut o = CampaignOpts { sweep: SweepOpts::new(), jobs: dmdp_harness::default_workers(), store: None };
    let mut force = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or_else(|| format!("{a} needs a value"));
        if o.sweep.flag(a, &mut val)? {
            continue;
        }
        match a.as_str() {
            "--jobs" => {
                o.jobs = val()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if o.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--store" => o.store = Some(PathBuf::from(val()?)),
            "--force" => force = true,
            other => return Err(format!("unknown option `{other}` (see `dmdp campaign --help`)")),
        }
    }
    o.store = match (force, o.store) {
        (true, Some(_)) => return Err("--force runs every job without a store; it cannot be combined with --store".to_string()),
        (true, None) => None,
        (false, store) => Some(store.unwrap_or_else(|| PathBuf::from("bench-results/store"))),
    };
    o.sweep = o.sweep.finish()?;
    Ok(o)
}

fn cmd_campaign(args: &[String]) -> CliResult {
    let o = parse_campaign(args)?;
    let spec = &o.sweep.request.campaign();
    let out = o.sweep.out_path();
    let sampled_note = spec
        .sampling
        .map(|s| format!(", sampled ({} insns × {} warmup)", s.interval_insns, s.warmup_intervals))
        .unwrap_or_default();
    // Count jobs without sampling — the count is identical and this
    // keeps the expensive bundle builds inside `run` only.
    let n_jobs = CampaignSpec { sampling: None, ..spec.clone() }.jobs()?.len();
    let (n_models, n_variants) = (spec.models.len(), spec.variants.len());
    println!(
        "campaign `{}`: {} jobs ({} kernels × {} models × {} variants), scale {}{sampled_note}, {} workers -> {}",
        spec.name,
        n_jobs,
        n_jobs / (n_models * n_variants).max(1),
        n_models,
        n_variants,
        spec.scale.name(),
        o.jobs,
        out.display()
    );
    let opts = RunOptions { jobs: o.jobs, store: o.store, progress: !o.sweep.quiet };
    let campaign = spec.run(&opts)?;
    campaign.save(&out)?;
    println!(
        "\n{}: {} executed, {} cached, {:.2}s wall",
        out.display(),
        campaign.executed,
        campaign.cached,
        campaign.wall_s
    );
    for model in campaign.models() {
        let int = campaign.geomean_ipc(model, dmdp_workloads::Suite::Int);
        let fp = campaign.geomean_ipc(model, dmdp_workloads::Suite::Fp);
        if let (Some(int), Some(fp)) = (int, fp) {
            let speedup = campaign
                .geomean_speedup(CommModel::Baseline, model, dmdp_workloads::Suite::Int)
                .map(|s| format!("  Int speedup {s:.3}"))
                .unwrap_or_default();
            println!("{:9} geomean IPC: Int {int:.3}  FP {fp:.3}{speedup}", model.name());
        }
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let mut opts = ServeOptions {
        socket: PathBuf::from("dmdp.sock"),
        store_dir: PathBuf::from("dmdp-store"),
        jobs: 0, // 0 = all cores, resolved by the daemon
        store_cap_bytes: None,
        quiet: false,
        log: None,
        log_level: dmdp_obs::log::Level::Info,
        slow_job_ms: None,
        workers: 0,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--socket" => opts.socket = PathBuf::from(val()?),
            "--store" => opts.store_dir = PathBuf::from(val()?),
            "--cap-mb" => {
                let mb: u64 = val()?.parse().map_err(|e| format!("--cap-mb: {e}"))?;
                opts.store_cap_bytes = Some(mb * 1024 * 1024);
            }
            "--jobs" => {
                opts.jobs = val()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--quiet" => opts.quiet = true,
            "--log" => opts.log = Some(PathBuf::from(val()?)),
            "--log-level" => {
                let v = val()?;
                opts.log_level = dmdp_obs::log::Level::parse(&v).ok_or_else(|| {
                    format!("--log-level: unknown level `{v}` (debug|info|warn|error)")
                })?;
            }
            "--slow-job-ms" => {
                opts.slow_job_ms =
                    Some(val()?.parse().map_err(|e| format!("--slow-job-ms: {e}"))?);
            }
            "--workers" => {
                opts.workers = val()?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            other => return Err(format!("unknown option `{other}` (see `dmdp serve --help`)").into()),
        }
    }
    serve(&opts)?;
    Ok(())
}

fn cmd_worker(args: &[String]) -> CliResult {
    let mut opts = dmdp_server::WorkerOptions {
        store_dir: PathBuf::from("dmdp-store"),
        jobs: 0, // 0 = one thread per affinity core
        cores: Vec::new(),
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--store" => opts.store_dir = PathBuf::from(val()?),
            "--jobs" => {
                opts.jobs = val()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--cores" => {
                for part in val()?.split(',').filter(|p| !p.is_empty()) {
                    opts.cores.push(part.parse().map_err(|e| format!("--cores `{part}`: {e}"))?);
                }
            }
            "--quiet" => opts.quiet = true,
            other => {
                return Err(format!("unknown option `{other}` (see `dmdp worker --help`)").into())
            }
        }
    }
    dmdp_server::run_worker(&opts);
    Ok(())
}

struct SubmitOpts {
    socket: PathBuf,
    sweep: SweepOpts,
    connect_retries: u32,
    mode: SubmitMode,
}

enum SubmitMode {
    Campaign,
    Shutdown,
    Ping,
}

fn parse_submit(args: &[String]) -> Result<SubmitOpts, String> {
    let mut o = SubmitOpts {
        socket: PathBuf::from("dmdp.sock"),
        sweep: SweepOpts::new(),
        connect_retries: 3,
        mode: SubmitMode::Campaign,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or_else(|| format!("{a} needs a value"));
        if o.sweep.flag(a, &mut val)? {
            continue;
        }
        match a.as_str() {
            "--socket" => o.socket = PathBuf::from(val()?),
            "--connect-retries" => {
                o.connect_retries =
                    val()?.parse().map_err(|e| format!("--connect-retries: {e}"))?;
            }
            "--shutdown" => o.mode = SubmitMode::Shutdown,
            "--ping" => o.mode = SubmitMode::Ping,
            other => return Err(format!("unknown option `{other}` (see `dmdp submit --help`)")),
        }
    }
    o.sweep = o.sweep.finish()?;
    Ok(o)
}

fn cmd_submit(args: &[String]) -> CliResult {
    let o = parse_submit(args)?;
    let mut client = Client::connect_unix_retry(&o.socket, o.connect_retries)?;
    match o.mode {
        SubmitMode::Ping => {
            let protocol = client.ping()?;
            println!("daemon is up (protocol {protocol})");
            return Ok(());
        }
        SubmitMode::Shutdown => {
            client.shutdown()?;
            println!("daemon drained and stopped");
            return Ok(());
        }
        SubmitMode::Campaign => {
            // A daemon of another dialect may stream messages this client
            // cannot read; refuse before anything is simulated.
            let protocol = client.ping()?;
            if protocol != PROTOCOL_VERSION {
                return Err(format!(
                    "daemon speaks protocol {protocol}, this dmdp speaks {PROTOCOL_VERSION}: \
                     restart `dmdp serve` from this build"
                )
                .into());
            }
        }
    }
    let out = o.sweep.out_path();
    let campaign = client.submit(&o.sweep.request, |ev| {
        if ev.get("type").and_then(Json::as_str) == Some("finished") {
            let field = |k: &str| ev.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
            println!(
                "{:>9} × {:<8} [{}]  IPC {:.3}  ({})",
                field("workload"),
                field("model"),
                field("variant"),
                ev.get("ipc").and_then(Json::as_f64).unwrap_or(0.0),
                field("source"),
            );
        }
    })?;
    campaign.save(&out)?;
    println!(
        "{}: {} jobs, {} executed, {} cached, {:.2}s wall (daemon)",
        out.display(),
        campaign.jobs.len(),
        campaign.executed,
        campaign.cached,
        campaign.wall_s
    );
    Ok(())
}

fn cmd_metrics(args: &[String]) -> CliResult {
    let mut socket = PathBuf::from("dmdp.sock");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = PathBuf::from(it.next().ok_or("--socket needs a value")?),
            other => {
                return Err(format!("unknown option `{other}` (see `dmdp metrics --help`)").into())
            }
        }
    }
    print!("{}", Client::connect_unix(&socket)?.metrics()?.pretty());
    println!();
    Ok(())
}

fn print_report(r: &SimReport, energy: bool) {
    let s = &r.stats;
    println!("\n== {} ==", r.model.name());
    println!("  cycles            {:>12}", s.cycles);
    println!("  instructions      {:>12}   IPC {:.3}", s.retired_insns, r.ipc());
    println!("  uops              {:>12}   (+{} predication)", s.retired_uops, s.predication_uops);
    println!("  loads / stores    {:>12} / {}", s.retired_loads, s.retired_stores);
    println!(
        "  branch mispredict {:>12}   memdep mispredict {} ({:.2} MPKI)",
        s.branch_mispredicts,
        s.mem_dep_mispredicts,
        s.mem_dep_mpki()
    );
    println!(
        "  re-executions     {:>12}   stall cycles {} (reexec) / {} (SB full)",
        s.reexecutions, s.reexec_stall_cycles, s.sb_full_stall_cycles
    );
    use dmdp_stats::LoadSource;
    let ll = &s.load_latency;
    println!("  load classes      direct {} | bypassed {} | delayed {} | predicated {}",
        ll.count(LoadSource::Direct),
        ll.count(LoadSource::Bypassed),
        ll.count(LoadSource::Delayed),
        ll.count(LoadSource::Predicated));
    println!("  mean load latency {:>12.2} cycles", ll.overall_mean());
    println!(
        "  scheduler         {:>12.2} mean ready | {:.1} wakeups/kc | {:.1} calendar pops/kc",
        s.sched.mean_ready_len(s.cycles),
        s.sched.wakeups_per_kilocycle(s.cycles),
        s.sched.calendar_pops_per_kilocycle(s.cycles)
    );
    println!(
        "  plan cache        {:>12} static plans built | {} dynamic fetches through cache",
        s.plan.builds, s.plan.hits
    );
    if energy {
        println!("  energy            {:>12.1} nJ   EDP {:.3e}", s.energy.total_nj(), s.edp());
        for (ev, n, nj) in s.energy.breakdown().into_iter().take(8) {
            println!("    {:14} {:>10} events {:>12.1} nJ", ev.label(), n, nj);
        }
    }
}

fn cmd_asm(args: &[String]) -> CliResult {
    let (input, output) = match args {
        [i, o_flag, o] if o_flag == "-o" => (i, o.clone()),
        [i] => (i, format!("{i}.img")),
        _ => return Err("usage: dmdp asm FILE.s [-o FILE.img]".into()),
    };
    let src = std::fs::read_to_string(input)?;
    let program = asm::assemble_named(input, &src)?;
    std::fs::write(&output, program.to_image())?;
    println!(
        "{input}: {} instructions, {} data bytes -> {output}",
        program.len(),
        program.data().len()
    );
    Ok(())
}

fn cmd_disasm(args: &[String]) -> CliResult {
    let [input] = args else {
        return Err("usage: dmdp disasm FILE.img".into());
    };
    let bytes = std::fs::read(input)?;
    let program = Program::from_image(&bytes)?;
    println!("# {} (entry {})", program.name(), program.entry());
    print!("{}", program.listing());
    Ok(())
}
