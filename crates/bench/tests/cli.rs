//! End-to-end tests of the `dmdp` binary: probe flags, the `report`
//! subcommand, and the unknown-workload diagnostics — all via
//! `CARGO_BIN_EXE_dmdp`, so they exercise exactly what a user runs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dmdp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dmdp"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("dmdp binary runs")
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dmdp-cli-{}-{name}", std::process::id()))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn run_rejects_unknown_workload_listing_kernels() {
    let out = dmdp(&["run", "--workload", "nonesuch", "--scale", "test"]);
    assert!(!out.status.success(), "unknown workload must fail");
    let err = stderr(&out);
    assert!(err.contains("unknown workload `nonesuch`"), "{err}");
    assert!(err.contains("valid kernels"), "{err}");
    for name in ["bzip2", "mcf", "sphinx3"] {
        assert!(err.contains(name), "missing `{name}` in: {err}");
    }
}

#[test]
fn campaign_rejects_unknown_kernel_listing_kernels() {
    let out = dmdp(&["campaign", "--kernel", "nonesuch", "--scale", "test", "--quiet"]);
    assert!(!out.status.success(), "unknown kernel must fail");
    let err = stderr(&out);
    assert!(err.contains("unknown workload `nonesuch`"), "{err}");
    assert!(err.contains("valid kernels"), "{err}");
    assert!(err.contains("bzip2"), "{err}");
}

#[test]
fn malformed_or_oversized_variants_are_refused_naming_the_knob() {
    for (variant, want) in [
        ("big=rob:64,rob:128", "knob `rob` given twice"),
        ("big=rmo,rmo", "knob `rmo` given twice"),
        ("big=rmo:1", "knob `rmo` takes no value"),
        ("big=balanced:1", "knob `balanced` takes no value"),
        ("big=nosilent,nosilent", "knob `nosilent` given twice"),
    ] {
        let out = dmdp(&["campaign", "--scale", "test", "--kernel", "mcf", "--variant", variant]);
        assert!(!out.status.success(), "{variant} must fail");
        let err = stderr(&out);
        assert!(err.contains(want), "{variant}: {err}");
    }
    // A size past its ceiling is refused before anything is allocated.
    let out = dmdp(&["run", "--workload", "mcf", "--scale", "test", "--rob", "4000000000"]);
    assert!(!out.status.success(), "an oversized ROB must fail");
    assert!(stderr(&out).contains("ROB too large: 4000000000"), "{}", stderr(&out));
}

/// The models of an artifact's job rows, in row order.
fn row_models(artifact: &std::path::Path) -> Vec<String> {
    let v = dmdp_harness::Json::parse(&std::fs::read_to_string(artifact).unwrap()).unwrap();
    let rows = v.get("jobs").and_then(dmdp_harness::Json::as_arr).expect("jobs array");
    rows.iter().map(|j| j.get("model").and_then(dmdp_harness::Json::as_str).unwrap().to_string()).collect()
}

#[test]
fn repeated_model_flags_accumulate() {
    let artifact = temp("models.json");
    let campaign = |models: &[&str]| {
        let mut args = vec!["campaign", "--scale", "test", "--kernel", "mcf", "--quiet", "--force"];
        args.extend(["--out", artifact.to_str().unwrap()]);
        for m in models {
            args.extend(["--model", m]);
        }
        let out = dmdp(&args);
        assert!(out.status.success(), "{}", stderr(&out));
        row_models(&artifact)
    };
    assert_eq!(campaign(&["nosq", "dmdp", "nosq"]), ["nosq", "dmdp"]);
    assert_eq!(campaign(&["dmdp", "all"]), ["dmdp", "baseline", "nosq", "perfect"]);
    let out = dmdp(&["run", "--workload", "mcf", "--scale", "test", "--model", "nosq", "--model", "dmdp"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("== nosq ==") && text.contains("== dmdp =="), "{text}");
    std::fs::remove_file(&artifact).ok();
}

#[test]
fn report_rejects_an_unknown_figure_listing_the_ids() {
    let artifact = temp("figure.json");
    let store = temp("figure-store");
    let path = artifact.to_str().unwrap();
    let out = dmdp(&[
        "campaign", "--scale", "test", "--kernel", "lib", "--model", "dmdp", "--quiet", "--out", path, "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = dmdp(&["report", path, "--figure", "fig99_nonesuch"]);
    assert!(!out.status.success(), "an unknown figure must fail");
    let err = stderr(&out);
    assert!(err.contains("unknown figure `fig99_nonesuch`"), "{err}");
    for id in ["fig02_load_distribution", "fig12_speedup", "tab07_reexec_stalls", "ablation_silent_store", "all"] {
        assert!(err.contains(id), "missing `{id}` in: {err}");
    }
    std::fs::remove_file(&artifact).ok();
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn traced_and_sampled_run_writes_wellformed_artifacts() {
    let trace = temp("trace.jsonl");
    let samples = temp("samples.json");
    let out = dmdp(&[
        "run",
        "--workload",
        "gcc",
        "--scale",
        "test",
        "--model",
        "dmdp",
        "--trace",
        trace.to_str().unwrap(),
        "--sample-every",
        "200",
        "--sample-out",
        samples.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("trace"), "{text}");
    assert!(text.contains("samples"), "{text}");
    assert!(text.contains("scheduler"), "sched-stats line missing: {text}");

    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(trace_text.lines().count() > 100, "trace suspiciously small");
    for line in trace_text.lines().take(50) {
        let v = dmdp_harness::Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(v.get("seq").is_some() && v.get("kind").is_some(), "{line}");
    }
    let sample_text = std::fs::read_to_string(&samples).expect("samples written");
    let v = dmdp_harness::Json::parse(&sample_text).expect("samples parse");
    let arr = v.as_arr().expect("samples are an array");
    assert!(!arr.is_empty());
    assert!(arr.iter().all(|s| s.get("cycle").is_some() && s.get("ipc").is_some()));
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&samples).ok();
}

#[test]
fn probe_flag_validation() {
    let out = dmdp(&["run", "--trace-from", "10", "--scale", "test"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--trace"), "{}", stderr(&out));

    let out = dmdp(&["run", "--trace-cycles", "100", "--scale", "test"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--trace"), "{}", stderr(&out));

    let out = dmdp(&["run", "--sample-out", "x.json", "--scale", "test"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--sample-every"), "{}", stderr(&out));

    let out = dmdp(&["run", "--sample-every", "0", "--scale", "test"]);
    assert!(!out.status.success());
}

#[test]
fn report_renders_a_campaign_artifact() {
    let artifact = temp("report.json");
    let store = temp("report-store");
    let out = dmdp(&[
        "campaign",
        "--name",
        "cli-report",
        "--scale",
        "test",
        "--kernel",
        "lib",
        "--kernel",
        "bwaves",
        "--quiet",
        "--out",
        artifact.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = dmdp(&["report", artifact.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for section in
        ["campaign `cli-report`", "IPC by workload", "geomean IPC", "scheduler occupancy", "slowest jobs"]
    {
        assert!(text.contains(section), "missing `{section}` in:\n{text}");
    }
    std::fs::remove_file(&artifact).ok();
    std::fs::remove_dir_all(&store).ok();
}

/// Kills the daemon child on panic so a failed assertion can't leak a
/// process holding the socket.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Starts `dmdp serve` on `socket` and `store` and waits for its socket.
fn daemon_on(socket: &std::path::Path, store: &std::path::Path) -> KillOnDrop {
    let child = Command::new(env!("CARGO_BIN_EXE_dmdp"))
        .args(["serve", "--socket", socket.to_str().unwrap(), "--store", store.to_str().unwrap(), "--jobs", "2"])
        .current_dir(std::env::temp_dir())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let child = KillOnDrop(child);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !socket.exists() {
        assert!(std::time::Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child
}

/// The deterministic slice of a `dmdp report` rendering: from the IPC
/// tables through the scheduler-occupancy section. The header and the
/// slowest-jobs table depend on wall-clock and are excluded.
fn deterministic_report(artifact: &std::path::Path) -> String {
    let out = dmdp(&["report", artifact.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let from = text.find("IPC by workload").expect("IPC section present");
    let to = text.find("slowest jobs").expect("slowest-jobs section present");
    text[from..to].to_string()
}

/// Sorted (digest, cycles, ipc) triples of an artifact's job rows.
fn job_triples(artifact: &std::path::Path) -> Vec<(String, u64, f64)> {
    let text = std::fs::read_to_string(artifact).expect("artifact readable");
    let v = dmdp_harness::Json::parse(&text).expect("artifact parses");
    let mut rows: Vec<(String, u64, f64)> = v
        .get("jobs")
        .and_then(dmdp_harness::Json::as_arr)
        .expect("jobs array")
        .iter()
        .map(|j| {
            (
                j.get("digest").and_then(dmdp_harness::Json::as_str).unwrap().to_string(),
                j.get("cycles").and_then(dmdp_harness::Json::as_u64).unwrap(),
                j.get("ipc").and_then(dmdp_harness::Json::as_f64).unwrap(),
            )
        })
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

#[test]
fn submitted_artifact_matches_a_local_campaign_and_reuses_the_store() {
    let dir = temp("daemon");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("dmdp.sock");
    let store = dir.join("store");
    let local = dir.join("local.json");
    let remote = dir.join("remote.json");
    let remote2 = dir.join("remote2.json");

    // A cold local campaign is the golden reference.
    let spec: &[&str] =
        &["--name", "golden", "--scale", "test", "--kernel", "lib", "--kernel", "hmmer", "--quiet"];
    let out = dmdp(
        &[&["campaign"], spec, &["--force", "--out", local.to_str().unwrap()]].concat(),
    );
    assert!(out.status.success(), "{}", stderr(&out));

    let mut child = daemon_on(&socket, &store);

    // Same sweep through the daemon: the artifact must carry the same
    // digests and numbers and render the same report.
    let submit: &[&str] = &["submit", "--socket", socket.to_str().unwrap()];
    let out = dmdp(&[submit, spec, &["--out", remote.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(job_triples(&local), job_triples(&remote), "daemon results diverge from local");
    assert_eq!(
        deterministic_report(&local),
        deterministic_report(&remote),
        "submitted artifact renders differently"
    );

    // A second identical submission executes nothing — all store hits.
    let out = dmdp(&[submit, spec, &["--out", remote2.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("0 executed, 8 cached"), "{}", stdout(&out));
    assert_eq!(job_triples(&remote), job_triples(&remote2));

    // Graceful stop: the daemon acknowledges, exits cleanly, and removes
    // its socket file.
    let out = dmdp(&[submit, &["--shutdown"]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let status = child.0.wait().expect("daemon reaps");
    assert!(status.success(), "daemon exited with {status}");
    assert!(!socket.exists(), "socket file left behind");
    std::fs::remove_dir_all(&dir).ok();
}

/// An artifact's job rows with `drop` removed from each, as JSON text.
fn rows_without(artifact: &std::path::Path, drop: &str) -> Vec<String> {
    let v = dmdp_harness::Json::parse(&std::fs::read_to_string(artifact).unwrap()).unwrap();
    let rows = v.get("jobs").and_then(dmdp_harness::Json::as_arr).expect("jobs array");
    rows.iter()
        .map(|row| match row {
            dmdp_harness::Json::Obj(members) => {
                let kept = members.iter().filter(|(k, _)| k != drop).cloned().collect();
                dmdp_harness::Json::Obj(kept).compact()
            }
            other => panic!("a row is not an object: {}", other.compact()),
        })
        .collect()
}

#[test]
fn a_campaign_and_a_daemon_on_one_store_serve_each_other_rows() {
    let dir = temp("one-store");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (socket, store) = (dir.join("dmdp.sock"), dir.join("store"));
    let [cold, served, warm] = ["cold", "served", "warm"].map(|n| dir.join(format!("{n}.json")));
    let spec: &[&str] = &["--name", "one-store", "--scale", "test", "--kernel", "lib", "--kernel", "mcf", "--quiet"];
    let on_store: &[&str] = &["--store", store.to_str().unwrap()];

    let out = dmdp(&[&["campaign"], spec, on_store, &["--out", cold.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("8 executed, 0 cached"), "{}", stdout(&out));

    // A daemon on the campaign's store executes nothing for the same
    // sweep, and its rows are the campaign's.
    let mut daemon = daemon_on(&socket, &store);
    let submit: &[&str] = &["submit", "--socket", socket.to_str().unwrap()];
    let out = dmdp(&[submit, spec, &["--out", served.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("0 executed, 8 cached"), "{}", stdout(&out));
    assert_eq!(rows_without(&cold, "cached"), rows_without(&served, "cached"));
    let out = dmdp(&[submit, &["--shutdown"]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(daemon.0.wait().expect("daemon reaps").success());

    // And a campaign after that daemon's shutdown executes nothing.
    let out = dmdp(&[&["campaign"], spec, on_store, &["--out", warm.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("0 executed, 8 cached"), "{}", stdout(&out));
    assert_eq!(rows_without(&cold, "cached"), rows_without(&warm, "cached"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn force_neither_reads_nor_writes_a_store() {
    let dir = temp("force");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("out.json");
    // Run in `dir`, so the default store is `dir/bench-results/store`.
    let campaign = |extra: &[&str]| {
        let base = ["campaign", "--scale", "test", "--kernel", "lib", "--quiet", "--out", out_path.to_str().unwrap()];
        let out = Command::new(env!("CARGO_BIN_EXE_dmdp"))
            .args(base.iter().chain(extra))
            .current_dir(&dir)
            .output()
            .expect("dmdp binary runs");
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    };
    let default_store = dir.join("bench-results").join("store");
    assert!(campaign(&["--force"]).contains("4 executed, 0 cached"));
    assert!(!default_store.exists(), "--force created a store directory");

    // The default store, then a forced run beside it: every job runs
    // again, and the row log is left byte for byte as it was.
    assert!(campaign(&[]).contains("4 executed, 0 cached"));
    let log = std::fs::read(default_store.join("rows.log")).expect("the default store has a row log");
    assert!(campaign(&["--force"]).contains("4 executed, 0 cached"));
    assert_eq!(std::fs::read(default_store.join("rows.log")).unwrap(), log);
    assert!(campaign(&[]).contains("0 executed, 4 cached"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn force_with_a_store_is_refused_naming_both_flags() {
    let store = temp("refused-store");
    let out = dmdp(&["campaign", "--scale", "test", "--kernel", "lib", "--force", "--store", store.to_str().unwrap()]);
    assert!(!out.status.success(), "--force --store must fail");
    let err = stderr(&out);
    assert!(err.contains("--force") && err.contains("--store"), "{err}");
    assert!(!store.exists(), "a refused campaign opens no store");
}

#[test]
fn metrics_subcommand_reads_a_live_daemon() {
    let dir = temp("obs-cli");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("dmdp.sock");
    let store = dir.join("store");
    let events = dir.join("events.jsonl");
    let artifact = dir.join("sweep.json");

    let child = Command::new(env!("CARGO_BIN_EXE_dmdp"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--jobs",
            "2",
            "--log",
            events.to_str().unwrap(),
            "--log-level",
            "debug",
            "--slow-job-ms",
            "0",
        ])
        .current_dir(std::env::temp_dir())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let mut child = KillOnDrop(child);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !socket.exists() {
        assert!(std::time::Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let submit: &[&str] = &["submit", "--socket", socket.to_str().unwrap()];
    let spec: &[&str] = &["--name", "obs-cli", "--scale", "test", "--kernel", "lib", "--quiet"];
    let out = dmdp(&[submit, spec, &["--out", artifact.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));

    // `dmdp metrics` prints the JSON snapshot: parseable, with the
    // daemon's request counters and latency histograms present.
    let out = dmdp(&["metrics", "--socket", socket.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let v = dmdp_harness::Json::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    let names: Vec<&str> = v
        .get("metrics")
        .and_then(dmdp_harness::Json::as_arr)
        .expect("metrics array")
        .iter()
        .filter_map(|m| m.get("name").and_then(dmdp_harness::Json::as_str))
        .collect();
    for want in ["dmdp_requests_total", "dmdp_jobs_total", "dmdp_queue_wait_us"] {
        assert!(names.contains(&want), "missing `{want}` in {names:?}");
    }

    // The artifact's trace id appears in the daemon's event log, tying
    // the submitted sweep to its structured trace — and with
    // --slow-job-ms 0, every executed job logs a slow_job event.
    let text = std::fs::read_to_string(&artifact).expect("artifact readable");
    let trace = dmdp_harness::Json::parse(&text)
        .expect("artifact parses")
        .get("trace_id")
        .and_then(dmdp_harness::Json::as_str)
        .expect("artifact carries trace_id")
        .to_string();
    let log = std::fs::read_to_string(&events).expect("event log written");
    assert!(
        log.lines().any(|l| l.contains("submit_done") && l.contains(&trace)),
        "trace {trace} missing from event log:\n{log}"
    );
    assert!(log.contains("slow_job"), "no slow_job event despite --slow-job-ms 0:\n{log}");

    let out = dmdp(&[submit, &["--shutdown"]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    child.0.wait().expect("daemon reaps");
    std::fs::remove_dir_all(&dir).ok();
}

/// The `value` of the first series named `name` in the `dmdp metrics`
/// reply of the daemon on `socket`.
fn metric(socket: &std::path::Path, name: &str) -> Option<u64> {
    let out = dmdp(&["metrics", "--socket", socket.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let v = dmdp_harness::Json::parse(&stdout(&out)).expect("metrics parse");
    let is = |e: &&dmdp_harness::Json| e.get("name").and_then(dmdp_harness::Json::as_str) == Some(name);
    let series = v.get("metrics").and_then(dmdp_harness::Json::as_arr)?.iter().find(is)?;
    series.get("value").and_then(dmdp_harness::Json::as_u64)
}

/// A bundle read from the store is a blob hit, not a build: a daemon
/// restarted on a store that holds lib's bundle answers a sampled submit
/// of a new variant without profiling anything. The daemon runs in a
/// process of its own, so no other test writes to its registry.
#[test]
fn a_stored_bundle_counts_as_a_blob_hit_not_a_build() {
    let dir = temp("bundle-hit");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (socket, store) = (dir.join("dmdp.sock"), dir.join("store"));
    let submit: &[&str] = &["submit", "--socket", socket.to_str().unwrap()];
    let spec: &[&str] = &["--scale", "test", "--kernel", "lib", "--model", "dmdp", "--interval-insns", "1000", "--quiet"];
    let out_path = dir.join("sampled.json");
    let out: &[&str] = &["--out", out_path.to_str().unwrap()];
    for (daemon, variant) in [("cold", "main="), ("restarted", "rob48=rob:48")] {
        let mut child = daemon_on(&socket, &store);
        let run = dmdp(&[submit, spec, &["--variant", variant], out].concat());
        assert!(run.status.success(), "{daemon}: {}", stderr(&run));
        assert!(stdout(&run).contains("1 executed"), "{daemon}: {}", stdout(&run));
        if daemon == "restarted" {
            let builds = metric(&socket, "dmdp_sampled_bundle_builds_total");
            assert_eq!(builds, Some(0), "a blob hit counted as a build");
            let hits = metric(&socket, "dmdp_store_blob_hits_total");
            assert!(hits >= Some(1), "the bundle was not read from the store");
        }
        let stop = dmdp(&[submit, &["--shutdown"]].concat());
        assert!(stop.status.success(), "{}", stderr(&stop));
        assert!(child.0.wait().expect("daemon reaps").success());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampled_campaign_and_error_report_round_trip() {
    let full = temp("err-full.json");
    let sampled = temp("err-sampled.json");
    let base: &[&str] = &["--scale", "test", "--kernel", "mcf", "--model", "dmdp", "--quiet"];

    let out = dmdp(
        &[&["campaign", "--name", "full"], base, &["--force", "--out", full.to_str().unwrap()]]
            .concat(),
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let out = dmdp(
        &[
            &["campaign", "--name", "sampled", "--interval-insns", "1000", "--warmup-intervals", "2"],
            base,
            &["--force", "--out", sampled.to_str().unwrap()],
        ]
        .concat(),
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("sampled (1000 insns × 2 warmup)"),
        "{}",
        stdout(&out)
    );

    // The plain report names the sampling; the comparison renders a
    // table, and --json emits the machine-readable shape CI checks.
    let out = dmdp(&["report", sampled.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("sampled: 1000 insn intervals"), "{}", stdout(&out));
    let out =
        dmdp(&["report", sampled.to_str().unwrap(), "--error-vs", full.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("geomean |error|"), "{}", stdout(&out));
    let out = dmdp(&[
        "report",
        sampled.to_str().unwrap(),
        "--error-vs",
        full.to_str().unwrap(),
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let v = dmdp_harness::Json::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    assert_eq!(v.get("rows_compared").and_then(dmdp_harness::Json::as_u64), Some(1));
    let err = v.get("geomean_abs_error_pct").and_then(dmdp_harness::Json::as_f64).unwrap();
    assert!(err <= 2.0, "sampled error {err}% above the 2% budget:\n{text}");

    // Comparing a full artifact against itself is a clean error.
    let out = dmdp(&["report", full.to_str().unwrap(), "--error-vs", full.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("no sampled rows"), "{}", stderr(&out));
    std::fs::remove_file(&full).ok();
    std::fs::remove_file(&sampled).ok();
}

#[test]
fn submit_without_a_daemon_fails_cleanly() {
    let socket = temp("no-daemon.sock");
    std::fs::remove_file(&socket).ok();
    let out = dmdp(&["submit", "--socket", socket.to_str().unwrap(), "--ping"]);
    assert!(!out.status.success(), "ping with no daemon must fail");
    assert!(stderr(&out).contains("no-daemon.sock"), "{}", stderr(&out));
}

#[test]
fn report_fails_on_missing_or_malformed_artifact() {
    let out = dmdp(&["report", "definitely-not-here.json"]);
    assert!(!out.status.success());

    let bad = temp("bad.json");
    std::fs::write(&bad, "{\"schema\": 99}").unwrap();
    let out = dmdp(&["report", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("schema"), "{}", stderr(&out));
    std::fs::remove_file(&bad).ok();
}

/// Events from a daemon JSONL log with a given `event` value.
fn events_named(log: &std::path::Path, name: &str) -> Vec<dmdp_harness::Json> {
    std::fs::read_to_string(log)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| dmdp_harness::Json::parse(l).ok())
        .filter(|v| v.get("event").and_then(dmdp_harness::Json::as_str) == Some(name))
        .collect()
}

/// Sends `sig` (e.g. `-STOP`) to `pid`.
fn signal(sig: &str, pid: u64) {
    let status = Command::new("kill").args([sig, &pid.to_string()]).status().expect("kill runs");
    assert!(status.success(), "kill {sig} {pid}: {status}");
}

/// True while `pid` names a live process.
fn pid_alive(pid: u64) -> bool {
    std::process::Command::new("kill")
        .args(["-0", &pid.to_string()])
        .stderr(std::process::Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Waits for a coordinator's `n` `worker_spawned` events. A worker is
/// linked and placeable from the moment it is spawned.
fn await_spawned(events: &std::path::Path, n: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while events_named(events, "worker_spawned").len() < n {
        assert!(std::time::Instant::now() < deadline, "workers never spawned");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Starts `dmdp serve --workers <workers>` on `dir`, logging to `events`.
fn sharded_daemon(dir: &std::path::Path, events: &std::path::Path, workers: usize) -> KillOnDrop {
    let child = Command::new(env!("CARGO_BIN_EXE_dmdp"))
        .args([
            "serve",
            "--socket",
            dir.join("dmdp.sock").to_str().unwrap(),
            "--store",
            dir.join("store").to_str().unwrap(),
            "--jobs",
            "2",
            "--workers",
            &workers.to_string(),
            "--log",
            events.to_str().unwrap(),
            "--log-level",
            "debug",
        ])
        .current_dir(std::env::temp_dir())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("coordinator spawns");
    KillOnDrop(child)
}

#[test]
fn sharded_serve_matches_single_process_artifacts() {
    let dir = temp("sharded");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("dmdp.sock");
    let events = dir.join("events.jsonl");
    let local = dir.join("local.json");
    let remote = dir.join("remote.json");
    let remote2 = dir.join("remote2.json");

    // Golden reference: the same sweep fully in-process.
    let spec: &[&str] =
        &["--name", "sharded", "--scale", "test", "--kernel", "lib", "--kernel", "hmmer", "--quiet"];
    let out = dmdp(&[&["campaign"], spec, &["--force", "--out", local.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));

    // A coordinator with two spawned worker shards.
    let mut child = sharded_daemon(&dir, &events, 2);
    await_spawned(&events, 2);

    // The submitted artifact must be byte-equal on digests and numbers.
    let submit: &[&str] =
        &["submit", "--socket", socket.to_str().unwrap(), "--connect-retries", "5"];
    let out = dmdp(&[submit, spec, &["--out", remote.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(job_triples(&local), job_triples(&remote), "sharded results diverge from local");
    assert_eq!(deterministic_report(&local), deterministic_report(&remote));

    // Work actually went through the shards, and the repeat is all
    // store hits.
    assert!(!events_named(&events, "dispatch").is_empty(), "no groups were dispatched");
    let out = dmdp(&[submit, spec, &["--out", remote2.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("0 executed, 8 cached"), "{}", stdout(&out));
    assert_eq!(job_triples(&remote), job_triples(&remote2));

    // Shutdown drains the workers too: clean exit, both links ended
    // with nothing owed, no orphans.
    let worker_pids: Vec<u64> = events_named(&events, "worker_spawned")
        .iter()
        .filter_map(|v| v.get("pid").and_then(dmdp_harness::Json::as_u64))
        .collect();
    assert_eq!(worker_pids.len(), 2, "two workers were spawned");
    let out = dmdp(&[submit, &["--shutdown"]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let status = child.0.wait().expect("coordinator reaps");
    assert!(status.success(), "coordinator exited with {status}");
    assert_eq!(events_named(&events, "worker_gone").len(), 2, "both links ended cleanly");
    assert!(events_named(&events, "worker_lost").is_empty(), "a worker died owing groups");
    for pid in worker_pids {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pid_alive(pid) {
            assert!(std::time::Instant::now() < deadline, "worker {pid} left running");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_worker_mid_campaign_loses_no_jobs() {
    let dir = temp("crash");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("dmdp.sock");
    let events = dir.join("events.jsonl");
    let local = dir.join("local.json");
    let remote = dir.join("remote.json");

    let spec: &[&str] = &["--name", "crash", "--scale", "test", "--model", "dmdp", "--quiet"];
    let out = dmdp(&[&["campaign"], spec, &["--force", "--out", local.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));

    let mut child = sharded_daemon(&dir, &events, 2);
    await_spawned(&events, 2);

    // Stop worker w0, so that it keeps every group it is dispatched,
    // submit the full 21-kernel sweep in the background, and SIGKILL w0
    // once it holds a group: it dies owing work.
    let victim_pid = events_named(&events, "worker_spawned")
        .iter()
        .find(|v| v.get("name").and_then(dmdp_harness::Json::as_str) == Some("w0"))
        .and_then(|v| v.get("pid").and_then(dmdp_harness::Json::as_u64))
        .expect("w0's spawn event carries its pid");
    signal("-STOP", victim_pid);
    let submit_child = Command::new(env!("CARGO_BIN_EXE_dmdp"))
        .args(
            [
                &["submit", "--socket", socket.to_str().unwrap()],
                spec,
                &["--out", remote.to_str().unwrap()],
            ]
            .concat(),
        )
        .current_dir(std::env::temp_dir())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("submit spawns");

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !events_named(&events, "dispatch")
        .iter()
        .any(|d| d.get("worker").and_then(dmdp_harness::Json::as_str) == Some("w0"))
    {
        assert!(std::time::Instant::now() < deadline, "no dispatch to w0 before the deadline");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    signal("-KILL", victim_pid);

    // The submit still completes, with every job accounted for exactly
    // once and digits identical to the single-process golden run.
    let out = submit_child.wait_with_output().expect("submit finishes");
    assert!(
        out.status.success(),
        "submit failed after worker crash: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(job_triples(&local), job_triples(&remote), "crash recovery changed results");
    let text = std::fs::read_to_string(&remote).unwrap();
    let v = dmdp_harness::Json::parse(&text).unwrap();
    let jobs = v.get("jobs").and_then(dmdp_harness::Json::as_arr).unwrap();
    assert_eq!(jobs.len(), 21);
    let mut digests: Vec<&str> = jobs
        .iter()
        .map(|j| j.get("digest").and_then(dmdp_harness::Json::as_str).unwrap())
        .collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), 21, "a digest landed twice");

    // The coordinator noticed that w0 died owing groups and requeued
    // them on the remaining shard (or in-process). (The victim stays a
    // zombie until the coordinator reaps it at shutdown, so no liveness
    // probe here.)
    let lost = events_named(&events, "worker_lost");
    assert_eq!(lost.len(), 1, "the coordinator never noticed the dead worker");
    assert_eq!(lost[0].get("name").and_then(dmdp_harness::Json::as_str), Some("w0"));
    let requeues = events_named(&events, "requeue");
    assert!(!requeues.is_empty(), "w0's groups were not requeued");
    assert!(requeues.iter().all(|r| r.get("worker").and_then(dmdp_harness::Json::as_str) == Some("w0")));

    let out = dmdp(&["submit", "--socket", socket.to_str().unwrap(), "--shutdown"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let status = child.0.wait().expect("coordinator reaps");
    assert!(status.success(), "coordinator exited with {status}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Only the coordinator's own children are workers: a `register` line
/// carrying the right versions is just an unknown request on the
/// daemon's socket, and it gets no work.
#[test]
fn only_spawned_children_are_workers() {
    use std::io::{BufRead, BufReader, Write};
    let dir = temp("impostor");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("dmdp.sock");
    let events = dir.join("events.jsonl");
    let local = dir.join("local.json");
    let remote = dir.join("remote.json");

    let spec: &[&str] =
        &["--name", "impostor", "--scale", "test", "--kernel", "gcc", "--kernel", "lib", "--quiet"];
    let out = dmdp(&[&["campaign"], spec, &["--force", "--out", local.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));

    let mut child = sharded_daemon(&dir, &events, 2);
    await_spawned(&events, 2);
    assert_eq!(events_named(&events, "listening").len(), 1);

    let hello = format!(
        r#"{{"type": "register", "protocol": {}, "sim_version": "{}", "name": "impostor", "jobs": 4, "cores": []}}"#,
        dmdp_server::PROTOCOL_VERSION,
        dmdp_core::SIM_VERSION
    );
    let mut raw = std::os::unix::net::UnixStream::connect(&socket).expect("socket is bound");
    raw.write_all((hello + "\n").as_bytes()).unwrap();
    let mut line = String::new();
    BufReader::new(&raw).read_line(&mut line).unwrap();
    let reply = dmdp_harness::Json::parse(line.trim_end()).unwrap();
    assert_eq!(reply.get("type").and_then(dmdp_harness::Json::as_str), Some("error"), "{line}");

    assert_eq!(metric(&socket, "dmdp_workers"), Some(2));

    let submit: &[&str] = &["submit", "--socket", socket.to_str().unwrap()];
    let out = dmdp(&[submit, spec, &["--out", remote.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(job_triples(&local), job_triples(&remote), "served rows diverge from local");

    let out = dmdp(&[submit, &["--shutdown"]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let status = child.0.wait().expect("coordinator reaps");
    assert!(status.success(), "coordinator exited with {status}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A process's nice value: field 19 of `/proc/<pid>/stat`.
#[cfg(target_os = "linux")]
fn nice_of(pid: &str) -> i64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("the process is alive");
    let fields: Vec<&str> = stat[stat.rfind(") ").unwrap() + 2..].split(' ').collect();
    fields[19 - 3].parse().unwrap()
}

/// A sharded daemon simulates at background priority: its worker child
/// runs at nice 19, while the coordinator, whose threads answer
/// requests, keeps the priority it was started with (this test's own,
/// 0 unless the test runs niced).
#[cfg(target_os = "linux")]
#[test]
fn workers_run_at_nice_19_and_the_coordinator_does_not() {
    let dir = temp("nice");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("events.jsonl");
    let mut child = sharded_daemon(&dir, &events, 1);
    await_spawned(&events, 1);
    let worker = events_named(&events, "worker_spawned")[0]
        .get("pid")
        .and_then(dmdp_harness::Json::as_u64)
        .expect("the spawn event carries the worker's pid")
        .to_string();
    // The worker lowers its priority as it starts.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while nice_of(&worker) != 19 {
        assert!(std::time::Instant::now() < deadline, "worker {worker} runs at nice {}", nice_of(&worker));
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(nice_of(&child.0.id().to_string()), nice_of("self"), "the coordinator was lowered");

    let socket = dir.join("dmdp.sock");
    let out = dmdp(&["submit", "--socket", socket.to_str().unwrap(), "--connect-retries", "5", "--shutdown"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let status = child.0.wait().expect("coordinator reaps");
    assert!(status.success(), "coordinator exited with {status}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker holds a blob-only handle on its coordinator's store: it
/// never opens, scans or creates the row log.
#[test]
fn a_worker_never_opens_or_creates_the_row_log() {
    let dir = temp("worker-log");
    std::fs::remove_dir_all(&dir).ok();
    let (with, without) = (dir.join("with"), dir.join("without"));
    std::fs::create_dir_all(&with).unwrap();
    std::fs::create_dir_all(&without).unwrap();
    let garbage = b"not a row log\n\xff\xfe torn";
    std::fs::write(with.join("rows.log"), garbage).unwrap();
    for store in [&with, &without] {
        // Stdin is at end of file: the worker drains at once.
        let out = dmdp(&["worker", "--store", store.to_str().unwrap(), "--quiet"]);
        assert!(out.status.success(), "{}", stderr(&out));
    }
    assert_eq!(std::fs::read(with.join("rows.log")).unwrap(), garbage, "the log was touched");
    assert!(!without.join("rows.log").exists(), "a worker created a row log");
    std::fs::remove_dir_all(&dir).ok();
}
