//! End-to-end daemon tests: an in-process [`serve`] on a temp-dir unix
//! socket, talked to through the real [`Client`] — store reuse across
//! submits, in-flight dedup across concurrent clients, graceful drain on
//! shutdown, and protocol-error isolation.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dmdp_core::CommModel;
use dmdp_harness::{CfgPatch, Json, Sampling};
use dmdp_server::{serve, Client, DaemonReport, ServeOptions, SubmitRequest};
use dmdp_workloads::Scale;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmdp-daemon-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn serve_opts(dir: &Path) -> ServeOptions {
    ServeOptions {
        socket: dir.join("dmdp.sock"),
        store_dir: dir.join("store"),
        jobs: 2,
        store_cap_bytes: None,
        quiet: true,
        log: Some(dir.join("events.jsonl")),
        log_level: dmdp_obs::log::Level::Debug,
        slow_job_ms: None,
        workers: 0,
    }
}

/// Connects to the daemon, waiting for it to finish binding.
fn connect(socket: &Path) -> Client {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut client) = Client::connect_unix(socket) {
            if client.ping().is_ok() {
                return client;
            }
        }
        assert!(Instant::now() < deadline, "daemon never came up on {}", socket.display());
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn small_request(name: &str) -> SubmitRequest {
    SubmitRequest {
        kernels: Some(vec!["lib".into(), "hmmer".into()]),
        models: vec![CommModel::Baseline, CommModel::Dmdp],
        watch: true,
        ..SubmitRequest::new(name, Scale::Test)
    }
}

#[test]
fn second_submit_is_satisfied_entirely_from_the_store() {
    let dir = tmp_dir("resubmit");
    let opts = serve_opts(&dir);
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    let mut client = connect(&opts.socket);

    let mut events: Vec<String> = Vec::new();
    let cold = client
        .submit(&small_request("cold"), |ev| {
            if ev.get("type").and_then(Json::as_str) == Some("finished") {
                events.push(
                    ev.get("source").and_then(Json::as_str).unwrap_or("?").to_string(),
                );
            }
        })
        .unwrap();
    assert_eq!(cold.jobs.len(), 4);
    assert_eq!(cold.executed, 4);
    assert_eq!(cold.cached, 0);
    assert_eq!(events, ["executed"; 4], "cold jobs are all freshly executed");
    assert!(cold.jobs.iter().all(|j| !j.cached));

    events.clear();
    let warm = client
        .submit(&small_request("warm"), |ev| {
            if ev.get("type").and_then(Json::as_str) == Some("finished") {
                events.push(
                    ev.get("source").and_then(Json::as_str).unwrap_or("?").to_string(),
                );
            }
        })
        .unwrap();
    assert_eq!(warm.executed, 0, "second identical submit executes nothing");
    assert_eq!(warm.cached, 4);
    assert_eq!(events, ["store"; 4], "every job came from the persistent store");
    assert!(warm.jobs.iter().all(|j| j.cached));
    for (a, b) in cold.jobs.iter().zip(&warm.jobs) {
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.ipc, b.ipc);
    }

    client.shutdown().unwrap();
    let report = daemon.join().unwrap();
    assert_eq!(report, DaemonReport {
        requests: report.requests,
        submits: 2,
        executed: 4,
        store_hits: 4,
        dedup_hits: 0,
    });
    assert!(!opts.socket.exists(), "socket file is removed on exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn results_survive_a_daemon_restart() {
    let dir = tmp_dir("restart");
    let opts = serve_opts(&dir);
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    let mut client = connect(&opts.socket);
    let cold = client.submit(&small_request("gen1"), |_| {}).unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap();

    // A brand-new daemon over the same store directory rebuilds its
    // index from disk — the warm submit still executes nothing.
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    let mut client = connect(&opts.socket);
    let warm = client.submit(&small_request("gen2"), |_| {}).unwrap();
    assert_eq!(warm.executed, 0);
    assert_eq!(warm.cached, cold.jobs.len());
    client.shutdown().unwrap();
    let report = daemon.join().unwrap();
    assert_eq!(report.executed, 0);
    assert_eq!(report.store_hits, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_simulate_each_digest_at_most_once() {
    let dir = tmp_dir("dedup");
    let opts = serve_opts(&dir);
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    connect(&opts.socket);

    // Four clients race identical overlapping sweeps (4 distinct
    // digests). Whatever the interleaving — in-flight waits or store
    // hits — each digest is simulated at most once.
    let socket = opts.socket.clone();
    std::thread::scope(|scope| {
        for i in 0..4 {
            let socket = socket.clone();
            scope.spawn(move || {
                let mut client = connect(&socket);
                let campaign =
                    client.submit(&small_request(&format!("racer-{i}")), |_| {}).unwrap();
                assert_eq!(campaign.jobs.len(), 4);
                assert_eq!(campaign.executed + campaign.cached, 4);
            });
        }
    });

    let mut client = connect(&opts.socket);
    let stats = client.stats().unwrap();
    let counter = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("{k}"));
    assert_eq!(counter("executed"), 4, "4 distinct digests, 4 simulations total");
    assert_eq!(counter("submits"), 4);
    assert_eq!(
        counter("store_hits") + counter("dedup_hits"),
        12,
        "the other 12 job slots were shared, not re-simulated"
    );
    client.shutdown().unwrap();
    let report = daemon.join().unwrap();
    assert_eq!(report.executed, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_drains_a_running_submit() {
    let dir = tmp_dir("drain");
    let opts = serve_opts(&dir);
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    connect(&opts.socket);

    // Client A submits the full 21-kernel campaign and signals as soon
    // as the first job event arrives — the submit is then provably in
    // flight when client B asks the daemon to shut down.
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let socket = opts.socket.clone();
    let submitter = std::thread::spawn(move || {
        let mut client = connect(&socket);
        let req = SubmitRequest {
            models: vec![CommModel::Dmdp],
            watch: true,
            ..SubmitRequest::new("draining", Scale::Test)
        };
        let mut signalled = false;
        client.submit(&req, |_| {
            if !signalled {
                signalled = true;
                tx.send(()).unwrap();
            }
        })
    });
    rx.recv_timeout(Duration::from_secs(30)).expect("submit started");

    let mut client = connect(&opts.socket);
    client.shutdown().expect("shutdown acknowledges after the drain");

    let campaign = submitter
        .join()
        .unwrap()
        .expect("the in-flight submit still completes with its full artifact");
    assert_eq!(campaign.jobs.len(), 21, "drain delivered every job");
    let report = daemon.join().unwrap();
    assert_eq!(report.submits, 1);
    assert!(!opts.socket.exists());

    // The daemon is really gone: connecting fails.
    assert!(Client::connect_unix(&opts.socket).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// A new connection is accepted the moment it arrives: no request waits
/// on a polling interval before the daemon even reads it.
#[test]
fn fresh_connections_are_answered_at_once() {
    let dir = tmp_dir("fresh");
    let opts = serve_opts(&dir);
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    let mut client = connect(&opts.socket);
    let mut trips: Vec<Duration> = (0..20)
        .map(|_| {
            let start = Instant::now();
            Client::connect_unix(&opts.socket).unwrap().ping().unwrap();
            start.elapsed()
        })
        .collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(median < Duration::from_millis(5), "median connect-and-ping {median:?}: {trips:?}");
    client.shutdown().unwrap();
    daemon.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_garbage_gets_an_error_and_spares_the_daemon() {
    let dir = tmp_dir("garbage");
    let opts = serve_opts(&dir);
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    connect(&opts.socket);

    // A raw connection speaking nonsense gets a structured error reply.
    let mut raw = UnixStream::connect(&opts.socket).unwrap();
    raw.write_all(b"this is not json\n").unwrap();
    raw.flush().unwrap();
    let mut line = String::new();
    BufReader::new(raw.try_clone().unwrap()).read_line(&mut line).unwrap();
    let reply = Json::parse(line.trim_end()).unwrap();
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));
    drop(raw);

    // An unparseable-but-valid-JSON request also errors, with detail.
    let mut raw = UnixStream::connect(&opts.socket).unwrap();
    raw.write_all(b"{\"type\": \"launch\"}\n").unwrap();
    raw.flush().unwrap();
    let mut line = String::new();
    BufReader::new(raw.try_clone().unwrap()).read_line(&mut line).unwrap();
    let reply = Json::parse(line.trim_end()).unwrap();
    assert!(
        reply.get("message").and_then(Json::as_str).unwrap().contains("launch"),
        "{line}"
    );
    drop(raw);

    // An HTTP request line is just another line that is not a request.
    let mut raw = UnixStream::connect(&opts.socket).unwrap();
    raw.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    raw.flush().unwrap();
    let mut line = String::new();
    BufReader::new(raw.try_clone().unwrap()).read_line(&mut line).unwrap();
    let reply = Json::parse(line.trim_end()).unwrap();
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"), "{line}");
    drop(raw);

    // The daemon survived all three and still serves well-formed clients.
    let mut client = connect(&opts.socket);
    assert!(client.ping().is_ok());
    client.shutdown().unwrap();
    daemon.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The value of one series in a `metrics` reply: a counter's or gauge's
/// `value`, a histogram's `count`; 0 when the series has not been
/// registered yet — the registry is process-wide, so tests assert
/// deltas, never absolutes.
fn series(msg: &Json, name: &str, labels: &[(&str, &str)]) -> u64 {
    let entries = msg.get("metrics").and_then(Json::as_arr).expect("metrics array");
    entries
        .iter()
        .find(|e| {
            e.get("name").and_then(Json::as_str) == Some(name)
                && labels.iter().all(|(k, v)| {
                    e.get("labels").and_then(|l| l.get(k)).and_then(Json::as_str) == Some(*v)
                })
        })
        .and_then(|e| e.get("value").or_else(|| e.get("count")).and_then(Json::as_u64))
        .unwrap_or(0)
}

#[test]
fn metrics_are_exposed_over_the_protocol_during_a_live_sweep() {
    let dir = tmp_dir("metrics");
    let opts = serve_opts(&dir);
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    let mut client = connect(&opts.socket);
    let baseline = client.metrics().unwrap();

    // A multi-variant sweep, so the daemon runs batched units.
    let req = SubmitRequest {
        kernels: Some(vec!["lib".into(), "hmmer".into()]),
        models: vec![CommModel::Baseline, CommModel::Dmdp],
        variants: vec![
            ("main".into(), CfgPatch::default()),
            ("rob48".into(), CfgPatch { rob: Some(48), ..CfgPatch::default() }),
            ("w2".into(), CfgPatch { width: Some(2), ..CfgPatch::default() }),
        ],
        watch: true,
        ..SubmitRequest::new("metrics-sweep", Scale::Test)
    };
    let mut live = None;
    let campaign = client
        .submit(&req, |ev| {
            if live.is_none() && ev.get("type").and_then(Json::as_str) == Some("started") {
                live = Some(connect(&opts.socket).metrics().unwrap());
            }
        })
        .unwrap();
    assert_eq!(campaign.jobs.len(), 12);
    let live = live.expect("a snapshot taken mid-sweep");

    // Well-formed: no two entries share a name and labels, every entry
    // of one name has one kind, and histograms carry their buckets.
    let entries = live.get("metrics").and_then(Json::as_arr).unwrap();
    let mut seen = std::collections::HashSet::new();
    let mut kinds = std::collections::HashMap::new();
    for e in entries {
        let name = e.get("name").and_then(Json::as_str).unwrap();
        let labels = e.get("labels").map(Json::compact).unwrap_or_default();
        assert!(seen.insert((name, labels.clone())), "{name}{labels} listed twice");
        let kind = e.get("kind").and_then(Json::as_str).unwrap();
        assert_eq!(*kinds.entry(name).or_insert(kind), kind, "{name} has two kinds");
    }
    assert_eq!(kinds.get("dmdp_requests_total"), Some(&"counter"));
    assert_eq!(kinds.get("dmdp_queue_wait_us"), Some(&"histogram"));

    // Counters advanced across the sweep (deltas only: the registry is
    // process-wide, so other tests in this binary also write to it).
    let after = client.metrics().unwrap();
    let grew = |name: &str, labels: &[(&str, &str)]| {
        series(&after, name, labels) - series(&baseline, name, labels)
    };
    assert!(grew("dmdp_jobs_total", &[("source", "executed")]) >= 12, "12 fresh jobs executed");
    assert!(grew("dmdp_batch_units_total", &[]) > 0, "multi-variant sweep ran batched units");
    assert!(grew("dmdp_sim_exec_us", &[]) >= 12, "per-lane exec latency observed");
    assert!(grew("dmdp_queue_wait_us", &[]) > 0, "queue-wait observed per pool unit");
    assert!(grew("dmdp_requests_total", &[("type", "submit")]) >= 1);
    let hist = entries
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("dmdp_queue_wait_us"))
        .expect("queue-wait histogram in the snapshot");
    assert!(hist.get("count").and_then(Json::as_u64).unwrap() > 0);
    assert!(!hist.get("buckets").and_then(Json::as_arr).unwrap().is_empty());

    // The artifact's trace id greps straight back to the daemon events.
    let log_path = dir.join("events.jsonl");
    let trace = campaign.trace_id.clone().expect("daemon artifacts carry a trace id");
    let events = std::fs::read_to_string(&log_path).unwrap();
    assert!(
        events.lines().any(|l| l.contains("submit_done") && l.contains(&trace)),
        "trace {trace} not found in {}",
        log_path.display()
    );
    assert!(
        dmdp_harness::render_campaign(&campaign).contains(&trace),
        "report names the daemon trace"
    );
    client.shutdown().unwrap();
    daemon.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampled_submits_share_one_bundle_through_the_store() {
    let dir = tmp_dir("sampled");
    let opts = serve_opts(&dir);
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    let mut client = connect(&opts.socket);

    let sampling = Sampling { interval_insns: 1000, warmup_intervals: 2 };
    let sampled_req = |name: &str| SubmitRequest {
        kernels: Some(vec!["lib".into()]),
        models: vec![CommModel::Baseline, CommModel::Dmdp],
        sampling: Some(sampling),
        ..SubmitRequest::new(name, Scale::Test)
    };
    let cold = client.submit(&sampled_req("sampled-cold"), |_| {}).unwrap();
    assert_eq!(cold.jobs.len(), 2);
    assert_eq!(cold.executed, 2);
    assert_eq!(cold.sampling, Some(sampling), "artifact carries the sampling knobs");
    assert!(cold.jobs.iter().all(|j| j.sampled && j.intervals_simulated > 0));

    // One workload, two models — the bundle is profiled once and both
    // models simulate from the same persisted checkpoints.
    let ckpt_blobs = || {
        let mut n = 0;
        for dir in std::fs::read_dir(&opts.store_dir).unwrap().flatten() {
            if let Ok(files) = std::fs::read_dir(dir.path()) {
                n += files
                    .flatten()
                    .filter(|f| f.path().extension().is_some_and(|e| e == "ckpt"))
                    .count();
            }
        }
        n
    };
    assert_eq!(ckpt_blobs(), 1, "exactly one checkpoint bundle persisted");

    // A second identical sampled submit is pure store hits.
    let warm = client.submit(&sampled_req("sampled-warm"), |_| {}).unwrap();
    assert_eq!(warm.executed, 0);
    assert_eq!(warm.cached, 2);

    // The full (unsampled) submit of the same kernels has disjoint
    // digests — sampled results never shadow full results.
    let full = client
        .submit(
            &SubmitRequest {
                kernels: Some(vec!["lib".into()]),
                models: vec![CommModel::Baseline, CommModel::Dmdp],
                ..SubmitRequest::new("full", Scale::Test)
            },
            |_| {},
        )
        .unwrap();
    assert_eq!(full.executed, 2, "full runs are not satisfied by sampled results");
    for (s, f) in cold.jobs.iter().zip(&full.jobs) {
        assert_ne!(s.digest, f.digest);
        assert!(!f.sampled);
    }
    client.shutdown().unwrap();
    daemon.join().unwrap();

    // A restarted daemon reuses the persisted bundle: a new variant
    // forces fresh job digests, but the profile/checkpoint pass is a
    // blob hit, not a rebuild.
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    let mut client = connect(&opts.socket);
    let rerun = client
        .submit(
            &SubmitRequest {
                variants: vec![("rob48".into(), CfgPatch { rob: Some(48), ..CfgPatch::default() })],
                ..sampled_req("sampled-variant")
            },
            |_| {},
        )
        .unwrap();
    assert_eq!(rerun.executed, 2);
    assert_eq!(ckpt_blobs(), 1, "restart reused the persisted bundle");
    client.shutdown().unwrap();
    daemon.join().unwrap();

    let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    let count = |ev: &str| events.lines().filter(|l| l.contains(ev)).count();
    assert_eq!(count("bundle_built"), 1, "one fresh bundle build across both daemons");
    assert!(count("bundle_hit") >= 1, "the restarted daemon hit the blob store");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn submit_with_unknown_kernel_is_a_request_error_not_a_hangup() {
    let dir = tmp_dir("badkernel");
    let opts = serve_opts(&dir);
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    let mut client = connect(&opts.socket);

    let bad = SubmitRequest {
        kernels: Some(vec!["nope".into()]),
        ..SubmitRequest::new("bad", Scale::Test)
    };
    let err = client.submit(&bad, |_| {}).unwrap_err();
    assert!(err.contains("nope"), "{err}");
    assert!(err.contains("valid kernels"), "{err}");

    // Same connection keeps working after a request-level error.
    let ok = client.submit(&small_request("after-error"), |_| {}).unwrap();
    assert_eq!(ok.jobs.len(), 4);
    client.shutdown().unwrap();
    daemon.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A submit with `variants` (label, patch) of mcf under DMDP.
fn mcf_sweep(name: &str, variants: &[(&str, CfgPatch)]) -> SubmitRequest {
    SubmitRequest {
        kernels: Some(vec!["mcf".into()]),
        models: vec![CommModel::Dmdp],
        variants: variants.iter().map(|(l, p)| (l.to_string(), p.clone())).collect(),
        ..SubmitRequest::new(name, Scale::Test)
    }
}

#[test]
fn twin_labels_of_one_config_each_keep_their_label() {
    let dir = tmp_dir("twins");
    let opts = serve_opts(&dir);
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    let mut client = connect(&opts.socket);
    let main = CfgPatch::default();
    let labels = |c: &dmdp_harness::Campaign| c.jobs.iter().map(|j| j.variant.clone()).collect::<Vec<_>>();

    // Two labels, one configuration: one digest, simulated once.
    let twins = client.submit(&mcf_sweep("twins", &[("main", main.clone()), ("base", main.clone())]), |_| {});
    let twins = twins.unwrap();
    assert_eq!((labels(&twins), twins.executed), (vec!["main".to_string(), "base".to_string()], 1));
    // A later store hit under a third label carries that label too.
    let later = client.submit(&mcf_sweep("later", &[("other", main)]), |_| {}).unwrap();
    assert_eq!((labels(&later), later.executed), (vec!["other".to_string()], 0));

    client.shutdown().unwrap();
    daemon.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `f` on its own thread and fails the test if it does not return
/// within 20 s — a wedged daemon must fail a test, not hang it.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let thread = std::thread::spawn(f);
    let deadline = Instant::now() + Duration::from_secs(20);
    while !thread.is_finished() {
        assert!(Instant::now() < deadline, "{what} hung");
        std::thread::sleep(Duration::from_millis(10));
    }
    thread.join().unwrap()
}

#[test]
fn impossible_variant_is_a_request_error_and_wedges_nothing() {
    let dir = tmp_dir("tinyprf");
    let opts = serve_opts(&dir);
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    connect(&opts.socket);

    let tiny = mcf_sweep("tiny", &[("tiny", CfgPatch { prf: Some(10), ..CfgPatch::default() })]);
    // A size past its ceiling must be refused before anything allocates it.
    let rob = Some(4_000_000_000);
    let big = mcf_sweep("big", &[("big", CfgPatch { rob, ..CfgPatch::default() })]);
    for (attempt, bad, want) in [
        ("first submit", &tiny, "variant `tiny` (dmdp): physical register file too small"),
        ("identical re-submit", &tiny, "variant `tiny` (dmdp): physical register file too small"),
        ("oversized submit", &big, "variant `big` (dmdp): ROB too large"),
    ] {
        let (socket, bad) = (opts.socket.clone(), bad.clone());
        let err = within(attempt, move || connect(&socket).submit(&bad, |_| {})).unwrap_err();
        assert!(err.contains(want), "{err}");
    }
    let mut client = connect(&opts.socket);
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("active_submits").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("inflight").and_then(Json::as_u64), Some(0));
    // The next submit still runs.
    let ok = client.submit(&mcf_sweep("after", &[("main", CfgPatch::default())]), |_| {}).unwrap();
    assert_eq!(ok.jobs.len(), 1);
    within("shutdown", move || client.shutdown()).unwrap();
    daemon.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The accept loop blocks in `accept`: a shutdown must wake it, and
/// every idle connection must notice the shutdown, or `serve` never
/// returns.
#[test]
fn shutdown_wakes_every_idle_listener() {
    let dir = tmp_dir("wakeall");
    let opts = serve_opts(&dir);
    let daemon = std::thread::spawn({
        let opts = opts.clone();
        move || serve(&opts).unwrap()
    });
    let mut client = connect(&opts.socket);
    let idle = connect(&opts.socket);

    client.shutdown().unwrap();
    within("serve after shutdown", move || daemon.join().unwrap());
    drop(idle);
    assert!(!opts.socket.exists(), "socket file is removed on exit");
    assert!(Client::connect_unix(&opts.socket).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
