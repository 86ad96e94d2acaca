//! The `dmdp serve` campaign daemon.
//!
//! A long-running process that listens on a unix socket, accepts
//! newline-delimited JSON campaign requests, and executes them on the
//! harness's work-stealing pool. What makes it more than
//! `dmdp campaign` in a loop:
//!
//! * **Resident images** — each workload's
//!   [`PlannedImage`](dmdp_harness::PlannedImage) (assembled program +
//!   static µop plan cache) is built once per scale and kept
//!   `Arc`-shared across every request that needs it, so repeat sweeps
//!   never pay generation or decode again.
//! * **Persistent results** — every completed job lands in the
//!   content-addressed [`Store`]; any later request for the same digest
//!   (this client or another, before or after a restart) is a disk read.
//! * **In-flight dedup** — every submit resolves its job list through
//!   [`dmdp_harness::resolve`] over one digest-keyed in-flight table:
//!   the first request executes a job, every overlapping request waits
//!   for it and shares the result, so each digest is simulated at most
//!   once.
//! * **Graceful shutdown** — a `shutdown` request stops new submissions
//!   and drains running ones; every connected client still receives its
//!   complete artifact (or an explicit error) before the daemon exits.
//! * **Observability** — every request path updates the process-wide
//!   [`dmdp_obs`] registry (request/jobs counters, queue-wait and parse
//!   latency histograms, connection/in-flight gauges), exposed over the
//!   `metrics` protocol request, the daemon's one status reply. A
//!   submit's own counts travel in its artifact (`executed`, `cached`)
//!   and its `finished` events (`source`). Diagnostics go to a leveled
//!   JSONL [`EventLog`]; each request gets a trace id that threads through
//!   job events into the artifact, so a slow sweep's campaign report
//!   can be grepped straight back to its daemon-side events.

use std::collections::HashMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

use dmdp_harness::store::Store;
use dmdp_harness::{
    pool, resolve, Campaign, CampaignSpec, CfgPatch, Inflight, JobResult, JobSpec, Json, Outcome,
    ResidentImages, Resolve, Source, StageWall, Writer,
};
use dmdp_obs::log::{next_trace_id, EventLog, Level};
use dmdp_obs::{Counter, Gauge, LogHistogram};

use crate::protocol::{
    self, write_line, write_locked, write_msg, LineEvent, LineReader, Request, SubmitRequest,
    WorkerMsg, ROW_LINE_BYTES,
};
use crate::worker::lower_priority;

/// Configuration of one [`serve`] invocation.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Root directory of the content-addressed result store.
    pub store_dir: PathBuf,
    /// Worker threads per submit request.
    pub jobs: usize,
    /// Byte cap on the store's rows, applied when it opens by compacting
    /// its log to the newest rows that fit (`None` = unbounded).
    pub store_cap_bytes: Option<u64>,
    /// Suppress per-request log lines.
    pub quiet: bool,
    /// JSONL event log destination (`None` = stderr).
    pub log: Option<PathBuf>,
    /// Minimum event level written to the log.
    pub log_level: Level,
    /// Warn (as a `slow_job` event) about executed jobs whose simulation
    /// wall clock meets this many milliseconds. `None` disables.
    pub slow_job_ms: Option<u64>,
    /// Worker processes to spawn (`dmdp worker`), each linked over its
    /// stdin and stdout and pinned to a disjoint core slice.
    pub workers: usize,
}

/// The daemon's registered metric handles, resolved once per process.
struct DaemonMetrics {
    req_submit: &'static Counter,
    req_metrics: &'static Counter,
    req_ping: &'static Counter,
    req_shutdown: &'static Counter,
    req_invalid: &'static Counter,
    connections_total: &'static Counter,
    connections: &'static Gauge,
    err_protocol: &'static Counter,
    err_request: &'static Counter,
    err_accept: &'static Counter,
    jobs_executed: &'static Counter,
    jobs_store: &'static Counter,
    jobs_dedup: &'static Counter,
    active_submits: &'static Gauge,
    inflight: &'static Gauge,
    resident_images: &'static Gauge,
    pool_workers: &'static Gauge,
    store_entries: &'static Gauge,
    store_bytes: &'static Gauge,
    parse_us: &'static LogHistogram,
    queue_wait_us: &'static LogHistogram,
    submit_wall_us: &'static LogHistogram,
    workers: &'static Gauge,
    worker_deaths: &'static Counter,
    requeues: &'static Counter,
    placement_us: &'static LogHistogram,
}

fn daemon_metrics() -> &'static DaemonMetrics {
    static METRICS: OnceLock<DaemonMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = dmdp_obs::registry();
        let req = |t: &str| {
            r.counter_with("dmdp_requests_total", &[("type", t)], "protocol requests by type")
        };
        let err = |k: &str| {
            r.counter_with("dmdp_errors_total", &[("kind", k)], "failures by kind")
        };
        let jobs = |s: &str| {
            r.counter_with("dmdp_jobs_total", &[("source", s)], "jobs satisfied, by source")
        };
        DaemonMetrics {
            req_submit: req("submit"),
            req_metrics: req("metrics"),
            req_ping: req("ping"),
            req_shutdown: req("shutdown"),
            req_invalid: req("invalid"),
            connections_total: r
                .counter("dmdp_connections_total", "client connections accepted"),
            connections: r.gauge("dmdp_connections", "client connections currently open"),
            err_protocol: err("protocol"),
            err_request: err("request"),
            err_accept: err("accept"),
            jobs_executed: jobs("executed"),
            jobs_store: jobs("store"),
            jobs_dedup: jobs("dedup"),
            active_submits: r.gauge("dmdp_active_submits", "submit requests in progress"),
            inflight: r.gauge("dmdp_inflight_jobs", "distinct job digests being simulated"),
            resident_images: r
                .gauge("dmdp_resident_images", "workload images resident across scales"),
            pool_workers: r.gauge("dmdp_pool_workers", "worker threads per submit request"),
            store_entries: r.gauge("dmdp_store_entries", "results indexed by the store"),
            store_bytes: r.gauge("dmdp_store_bytes", "bytes indexed by the store"),
            parse_us: r
                .histogram("dmdp_parse_us", "request line parse latency in microseconds"),
            queue_wait_us: r.histogram(
                "dmdp_queue_wait_us",
                "pool-unit wait between submit start and worker claim, microseconds",
            ),
            submit_wall_us: r
                .histogram("dmdp_submit_wall_us", "submit wall clock in microseconds"),
            workers: r.gauge("dmdp_workers", "worker processes currently linked"),
            worker_deaths: r.counter(
                "dmdp_worker_deaths_total",
                "workers lost with groups still in flight",
            ),
            requeues: r.counter(
                "dmdp_requeue_total",
                "job groups requeued after their worker died",
            ),
            placement_us: r.histogram(
                "dmdp_placement_us",
                "job-group placement latency (pick + dispatch write), microseconds",
            ),
        }
    })
}

/// Reconciles the point-in-time gauges immediately before a `metrics`
/// reply, so it always shows current store/in-flight occupancy without
/// the hot paths having to maintain them.
fn sync_gauges(shared: &Shared) {
    let m = shared.metrics;
    let store = shared.store.stats();
    m.store_entries.set(store.entries as i64);
    m.store_bytes.set(store.bytes as i64);
    m.inflight.set(shared.inflight.count() as i64);
    m.active_submits.set(*shared.submits() as i64);
    m.resident_images.set(shared.images.count() as i64);
    m.workers.set(shared.workers.lock().unwrap().len() as i64);
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Why a dispatched group came back without rows.
enum GroupFail {
    /// The worker died; the members should be placed again.
    Requeue,
    /// The worker reported a simulation failure.
    Error(String),
}

/// What lands in a [`GroupSlot`]: the group's executed rows in dispatch
/// order, or the reason there are none.
type GroupOutcome = Result<Vec<JobResult>, GroupFail>;

/// A dispatched group's result slot: the worker's link thread
/// publishes, the submitting thread waits.
#[derive(Default)]
struct GroupSlot {
    slot: Mutex<Option<GroupOutcome>>,
    cv: Condvar,
}

/// A group a worker owes us: its result slot plus the member digests in
/// dispatch order, so returned rows are verified against what was sent.
struct PendingGroup {
    slot: Arc<GroupSlot>,
    digests: Vec<String>,
}

/// One spawned worker process, shared between its link thread (reads
/// completions, detects death) and submitting threads (dispatch).
struct WorkerHandle {
    id: u64,
    name: String,
    /// The worker's pool width — the capacity unit for placement.
    capacity: usize,
    /// The child's stdin, where dispatches go; `None` once closed, which
    /// the child reads as the order to drain.
    stdin: Mutex<Option<ChildStdin>>,
    pending: Mutex<HashMap<u64, PendingGroup>>,
    inflight_groups: AtomicUsize,
    alive: AtomicBool,
    inflight_gauge: &'static Gauge,
    dispatch_counter: &'static Counter,
}

impl WorkerHandle {
    fn new(id: u64, name: String, capacity: usize, stdin: Option<ChildStdin>) -> WorkerHandle {
        let r = dmdp_obs::registry();
        WorkerHandle {
            id,
            capacity,
            stdin: Mutex::new(stdin),
            pending: Mutex::new(HashMap::new()),
            inflight_groups: AtomicUsize::new(0),
            alive: AtomicBool::new(true),
            inflight_gauge: r.gauge_with(
                "dmdp_worker_inflight",
                &[("worker", &name)],
                "job groups in flight on this worker",
            ),
            dispatch_counter: r.counter_with(
                "dmdp_dispatch_total",
                &[("worker", &name)],
                "job groups dispatched to this worker",
            ),
            name,
        }
    }

    /// The child's stdin, locked. Every update is one step, so a
    /// poisoned lock still holds a valid link.
    fn stdin(&self) -> MutexGuard<'_, Option<ChildStdin>> {
        self.stdin.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes one message to the child's stdin.
    fn send(&self, msg: &Json) -> Result<(), String> {
        match self.stdin().as_mut() {
            Some(stdin) => write_msg(stdin, msg),
            None => Err(format!("worker {}: link closed", self.name)),
        }
    }

    /// Closes the child's stdin: its order to drain and exit.
    fn close(&self) {
        self.stdin().take();
    }
}

struct Shared {
    store: Store,
    jobs: usize,
    quiet: bool,
    log: EventLog,
    slow_job_ms: Option<u64>,
    metrics: &'static DaemonMetrics,
    images: ResidentImages,
    inflight: Inflight,
    workers: Mutex<HashMap<u64, Arc<WorkerHandle>>>,
    next_group_id: AtomicU64,
    shutdown: AtomicBool,
    /// Submits in progress. The shutdown flag is set under this lock and
    /// a submit is counted under it, so a drain never misses one.
    active_submits: Mutex<usize>,
    /// Notified whenever a submit ends.
    drained: Condvar,
    /// The unix socket a shutdown connects to, to wake the accept loop.
    socket: PathBuf,
}

/// Runs the daemon until a client asks it to shut down. Binds the unix
/// socket (replacing a stale socket file from a dead daemon), opens the
/// store, then serves connections — each on its own thread — until a
/// `shutdown` request drains the running submits.
///
/// # Errors
///
/// Socket/store setup failures, or another live daemon on the socket.
pub fn serve(opts: &ServeOptions) -> Result<(), String> {
    let log = match &opts.log {
        Some(path) => EventLog::file(path, opts.log_level)?,
        None => EventLog::stderr(opts.log_level),
    };
    let store = Store::open_logged(&opts.store_dir, opts.store_cap_bytes, &log)?;
    if opts.socket.exists() {
        if UnixStream::connect(&opts.socket).is_ok() {
            return Err(format!(
                "{}: a daemon is already listening there",
                opts.socket.display()
            ));
        }
        // Dead daemon's leftover — safe to replace.
        std::fs::remove_file(&opts.socket)
            .map_err(|e| format!("{}: {e}", opts.socket.display()))?;
    }
    if let Some(dir) = opts.socket.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    let listener = UnixListener::bind(&opts.socket)
        .map_err(|e| format!("{}: {e}", opts.socket.display()))?;
    let shared = Shared {
        store,
        jobs: if opts.jobs == 0 { pool::default_workers() } else { opts.jobs },
        quiet: opts.quiet,
        log,
        slow_job_ms: opts.slow_job_ms,
        metrics: daemon_metrics(),
        images: ResidentImages::default(),
        inflight: Inflight::default(),
        workers: Mutex::new(HashMap::new()),
        next_group_id: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        active_submits: Mutex::new(0),
        drained: Condvar::new(),
        socket: opts.socket.clone(),
    };
    shared.metrics.pool_workers.set(shared.jobs as i64);
    shared.log.info(
        "listening",
        &[
            ("socket", opts.socket.display().to_string().into()),
            ("store", opts.store_dir.display().to_string().into()),
            ("store_entries", shared.store.len().into()),
            ("workers", shared.jobs.into()),
            ("pid", std::process::id().into()),
        ],
    );
    if !opts.quiet {
        println!(
            "dmdp serve: listening on {}  (store {}: {} results, {} workers)",
            opts.socket.display(),
            opts.store_dir.display(),
            shared.store.len(),
            shared.jobs
        );
    }
    let (mut children, links) = match spawn_workers(opts, &shared) {
        Ok(spawned) => spawned,
        Err(e) => {
            std::fs::remove_file(&opts.socket).ok();
            return Err(e);
        }
    };
    std::thread::scope(|scope| {
        let shared = &shared;
        for (worker, stdout) in links {
            scope.spawn(move || link_worker(shared, &worker, stdout));
        }
        accept_loop(shared, scope, &listener);
        // A shutdown ended the accept loop. Once no submit is left
        // running, close every child's stdin, its order to drain; then
        // give each child a grace period to exit and make sure of it, so
        // no link thread outlives the daemon.
        shared.wait_drained();
        for worker in shared.workers.lock().unwrap().values() {
            worker.close();
        }
        reap(&mut children);
    });
    std::fs::remove_file(&opts.socket).ok();
    shared.log.info("stopped", &[]);
    if !opts.quiet {
        println!("dmdp serve: drained and stopped");
    }
    Ok(())
}

/// A spawned worker and the stdout its link thread reads.
type Link = (Arc<WorkerHandle>, ChildStdout);

/// Spawns `opts.workers` child `dmdp worker` processes of this
/// executable, each pinned to a disjoint core slice (when the host has
/// at least one core per worker) with a matching pool width, and
/// registers each as a worker at once. Both ends of a child's link are
/// pipes: its stdin stays with its [`WorkerHandle`], and its stdout is
/// returned for the link thread to read.
fn spawn_workers(opts: &ServeOptions, shared: &Shared) -> Result<(Vec<Child>, Vec<Link>), String> {
    let mut children = Vec::new();
    let mut links = Vec::new();
    if opts.workers == 0 {
        return Ok((children, links));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let ncores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for i in 0..opts.workers {
        // Disjoint slices when the host is wide enough; round-robin
        // single cores otherwise (workers then share, best-effort).
        let cores: Vec<usize> = if ncores >= opts.workers {
            (i * ncores / opts.workers..(i + 1) * ncores / opts.workers).collect()
        } else {
            vec![i % ncores]
        };
        let cores_csv =
            cores.iter().map(ToString::to_string).collect::<Vec<_>>().join(",");
        let name = format!("w{i}");
        let spawned = Command::new(&exe)
            .arg("worker")
            .arg("--store")
            .arg(&opts.store_dir)
            .arg("--jobs")
            .arg(cores.len().max(1).to_string())
            .arg("--cores")
            .arg(&cores_csv)
            .arg("--quiet")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match spawned {
            Ok(child) => child,
            Err(e) => {
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(format!("spawn worker {name}: {e}"));
            }
        };
        shared.log.info(
            "worker_spawned",
            &[("name", (&name).into()), ("pid", child.id().into()), ("cores", (&cores_csv).into())],
        );
        let stdout = child.stdout.take().expect("stdout is piped");
        let worker = Arc::new(WorkerHandle::new(i as u64, name, cores.len().max(1), child.stdin.take()));
        shared.workers.lock().unwrap().insert(worker.id, Arc::clone(&worker));
        links.push((worker, stdout));
        children.push(child);
    }
    shared.metrics.workers.set(links.len() as i64);
    Ok((children, links))
}

/// Gives each child a grace period to exit, then kills it.
fn reap(children: &mut [Child]) {
    for child in children {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
    }
}

/// How long the accept loop waits after a failed accept before the next
/// one, so a persistent failure (`EMFILE`) cannot spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Serves the socket until shutdown: blocks in `accept` and serves each
/// connection on a scoped thread of its own. The shutdown flag is
/// checked after every accept; a shutdown wakes the loop with a
/// connection of its own ([`wake_listener`]), which is dropped here.
fn accept_loop<'scope>(
    shared: &'scope Shared,
    scope: &'scope Scope<'scope, '_>,
    listener: &UnixListener,
) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                scope.spawn(move || handle(shared, stream));
            }
            Err(e) => {
                shared.metrics.err_accept.inc();
                shared.log.warn("accept_failed", &[("error", e.to_string().into())]);
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
}

/// Wakes the accept loop, blocked in `accept`, with one connection to
/// the socket once the shutdown flag is set. A connect that fails (no
/// free descriptor) is retried for about a second, then logged as
/// `wake_failed`.
fn wake_listener(shared: &Shared) {
    for tries in 1.. {
        match UnixStream::connect(&shared.socket) {
            Ok(_) => return,
            Err(e) if tries == 20 => {
                let error = e.to_string();
                return shared.log.warn("wake_failed", &[("error", error.into())]);
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Decrements the open-connection gauge when the connection thread
/// unwinds, whatever the exit path.
struct ConnGuard(&'static Gauge);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Serves one connection: a sequence of requests, each answered in
/// order. Protocol-level failures (unparseable line, truncated message)
/// get an `error` reply and close the connection; request-level failures
/// (unknown kernel, aborted job) get an `error` reply and the
/// conversation continues.
fn handle(shared: &Shared, stream: UnixStream) {
    // The read loop polls the shutdown flag between read timeouts
    // instead of hanging forever on an idle client.
    stream.set_read_timeout(Some(Duration::from_millis(100))).ok();
    let Ok(writer) = stream.try_clone() else { return };
    let m = shared.metrics;
    m.connections_total.inc();
    m.connections.inc();
    let _guard = ConnGuard(m.connections);
    let mut reader = LineReader::new(stream);
    let writer = Mutex::new(writer);
    loop {
        match reader.read_line() {
            Ok(LineEvent::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    let _ = write_locked(&writer, &protocol::error_msg("daemon is shutting down"));
                    return;
                }
            }
            Ok(LineEvent::Eof) => return,
            Err(e) => {
                m.err_protocol.inc();
                shared.log.warn("bad_line", &[("error", (&e).into())]);
                let _ = write_locked(&writer, &protocol::error_msg(&e));
                return;
            }
            Ok(LineEvent::Line(text)) => {
                let parse_start = Instant::now();
                let request = Json::parse(&text).and_then(|v| Request::from_json(&v));
                m.parse_us.observe(elapsed_us(parse_start));
                let trace = next_trace_id();
                match request {
                    Err(e) => {
                        m.req_invalid.inc();
                        m.err_protocol.inc();
                        shared.log.warn(
                            "bad_request",
                            &[("trace", (&trace).into()), ("error", (&e).into())],
                        );
                        let _ = write_locked(&writer, &protocol::error_msg(&e));
                        return;
                    }
                    Ok(Request::Ping) => {
                        m.req_ping.inc();
                        if write_locked(&writer, &protocol::pong_msg()).is_err() {
                            return;
                        }
                    }
                    Ok(Request::Metrics) => {
                        m.req_metrics.inc();
                        sync_gauges(shared);
                        let msg = protocol::metrics_msg(&dmdp_obs::registry().snapshot());
                        if write_locked(&writer, &msg).is_err() {
                            return;
                        }
                    }
                    Ok(Request::Shutdown) => {
                        m.req_shutdown.inc();
                        shared.log.info("shutdown_requested", &[("trace", (&trace).into())]);
                        drain(shared);
                        let _ = write_locked(&writer, &protocol::ok_msg());
                        return;
                    }
                    Ok(Request::Submit(req)) => {
                        m.req_submit.inc();
                        let Some(_active) = ActiveSubmit::begin(shared) else {
                            let _ = write_locked(
                                &writer,
                                &protocol::error_msg("daemon is shutting down"),
                            );
                            continue;
                        };
                        shared.log.info(
                            "submit",
                            &[
                                ("trace", (&trace).into()),
                                ("name", (&req.name).into()),
                                ("scale", req.scale.name().into()),
                                ("models", req.models.len().into()),
                                ("variants", req.variants.len().into()),
                                ("watch", req.watch.into()),
                                ("sampled", req.sampling.is_some().into()),
                            ],
                        );
                        if let Err(e) = run_submit(shared, &req, &writer, &trace) {
                            m.err_request.inc();
                            shared.log.warn(
                                "submit_failed",
                                &[
                                    ("trace", (&trace).into()),
                                    ("name", (&req.name).into()),
                                    ("error", (&e).into()),
                                ],
                            );
                            let _ = write_locked(&writer, &protocol::error_msg(&e));
                        }
                    }
                }
            }
        }
    }
}

/// Serves one child's link until its stdout ends or carries a line that
/// is not a worker message: completed groups resolve their pending
/// slots. However the link ended, the child is no longer a worker: close
/// its stdin, deregister it, then requeue whatever it still owed so
/// submitting threads re-place it.
fn link_worker(shared: &Shared, worker: &WorkerHandle, stdout: ChildStdout) {
    let mut reader = LineReader::new(stdout);
    loop {
        match reader.read_line() {
            Ok(LineEvent::Line(text)) => {
                match WorkerMsg::parse(&text) {
                    Ok(WorkerMsg::GroupDone { id, rows }) => {
                        resolve_group(&shared.log, worker, id, Ok(rows));
                    }
                    Ok(WorkerMsg::GroupFailed { id, error }) => {
                        resolve_group(&shared.log, worker, id, Err(error));
                    }
                    Err(e) => {
                        shared.metrics.err_protocol.inc();
                        shared.log.warn(
                            "bad_line",
                            &[("worker", (&worker.name).into()), ("error", (&e).into())],
                        );
                        break;
                    }
                }
            }
            // A pipe has no read timeout, so it never idles.
            Ok(LineEvent::Idle) => {}
            Ok(LineEvent::Eof) | Err(_) => break,
        }
    }
    worker.close();
    worker.alive.store(false, Ordering::SeqCst);
    shared.workers.lock().unwrap().remove(&worker.id);
    shared.metrics.workers.set(shared.workers.lock().unwrap().len() as i64);
    let orphans: Vec<PendingGroup> =
        worker.pending.lock().unwrap().drain().map(|(_, pg)| pg).collect();
    if !orphans.is_empty() {
        shared.metrics.worker_deaths.inc();
        shared.log.warn(
            "worker_lost",
            &[
                ("worker", worker.id.into()),
                ("name", (&worker.name).into()),
                ("requeued_groups", orphans.len().into()),
            ],
        );
    } else {
        shared.log.info(
            "worker_gone",
            &[("worker", worker.id.into()), ("name", (&worker.name).into())],
        );
    }
    for pg in orphans {
        worker.inflight_groups.fetch_sub(1, Ordering::SeqCst);
        worker.inflight_gauge.dec();
        *pg.slot.slot.lock().unwrap() = Some(Err(GroupFail::Requeue));
        pg.slot.cv.notify_all();
    }
}

/// Resolves one dispatched group: pops its pending entry, verifies the
/// returned rows line up digest-for-digest with what was dispatched
/// (any divergence fails the group — a digest mismatch would corrupt
/// the store's content addressing), and wakes the submitting thread.
fn resolve_group(
    log: &EventLog,
    worker: &WorkerHandle,
    gid: u64,
    rows: Result<Vec<JobResult>, String>,
) {
    let Some(pg) = worker.pending.lock().unwrap().remove(&gid) else {
        // Not pending: the group was re-placed after its dispatch failed,
        // or the worker answered an id it does not owe. Drop the rows:
        // only a pending group's rows reach this process's resolver, the
        // store's one row writer, so these are never stored.
        log.warn(
            "late_group",
            &[("worker", worker.id.into()), ("group", gid.into())],
        );
        return;
    };
    worker.inflight_groups.fetch_sub(1, Ordering::SeqCst);
    worker.inflight_gauge.dec();
    let outcome = match rows {
        Err(e) => Err(GroupFail::Error(e)),
        Ok(rows) => {
            if rows.len() != pg.digests.len()
                || rows.iter().zip(&pg.digests).any(|(r, d)| &r.digest != d)
            {
                Err(GroupFail::Error(format!(
                    "worker {} returned rows that do not match the dispatched digests",
                    worker.name
                )))
            } else {
                Ok(rows)
            }
        }
    };
    *pg.slot.slot.lock().unwrap() = Some(outcome);
    pg.slot.cv.notify_all();
}

/// The least-loaded live worker (in-flight groups normalized by pool
/// width), or `None` when the daemon should execute in-process.
fn pick_worker(shared: &Shared) -> Option<Arc<WorkerHandle>> {
    let map = shared.workers.lock().unwrap();
    map.values()
        .filter(|w| w.alive.load(Ordering::SeqCst))
        .min_by_key(|w| {
            ((w.inflight_groups.load(Ordering::SeqCst) * 1000) / w.capacity.max(1), w.id)
        })
        .map(Arc::clone)
}

/// A submit's executor: a unit's claimed misses go to the least-loaded
/// live worker when there is one, in-process otherwise, at background
/// priority either way. A worker that dies mid-group gets its unit
/// re-placed (on the next candidate, or in-process once no workers
/// remain), so a crash costs a re-run, never a hole in the artifact.
fn execute_unit(
    shared: &Shared,
    variants: &[(String, CfgPatch)],
    specs: &[&JobSpec],
    trace: &str,
) -> Vec<Result<JobResult, String>> {
    loop {
        let Some(worker) = pick_worker(shared) else { break };
        let place_start = Instant::now();
        let lead = specs[0];
        // Specs do not retain their config patch; recover each member's
        // from the request by variant label (labels are unique).
        let variants: Vec<(String, CfgPatch)> = specs
            .iter()
            .map(|s| variants.iter().find(|(l, _)| *l == s.variant).cloned())
            .collect::<Option<_>>()
            .expect("every member's label comes from the request");
        let group = protocol::GroupSpec {
            workload: lead.workload.clone(),
            scale: lead.scale,
            model: lead.model,
            variants,
            sampling: lead.sampling.as_ref().map(|s| s.sampling),
        };
        let gid = shared.next_group_id.fetch_add(1, Ordering::SeqCst) + 1;
        let slot = Arc::new(GroupSlot::default());
        worker.pending.lock().unwrap().insert(
            gid,
            PendingGroup {
                slot: Arc::clone(&slot),
                digests: specs.iter().map(|s| s.digest.clone()).collect(),
            },
        );
        worker.inflight_groups.fetch_add(1, Ordering::SeqCst);
        worker.inflight_gauge.inc();
        // The link thread may have declared this worker dead
        // between pick and insert; if our entry is still in the map we
        // own the cleanup, otherwise the drain took it and will requeue.
        if !worker.alive.load(Ordering::SeqCst)
            && worker.pending.lock().unwrap().remove(&gid).is_some()
        {
            worker.inflight_groups.fetch_sub(1, Ordering::SeqCst);
            worker.inflight_gauge.dec();
            continue;
        }
        if worker.send(&protocol::group_msg(gid, &group)).is_err() {
            worker.alive.store(false, Ordering::SeqCst);
            if worker.pending.lock().unwrap().remove(&gid).is_some() {
                worker.inflight_groups.fetch_sub(1, Ordering::SeqCst);
                worker.inflight_gauge.dec();
            }
            continue;
        }
        shared.metrics.placement_us.observe(elapsed_us(place_start));
        worker.dispatch_counter.inc();
        shared.log.debug(
            "dispatch",
            &[
                ("trace", trace.into()),
                ("worker", (&worker.name).into()),
                ("group", gid.into()),
                ("workload", (&lead.workload).into()),
                ("model", lead.model.name().into()),
                ("members", specs.len().into()),
            ],
        );
        let published = slot.cv.wait_while(slot.slot.lock().unwrap(), |o| o.is_none());
        let outcome = published.unwrap().take().expect("published by the link thread");
        match outcome {
            Ok(rows) => return rows.into_iter().map(Ok).collect(),
            Err(GroupFail::Requeue) => {
                shared.metrics.requeues.inc();
                shared.log.warn(
                    "requeue",
                    &[
                        ("trace", trace.into()),
                        ("worker", (&worker.name).into()),
                        ("workload", (&lead.workload).into()),
                        ("members", specs.len().into()),
                    ],
                );
                continue;
            }
            Err(GroupFail::Error(e)) => return specs.iter().map(|_| Err(e.clone())).collect(),
        }
    }
    in_background(|| JobSpec::execute_batch(specs))
}

/// Runs `work` on a scoped thread that first lowers its own priority to
/// nice 19 ([`lower_priority`]) and returns its result; a panic resumes
/// on the caller. In-process simulation then never keeps a core from
/// the request threads, and the calling pool thread keeps its priority:
/// nice is per thread, and an unprivileged thread cannot raise it back.
fn in_background<T: Send>(work: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                lower_priority();
                work()
            })
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// A submit's half of [`resolve`]: the store, [`execute_unit`], and the
/// client's event stream, metrics and log as units move.
struct Submit<'a> {
    shared: &'a Shared,
    spec: &'a CampaignSpec,
    watch: bool,
    writer: &'a Mutex<UnixStream>,
    trace: &'a str,
    exec_start: Instant,
}

impl Resolve for Submit<'_> {
    fn lookup(&self, spec: &JobSpec) -> Option<JobResult> {
        self.shared.store.get(&spec.digest)
    }

    fn execute(&self, specs: &[&JobSpec]) -> Vec<Result<JobResult, String>> {
        execute_unit(self.shared, &self.spec.variants, specs, self.trace)
    }

    fn publish(&self, row: &JobResult) {
        self.shared.store.publish(row, &self.shared.log);
    }

    fn claimed(&self) {
        self.shared.metrics.queue_wait_us.observe(elapsed_us(self.exec_start));
    }

    fn finished(&self, rows: &[(usize, Outcome)]) {
        for (i, outcome) in rows {
            let Ok((r, source)) = outcome else { continue };
            let slow = self.shared.slow_job_ms.is_some_and(|ms| r.wall_s * 1000.0 >= ms as f64);
            if slow && *source == Source::Executed {
                self.shared.log.warn(
                    "slow_job",
                    &[
                        ("trace", self.trace.into()),
                        ("workload", (&r.workload).into()),
                        ("model", r.model.name().into()),
                        ("variant", (&r.variant).into()),
                        ("wall_ms", (r.wall_s * 1000.0).into()),
                        ("digest", (&r.digest).into()),
                    ],
                );
            }
            if self.watch {
                let _ = write_locked(self.writer, &protocol::finished_msg(*i, r, source.name()));
            }
        }
    }
}

impl Shared {
    /// The count of submits in progress, locked. Every update is one
    /// step, so a poisoned lock still holds a valid count.
    fn submits(&self) -> MutexGuard<'_, usize> {
        self.active_submits.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until no submit is left running.
    fn wait_drained(&self) {
        drop(self.drained.wait_while(self.submits(), |n| *n > 0));
    }
}

/// Starts a shutdown: sets the flag under the submit count's lock, so
/// every submit is either counted already or will be refused, wakes the
/// accept loop, then waits until no submit is left running.
fn drain(shared: &Shared) {
    {
        let _count = shared.submits();
        shared.shutdown.store(true, Ordering::SeqCst);
    }
    wake_listener(shared);
    shared.wait_drained();
}

/// Holds one `active_submits` count and releases it however the submit
/// ends — a drain must never wait on a submit that is already gone.
struct ActiveSubmit<'a>(&'a Shared);

impl<'a> ActiveSubmit<'a> {
    /// Counts a starting submit, or refuses it (`None`) once a shutdown
    /// has begun.
    fn begin(shared: &'a Shared) -> Option<ActiveSubmit<'a>> {
        let mut count = shared.submits();
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        *count += 1;
        Some(ActiveSubmit(shared))
    }
}

impl Drop for ActiveSubmit<'_> {
    fn drop(&mut self) {
        *self.0.submits() -= 1;
        self.0.drained.notify_all();
    }
}

/// Runs a submit request end to end: build the job list against the
/// resident images (and stored bundles), resolve it (streaming events if
/// asked), assemble a campaign artifact and send it back.
fn run_submit(
    shared: &Shared,
    req: &SubmitRequest,
    writer: &Mutex<UnixStream>,
    trace: &str,
) -> Result<(), String> {
    let start = Instant::now();
    let spec = req.campaign();
    let jobs = spec.jobs_over(&shared.images.at(spec.scale), 1, |w, s| {
        shared.store.blobs().bundle(w, s, &shared.log)
    })?;
    let build_s = start.elapsed().as_secs_f64();
    // With workers registered the pool threads mostly block on remote
    // completions, so width follows the fleet's capacity instead of
    // the local core count — enough in flight to keep every worker
    // busy, plus headroom for store/dedup hits resolved locally.
    let worker_cap: usize = {
        let workers = shared.workers.lock().unwrap();
        workers
            .values()
            .filter(|w| w.alive.load(Ordering::SeqCst))
            .map(|w| w.capacity)
            .sum()
    };
    let width = if worker_cap > 0 { shared.jobs.max(2 * worker_cap) } else { shared.jobs };
    let exec_start = Instant::now();
    let submit = Submit { shared, spec: &spec, watch: req.watch, writer, trace, exec_start };
    let outcomes = resolve(&jobs, width, &shared.inflight, &submit);
    let exec_s = exec_start.elapsed().as_secs_f64();

    let agg_start = Instant::now();
    let mut by_source = [0u64; 3];
    for (_, source) in outcomes.iter().flatten() {
        by_source[*source as usize] += 1;
    }
    let [executed, from_store, from_dedup] = by_source;
    let m = shared.metrics;
    m.jobs_executed.add(executed);
    m.jobs_store.add(from_store);
    m.jobs_dedup.add(from_dedup);
    let rows = outcomes.into_iter().map(|o| o.map(|(row, _)| row)).collect::<Result<_, _>>()?;
    let stages = StageWall { build_s, cache_s: 0.0, exec_s, aggregate_s: 0.0 };
    let mut campaign = Campaign::new(&spec, rows, start.elapsed().as_secs_f64(), stages);
    campaign.trace_id = Some(trace.to_string());
    campaign.stages.aggregate_s = agg_start.elapsed().as_secs_f64();
    shared.log.info(
        "submit_done",
        &[
            ("trace", trace.into()),
            ("name", (&req.name).into()),
            ("jobs", campaign.jobs.len().into()),
            ("executed", executed.into()),
            ("store", from_store.into()),
            ("dedup", from_dedup.into()),
            ("wall_s", campaign.wall_s.into()),
        ],
    );
    if !shared.quiet {
        println!(
            "dmdp serve: submit `{}`: {} jobs  ({executed} executed, {from_store} store, {from_dedup} dedup)  {:.2}s",
            req.name,
            campaign.jobs.len(),
            campaign.wall_s
        );
    }
    // The reply is written member by member into one line allocated up
    // front: `{"type":"artifact","campaign":<campaign>}`.
    let mut line = String::with_capacity(ROW_LINE_BYTES * (campaign.jobs.len() + 1));
    Writer::new(&mut line, false).object(|w| {
        w.key("type").str("artifact");
        campaign.write(w.key("campaign"));
    });
    line.push('\n');
    let sent = write_line(&mut *writer.lock().expect("no writer holder panics"), &line);
    // The wall ends once the reply is serialized and written.
    m.submit_wall_us.observe(elapsed_us(start));
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmdp_core::{CommModel, CoreConfig};
    use dmdp_harness::PlannedImage;
    use dmdp_workloads::Scale;

    /// One real row, relabelled under each of `digests`.
    fn rows_as(digests: &[&str]) -> Vec<JobResult> {
        let w = dmdp_workloads::by_name("lib", Scale::Test).unwrap();
        let image = PlannedImage::new(Arc::new(w.program));
        let cfg = CoreConfig::new(CommModel::Dmdp);
        let row = JobSpec::new("lib", w.suite, CommModel::Dmdp, Scale::Test, "main", cfg, &image)
            .execute()
            .unwrap();
        digests.iter().map(|d| JobResult { digest: d.to_string(), ..row.clone() }).collect()
    }

    /// Dispatches a group of digests `[a, b]` to `worker`, answers it
    /// with `reply`, and returns what the submitting thread would see.
    fn answer(worker: &WorkerHandle, reply: Result<Vec<JobResult>, String>) -> GroupOutcome {
        let log = EventLog::stderr(Level::Error);
        let slot = Arc::new(GroupSlot::default());
        let digests = vec!["a".to_string(), "b".to_string()];
        worker.pending.lock().unwrap().insert(7, PendingGroup { slot: Arc::clone(&slot), digests });
        worker.inflight_groups.fetch_add(1, Ordering::SeqCst);
        worker.inflight_gauge.inc();
        resolve_group(&log, worker, 7, reply);
        assert!(worker.pending.lock().unwrap().is_empty(), "the group is no longer pending");
        assert_eq!(worker.inflight_groups.load(Ordering::SeqCst), 0);
        let outcome = slot.slot.lock().unwrap().take();
        outcome.expect("the group's slot is filled")
    }

    #[test]
    fn a_lying_worker_fails_its_group_naming_itself() {
        let worker = WorkerHandle::new(0, "liar".to_string(), 1, None);
        for (what, digests) in [
            ("swapped", &["b", "a"][..]),
            ("short", &["a"][..]),
            ("foreign", &["a", "c"][..]),
            ("long", &["a", "b", "c"][..]),
        ] {
            match answer(&worker, Ok(rows_as(digests))) {
                Err(GroupFail::Error(e)) => {
                    assert!(e.contains("worker liar"), "{what}: {e}");
                    assert!(e.contains("do not match the dispatched digests"), "{what}: {e}");
                }
                Err(GroupFail::Requeue) => panic!("{what}: a lie is not a requeue"),
                Ok(_) => panic!("{what}: rows {digests:?} were accepted for [a, b]"),
            }
        }
        match answer(&worker, Err("cycle limit".to_string())) {
            Err(GroupFail::Error(e)) => assert_eq!(e, "cycle limit"),
            _ => panic!("a failed group must carry the worker's error"),
        }
        let Ok(rows) = answer(&worker, Ok(rows_as(&["a", "b"]))) else {
            panic!("rows matching the dispatch were refused");
        };
        let got: Vec<&str> = rows.iter().map(|r| r.digest.as_str()).collect();
        assert_eq!(got, ["a", "b"]);
    }

    /// The calling thread's nice value: field 19 of its `stat`.
    #[cfg(target_os = "linux")]
    fn nice() -> i64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        let fields: Vec<&str> = stat[stat.rfind(") ").unwrap() + 2..].split(' ').collect();
        fields[19 - 3].parse().unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn an_in_process_unit_simulates_at_background_priority() {
        let caller = nice();
        let w = dmdp_workloads::by_name("lib", Scale::Test).unwrap();
        let image = PlannedImage::new(Arc::new(w.program));
        let model = CommModel::Dmdp;
        let spec = JobSpec::new("lib", w.suite, model, Scale::Test, "main", CoreConfig::new(model), &image);
        let (rows, during) = in_background(|| (JobSpec::execute_batch(&[&spec]), nice()));
        assert!(rows[0].is_ok(), "{rows:?}");
        assert_eq!(during, 19, "the unit simulated at nice 19");
        assert_eq!(nice(), caller, "the calling thread keeps its priority");

        let panicked = std::panic::catch_unwind(|| in_background(|| panic!("unit panicked")));
        let payload = panicked.expect_err("the unit's panic resumes on the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"unit panicked"));
        assert_eq!(nice(), caller);
    }
}
