//! The `dmdp worker` process: one shard of a sharded `dmdp serve`.
//!
//! A worker dials the coordinator's TCP listener, performs the
//! `register` handshake (protocol version and [`SIM_VERSION`] must both
//! match — digests would silently disagree otherwise), then executes
//! the job groups the coordinator dispatches, each on its own pool of
//! runner threads with its own resident images. The
//! content-addressed [`Store`] directory is the only state shared with
//! the coordinator and the other workers: every executed result is
//! persisted there, and every dispatched member is checked against it
//! first, so a row another process already landed is never simulated
//! twice.
//!
//! Liveness is a `heartbeat` line every couple of idle seconds; if the
//! process dies mid-group the coordinator notices the dropped
//! connection, requeues the unfinished digests on another worker (or
//! runs them in-process), and a restarted worker simply re-registers —
//! its store view re-syncs lazily through on-disk adoption.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use dmdp_core::SIM_VERSION;
use dmdp_harness::{
    execute_here, resolve, Inflight, JobResult, JobSpec, Json, Outcome, ResidentImages, Resolve,
    Source,
};
use dmdp_obs::log::{EventLog, Level};

use crate::client::retry_transient;
use crate::protocol::{
    self, write_locked, CoordMsg, GroupSpec, LineEvent, LineReader, WorkerHello, PROTOCOL_VERSION,
};
use crate::store::{warn_write, Store};

/// Configuration of one [`run_worker`] invocation.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator TCP address (e.g. `127.0.0.1:7199`).
    pub connect: String,
    /// Root directory of the shared content-addressed result store.
    pub store_dir: PathBuf,
    /// Runner threads (0 = one per affinity core, minimum 1).
    pub jobs: usize,
    /// Cores to pin this process to (best-effort; empty = no pinning).
    pub cores: Vec<usize>,
    /// Display name; labels this worker's rows in coordinator metrics.
    pub name: String,
    /// Transient connect failures to retry ([`retry_transient`]) — a
    /// worker usually races the coordinator's bind.
    pub connect_retries: u32,
    /// Suppress per-group log lines (warnings still surface).
    pub quiet: bool,
}

/// Final worker-side counters, returned when the coordinator hangs up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Job groups completed (including failed ones).
    pub groups: u64,
    /// Jobs actually simulated here.
    pub executed: u64,
    /// Dispatched jobs satisfied from the shared store.
    pub store_hits: u64,
}

/// Pins the calling process to `cores` via a raw `sched_setaffinity`
/// syscall — no libc crate. Strictly best-effort: any failure leaves
/// the default affinity in place, which only costs locality.
#[cfg(target_os = "linux")]
fn pin_cores(cores: &[usize]) {
    if cores.is_empty() {
        return;
    }
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16]; // up to 1024 cpus
    for &c in cores {
        if c < 1024 {
            mask[c / 64] |= 1 << (c % 64);
        }
    }
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_cores(_cores: &[usize]) {}

struct WorkerCtx {
    store: Store,
    log: EventLog,
    /// Resident images, exactly the set the coordinator holds, so
    /// digests agree.
    images: ResidentImages,
    inflight: Inflight,
    groups: AtomicU64,
    executed: AtomicU64,
    store_hits: AtomicU64,
}

/// A worker's half of [`resolve`]: the shared store for lookups and
/// publishing, this process for execution.
impl Resolve for WorkerCtx {
    fn lookup(&self, spec: &JobSpec) -> Option<JobResult> {
        self.store.get(&spec.digest)
    }

    fn execute(&self, specs: &[&JobSpec]) -> Vec<Outcome> {
        execute_here(specs)
    }

    fn publish(&self, row: &JobResult) {
        if let Err(e) = self.store.put(row) {
            warn_write(&self.log, &row.digest, &e);
        }
    }
}

impl WorkerCtx {
    /// Executes one dispatched group: rebuild the member [`JobSpec`]s
    /// against the resident images (digests are content-derived, so
    /// they match the coordinator's) and resolve them.
    fn run_group(&self, group: &GroupSpec) -> Result<Vec<(JobResult, String)>, String> {
        let spec = group.campaign();
        let jobs = spec.jobs_over(&self.images.at(spec.scale), 1, |w, s| {
            self.store.bundle(w, s, &self.log)
        })?;
        let rows = resolve(&jobs, 1, &self.inflight, self).into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(rows
            .into_iter()
            .map(|(row, source)| {
                let counter = if source == Source::Executed { &self.executed } else { &self.store_hits };
                counter.fetch_add(1, Ordering::Relaxed);
                (row, source.name().to_string())
            })
            .collect())
    }
}

/// Runs one worker until the coordinator shuts it down or the
/// connection drops: connect (with retries), register, then drain
/// dispatched groups on `jobs` runner threads while the main thread
/// keeps reading the socket and heartbeating.
///
/// # Errors
///
/// Connect/handshake failures, a coordinator refusal (protocol or
/// `SIM_VERSION` mismatch), or store setup failures.
pub fn run_worker(opts: &WorkerOptions) -> Result<WorkerReport, String> {
    pin_cores(&opts.cores);
    let jobs = if opts.jobs == 0 { opts.cores.len().max(1) } else { opts.jobs };
    let log = EventLog::stderr(if opts.quiet { Level::Warn } else { Level::Info });
    let stream = retry_transient(opts.connect_retries, || TcpStream::connect(&opts.connect))
        .map_err(|e| format!("{}: {e}", opts.connect))?;
    let read_half = stream.try_clone().map_err(|e| format!("{}: {e}", opts.connect))?;
    read_half
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| format!("{}: {e}", opts.connect))?;
    let mut reader = LineReader::new(read_half);
    let writer = Mutex::new(stream);

    let hello = WorkerHello {
        protocol: PROTOCOL_VERSION,
        sim_version: SIM_VERSION.to_string(),
        name: opts.name.clone(),
        jobs,
        cores: opts.cores.clone(),
    };
    write_locked(&writer, &protocol::register_msg(&hello))?;
    let worker_id = {
        let mut idle = 0;
        loop {
            match reader.read_line()? {
                LineEvent::Line(text) => {
                    let v = Json::parse(&text)?;
                    match CoordMsg::from_json(&v)? {
                        CoordMsg::Registered { worker } => break worker,
                        CoordMsg::Error(e) => {
                            return Err(format!("coordinator refused registration: {e}"));
                        }
                        other => {
                            return Err(format!(
                                "unexpected coordinator message before registration: {other:?}"
                            ));
                        }
                    }
                }
                LineEvent::Idle => {
                    idle += 1;
                    if idle > 100 {
                        return Err("coordinator did not answer the handshake".to_string());
                    }
                }
                LineEvent::Eof => {
                    return Err("coordinator closed the connection during registration"
                        .to_string());
                }
            }
        }
    };
    let ctx = WorkerCtx {
        store: Store::open(&opts.store_dir, None)?,
        log,
        images: ResidentImages::default(),
        inflight: Inflight::default(),
        groups: AtomicU64::new(0),
        executed: AtomicU64::new(0),
        store_hits: AtomicU64::new(0),
    };
    ctx.log.info(
        "worker_registered",
        &[
            ("name", (&opts.name).into()),
            ("worker", worker_id.into()),
            ("coordinator", (&opts.connect).into()),
            ("jobs", jobs.into()),
            ("pid", std::process::id().into()),
        ],
    );

    let queue: Mutex<VecDeque<(u64, GroupSpec)>> = Mutex::new(VecDeque::new());
    let queue_cv = Condvar::new();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let next = {
                    let mut q = queue.lock().unwrap();
                    loop {
                        if let Some(item) = q.pop_front() {
                            break Some(item);
                        }
                        if done.load(Ordering::SeqCst) {
                            break None;
                        }
                        q = queue_cv.wait(q).unwrap();
                    }
                };
                let Some((gid, gspec)) = next else { return };
                let start = Instant::now();
                let msg = match ctx.run_group(&gspec) {
                    Ok(rows) => protocol::group_done_msg(gid, &rows),
                    Err(e) => {
                        ctx.log.warn(
                            "group_failed",
                            &[("group", gid.into()), ("error", (&e).into())],
                        );
                        protocol::group_failed_msg(gid, &e)
                    }
                };
                ctx.groups.fetch_add(1, Ordering::Relaxed);
                ctx.log.debug(
                    "group_done",
                    &[
                        ("group", gid.into()),
                        ("workload", (&gspec.workload).into()),
                        ("members", gspec.variants.len().into()),
                        ("wall_s", start.elapsed().as_secs_f64().into()),
                    ],
                );
                if write_locked(&writer, &msg).is_err() {
                    done.store(true, Ordering::SeqCst);
                    queue_cv.notify_all();
                    return;
                }
            });
        }
        let mut last_beat = Instant::now();
        loop {
            if done.load(Ordering::SeqCst) {
                break;
            }
            match reader.read_line() {
                Ok(LineEvent::Line(text)) => {
                    match Json::parse(&text).and_then(|v| CoordMsg::from_json(&v)) {
                        Ok(CoordMsg::Group { id, spec }) => {
                            queue.lock().unwrap().push_back((id, spec));
                            queue_cv.notify_one();
                        }
                        Ok(CoordMsg::Shutdown) => {
                            ctx.log.info("worker_shutdown", &[("worker", worker_id.into())]);
                            break;
                        }
                        Ok(CoordMsg::Registered { .. }) => {}
                        Ok(CoordMsg::Error(e)) => {
                            ctx.log.warn("coordinator_error", &[("error", (&e).into())]);
                            break;
                        }
                        Err(e) => {
                            ctx.log.warn("bad_line", &[("error", (&e).into())]);
                            break;
                        }
                    }
                }
                Ok(LineEvent::Idle) => {
                    if last_beat.elapsed() >= Duration::from_secs(2) {
                        if write_locked(&writer, &protocol::heartbeat_msg()).is_err() {
                            break;
                        }
                        last_beat = Instant::now();
                    }
                }
                Ok(LineEvent::Eof) | Err(_) => break,
            }
        }
        done.store(true, Ordering::SeqCst);
        queue_cv.notify_all();
    });
    let report = WorkerReport {
        groups: ctx.groups.load(Ordering::Relaxed),
        executed: ctx.executed.load(Ordering::Relaxed),
        store_hits: ctx.store_hits.load(Ordering::Relaxed),
    };
    ctx.log.info(
        "worker_stopped",
        &[
            ("name", (&opts.name).into()),
            ("groups", report.groups.into()),
            ("executed", report.executed.into()),
            ("store_hits", report.store_hits.into()),
        ],
    );
    Ok(report)
}
