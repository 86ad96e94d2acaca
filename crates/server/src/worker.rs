//! The `dmdp worker` process: one shard of `dmdp serve --workers N`.
//!
//! The coordinator spawns each worker as a child of its own executable
//! and links to it over the child's stdin and stdout: `group`
//! dispatches arrive on stdin, one per line, and the worker answers each
//! on stdout with `group_done` or `group_failed`. Each group runs on one
//! of the worker's runner threads, against its own resident images.
//! End of file on stdin is the drain order; the event log goes to
//! stderr, because stdout is the link.
//!
//! A worker only executes. The coordinator resolves every job: it looks
//! rows up, dispatches only its claimed misses, and writes every row a
//! worker returns to the store, so the store directory has one row
//! writer. A worker never reads or writes a row, and never opens the
//! row log: it holds a [`Blobs`] handle on the coordinator's store, for
//! the checkpoint bundles of sampled groups.
//!
//! A worker simulates at background CPU priority (nice 19), so the
//! coordinator's request threads, which parse, read the store and reply,
//! never wait behind a sweep for a core.

use std::collections::VecDeque;
use std::io::Stdout;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use dmdp_harness::store::Blobs;
use dmdp_harness::{JobResult, JobSpec, Json, ResidentImages};
use dmdp_obs::log::{EventLog, Level};

use crate::protocol::{self, write_line, GroupSpec, LineEvent, LineReader};

/// Configuration of one [`run_worker`] invocation.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// The coordinator's store directory, where sampled groups find and
    /// persist their checkpoint bundles.
    pub store_dir: PathBuf,
    /// Runner threads (0 = one per affinity core, minimum 1).
    pub jobs: usize,
    /// Cores to pin this process to (best-effort; empty = no pinning).
    pub cores: Vec<usize>,
    /// Suppress per-group log lines (warnings still surface).
    pub quiet: bool,
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

/// Lowers the calling thread to nice 19, the lowest CPU priority, via a
/// raw `setpriority` call — no libc crate. On Linux nice is per thread
/// (`PRIO_PROCESS` with `who = 0` names the caller), threads spawned
/// afterwards inherit it, and an unprivileged thread cannot raise it
/// back, so only threads that do nothing but simulate may call this.
/// Strictly best-effort: a failure leaves the priority as it was.
#[cfg(target_os = "linux")]
pub(crate) fn lower_priority() {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: `setpriority` takes three integers and touches no memory of
    // this process.
    let _ = unsafe { setpriority(PRIO_PROCESS, 0, 19) };
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn lower_priority() {}

struct WorkerCtx {
    /// Checkpoint bundles only: a worker never reads or writes a row.
    blobs: Blobs,
    log: EventLog,
    /// Resident images, exactly the set the coordinator holds, so
    /// digests agree.
    images: ResidentImages,
    groups: AtomicU64,
    executed: AtomicU64,
}

impl WorkerCtx {
    /// Executes one dispatched group: rebuild the member [`JobSpec`]s
    /// against the resident images (digests are content-derived, so
    /// they match the coordinator's) and run them as one batch unit,
    /// or as a singleton when sampled. The first member error fails the
    /// group.
    fn run_group(&self, group: &GroupSpec) -> Result<Vec<JobResult>, String> {
        let spec = group.campaign();
        let jobs = spec.jobs_over(&self.images.at(spec.scale), 1, |w, s| {
            self.blobs.bundle(w, s, &self.log)
        })?;
        let rows = JobSpec::execute_batch(&jobs.iter().collect::<Vec<_>>())
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        self.executed.fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok(rows)
    }
}

/// Runs one worker until its stdin ends: the main thread lowers its own
/// priority, which the runner threads then inherit, reads dispatched
/// groups from stdin and queues them, and `jobs` runner threads execute
/// them and answer on stdout. A line that is not a `group` dispatch ends
/// the link as well. Either way, queued groups are dropped (the
/// coordinator requeues what it still waits for) and the running ones
/// finish before the worker returns.
pub fn run_worker(opts: &WorkerOptions) {
    pin_cores(&opts.cores);
    lower_priority();
    let jobs = if opts.jobs == 0 { opts.cores.len().max(1) } else { opts.jobs };
    let ctx = WorkerCtx {
        blobs: Blobs::new(&opts.store_dir),
        log: EventLog::stderr(if opts.quiet { Level::Warn } else { Level::Info }),
        images: ResidentImages::default(),
        groups: AtomicU64::new(0),
        executed: AtomicU64::new(0),
    };
    let mut reader = LineReader::new(std::io::stdin());
    let writer: Mutex<Stdout> = Mutex::new(std::io::stdout());

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
                let line = match ctx.run_group(&gspec) {
                    Ok(rows) => protocol::group_done_line(gid, &rows),
                    Err(e) => {
                        ctx.log.warn(
                            "group_failed",
                            &[("group", gid.into()), ("error", (&e).into())],
                        );
                        protocol::group_failed_msg(gid, &e).compact() + "\n"
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
                if write_line(&mut *writer.lock().expect("no stdout holder panics"), &line).is_err() {
                    break;
                }
            });
        }
        loop {
            let dispatch = match reader.read_line() {
                Ok(LineEvent::Line(text)) => Json::parse(&text).and_then(|v| protocol::parse_group_msg(&v)),
                // A pipe has no read timeout, so it never idles.
                Ok(LineEvent::Idle) => continue,
                Ok(LineEvent::Eof) => break,
                Err(e) => Err(e),
            };
            match dispatch {
                Ok(item) => {
                    queue.lock().unwrap().push_back(item);
                    queue_cv.notify_one();
                }
                Err(e) => {
                    ctx.log.warn("bad_line", &[("error", (&e).into())]);
                    break;
                }
            }
        }
        queue.lock().unwrap().clear();
        done.store(true, Ordering::SeqCst);
        queue_cv.notify_all();
    });
    ctx.log.info(
        "worker_stopped",
        &[
            ("pid", std::process::id().into()),
            ("groups", ctx.groups.load(Ordering::Relaxed).into()),
            ("executed", ctx.executed.load(Ordering::Relaxed).into()),
        ],
    );
}
