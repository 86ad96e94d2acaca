//! The persistent content-addressed result store that `dmdp campaign`
//! and `dmdp serve` both resolve jobs through.
//!
//! Rows live in one append-only log, `<root>/rows.log`. Its first line is
//! the store-format header ([`LOG_HEADER`]); every later line is one
//! compact [`JobResult`] row, keyed by its FNV-1a content digest, so two
//! jobs with equal digests are interchangeable by construction.
//! [`Store::put`] appends a row with one `write`, and [`Store::get`]
//! reads it back with one positioned read and [`JobResult::read`]. The
//! first append creates the log; [`Store::open`] never does.
//!
//! [`Store::open`] indexes the log in one scan, digest → (offset,
//! length), and keeps no parsed row. A last line without its newline is
//! an append a crash tore: the scan cuts it off with a warning. A line
//! that is not a row is skipped with a warning. A log whose first line is
//! not the header is refused, so a foreign file is never appended to. The
//! log is never synced: the store is a cache, and a row lost in a crash
//! simply re-simulates. With a byte cap, the open compacts a log that
//! exceeds it to the newest rows that fit.
//!
//! A store directory has one row writer at a time: the process that
//! resolves jobs against it, a `dmdp campaign` run or a daemon (the
//! coordinator of a sharded one, whose workers only execute). Nothing
//! locks the directory. The index is therefore the truth about which rows
//! exist: [`Store::get`] answers an un-indexed digest as a miss without
//! touching the disk, and a row appended behind the writer's back is seen
//! only after the next [`Store::open`]. A second writer costs
//! re-simulation, never a wrong row: its appends land at the log's true
//! end, every read checks the digest of the line it reads, and a handle
//! opened before the log existed cannot create it a second time. A
//! process that opens the store while its writer appends may cut that
//! append off as a torn tail.
//!
//! The `.ckpt` checkpoint blobs of sampled bundles are files in a sharded
//! tree beside the log, `<root>/<digest[0..2]>/<digest>.ckpt`. They never
//! join the index, so any process may read and write them through a
//! [`Blobs`] handle, which never opens the log. The per-row files of the
//! older layout (`<digest[0..2]>/<digest>.json`) are left where they are
//! with a warning; their rows re-simulate.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use dmdp_obs::log::{EventLog, Level, Value};
use dmdp_sample::SampledBundle;

use crate::job::{JobResult, WorkloadImage};
use crate::json::{Parser, Writer};
use crate::sampled::{build_bundle, Sampling};

/// The row log's file name under the store root.
pub const LOG_FILE: &str = "rows.log";

/// The row log's first line, which names the store format. A log that
/// begins with anything else is refused.
pub const LOG_HEADER: &str = r#"{"store":"dmdp-rows","format":1}"#;

/// Process-wide store metrics (cumulative across every [`Store`] this
/// process opens — the per-store view stays on [`Store::stats`]).
struct StoreMetrics {
    rescanned: &'static dmdp_obs::Counter,
    hits: &'static dmdp_obs::Counter,
    misses: &'static dmdp_obs::Counter,
    writes: &'static dmdp_obs::Counter,
    evictions: &'static dmdp_obs::Counter,
    write_us: &'static dmdp_obs::LogHistogram,
    blob_hits: &'static dmdp_obs::Counter,
    blob_misses: &'static dmdp_obs::Counter,
    blob_bytes: &'static dmdp_obs::Counter,
    write_errors: &'static dmdp_obs::Counter,
}

fn store_metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = dmdp_obs::registry();
        StoreMetrics {
            rescanned: r.counter(
                "dmdp_store_rescanned_total",
                "rows indexed by the row-log scans of store opens",
            ),
            hits: r.counter("dmdp_store_hits_total", "store lookups satisfied from disk"),
            misses: r.counter("dmdp_store_misses_total", "store lookups that found nothing"),
            writes: r.counter("dmdp_store_writes_total", "results newly persisted"),
            evictions: r.counter(
                "dmdp_store_evictions_total",
                "rows dropped by cap compaction at store open",
            ),
            write_us: r.histogram(
                "dmdp_store_write_us",
                "store row append latency in microseconds",
            ),
            blob_hits: r.counter(
                "dmdp_store_blob_hits_total",
                "blob lookups (checkpoint bundles) satisfied from disk",
            ),
            blob_misses: r.counter(
                "dmdp_store_blob_misses_total",
                "blob lookups that found nothing",
            ),
            blob_bytes: r.counter(
                "dmdp_store_blob_bytes_total",
                "blob bytes newly persisted (checkpoint bundles)",
            ),
            write_errors: r.counter_with("dmdp_errors_total", &[("kind", "store")], "failures by kind"),
        }
    })
}

/// A snapshot of the store's counters, for daemon stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Rows currently indexed.
    pub entries: usize,
    /// Total bytes of the indexed rows' log lines.
    pub bytes: u64,
    /// Lookups satisfied from disk.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results newly persisted.
    pub writes: u64,
    /// Rows dropped by cap compaction when the store was opened.
    pub evictions: u64,
}

/// Where one row's line sits in the log, its newline included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    offset: u64,
    len: u64,
}

#[derive(Default)]
struct Index {
    rows: HashMap<u64, Span>,
    /// Bytes of the indexed rows' lines.
    bytes: u64,
    /// The log's length: where the next append lands.
    end: u64,
}

impl Index {
    /// Indexes a row's line; a later line of one digest replaces an
    /// earlier one.
    fn insert(&mut self, key: u64, span: Span) {
        if let Some(old) = self.rows.insert(key, span) {
            self.bytes -= old.len;
        }
        self.bytes += span.len;
    }

    fn remove(&mut self, key: u64) {
        if let Some(old) = self.rows.remove(&key) {
            self.bytes -= old.len;
        }
    }
}

/// A content-addressed, crash-safe store of [`JobResult`] summaries in
/// one append-only log, optionally compacted to a byte cap at open. All
/// methods take `&self` and are safe to call from many threads at once.
pub struct Store {
    blobs: Blobs,
    path: PathBuf,
    /// The open log, once it exists: set by the open or the first append.
    file: OnceLock<File>,
    /// Why the first append could not create the log: another writer
    /// created it first. The handle then refuses every append.
    refused: OnceLock<String>,
    /// The failure [`Store::publish`] logged last.
    last_warning: Mutex<String>,
    index: Mutex<Index>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: u64,
}

/// A digest is sixteen lowercase hex characters
/// ([`crate::Digest64::hex`]); its index key is their value.
fn key(digest: &[u8]) -> Option<u64> {
    if digest.len() != 16 || !digest.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(std::str::from_utf8(digest).ok()?, 16).ok()
}

/// Maps an I/O error to a message naming `path`.
fn at_path(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// The digest key of one complete log line as [`Store::put`] writes it:
/// a compact object whose first `,"digest":"` holds the row's digest.
/// Every `"` inside a compact string is escaped, so no string value can
/// hold that text. `None` for a line that is not a row.
fn line_key(line: &[u8]) -> Option<u64> {
    const MEMBER: &[u8] = br#","digest":""#;
    let body = line.strip_suffix(b"\n")?;
    if !(body.starts_with(b"{") && body.ends_with(b"}")) {
        return None;
    }
    let at = body.windows(MEMBER.len()).position(|w| w == MEMBER)? + MEMBER.len();
    if body.get(at + 16) != Some(&b'"') {
        return None;
    }
    key(&body[at..at + 16])
}

/// Indexes a row log in one pass. The first line must be [`LOG_HEADER`];
/// a torn last line is cut off and a line that is not a row is skipped,
/// each with a warning.
fn scan(file: &File, path: &Path, log: &EventLog) -> Result<Index, String> {
    let at = |offset: u64, bytes: usize| -> [(&str, Value); 3] {
        [("log", path.display().to_string().into()), ("offset", offset.into()), ("bytes", bytes.into())]
    };
    let mut reader = BufReader::with_capacity(1 << 16, file);
    let mut line = Vec::new();
    // The header is read with a bound, so a foreign file is never read
    // whole.
    let n = (&mut reader)
        .take(LOG_HEADER.len() as u64 + 1)
        .read_until(b'\n', &mut line)
        .map_err(at_path(path))?;
    let mut index = Index::default();
    if line.strip_suffix(b"\n") == Some(LOG_HEADER.as_bytes()) {
        index.end = n as u64;
    } else if LOG_HEADER.as_bytes().starts_with(&line) {
        // Empty, or the first append torn.
        if n > 0 {
            log.warn("store_torn_tail", &at(0, n));
            file.set_len(0).map_err(at_path(path))?;
        }
        return Ok(index);
    } else {
        return Err(format!(
            "{}: not a row log of this store format (its first line must be `{LOG_HEADER}`)",
            path.display()
        ));
    }
    loop {
        line.clear();
        let n = reader.read_until(b'\n', &mut line).map_err(at_path(path))?;
        if n == 0 {
            break;
        }
        let offset = index.end;
        if line.last() != Some(&b'\n') {
            log.warn("store_torn_tail", &at(offset, n));
            file.set_len(offset).map_err(at_path(path))?;
            break;
        }
        match line_key(&line) {
            Some(key) => index.insert(key, Span { offset, len: n as u64 }),
            None => log.warn("store_corrupt_line", &at(offset, n)),
        }
        index.end += n as u64;
    }
    Ok(index)
}

/// Rewrites the log at `path` with the newest rows whose lines fit in
/// `cap` bytes, in log order, and renames it over the old one. The new
/// log is synced before the rename, so a crash leaves the old log or the
/// new one, never a torn one. Returns the new log and its index.
fn compact(old: &File, path: &Path, index: &Index, cap: u64) -> Result<(File, Index), String> {
    let mut spans: Vec<(u64, Span)> = index.rows.iter().map(|(&k, &s)| (k, s)).collect();
    spans.sort_unstable_by_key(|(_, s)| std::cmp::Reverse(s.offset));
    let mut room = cap;
    let mut kept = Vec::new();
    for (key, span) in spans {
        if span.len > room {
            break;
        }
        room -= span.len;
        kept.push((key, span));
    }
    let tmp = path.with_extension("log.compact");
    let mut out = BufWriter::new(File::create(&tmp).map_err(at_path(&tmp))?);
    writeln!(out, "{LOG_HEADER}").map_err(at_path(&tmp))?;
    let mut fresh = Index { end: LOG_HEADER.len() as u64 + 1, ..Index::default() };
    let mut line = Vec::new();
    for &(key, span) in kept.iter().rev() {
        line.resize(span.len as usize, 0);
        old.read_exact_at(&mut line, span.offset).map_err(at_path(path))?;
        out.write_all(&line).map_err(at_path(&tmp))?;
        fresh.insert(key, Span { offset: fresh.end, len: span.len });
        fresh.end += span.len;
    }
    out.flush().and_then(|()| out.get_ref().sync_all()).map_err(at_path(&tmp))?;
    drop(out);
    std::fs::rename(&tmp, path).map_err(at_path(path))?;
    let file = OpenOptions::new().read(true).append(true).open(path).map_err(at_path(path))?;
    Ok((file, fresh))
}

/// Sweeps the sharded tree once: deletes a crashed blob write's
/// temporary (`<digest>.ckpt.tmp.*`) and warns about the per-row files
/// of the older store layout, which stay where they are.
fn sweep_tree(root: &Path, log: &EventLog) {
    let Ok(dirs) = std::fs::read_dir(root) else { return };
    let mut legacy = 0u64;
    for dir in dirs.flatten() {
        if !dir.file_type().is_ok_and(|t| t.is_dir()) {
            continue;
        }
        let Ok(files) = std::fs::read_dir(dir.path()) else { continue };
        for file in files.flatten() {
            let name = file.file_name();
            let name = name.to_string_lossy();
            if name.contains(".tmp") {
                std::fs::remove_file(file.path()).ok();
            } else if name.strip_suffix(".json").is_some_and(|d| key(d.as_bytes()).is_some()) {
                legacy += 1;
            }
        }
    }
    if legacy > 0 {
        log.warn(
            "store_legacy_rows",
            &[("store", root.display().to_string().into()), ("rows", legacy.into())],
        );
    }
}

impl Store {
    /// [`Store::open_logged`], with warnings going to stderr.
    ///
    /// # Errors
    ///
    /// As [`Store::open_logged`].
    pub fn open(root: &Path, cap_bytes: Option<u64>) -> Result<Store, String> {
        Store::open_logged(root, cap_bytes, &EventLog::stderr(Level::Warn))
    }

    /// Opens (or creates) a store rooted at `root`: indexes its row log,
    /// if there is one, in one scan, and sweeps the blob tree of crash
    /// leftovers. A torn last line is cut off, a line that is not a row
    /// is skipped and a per-row tree of the older layout is left alone,
    /// each with a warning on `log`. With `cap_bytes`, a log whose rows
    /// exceed the cap is compacted to the newest rows that fit.
    ///
    /// # Errors
    ///
    /// Filesystem errors, and a log whose first line is not
    /// [`LOG_HEADER`]; each names the file.
    pub fn open_logged(root: &Path, cap_bytes: Option<u64>, log: &EventLog) -> Result<Store, String> {
        std::fs::create_dir_all(root).map_err(at_path(root))?;
        sweep_tree(root, log);
        let path = root.join(LOG_FILE);
        let mut file = match OpenOptions::new().read(true).append(true).open(&path) {
            Ok(file) => Some(file),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(at_path(&path)(e)),
        };
        let mut index = match &file {
            Some(f) => scan(f, &path, log)?,
            None => Index::default(),
        };
        store_metrics().rescanned.add(index.rows.len() as u64);
        let mut evictions = 0;
        if let (Some(cap), Some(old)) = (cap_bytes, &file) {
            if index.bytes > cap {
                let (compacted, kept) = compact(old, &path, &index, cap)?;
                evictions = (index.rows.len() - kept.rows.len()) as u64;
                store_metrics().evictions.add(evictions);
                log.info(
                    "store_compacted",
                    &[("log", path.display().to_string().into()), ("kept", kept.rows.len().into()), ("dropped", evictions.into())],
                );
                (file, index) = (Some(compacted), kept);
            }
        }
        Ok(Store {
            blobs: Blobs::new(root),
            path,
            file: file.map(OnceLock::from).unwrap_or_default(),
            refused: OnceLock::new(),
            last_warning: Mutex::new(String::new()),
            index: Mutex::new(index),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions,
        })
    }

    /// The index, locked.
    fn index(&self) -> MutexGuard<'_, Index> {
        self.index.lock().expect("no store index holder panics")
    }

    /// The checkpoint blobs beside the log.
    pub fn blobs(&self) -> &Blobs {
        &self.blobs
    }

    /// Looks a result up by digest. The returned row is marked `cached`
    /// (it was not executed by the caller). A digest the index does not
    /// hold is a miss, read from nowhere. An indexed line that no longer
    /// holds its digest's row is dropped from the index and reported as
    /// a miss; a read that fails (an `EIO`, a log cut short behind the
    /// writer's back) is a miss that keeps the entry.
    pub fn get(&self, digest: &str) -> Option<JobResult> {
        let Some(key) = key(digest.as_bytes()) else { return self.miss() };
        let Some(span) = self.index().rows.get(&key).copied() else {
            return self.miss();
        };
        let file = self.file.get().expect("an indexed row has a log");
        let mut line = vec![0; span.len as usize];
        if file.read_exact_at(&mut line, span.offset).is_err() {
            return self.miss();
        }
        let row = std::str::from_utf8(&line)
            .ok()
            .and_then(|text| Parser::document(text, JobResult::read).ok())
            .filter(|row| row.digest == digest);
        let Some(mut row) = row else {
            let mut index = self.index();
            if index.rows.get(&key) == Some(&span) {
                index.remove(key);
            }
            return self.miss();
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        store_metrics().hits.inc();
        row.cached = true;
        Some(row)
    }

    fn miss(&self) -> Option<JobResult> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        store_metrics().misses.inc();
        None
    }

    /// Appends a result to the log under its digest, with one `write`.
    /// Returns `true` if the row was newly written, `false` if its digest
    /// was already indexed (results with equal digests are identical).
    /// The first append creates the log, header first; if another writer
    /// created it since the open, the handle refuses this append and
    /// every later one without touching the disk again.
    ///
    /// # Errors
    ///
    /// Filesystem errors, stringified, and an invalid digest.
    pub fn put(&self, result: &JobResult) -> Result<bool, String> {
        let Some(key) = key(result.digest.as_bytes()) else {
            return Err(format!("store: invalid digest `{}`", result.digest));
        };
        let mut line = Writer::compact(|w| result.write(w));
        line.push('\n');
        let mut index = self.index();
        if index.rows.contains_key(&key) {
            return Ok(false);
        }
        let write_start = Instant::now();
        let mut file = match self.file.get() {
            Some(file) => file,
            None => {
                if let Some(e) = self.refused.get() {
                    return Err(e.clone());
                }
                let created =
                    OpenOptions::new().read(true).append(true).create_new(true).open(&self.path);
                match created {
                    Ok(file) => self.file.get_or_init(|| file),
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                        return Err(self.refused.get_or_init(|| at_path(&self.path)(e)).clone());
                    }
                    Err(e) => return Err(at_path(&self.path)(e)),
                }
            }
        };
        let offset = if index.end == 0 {
            line.insert(0, '\n');
            line.insert_str(0, LOG_HEADER);
            LOG_HEADER.len() as u64 + 1
        } else {
            index.end
        };
        if let Err(e) = file.write_all(line.as_bytes()) {
            // Cut a short write off, so the next append starts a line.
            file.set_len(index.end).ok();
            return Err(at_path(&self.path)(e));
        }
        index.end += line.len() as u64;
        let len = index.end - offset;
        index.insert(key, Span { offset, len });
        drop(index);
        self.writes.fetch_add(1, Ordering::Relaxed);
        let m = store_metrics();
        m.writes.inc();
        m.write_us.observe(write_start.elapsed().as_micros() as u64);
        Ok(true)
    }

    /// Appends `row` ([`Store::put`]) for a resolver that publishes
    /// executed rows. A failure degrades durability, not the run: it
    /// counts in `dmdp_errors_total{kind="store"}`, and is logged as a
    /// `store_write_failed` warning unless it repeats the failure this
    /// handle logged last, so a handle that keeps failing for one cause
    /// (a log another writer created first) warns once, not once per row.
    pub fn publish(&self, row: &JobResult, log: &EventLog) {
        let Err(e) = self.put(row) else { return };
        store_metrics().write_errors.inc();
        let mut last = self.last_warning.lock().unwrap_or_else(PoisonError::into_inner);
        if *last != e {
            log.warn("store_write_failed", &[("digest", (&row.digest).into()), ("error", (&e).into())]);
            *last = e;
        }
    }

    /// Rows currently indexed.
    pub fn len(&self) -> usize {
        self.index().rows.len()
    }

    /// True if the store indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `digest` is indexed (no disk read).
    pub fn contains(&self, digest: &str) -> bool {
        key(digest.as_bytes()).is_some_and(|k| self.index().rows.contains_key(&k))
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        let index = self.index();
        StoreStats {
            entries: index.rows.len(),
            bytes: index.bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions,
        }
    }
}

/// The checkpoint blobs of sampled bundles,
/// `<root>/<digest[0..2]>/<digest>.ckpt`: each written to a temporary and
/// renamed, none ever a row. Any process may hold a handle: making one
/// touches nothing on disk, and no handle opens the row log.
pub struct Blobs {
    root: PathBuf,
    tmp_seq: AtomicU64,
}

impl Blobs {
    /// A handle on the blob tree under `root`.
    pub fn new(root: &Path) -> Blobs {
        Blobs { root: root.to_path_buf(), tmp_seq: AtomicU64::new(0) }
    }

    /// `<root>/<digest[0..2]>/<digest>.ckpt`.
    pub fn blob_path(&self, digest: &str) -> PathBuf {
        self.root.join(&digest[..2]).join(format!("{digest}.ckpt"))
    }

    /// Reads a binary blob by digest.
    pub fn get_blob(&self, digest: &str) -> Option<Vec<u8>> {
        let m = store_metrics();
        if key(digest.as_bytes()).is_none() {
            m.blob_misses.inc();
            return None;
        }
        match std::fs::read(self.blob_path(digest)) {
            Ok(bytes) => {
                m.blob_hits.inc();
                Some(bytes)
            }
            Err(_) => {
                m.blob_misses.inc();
                None
            }
        }
    }

    /// Persists a blob under its digest (a temporary, then an atomic
    /// rename). Returns `true` if newly written, `false` if already
    /// present — equal digests mean equal bytes, so either writer's
    /// outcome is interchangeable.
    ///
    /// # Errors
    ///
    /// Filesystem errors, stringified; an invalid digest is rejected.
    pub fn put_blob(&self, digest: &str, bytes: &[u8]) -> Result<bool, String> {
        if key(digest.as_bytes()).is_none() {
            return Err(format!("store: invalid blob digest `{digest}`"));
        }
        let path = self.blob_path(digest);
        if path.exists() {
            return Ok(false);
        }
        let dir = path.parent().expect("blob paths have a shard directory");
        std::fs::create_dir_all(dir).map_err(at_path(dir))?;
        // Temporary names contain `.tmp`, so a crashed blob write is
        // swept by the next `Store::open`.
        let tmp = dir.join(format!(
            "{digest}.ckpt.tmp.{}",
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes).map_err(at_path(&tmp))?;
        std::fs::rename(&tmp, &path).map_err(at_path(&path))?;
        store_metrics().blob_bytes.add(bytes.len() as u64);
        Ok(true)
    }

    /// A workload's sampled bundle: the blob side first (a workload is
    /// profiled once, then every model, request, process and restart
    /// simulates from the same checkpoints), else a fresh build whose
    /// bytes are persisted for the next caller. A corrupt blob degrades
    /// to a rebuild.
    ///
    /// # Errors
    ///
    /// Bundle-construction errors, stringified.
    pub fn bundle(&self, w: &WorkloadImage, sampling: Sampling, log: &EventLog) -> Result<Arc<SampledBundle>, String> {
        let digest = sampling.bundle_digest(&w.image.program);
        let at = [("workload", w.name.into()), ("digest", (&digest).into())];
        if let Some(bytes) = self.get_blob(&digest) {
            match SampledBundle::from_bytes(&bytes) {
                Ok(bundle) => {
                    log.debug("bundle_hit", &at);
                    return Ok(Arc::new(bundle));
                }
                Err(e) => log.warn("bundle_corrupt", &[&at[..], &[("error", e.into())]].concat()),
            }
        }
        let start = Instant::now();
        let bundle = build_bundle(&w.image.program, sampling)?;
        if let Err(e) = self.put_blob(&digest, &bundle.to_bytes()) {
            store_metrics().write_errors.inc();
            log.warn("store_write_failed", &[("digest", (&digest).into()), ("error", e.into())]);
        }
        let built = [
            ("intervals", bundle.plan.total_intervals.into()),
            ("reps", bundle.rep_runs().len().into()),
            ("checkpoint_bytes", bundle.checkpoint_bytes().into()),
            ("wall_s", start.elapsed().as_secs_f64().into()),
        ];
        log.info("bundle_built", &[&at[..], &built[..]].concat());
        Ok(bundle)
    }
}
