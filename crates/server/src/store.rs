//! The persistent content-addressed result store.
//!
//! Every completed [`JobResult`] is persisted under
//! `store/<digest[0..2]>/<digest>.json`, where the digest is the job's
//! FNV-1a content digest — the same key the campaign artifact cache uses,
//! so two jobs with equal digests are interchangeable by construction.
//! Writes go to a unique `.tmp` sibling first and land with an atomic
//! rename, so a crash can never leave a half-written entry under a final
//! name; leftover temporaries are swept on startup. The in-memory index
//! is rebuilt by scanning the tree on [`Store::open`], which is what
//! makes results survive daemon restarts.
//!
//! An optional byte cap turns the store into an LRU cache: once the
//! tree exceeds the cap, least-recently-used entries (by access order,
//! seeded from file mtimes at startup) are deleted until it fits.
//!
//! A store directory has one row writer: the process that resolves jobs
//! against it (a daemon, or the coordinator of a sharded one, whose
//! workers only execute). The index is therefore the truth about which
//! rows exist: [`Store::get`] answers an un-indexed digest as a miss
//! without touching the disk, and a row file placed in the tree behind
//! the writer's back is seen only after the next [`Store::open`]. The
//! `.ckpt` checkpoint blobs of sampled bundles share the tree but never
//! the index, so any process may read and write them.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dmdp_harness::{JobResult, Parser, Sampling, WorkloadImage, Writer};
use dmdp_obs::log::EventLog;
use dmdp_sample::SampledBundle;

/// Routes a failed store write through the event log and the
/// `dmdp_errors_total{kind="store"}` counter — persistence failure
/// degrades durability, not the run.
pub(crate) fn warn_write(log: &EventLog, digest: &str, error: &str) {
    store_metrics().write_errors.inc();
    log.warn("store_write_failed", &[("digest", digest.into()), ("error", error.into())]);
}

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
    static METRICS: std::sync::OnceLock<StoreMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = dmdp_obs::registry();
        StoreMetrics {
            rescanned: r.counter(
                "dmdp_store_rescanned_total",
                "entries re-indexed by startup tree scans",
            ),
            hits: r.counter("dmdp_store_hits_total", "store lookups satisfied from disk"),
            misses: r.counter("dmdp_store_misses_total", "store lookups that found nothing"),
            writes: r.counter("dmdp_store_writes_total", "results newly persisted"),
            evictions: r.counter("dmdp_store_evictions_total", "entries deleted by the LRU cap"),
            write_us: r.histogram(
                "dmdp_store_write_us",
                "store write+rename latency in microseconds",
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
    /// Entries currently indexed.
    pub entries: usize,
    /// Total bytes of indexed entries.
    pub bytes: u64,
    /// Lookups satisfied from disk.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results newly persisted.
    pub writes: u64,
    /// Entries deleted by the LRU cap.
    pub evictions: u64,
}

struct Entry {
    bytes: u64,
    last_used: u64,
}

struct Index {
    entries: HashMap<String, Entry>,
    total_bytes: u64,
    clock: u64,
}

/// A content-addressed, crash-safe, optionally size-capped store of
/// [`JobResult`] summaries. All methods take `&self` and are safe to
/// call from many threads at once.
pub struct Store {
    root: PathBuf,
    cap_bytes: Option<u64>,
    index: Mutex<Index>,
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
}

/// A digest is sixteen lowercase hex characters ([`dmdp_harness::Digest64::hex`]).
fn valid_digest(digest: &str) -> bool {
    digest.len() == 16 && digest.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

impl Store {
    /// Opens (or creates) a store rooted at `root`, rebuilding the index
    /// by scanning the tree. Leftover `.tmp` files from a crashed writer
    /// are deleted; entries that don't look like `<digest>.json` are
    /// ignored. With `cap_bytes`, the store immediately evicts down to
    /// the cap (oldest mtime first).
    ///
    /// # Errors
    ///
    /// Filesystem errors, stringified.
    pub fn open(root: &Path, cap_bytes: Option<u64>) -> Result<Store, String> {
        std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
        let mut found: Vec<(String, u64, std::time::SystemTime)> = Vec::new();
        let dirs = std::fs::read_dir(root).map_err(|e| format!("{}: {e}", root.display()))?;
        for dir in dirs.flatten() {
            if !dir.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                continue;
            }
            let Ok(files) = std::fs::read_dir(dir.path()) else { continue };
            for file in files.flatten() {
                let path = file.path();
                let name = file.file_name();
                let name = name.to_string_lossy();
                let Some(digest) = name.strip_suffix(".json") else {
                    // Anything else in the tree is a crashed writer's
                    // temporary (`<digest>.json.tmp.<n>`) — sweep it.
                    if name.contains(".tmp") {
                        std::fs::remove_file(&path).ok();
                    }
                    continue;
                };
                if !valid_digest(digest) {
                    continue;
                }
                let Ok(meta) = file.metadata() else { continue };
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                found.push((digest.to_string(), meta.len(), mtime));
            }
        }
        // Seed the LRU order from mtimes: oldest files get the smallest
        // clock values and are first in line for eviction.
        found.sort_by_key(|(_, _, mtime)| *mtime);
        store_metrics().rescanned.add(found.len() as u64);
        let mut index =
            Index { entries: HashMap::new(), total_bytes: 0, clock: 0 };
        for (digest, bytes, _) in found {
            index.clock += 1;
            index.total_bytes += bytes;
            index.entries.insert(digest, Entry { bytes, last_used: index.clock });
        }
        let store = Store {
            root: root.to_path_buf(),
            cap_bytes,
            index: Mutex::new(index),
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        };
        store.enforce_cap(&mut store.index.lock().unwrap());
        Ok(store)
    }

    /// `<root>/<digest[0..2]>/<digest>.json`.
    pub fn path_of(&self, digest: &str) -> PathBuf {
        self.root.join(&digest[..2]).join(format!("{digest}.json"))
    }

    /// Looks a result up by digest. The returned row is marked `cached`
    /// (it was not executed by the caller). A digest the index does not
    /// hold is a miss, read from nowhere. An indexed entry that has
    /// vanished, no longer parses as a row, or holds the row of another
    /// digest is dropped from the index and reported as a miss; any
    /// other read error is a miss that keeps the entry, so a transient
    /// `EMFILE` or `EIO` never deletes a good row.
    pub fn get(&self, digest: &str) -> Option<JobResult> {
        if !self.contains(digest) {
            return self.miss();
        }
        // `None` when the file has vanished, no longer parses as a row,
        // or holds a row filed under another digest.
        let loaded = match std::fs::read(self.path_of(digest)) {
            Ok(raw) => std::str::from_utf8(&raw)
                .ok()
                .and_then(|text| Parser::document(text, JobResult::read).ok())
                .filter(|result| result.digest == digest),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            // Any other read error (`EMFILE`, `EIO`) says nothing about
            // the entry: keep it for the next lookup.
            Err(_) => return self.miss(),
        };
        let mut index = self.index.lock().unwrap();
        let Some(mut result) = loaded else {
            // Deleted, corrupted or overwritten behind our back: forget
            // it.
            if let Some(entry) = index.entries.remove(digest) {
                index.total_bytes -= entry.bytes;
                std::fs::remove_file(self.path_of(digest)).ok();
            }
            return self.miss();
        };
        index.clock += 1;
        let clock = index.clock;
        if let Some(entry) = index.entries.get_mut(digest) {
            entry.last_used = clock;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        store_metrics().hits.inc();
        result.cached = true;
        Some(result)
    }

    fn miss(&self) -> Option<JobResult> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        store_metrics().misses.inc();
        None
    }

    /// Persists a result under its digest. Returns `true` if the entry
    /// was newly written, `false` if it was already indexed (threads
    /// racing to write one digest are expected — results with equal
    /// digests are bit-identical, so whoever lands the rename wins
    /// nothing and loses nothing).
    ///
    /// # Errors
    ///
    /// Filesystem errors, stringified. An invalid digest is an error —
    /// it would escape the two-level layout.
    pub fn put(&self, result: &JobResult) -> Result<bool, String> {
        if !valid_digest(&result.digest) {
            return Err(format!("store: invalid digest `{}`", result.digest));
        }
        if self.contains(&result.digest) {
            return Ok(false);
        }
        let path = self.path_of(&result.digest);
        let write_start = std::time::Instant::now();
        let dir = path.parent().expect("store paths have a shard directory");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // Unique temporary per writer, atomic rename to the final name.
        let tmp = dir.join(format!(
            "{}.json.tmp.{}",
            result.digest,
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let text = Writer::pretty(|w| result.write(w));
        std::fs::write(&tmp, &text).map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut index = self.index.lock().unwrap();
        index.clock += 1;
        let clock = index.clock;
        let old = index
            .entries
            .insert(result.digest.clone(), Entry { bytes: text.len() as u64, last_used: clock });
        index.total_bytes += text.len() as u64;
        if let Some(old) = old {
            // A concurrent writer beat us between the contains check and
            // here; both wrote identical bytes.
            index.total_bytes -= old.bytes;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        let m = store_metrics();
        m.writes.inc();
        m.write_us.observe(write_start.elapsed().as_micros() as u64);
        self.enforce_cap(&mut index);
        Ok(true)
    }

    /// `<root>/<digest[0..2]>/<digest>.ckpt` — the sibling blob path
    /// (sampled-simulation checkpoint bundles).
    pub fn blob_path(&self, digest: &str) -> PathBuf {
        self.root.join(&digest[..2]).join(format!("{digest}.ckpt"))
    }

    /// Reads a binary blob by digest. Blobs ride the store's sharded
    /// tree but are *not* index entries: they are never parsed as job
    /// results, never counted against the LRU cap, and survive
    /// [`Store::get`]'s corruption sweep untouched.
    pub fn get_blob(&self, digest: &str) -> Option<Vec<u8>> {
        let m = store_metrics();
        if !valid_digest(digest) {
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

    /// Persists a blob under its digest (atomic tmp + rename, like
    /// [`Store::put`]). Returns `true` if newly written, `false` if
    /// already present — equal digests mean equal bytes, so either
    /// writer's outcome is interchangeable.
    ///
    /// # Errors
    ///
    /// Filesystem errors, stringified; an invalid digest is rejected.
    pub fn put_blob(&self, digest: &str, bytes: &[u8]) -> Result<bool, String> {
        if !valid_digest(digest) {
            return Err(format!("store: invalid blob digest `{digest}`"));
        }
        let path = self.blob_path(digest);
        if path.exists() {
            return Ok(false);
        }
        let dir = path.parent().expect("store paths have a shard directory");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // Temporary names contain `.tmp`, so a crashed blob write is
        // swept by the same startup pass that cleans result temporaries.
        let tmp = dir.join(format!(
            "{digest}.ckpt.tmp.{}",
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes).map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
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
                    dmdp_harness::record_bundle(&bundle, 0.0);
                    log.debug("bundle_hit", &at);
                    return Ok(Arc::new(bundle));
                }
                Err(e) => log.warn("bundle_corrupt", &[&at[..], &[("error", e.into())]].concat()),
            }
        }
        let start = Instant::now();
        let bundle = dmdp_harness::build_bundle(&w.image.program, sampling)?;
        if let Err(e) = self.put_blob(&digest, &bundle.to_bytes()) {
            warn_write(log, &digest, &e);
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

    /// Evicts least-recently-used entries until the tree fits the cap.
    /// The most recently touched entry is never evicted, so a store
    /// whose cap is smaller than one entry still makes progress. `.ckpt`
    /// bundles are never index entries, so they are never evicted.
    fn enforce_cap(&self, index: &mut Index) {
        let Some(cap) = self.cap_bytes else { return };
        while index.total_bytes > cap && index.entries.len() > 1 {
            let Some(victim) = index
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(digest, _)| digest.clone())
            else {
                return;
            };
            if let Some(entry) = index.entries.remove(&victim) {
                index.total_bytes -= entry.bytes;
            }
            // A victim whose file has vanished (deleted behind the
            // store's back) just leaves the index: that is the outcome
            // eviction wanted, not an error.
            if let Err(e) = std::fs::remove_file(self.path_of(&victim)) {
                debug_assert!(
                    e.kind() == std::io::ErrorKind::NotFound,
                    "evicting {victim}: {e}"
                );
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
            store_metrics().evictions.inc();
        }
    }

    /// Entries currently indexed.
    pub fn len(&self) -> usize {
        self.index.lock().unwrap().entries.len()
    }

    /// True if the store indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `digest` is indexed (no LRU touch, no disk read).
    pub fn contains(&self, digest: &str) -> bool {
        self.index.lock().unwrap().entries.contains_key(digest)
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        let index = self.index.lock().unwrap();
        StoreStats {
            entries: index.entries.len(),
            bytes: index.total_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}
