//! Persistence tests for the content-addressed result store: round
//! trips across reopen, a log torn or corrupted by a crash or behind the
//! writer's back, a foreign log and an older per-row tree, concurrent
//! writers of one digest, cap compaction at open, an index that is the
//! truth about which rows exist, since a store directory has one row
//! writer, and a second writer that costs re-simulation, never a wrong
//! row.

use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dmdp_core::{CommModel, CoreConfig};
use dmdp_harness::store::{Store, LOG_FILE, LOG_HEADER};
use dmdp_harness::{JobResult, JobSpec, PlannedImage, Writer};
use dmdp_obs::log::{EventLog, Level};
use dmdp_workloads::Scale;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmdp-store-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Executes one real job so the stored document is the genuine article.
fn result_for(kernel: &str, model: CommModel) -> JobResult {
    let w = dmdp_workloads::by_name(kernel, Scale::Test).unwrap();
    let image = PlannedImage::new(Arc::new(w.program));
    JobSpec::new(kernel, w.suite, model, Scale::Test, "main", CoreConfig::new(model), &image)
        .execute()
        .unwrap()
}

/// `n` rows of one real job, each filed under a digest of its own, so
/// every row's log line has the same length.
fn rows(n: u64) -> Vec<JobResult> {
    let row = result_for("lib", CommModel::Dmdp);
    (0..n).map(|i| JobResult { digest: format!("{:016x}", 0xd16e_0000 + i), ..row.clone() }).collect()
}

/// A row's line as `Store::put` appends it.
fn line_of(row: &JobResult) -> String {
    Writer::compact(|w| row.write(w)) + "\n"
}

/// Opens `dir`'s store with its warnings written to a file beside it,
/// and returns the store with the events it logged while opening.
fn open_logged(dir: &Path, cap: Option<u64>) -> (Result<Store, String>, String) {
    let events = dir.with_extension("events");
    std::fs::remove_file(&events).ok();
    let log = EventLog::file(&events, Level::Warn).unwrap();
    let store = Store::open_logged(dir, cap, &log);
    drop(log);
    let text = std::fs::read_to_string(&events).unwrap_or_default();
    std::fs::remove_file(&events).ok();
    (store, text)
}

/// The log's bytes.
fn log_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(LOG_FILE)).unwrap()
}

#[test]
fn round_trips_across_reopen() {
    let dir = tmp_dir("roundtrip");
    let fresh = result_for("lib", CommModel::Dmdp);

    let store = Store::open(&dir, None).unwrap();
    assert!(store.is_empty());
    assert!(store.get(&fresh.digest).is_none(), "miss before put");
    assert!(!dir.join(LOG_FILE).exists(), "opening a store creates no log");
    assert!(store.put(&fresh).unwrap(), "first put writes");
    assert!(!store.put(&fresh).unwrap(), "second put is a no-op");
    let hit = store.get(&fresh.digest).expect("hit after put");
    assert!(hit.cached, "store rows come back marked cached");
    assert!(hit.stats.is_none(), "artifacts keep only the summary");
    assert_eq!(hit.digest, fresh.digest);
    assert_eq!(hit.cycles, fresh.cycles);
    assert_eq!(hit.ipc, fresh.ipc);
    drop(store);
    // The first append created the log: the header, then the row's
    // compact line.
    let expected = format!("{LOG_HEADER}\n{}", line_of(&fresh));
    assert_eq!(String::from_utf8(log_bytes(&dir)).unwrap(), expected);

    // A new process (simulated by reopening) rebuilds the index by
    // scanning the log — the result survives.
    let reopened = Store::open(&dir, None).unwrap();
    assert_eq!(reopened.len(), 1);
    assert!(reopened.contains(&fresh.digest));
    let hit = reopened.get(&fresh.digest).expect("hit across reopen");
    assert_eq!(hit.cycles, fresh.cycles);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash mid-append leaves a torn last line: the next open cuts it off
/// with a warning, keeps every whole row, and the next append starts a
/// line of its own. Stray files in the tree are not rows.
#[test]
fn startup_scan_sweeps_crash_leftovers() {
    let dir = tmp_dir("crash");
    let rows = rows(3);
    {
        let store = Store::open(&dir, None).unwrap();
        store.put(&rows[0]).unwrap();
        store.put(&rows[1]).unwrap();
    }
    let whole = log_bytes(&dir);
    let torn = line_of(&rows[2]);
    let mut log = std::fs::OpenOptions::new().append(true).open(dir.join(LOG_FILE)).unwrap();
    log.write_all(&torn.as_bytes()[..torn.len() / 2]).unwrap();
    std::fs::create_dir_all(dir.join("d1")).unwrap();
    std::fs::write(dir.join("d1").join("README"), "not an entry").unwrap();

    let (store, events) = open_logged(&dir, None);
    let store = store.unwrap();
    assert!(events.contains("\"store_torn_tail\""), "no torn-tail warning in {events:?}");
    assert_eq!(log_bytes(&dir), whole, "the torn line is cut off, whole lines stay");
    assert_eq!(store.len(), 2, "only the whole rows are indexed");
    assert!(store.get(&rows[0].digest).is_some());
    assert!(store.get(&rows[1].digest).is_some());
    assert!(store.get(&rows[2].digest).is_none(), "the torn row is a miss");
    assert!(store.put(&rows[2]).unwrap());
    drop(store);

    let (store, events) = open_logged(&dir, None);
    let store = store.unwrap();
    assert!(events.is_empty(), "a clean log warns of nothing: {events:?}");
    assert_eq!(store.len(), 3);
    for row in &rows {
        assert_eq!(store.get(&row.digest).expect("every row hits").digest, row.digest);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A middle line that is no longer a row is skipped with a warning; the
/// rows on either side still hit, and the lost row can be stored again.
#[test]
fn a_corrupt_middle_line_is_skipped_while_its_neighbours_hit() {
    let dir = tmp_dir("corrupt");
    let rows = rows(3);
    let store = Store::open(&dir, None).unwrap();
    for row in &rows {
        store.put(row).unwrap();
    }
    drop(store);
    // Garble the middle row's line in place, newline kept.
    let middle = line_of(&rows[1]);
    let offset = (LOG_HEADER.len() + 1 + line_of(&rows[0]).len()) as u64;
    let garbage = "\u{1}".repeat(middle.len() - 1);
    let log = std::fs::OpenOptions::new().write(true).open(dir.join(LOG_FILE)).unwrap();
    log.write_all_at(garbage.as_bytes(), offset).unwrap();

    let (store, events) = open_logged(&dir, None);
    let store = store.unwrap();
    assert!(events.contains("\"store_corrupt_line\""), "no corrupt-line warning in {events:?}");
    assert!(events.contains(&format!("\"offset\":{offset}")), "the warning names the line: {events:?}");
    assert_eq!(store.len(), 2);
    assert!(store.get(&rows[0].digest).is_some(), "the line before hits");
    assert!(store.get(&rows[2].digest).is_some(), "the line after hits");
    assert!(store.get(&rows[1].digest).is_none(), "the garbled row is a miss");
    assert!(store.put(&rows[1]).unwrap(), "the lost row is appended again");
    assert!(store.get(&rows[1].digest).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// A line whose bytes no longer hold its digest's row (here: another
/// digest's row written over it) is never served: the lookup is a miss
/// that drops the entry, and the log itself is left as it is.
#[test]
fn a_row_filed_under_another_digest_is_a_corrupt_entry() {
    let dir = tmp_dir("misfiled");
    let rows = rows(2);
    let (kept, other) = (&rows[0], &rows[1]);
    let store = Store::open(&dir, None).unwrap();
    store.put(kept).unwrap();
    store.put(other).unwrap();
    // `other`'s digest over `kept`'s line: the same length, a valid row,
    // the wrong digest.
    let forged = line_of(&JobResult { digest: other.digest.clone(), ..kept.clone() });
    assert_eq!(forged.len(), line_of(kept).len());
    let log = std::fs::OpenOptions::new().write(true).open(dir.join(LOG_FILE)).unwrap();
    log.write_all_at(forged.as_bytes(), LOG_HEADER.len() as u64 + 1).unwrap();
    let before = log_bytes(&dir);

    let misses = store.stats().misses;
    assert!(store.get(&kept.digest).is_none(), "a misfiled row is never served");
    assert_eq!(store.stats().misses, misses + 1, "it counts as a miss");
    assert!(!store.contains(&kept.digest), "a misfiled entry leaves the index");
    assert_eq!(store.stats().bytes, line_of(other).len() as u64);
    assert_eq!(log_bytes(&dir), before, "the log is append-only: nothing is deleted");
    let hit = store.get(&other.digest).expect("the row under its own digest still serves");
    assert_eq!(hit.digest, other.digest);
    assert!(store.put(kept).unwrap(), "the dropped row is appended again");
    assert_eq!(store.get(&kept.digest).expect("and hits").digest, kept.digest);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_row_hits_after_a_reopen_following_appends() {
    let dir = tmp_dir("appends");
    let rows = rows(40);
    // Three writers in turn, each appending to what the last one left.
    for chunk in rows.chunks(15) {
        let store = Store::open(&dir, None).unwrap();
        for row in chunk {
            assert!(store.put(row).unwrap());
        }
    }
    let store = Store::open(&dir, None).unwrap();
    assert_eq!(store.len(), rows.len());
    let line_bytes: usize = rows.iter().map(|r| line_of(r).len()).sum();
    assert_eq!(store.stats().bytes, line_bytes as u64);
    assert_eq!(log_bytes(&dir).len(), LOG_HEADER.len() + 1 + line_bytes, "one header, one line per row");
    for row in &rows {
        let hit = store.get(&row.digest).expect("every row hits");
        assert_eq!((hit.digest.as_str(), hit.cycles), (row.digest.as_str(), row.cycles));
    }
    assert_eq!(store.stats().hits, rows.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

/// A log that does not begin with this store format's header is not
/// ours: the open fails naming the file, and the file is left as it is.
#[test]
fn a_foreign_header_is_refused_naming_the_file() {
    let dir = tmp_dir("foreign");
    for text in [&b"{\"store\":\"dmdp-rows\",\"format\":2}\n"[..], b"hello\nworld\n", b"no newline"] {
        std::fs::write(dir.join(LOG_FILE), text).unwrap();
        let Err(e) = Store::open(&dir, None) else { panic!("{text:?} was opened as a row log") };
        assert!(e.contains(&dir.join(LOG_FILE).display().to_string()), "{e}");
        assert!(e.contains(LOG_HEADER), "{e}");
        assert_eq!(log_bytes(&dir), text, "a refused log is never touched");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The per-row files of the older layout are not read, moved or
/// deleted: the open warns about them, and their rows are misses.
#[test]
fn an_old_per_row_tree_is_ignored_with_a_warning_and_left_on_disk() {
    let dir = tmp_dir("legacy");
    let row = result_for("mcf", CommModel::Baseline);
    let old = dir.join(&row.digest[..2]).join(format!("{}.json", row.digest));
    std::fs::create_dir_all(old.parent().unwrap()).unwrap();
    std::fs::write(&old, Writer::pretty(|w| row.write(w))).unwrap();

    let (store, events) = open_logged(&dir, None);
    let store = store.unwrap();
    assert!(events.contains("\"store_legacy_rows\""), "no warning in {events:?}");
    assert!(events.contains("\"rows\":1"), "the warning counts the rows: {events:?}");
    assert!(store.is_empty());
    assert!(store.get(&row.digest).is_none(), "an old row file is a miss");
    assert!(old.exists(), "the old tree stays on disk");
    assert!(store.put(&row).unwrap(), "the row re-simulates into the log");
    assert!(store.get(&row.digest).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cap_compaction_at_open_keeps_the_newest_rows_that_fit() {
    let dir = tmp_dir("cap");
    let rows = rows(5);
    let line = line_of(&rows[0]).len() as u64;
    {
        let store = Store::open(&dir, None).unwrap();
        for row in &rows {
            store.put(row).unwrap();
        }
        assert_eq!(store.stats().evictions, 0);
    }
    // An open under a cap that holds the log changes nothing.
    let before = log_bytes(&dir);
    let store = Store::open(&dir, Some(5 * line)).unwrap();
    assert_eq!((store.len(), store.stats().evictions), (5, 0));
    drop(store);
    assert_eq!(log_bytes(&dir), before);

    // Room for two rows and change: the two newest stay, in log order.
    let store = Store::open(&dir, Some(line * 5 / 2)).unwrap();
    let stats = store.stats();
    assert_eq!((stats.entries, stats.evictions, stats.bytes), (2, 3, 2 * line));
    for row in &rows[..3] {
        assert!(store.get(&row.digest).is_none(), "an older row was dropped");
    }
    for row in &rows[3..] {
        assert!(store.get(&row.digest).is_some(), "a newest row was kept");
    }
    // Rows appended after the open are kept until the next one.
    assert!(store.put(&rows[0]).unwrap());
    assert_eq!(store.len(), 3);
    drop(store);
    let expected = format!("{LOG_HEADER}\n{}{}{}", line_of(&rows[3]), line_of(&rows[4]), line_of(&rows[0]));
    assert_eq!(String::from_utf8(log_bytes(&dir)).unwrap(), expected, "the log is rewritten");
    assert!(!dir.join("rows.log.compact").exists());

    let reopened = Store::open(&dir, None).unwrap();
    assert_eq!(reopened.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// Threads of the one writer racing to store one digest append it once.
#[test]
fn concurrent_writers_of_one_digest_agree() {
    let dir = tmp_dir("racers");
    let fresh = result_for("hmmer", CommModel::Dmdp);
    let store = Store::open(&dir, None).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| store.put(&fresh).expect("concurrent put must not error"));
        }
    });
    assert_eq!(store.len(), 1, "eight writers, one entry");
    let hit = store.get(&fresh.digest).expect("entry parses after the race");
    assert_eq!(hit.cycles, fresh.cycles);
    let stats = store.stats();
    assert_eq!((stats.entries, stats.writes), (1, 1));
    // One line in the log, and the byte count is its length.
    assert_eq!(String::from_utf8(log_bytes(&dir)).unwrap(), format!("{LOG_HEADER}\n{}", line_of(&fresh)));
    assert_eq!(stats.bytes, line_of(&fresh).len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn blobs_ride_the_tree_without_joining_the_index() {
    let dir = tmp_dir("blobs");
    let store = Store::open(&dir, None).unwrap();
    let blobs = store.blobs();
    let digest = "00c0ffee00c0ffee";
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    assert!(blobs.get_blob(digest).is_none(), "miss before put");
    assert!(blobs.put_blob(digest, &payload).unwrap(), "first put writes");
    assert!(!blobs.put_blob(digest, &payload).unwrap(), "second put is a no-op");
    assert_eq!(blobs.get_blob(digest).unwrap(), payload);
    assert!(blobs.put_blob("not a digest!!", &payload).is_err());
    assert!(blobs.get_blob("not a digest!!").is_none());
    // Blobs are invisible to the result index and its byte accounting.
    assert!(store.is_empty(), "blobs are not index entries");
    assert_eq!(store.stats().bytes, 0, "blob bytes never count against the cap");
    assert!(!dir.join(LOG_FILE).exists(), "blobs never create the row log");
    drop(store);

    // Blobs survive a reopen (still outside the index), and a crashed
    // blob writer's temporary is swept by the open.
    let tmp = dir.join(&digest[..2]).join(format!("{digest}.ckpt.tmp.3"));
    std::fs::write(&tmp, b"half a blob").unwrap();
    let reopened = Store::open(&dir, None).unwrap();
    assert!(!tmp.exists(), "blob temporaries are swept on startup");
    assert_eq!(reopened.len(), 0);
    assert_eq!(reopened.blobs().get_blob(digest).unwrap(), payload);
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoint blobs share the tree but never the log, so compacting a
/// capped store never touches them, however far it overflows.
#[test]
fn eviction_never_touches_ckpt_blobs() {
    let dir = tmp_dir("ckpt");
    let rows = rows(4);
    let line = line_of(&rows[0]).len() as u64;
    let blob_digest = "feedfacefeedface";
    {
        let store = Store::open(&dir, None).unwrap();
        store.blobs().put_blob(blob_digest, &[7u8; 2048]).unwrap();
        for r in &rows {
            store.put(r).unwrap();
        }
    }
    let store = Store::open(&dir, Some(line * 5 / 2)).unwrap();
    assert!(store.stats().evictions >= 2, "the cap dropped rows");
    assert_eq!(
        store.blobs().get_blob(blob_digest).unwrap(),
        vec![7u8; 2048],
        "checkpoint blobs never count against the cap and are never dropped"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A read that fails (here: the log cut short behind the writer's back,
/// standing in for an `EIO`) is a miss that keeps the entry: the row may
/// be perfectly good, and the next lookup finds it.
#[test]
fn a_failed_read_misses_without_dropping_the_entry() {
    let dir = tmp_dir("readerr");
    let fresh = result_for("lib", CommModel::Dmdp);
    let store = Store::open(&dir, None).unwrap();
    store.put(&fresh).unwrap();
    let whole = log_bytes(&dir);
    let log = std::fs::OpenOptions::new().write(true).open(dir.join(LOG_FILE)).unwrap();
    log.set_len(LOG_HEADER.len() as u64 + 1).unwrap();

    assert!(store.get(&fresh.digest).is_none(), "an unreadable entry misses");
    assert!(store.contains(&fresh.digest), "an unreadable entry stays indexed");
    assert_eq!(store.stats().bytes, line_of(&fresh).len() as u64);

    log.write_all_at(&whole, 0).unwrap();
    let hit = store.get(&fresh.digest).expect("the restored entry hits");
    assert_eq!(hit.cycles, fresh.cycles);
    std::fs::remove_dir_all(&dir).ok();
}

/// A store directory has one row writer, so the index says which rows
/// exist: a line appended to the log after `open` is a miss, read from
/// nowhere and left where it is, until a reopen's scan indexes it.
#[test]
fn a_row_placed_after_open_is_a_miss_until_a_reopen() {
    let dir = tmp_dir("unindexed");
    let rows = rows(2);
    let store = Store::open(&dir, None).unwrap();
    store.put(&rows[0]).unwrap();
    let mut log = std::fs::OpenOptions::new().append(true).open(dir.join(LOG_FILE)).unwrap();
    log.write_all(line_of(&rows[1]).as_bytes()).unwrap();
    let placed = log_bytes(&dir);

    assert!(store.get(&rows[1].digest).is_none(), "an un-indexed row is a miss");
    assert_eq!(store.stats().misses, 1);
    assert!(!store.contains(&rows[1].digest), "a miss indexes nothing");
    assert_eq!(log_bytes(&dir), placed, "a miss leaves the log as it is");
    drop(store);

    let reopened = Store::open(&dir, None).unwrap();
    let hit = reopened.get(&rows[1].digest).expect("the reopen's scan indexed the row");
    assert_eq!(hit.cycles, rows[1].cycles);
    std::fs::remove_dir_all(&dir).ok();
}

/// The row `store` serves for `want`'s digest must be `want`'s, if it
/// serves one at all.
fn right_row_or_none(store: &Store, want: &JobResult) -> bool {
    let Some(hit) = store.get(&want.digest) else { return false };
    assert_eq!((hit.digest.as_str(), hit.cycles), (want.digest.as_str(), want.cycles), "a wrong row was served");
    true
}

/// Campaigns write a store by default, so two runs started in one
/// directory are two writers. The log's first writer and a handle opened
/// once the log existed append in turn: each append lands at the log's
/// true end, while each handle's index places it where that handle last
/// saw the end. Every line has one length, so a misplaced entry reads
/// another digest's whole row, and the digest check turns it into a miss.
/// A reopen's scan indexes every row both appended.
#[test]
fn a_second_writer_costs_misses_never_a_wrong_row() {
    let dir = tmp_dir("two-writers");
    let rows = rows(6);
    let first = Store::open(&dir, None).unwrap();
    assert!(first.put(&rows[0]).unwrap());
    let second = Store::open(&dir, None).unwrap();
    for (i, row) in rows.iter().enumerate().skip(1) {
        let writer = if i % 2 == 1 { &first } else { &second };
        assert!(writer.put(row).unwrap(), "row {i} is appended");
    }
    for store in [&first, &second] {
        for row in &rows {
            right_row_or_none(store, row);
        }
    }
    assert!(right_row_or_none(&first, &rows[0]) && right_row_or_none(&second, &rows[0]), "a row both indexed at open hits");
    assert!(right_row_or_none(&first, &rows[1]), "the first writer's append before the second's hits");
    assert!(!right_row_or_none(&first, &rows[3]), "an entry the other writer's append moved is a miss");
    drop((first, second));

    let reopened = Store::open(&dir, None).unwrap();
    assert_eq!(reopened.len(), rows.len(), "the reopen indexes every row both appended");
    for row in &rows {
        assert!(right_row_or_none(&reopened, row), "every row hits after the reopen");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A handle opened before the log existed cannot create it once another
/// writer has (`create_new`): its append fails naming the log and writes
/// nothing, and it serves no row, so its jobs re-simulate.
#[test]
fn a_writer_opened_before_the_log_existed_gets_an_error_after_another_creates_it() {
    let dir = tmp_dir("late-create");
    let rows = rows(2);
    let early = Store::open(&dir, None).unwrap();
    let creator = Store::open(&dir, None).unwrap();
    assert!(creator.put(&rows[0]).unwrap());
    let log = log_bytes(&dir);

    let e = early.put(&rows[1]).expect_err("the log exists, so the late handle cannot create it");
    assert!(e.contains(&dir.join(LOG_FILE).display().to_string()), "{e}");
    assert!(early.put(&rows[0]).is_err(), "every later append fails the same way");
    assert_eq!(log_bytes(&dir), log, "a refused append writes nothing");
    for row in &rows {
        assert!(!right_row_or_none(&early, row), "the late handle indexes nothing");
    }
    assert!(right_row_or_none(&creator, &rows[0]));
    drop((early, creator));
    assert_eq!(Store::open(&dir, None).unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A handle that lost the race to create the log warns once however
/// many appends it refuses: `Store::publish` logs a failure only when it
/// differs from the one the handle logged last.
#[test]
fn a_losing_handle_warns_once_for_its_refused_appends() {
    let dir = tmp_dir("late-warn");
    let rows = rows(3);
    let early = Store::open(&dir, None).unwrap();
    assert!(Store::open(&dir, None).unwrap().put(&rows[0]).unwrap());
    let events = dir.with_extension("events");
    std::fs::remove_file(&events).ok();
    let log = EventLog::file(&events, Level::Warn).unwrap();
    early.publish(&rows[1], &log);
    early.publish(&rows[2], &log);
    drop(log);
    let text = std::fs::read_to_string(&events).unwrap();
    let warnings: Vec<&str> = text.lines().filter(|l| l.contains("store_write_failed")).collect();
    assert_eq!(warnings.len(), 1, "two refused appends, one warning:\n{text}");
    assert!(warnings[0].contains(&rows[1].digest) && warnings[0].contains(LOG_FILE), "{text}");
    assert_eq!(Store::open(&dir, None).unwrap().len(), 1, "a refused append writes nothing");
    std::fs::remove_file(&events).ok();
    std::fs::remove_dir_all(&dir).ok();
}
