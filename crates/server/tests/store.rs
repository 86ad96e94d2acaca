//! Persistence tests for the content-addressed result store: round
//! trips across reopen, crash-leftover sweeping, concurrent writers of
//! one digest, LRU size-cap eviction, and an index that is the truth
//! about which rows exist, since a store directory has one row writer.

use std::path::PathBuf;
use std::sync::Arc;

use dmdp_core::{CommModel, CoreConfig};
use dmdp_harness::{JobResult, JobSpec, PlannedImage, Writer};
use dmdp_server::Store;
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

#[test]
fn round_trips_across_reopen() {
    let dir = tmp_dir("roundtrip");
    let fresh = result_for("lib", CommModel::Dmdp);

    let store = Store::open(&dir, None).unwrap();
    assert!(store.is_empty());
    assert!(store.get(&fresh.digest).is_none(), "miss before put");
    assert!(store.put(&fresh).unwrap(), "first put writes");
    assert!(!store.put(&fresh).unwrap(), "second put is a no-op");
    let hit = store.get(&fresh.digest).expect("hit after put");
    assert!(hit.cached, "store rows come back marked cached");
    assert!(hit.stats.is_none(), "artifacts keep only the summary");
    assert_eq!(hit.digest, fresh.digest);
    assert_eq!(hit.cycles, fresh.cycles);
    assert_eq!(hit.ipc, fresh.ipc);
    drop(store);

    // A new process (simulated by reopening) rebuilds the index by
    // scanning the tree — the result survives.
    let reopened = Store::open(&dir, None).unwrap();
    assert_eq!(reopened.len(), 1);
    assert!(reopened.contains(&fresh.digest));
    let hit = reopened.get(&fresh.digest).expect("hit across reopen");
    assert_eq!(hit.cycles, fresh.cycles);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn startup_scan_sweeps_crash_leftovers() {
    let dir = tmp_dir("crash");
    let fresh = result_for("mcf", CommModel::Baseline);
    {
        let store = Store::open(&dir, None).unwrap();
        store.put(&fresh).unwrap();
    }
    // Simulate a writer that died mid-put: a temporary next to the real
    // entry, plus stray files that are not store entries at all.
    let shard = dir.join(&fresh.digest[..2]);
    let tmp = shard.join(format!("{}.json.tmp.7", fresh.digest));
    std::fs::write(&tmp, "{\"half\": writ").unwrap();
    std::fs::write(shard.join("README"), "not an entry").unwrap();
    std::fs::write(shard.join("UPPERCASE0DIGEST.json"), "{}").unwrap();

    let store = Store::open(&dir, None).unwrap();
    assert!(!tmp.exists(), "crash leftovers are swept on startup");
    assert_eq!(store.len(), 1, "only the real entry is indexed");
    assert!(store.get(&fresh.digest).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

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
    assert_eq!(stats.entries, 1);
    assert!(stats.writes >= 1);
    // Byte accounting survived any double-insert: the index total equals
    // the one file's size.
    let on_disk = std::fs::metadata(store.path_of(&fresh.digest)).unwrap().len();
    assert_eq!(stats.bytes, on_disk);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn blobs_ride_the_tree_without_joining_the_index() {
    let dir = tmp_dir("blobs");
    let store = Store::open(&dir, None).unwrap();
    let digest = "00c0ffee00c0ffee";
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    assert!(store.get_blob(digest).is_none(), "miss before put");
    assert!(store.put_blob(digest, &payload).unwrap(), "first put writes");
    assert!(!store.put_blob(digest, &payload).unwrap(), "second put is a no-op");
    assert_eq!(store.get_blob(digest).unwrap(), payload);
    assert!(store.put_blob("not a digest!!", &payload).is_err());
    assert!(store.get_blob("not a digest!!").is_none());
    // Blobs are invisible to the result index and its byte accounting.
    assert!(store.is_empty(), "blobs are not index entries");
    assert_eq!(store.stats().bytes, 0, "blob bytes never count against the LRU cap");
    drop(store);

    // Blobs survive a reopen (still outside the index), and a crashed
    // blob writer's temporary is swept by the same startup pass that
    // cleans result temporaries.
    let tmp = dir.join(&digest[..2]).join(format!("{digest}.ckpt.tmp.3"));
    std::fs::write(&tmp, b"half a blob").unwrap();
    let reopened = Store::open(&dir, None).unwrap();
    assert!(!tmp.exists(), "blob temporaries are swept on startup");
    assert_eq!(reopened.len(), 0);
    assert_eq!(reopened.get_blob(digest).unwrap(), payload);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn size_cap_evicts_least_recently_used() {
    let dir = tmp_dir("lru");
    let results: Vec<JobResult> = [
        ("lib", CommModel::Baseline),
        ("lib", CommModel::Dmdp),
        ("mcf", CommModel::Baseline),
        ("mcf", CommModel::Dmdp),
    ]
    .into_iter()
    .map(|(k, m)| result_for(k, m))
    .collect();
    let entry_bytes = Writer::pretty(|w| results[0].write(w)).len() as u64;
    // Room for two entries and change — never four.
    let cap = entry_bytes * 5 / 2;

    let store = Store::open(&dir, Some(cap)).unwrap();
    for r in &results {
        store.put(r).unwrap();
    }
    assert!(store.len() <= 2, "cap holds at most two entries");
    assert!(
        store.contains(&results[3].digest),
        "the most recently written entry is never the victim"
    );
    assert!(!store.contains(&results[0].digest), "the oldest entry was evicted");
    assert!(
        !store.path_of(&results[0].digest).exists(),
        "eviction deletes the file, not just the index entry"
    );
    assert!(store.stats().evictions >= 2);

    // Touching an entry protects it from the next eviction round.
    let keep = &results[2];
    if store.contains(&keep.digest) {
        store.get(&keep.digest).unwrap();
        store.put(&result_for("hmmer", CommModel::Dmdp)).unwrap();
        assert!(store.contains(&keep.digest), "recently-read entry survives");
    }

    // Reopening under the same cap keeps the tree within it.
    drop(store);
    let reopened = Store::open(&dir, Some(cap)).unwrap();
    assert!(reopened.stats().bytes <= cap);
    std::fs::remove_dir_all(&dir).ok();
}

/// A store directory has one row writer, so the index says which rows
/// exist: a row file that appears in the tree after `open` is a miss,
/// read from nowhere and left where it is, until a reopen's scan
/// indexes it.
#[test]
fn a_row_placed_after_open_is_a_miss_until_a_reopen() {
    let dir = tmp_dir("unindexed");
    let row = result_for("lib", CommModel::Dmdp);
    let store = Store::open(&dir, None).unwrap();
    let path = store.path_of(&row.digest);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, Writer::pretty(|w| row.write(w))).unwrap();

    assert!(store.get(&row.digest).is_none(), "an un-indexed row is a miss");
    assert_eq!(store.stats().misses, 1);
    assert!(!store.contains(&row.digest), "a miss indexes nothing");
    assert!(path.exists(), "a miss leaves the file in place");
    drop(store);

    let reopened = Store::open(&dir, None).unwrap();
    let hit = reopened.get(&row.digest).expect("the reopen's scan indexed the row");
    assert_eq!(hit.cycles, row.cycles);
    std::fs::remove_dir_all(&dir).ok();
}

/// A victim whose file has vanished (deleted behind the store's back)
/// just leaves the index: ENOENT is the outcome eviction wanted.
#[test]
fn eviction_drops_a_victim_whose_file_vanished() {
    let dir = tmp_dir("enoent");
    let results: Vec<JobResult> = [
        ("lib", CommModel::Baseline),
        ("lib", CommModel::Dmdp),
        ("mcf", CommModel::Baseline),
        ("mcf", CommModel::Dmdp),
    ]
    .into_iter()
    .map(|(k, m)| result_for(k, m))
    .collect();
    let entry_bytes = Writer::pretty(|w| results[0].write(w)).len() as u64;
    let store = Store::open(&dir, Some(entry_bytes * 5 / 2)).unwrap();
    store.put(&results[0]).unwrap();
    store.put(&results[1]).unwrap();
    // The LRU entry's file disappears from under the index.
    std::fs::remove_file(store.path_of(&results[0].digest)).unwrap();
    // Overflow the cap: results[0] is the LRU victim, its file is gone.
    store.put(&results[2]).unwrap();
    store.put(&results[3]).unwrap();
    assert!(!store.contains(&results[0].digest), "the gone victim left the index");
    assert!(store.contains(&results[3].digest), "later puts landed normally");
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoint blobs share the tree but never the index, so a capped
/// store never evicts them, however far it overflows.
#[test]
fn eviction_never_touches_ckpt_blobs() {
    let dir = tmp_dir("ckpt");
    let results: Vec<JobResult> = [
        ("lib", CommModel::Baseline),
        ("lib", CommModel::Dmdp),
        ("mcf", CommModel::Baseline),
        ("mcf", CommModel::Dmdp),
    ]
    .into_iter()
    .map(|(k, m)| result_for(k, m))
    .collect();
    let entry_bytes = Writer::pretty(|w| results[0].write(w)).len() as u64;
    let store = Store::open(&dir, Some(entry_bytes * 5 / 2)).unwrap();
    let blob_digest = "feedfacefeedface";
    store.put_blob(blob_digest, &[7u8; 2048]).unwrap();
    for r in &results {
        store.put(r).unwrap();
    }
    assert!(store.stats().evictions >= 2, "the cap evicted rows");
    assert_eq!(
        store.get_blob(blob_digest).unwrap(),
        vec![7u8; 2048],
        "checkpoint blobs never count against the cap and are never evicted"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A read that fails for any reason but absence (here `EISDIR`, standing
/// in for `EMFILE` or `EIO`) is a miss that keeps the entry: the row on
/// disk may be perfectly good, and the next lookup finds it.
#[test]
fn a_failed_read_misses_without_dropping_the_entry() {
    let dir = tmp_dir("readerr");
    let fresh = result_for("lib", CommModel::Dmdp);
    let store = Store::open(&dir, None).unwrap();
    store.put(&fresh).unwrap();
    let path = store.path_of(&fresh.digest);
    let text = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    std::fs::create_dir(&path).unwrap();

    assert!(store.get(&fresh.digest).is_none(), "an unreadable entry misses");
    assert!(store.contains(&fresh.digest), "an unreadable entry stays indexed");
    assert!(path.is_dir(), "an unreadable entry is not deleted");

    std::fs::remove_dir(&path).unwrap();
    std::fs::write(&path, text).unwrap();
    let hit = store.get(&fresh.digest).expect("the restored entry hits");
    assert_eq!(hit.cycles, fresh.cycles);
    std::fs::remove_dir_all(&dir).ok();
}

/// A file that has vanished, or whose contents no longer parse as a row,
/// leaves the index.
#[test]
fn a_vanished_or_corrupt_entry_leaves_the_index() {
    let dir = tmp_dir("corrupt");
    let gone = result_for("lib", CommModel::Dmdp);
    let bad = result_for("mcf", CommModel::Dmdp);
    let store = Store::open(&dir, None).unwrap();
    store.put(&gone).unwrap();
    store.put(&bad).unwrap();
    std::fs::remove_file(store.path_of(&gone.digest)).unwrap();
    std::fs::write(store.path_of(&bad.digest), b"{\"digest\": \xff").unwrap();

    assert!(store.get(&gone.digest).is_none());
    assert!(!store.contains(&gone.digest), "a vanished entry leaves the index");
    assert!(store.get(&bad.digest).is_none());
    assert!(!store.contains(&bad.digest), "a corrupt entry leaves the index");
    assert!(!store.path_of(&bad.digest).exists(), "a corrupt entry's file is deleted");
    assert_eq!(store.stats().bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_row_filed_under_another_digest_is_a_corrupt_entry() {
    let dir = tmp_dir("misfiled");
    let kept = result_for("lib", CommModel::Dmdp);
    let other = result_for("mcf", CommModel::Dmdp);
    let store = Store::open(&dir, None).unwrap();
    store.put(&kept).unwrap();
    store.put(&other).unwrap();
    // The file is written exactly as `put` writes it: the pretty row.
    let stored = std::fs::read_to_string(store.path_of(&kept.digest)).unwrap();
    assert_eq!(stored, Writer::pretty(|w| kept.write(w)));
    // `other`'s row, copied over `kept`'s file, parses as a row but
    // answers for the wrong digest: a miss that drops the entry.
    std::fs::copy(store.path_of(&other.digest), store.path_of(&kept.digest)).unwrap();
    let misses = store.stats().misses;
    assert!(store.get(&kept.digest).is_none(), "a misfiled row is never served");
    assert_eq!(store.stats().misses, misses + 1, "it counts as a miss");
    assert!(!store.contains(&kept.digest), "a misfiled entry leaves the index");
    assert!(!store.path_of(&kept.digest).exists(), "a misfiled entry's file is deleted");
    let hit = store.get(&other.digest).expect("the row under its own digest still serves");
    assert_eq!(hit.digest, other.digest);
    std::fs::remove_dir_all(&dir).ok();
}
