//! Integration tests for the campaign engine's core claims:
//!
//! 1. **Determinism** — the same campaign produces bit-identical
//!    `SimStats` whether it runs serially (`jobs = 1`) or on a
//!    work-stealing pool (`jobs = 4`).
//! 2. **Artifact round-trip** — a campaign written to JSON and read
//!    back preserves every summary field.
//! 3. **Result store** — re-running an unchanged campaign on its store
//!    executes zero jobs; changing the configuration invalidates exactly
//!    the affected rows; a store that will not open only costs the
//!    re-simulation.

use dmdp_core::CommModel;
use dmdp_harness::store::{LOG_FILE, LOG_HEADER};
use dmdp_harness::{Campaign, CampaignSpec, CfgPatch, RunOptions};
use dmdp_workloads::Scale;

fn small_spec(name: &str) -> CampaignSpec {
    CampaignSpec::new(name, Scale::Test)
        .models([CommModel::Baseline, CommModel::NoSq, CommModel::Dmdp])
        .kernels(["lib", "hmmer", "mcf", "bwaves"])
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dmdp-harness-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn parallel_equals_serial_bit_for_bit() {
    let serial = small_spec("det")
        .run(&RunOptions { jobs: 1, ..RunOptions::default() })
        .unwrap();
    let parallel = small_spec("det")
        .run(&RunOptions { jobs: 4, ..RunOptions::default() })
        .unwrap();
    assert_eq!(serial.jobs.len(), 12);
    assert_eq!(serial.jobs.len(), parallel.jobs.len());
    for (s, p) in serial.jobs.iter().zip(&parallel.jobs) {
        assert_eq!(s.workload, p.workload);
        assert_eq!(s.model, p.model);
        assert_eq!(s.digest, p.digest);
        // The complete statistics structs must match bit for bit — every
        // counter, histogram bucket and energy count.
        assert_eq!(
            s.stats.as_ref().unwrap(),
            p.stats.as_ref().unwrap(),
            "{} × {} diverged between serial and parallel execution",
            s.workload,
            s.model.name()
        );
        assert_eq!(s.ipc.to_bits(), p.ipc.to_bits());
        assert_eq!(s.cycles, p.cycles);
    }
}

#[test]
fn artifact_round_trips_through_json() {
    let campaign = small_spec("roundtrip")
        .run(&RunOptions { jobs: 2, ..RunOptions::default() })
        .unwrap();
    let dir = tmp_dir("roundtrip");
    let path = dir.join("campaign.json");
    campaign.save(&path).unwrap();
    let back = Campaign::load(&path).unwrap();

    assert_eq!(back.name, campaign.name);
    assert_eq!(back.scale, campaign.scale);
    assert_eq!(back.sim_version, campaign.sim_version);
    assert_eq!(back.jobs.len(), campaign.jobs.len());
    for (a, b) in campaign.jobs.iter().zip(&back.jobs) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.suite, b.suite);
        assert_eq!(a.model, b.model);
        assert_eq!(a.variant, b.variant);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.retired_insns, b.retired_insns);
        assert_eq!(a.retired_uops, b.retired_uops);
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "ipc must survive textual round-trip");
        assert_eq!(a.mem_dep_mpki.to_bits(), b.mem_dep_mpki.to_bits());
        assert_eq!(a.load_mean_latency.to_bits(), b.load_mean_latency.to_bits());
        assert_eq!(a.branch_mispredicts, b.branch_mispredicts);
        assert_eq!(a.mem_dep_mispredicts, b.mem_dep_mispredicts);
        assert_eq!(a.reexecutions, b.reexecutions);
        assert!(b.stats.is_none());
    }
    // Derived aggregates agree when recomputed from the loaded rows.
    for model in campaign.models() {
        for suite in [dmdp_workloads::Suite::Int, dmdp_workloads::Suite::Fp] {
            assert_eq!(
                campaign.geomean_ipc(model, suite).map(f64::to_bits),
                back.geomean_ipc(model, suite).map(f64::to_bits)
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Options for a run on the store at `store`.
fn on_store(jobs: usize, store: &std::path::Path) -> RunOptions {
    RunOptions { jobs, store: Some(store.to_path_buf()), ..RunOptions::default() }
}

#[test]
fn unchanged_campaign_hits_the_cache_completely() {
    let dir = tmp_dir("cache");
    let store = dir.join("store");

    let first = small_spec("cache").run(&on_store(2, &store)).unwrap();
    assert_eq!(first.executed, 12);
    assert_eq!(first.cached, 0);

    // Identical spec, same store: every digest matches, zero runs.
    let second = small_spec("cache").run(&on_store(2, &store)).unwrap();
    assert_eq!(second.executed, 0, "unchanged campaign must execute zero jobs");
    assert_eq!(second.cached, 12);
    for (a, b) in first.jobs.iter().zip(&second.jobs) {
        assert!(b.cached);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
    }

    // A config change invalidates every row (new digests).
    let patched = small_spec("cache")
        .variants([("rob128".to_string(), CfgPatch { rob: Some(128), ..CfgPatch::default() })])
        .run(&on_store(2, &store))
        .unwrap();
    assert_eq!(patched.executed, 12, "a changed config must miss the store");
    assert_eq!(patched.cached, 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unusable_cache_artifact_warns_and_recomputes() {
    let dir = tmp_dir("foreign");
    let store = dir.join("store");
    let log = store.join(LOG_FILE);
    std::fs::create_dir_all(&store).unwrap();

    // A row log of another store format must not abort the campaign, and
    // must not be appended to either: the campaign runs every job without
    // the store and says why, naming the file.
    let foreign = "{\"store\":\"dmdp-rows\",\"format\":99}\n{\"not\":\"a row\"}\n";
    std::fs::write(&log, foreign).unwrap();
    let spec = CampaignSpec::new("foreign", Scale::Test)
        .models([CommModel::Dmdp])
        .kernels(["lib", "mcf"]);
    let campaign = spec.run(&on_store(1, &store)).expect("a foreign row log must degrade to a cold run, not an error");
    assert_eq!(campaign.executed, 2);
    assert_eq!(campaign.cached, 0);
    let warning = campaign.cache_warning.as_deref().expect("warning recorded");
    assert!(warning.contains(&log.display().to_string()), "{warning}");
    assert!(warning.contains(LOG_HEADER), "{warning}");
    assert!(warning.contains("running every job"), "{warning}");
    assert_eq!(std::fs::read_to_string(&log).unwrap(), foreign, "a foreign log is never touched");

    // Once the file is gone, the store opens and warns of nothing.
    std::fs::remove_file(&log).unwrap();
    let healthy = spec.run(&on_store(1, &store)).unwrap();
    assert_eq!((healthy.executed, healthy.cache_warning.as_deref()), (2, None));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_is_keyed_by_content_not_position() {
    let dir = tmp_dir("content");
    let store = dir.join("store");
    let full = small_spec("content").run(&on_store(2, &store)).unwrap();
    assert_eq!(full.executed, 12);

    // A *subset* campaign in a different order still hits: digests are
    // content-addressed, not positional.
    let subset = CampaignSpec::new("content", Scale::Test)
        .models([CommModel::Dmdp, CommModel::Baseline])
        .kernels(["bwaves", "lib"])
        .run(&on_store(2, &store))
        .unwrap();
    assert_eq!(subset.jobs.len(), 4);
    assert_eq!(subset.executed, 0);
    assert_eq!(subset.cached, 4);

    std::fs::remove_dir_all(&dir).ok();
}
