//! End-to-end sampled-simulation accuracy, artifact round-trips and
//! sampled campaigns on a result store.

use dmdp_core::CommModel;
use dmdp_harness::{Campaign, CampaignSpec, Parser, RunOptions, Writer};
use dmdp_workloads::Scale;

fn opts() -> RunOptions {
    RunOptions { jobs: 2, ..RunOptions::default() }
}

#[test]
fn sampled_campaign_estimates_full_ipc() {
    let kernels = ["lib", "mcf", "bwaves"];
    let full = CampaignSpec::new("full", Scale::Test)
        .kernels(kernels)
        .run(&opts())
        .unwrap();
    let sampled = CampaignSpec::new("sampled", Scale::Test)
        .kernels(kernels)
        .sampled(1000, 2)
        .run(&opts())
        .unwrap();
    assert_eq!(sampled.jobs.len(), full.jobs.len());
    for (s, f) in sampled.jobs.iter().zip(&full.jobs) {
        assert_eq!(s.workload, f.workload);
        assert_eq!(s.model, f.model);
        assert!(s.sampled && !f.sampled);
        assert_ne!(s.digest, f.digest, "sampled digests must not collide with full");
        assert!(s.intervals_simulated > 0);
        assert!(s.intervals_simulated <= s.intervals_total);
        // Accuracy at test scale with the tuned knobs (interval 1000,
        // warmup 2 — the ci.sh smoke holds one kernel to ≤ 2%).
        let err = (s.ipc - f.ipc) / f.ipc * 100.0;
        assert!(
            err.abs() < 3.0,
            "{} × {}: sampled IPC {:.4} vs full {:.4} ({err:+.2}%)",
            s.workload,
            s.model.name(),
            s.ipc,
            f.ipc
        );
    }
}

#[test]
fn sampled_rows_and_campaign_meta_round_trip() {
    let sampled = CampaignSpec::new("rt", Scale::Test)
        .kernels(["lib"])
        .models([CommModel::Dmdp])
        .sampled(500, 1)
        .run(&opts())
        .unwrap();
    let text = Writer::pretty(|w| sampled.write(w));
    let back = Parser::document(&text, Campaign::read).unwrap();
    assert_eq!(back.sampling, sampled.sampling);
    let (b, s) = (&back.jobs[0], &sampled.jobs[0]);
    assert!(b.sampled);
    assert_eq!(b.interval_insns, s.interval_insns);
    assert_eq!(b.warmup_intervals, s.warmup_intervals);
    assert_eq!(b.intervals_total, s.intervals_total);
    assert_eq!(b.intervals_simulated, s.intervals_simulated);
    assert_eq!(b.ipc, s.ipc);
}

/// Sampled rows are deterministic, and a warm sampled campaign on a
/// store executes nothing and profiles no workload: every workload's
/// bundle is read from its blob.
#[test]
fn sampled_results_are_deterministic_and_cacheable() {
    let kernels = ["mcf", "lib"];
    let dir = std::env::temp_dir().join(format!("dmdp-sampled-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let stored = RunOptions { store: Some(dir.clone()), ..opts() };
    let spec = || {
        CampaignSpec::new("det", Scale::Test)
            .kernels(kernels)
            .models([CommModel::Baseline, CommModel::Dmdp])
            .sampled(500, 1)
    };
    let a = spec().run(&opts()).unwrap();
    let b = spec().run(&stored).unwrap();
    assert_eq!(b.executed, b.jobs.len());
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.digest, y.digest);
        assert_eq!(x.cycles, y.cycles, "sampled runs must be deterministic");
        assert_eq!(x.ipc, y.ipc);
    }
    // A re-run on the store is served entirely from it, bundles included.
    let blob_hits = dmdp_obs::registry()
        .counter("dmdp_store_blob_hits_total", "blob lookups (checkpoint bundles) satisfied from disk");
    let before = blob_hits.get();
    let c = spec().run(&stored).unwrap();
    assert_eq!(c.executed, 0);
    assert_eq!(c.cached, c.jobs.len());
    let hits = blob_hits.get() - before;
    assert!(hits >= kernels.len() as u64, "{hits} blob hits for {} workloads", kernels.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parallel_bundle_builds_match_serial() {
    // `--jobs 1` builds every bundle on the calling thread; `--jobs 2`
    // builds them side by side. The rows must not differ in any bit.
    let spec = || {
        CampaignSpec::new("par", Scale::Test)
            .kernels(["gcc", "mcf", "h264ref", "lbm", "sjeng"])
            .models([CommModel::NoSq, CommModel::Dmdp])
            .sampled(500, 1)
    };
    let serial = spec().run(&RunOptions { jobs: 1, ..RunOptions::default() }).unwrap();
    let parallel = spec().run(&RunOptions { jobs: 2, ..RunOptions::default() }).unwrap();
    assert_eq!(serial.jobs.len(), 10);
    assert_eq!(serial.jobs.len(), parallel.jobs.len());
    for (a, b) in serial.jobs.iter().zip(&parallel.jobs) {
        let what = format!("{} × {}", a.workload, a.model.name());
        assert_eq!(a.digest, b.digest, "{what}");
        assert_eq!(a.cycles, b.cycles, "{what}");
        assert_eq!(a.retired_insns, b.retired_insns, "{what}");
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{what}");
        assert_eq!(a.intervals_total, b.intervals_total, "{what}");
        assert_eq!(a.intervals_simulated, b.intervals_simulated, "{what}");
    }
}

/// Digests of the sampled bundle (`SampledBundle::to_bytes`) and of the
/// profile's interval features for a few Test-scale kernels, captured
/// before the emulator's memory fast paths existed. A change to the
/// profiling or capture passes that shifts a feature, a checkpoint
/// boundary, a page or a warming hint fails here.
#[test]
fn bundle_bytes_are_pinned() {
    use dmdp_harness::Digest64;
    use dmdp_isa::Emulator;
    use dmdp_sample::{SampleParams, SampledBundle};

    // (kernel, bundle digest, feature digest)
    const GOLDEN: [(&str, &str, &str); 4] = [
        ("gcc", "ff1c08f307f7a044", "25d24a6324c900d7"),
        ("mcf", "9b4ae33f091fac19", "e55cea4fa9f58a2c"),
        ("h264ref", "647f9ea5018eac40", "3e0482aca288f137"),
        ("lbm", "a4675cd9edec6537", "58a9a758b3e1b793"),
    ];
    let params = SampleParams::new(1000, 1);
    let mut got = Vec::new();
    for (kernel, _, _) in GOLDEN {
        let program = dmdp_workloads::by_name(kernel, Scale::Test).unwrap().program;
        let bundle = SampledBundle::build(&program, &params).unwrap();
        let got_bundle = Digest64::new().write(&bundle.to_bytes()).hex();

        let profile = Emulator::new(&program)
            .profile_intervals(params.interval_insns, params.max_steps)
            .unwrap();
        let mut d = Digest64::new();
        for iv in &profile.intervals {
            for &(pc, n) in &iv.bb_counts {
                d.write(&pc.to_le_bytes()).write(&n.to_le_bytes());
            }
            for b in iv.dep_buckets {
                d.write(&b.to_le_bytes());
            }
            d.write(&iv.new_lines.to_le_bytes())
                .write(&iv.touched_lines.to_le_bytes())
                .write(&iv.insns.to_le_bytes());
        }
        got.push((kernel, got_bundle, d.hex()));
    }
    let want: Vec<(&str, String, String)> =
        GOLDEN.iter().map(|&(k, b, f)| (k, b.to_string(), f.to_string())).collect();
    assert_eq!(got, want, "bundle bytes or interval features changed");
}
