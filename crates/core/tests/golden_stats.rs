//! Golden-stats regression gate for the scheduler.
//!
//! Records a 64-bit FNV-1a digest of every timing-relevant [`SimStats`]
//! field for each (kernel × model) pair at test scale. The digests were
//! captured from the original scan-based scheduler; the event-driven
//! scheduler (PR 2) must reproduce them bit-for-bit — which µops issue in
//! a given cycle is an invariant of the refactor, so every derived
//! statistic (IPC, MPKI, energy, cache behaviour) is too.
//!
//! To re-record after an *intentional* timing change (bump `SIM_VERSION`
//! alongside!):
//!
//! ```text
//! GOLDEN_RECORD=1 cargo test -p dmdp-core --test golden_stats -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use std::sync::Arc;

use dmdp_core::{BatchSimulator, CommModel, CoreConfig, PlanCache, Probe, SimStats, Simulator};
use dmdp_energy::Event;
use dmdp_workloads::Scale;

/// FNV-1a 64-bit, matching the harness digest primitive (no dependency on
/// dmdp-harness to keep the dev-graph acyclic).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn str(&mut self, s: &str) -> &mut Fnv {
        self.write(s.as_bytes());
        self
    }
}

/// Digest over the *timing* statistics only. Fields are enumerated
/// explicitly so that adding new observability counters (e.g. the PR 2
/// scheduler-occupancy stats) does not invalidate the goldens: those
/// describe the scheduler implementation, not the simulated machine.
fn stats_digest(s: &SimStats) -> u64 {
    let mut f = Fnv::new();
    f.str(&format!(
        "cyc={} insns={} uops={} loads={} stores={} pred={}",
        s.cycles, s.retired_insns, s.retired_uops, s.retired_loads, s.retired_stores,
        s.predication_uops
    ));
    f.str(&format!(
        " bmiss={} mmiss={} reexec={} restall={} sbstall={} recov={} squash={}",
        s.branch_mispredicts,
        s.mem_dep_mispredicts,
        s.reexecutions,
        s.reexec_stall_cycles,
        s.sb_full_stall_cycles,
        s.recoveries,
        s.squashed_uops
    ));
    f.str(&format!(
        " lowconf={:?} coalesced={} minfree={} inval={}",
        s.lowconf, s.coalesced_stores, s.min_free_pregs, s.coherence_invalidations
    ));
    f.str(&format!(" lat={:?} lclat={:?} mem={:?}", s.load_latency, s.lowconf_latency, s.mem));
    for ev in Event::ALL {
        f.str(&format!(" e{}={}", ev.label(), s.energy.count(ev)));
    }
    f.0
}

/// (kernel, per-model digests in `CommModel::ALL` order) — captured from
/// the pre-event-driven scheduler at `Scale::Test`.
const GOLDEN: &[(&str, [u64; 4])] = &[
    ("perl", [0x958012628a46bfdd, 0x0860b48355381f48, 0xcb64848008072053, 0x5902a050c3d1581b]),
    ("bzip2", [0x71b757ef96cce226, 0x01330bfeda279347, 0x027d7fc065a054ca, 0xf357c54cd2a9b528]),
    ("gcc", [0x0de1d409dc7247b0, 0x893ab9968c6913b9, 0x4049d01d1e1f0ba9, 0xb5394e73948fb526]),
    ("mcf", [0x494b2ded081c9617, 0x580ad6bab02f405f, 0x5647dc8e143495a6, 0x93777ac6746369ac]),
    ("gobmk", [0x3ab7a0eaa8f43567, 0x49ef9fd5a36f9b49, 0xb052f600ae581ab6, 0xeb4b3ea782508213]),
    ("hmmer", [0x93b5074e469b0ae6, 0x2dad2cd56cd45a9a, 0xa21eb6c46b997e93, 0x024ec9d59a589a03]),
    ("sjeng", [0x4ec2a4b618b6e707, 0xd91ab56b11544886, 0xd91ab56b11544886, 0x8fc05b93dafc1976]),
    ("lib", [0x1c9d778638e91d39, 0x51d8c1a231d1f107, 0x51d8c1a231d1f107, 0x51b6688e7a5b0d8e]),
    ("h264ref", [0x584e8dc81ce60e1c, 0xb27b56f30825b54e, 0xf70b523806650159, 0xd6ab348d851f2b74]),
    ("astar", [0x24923b15d02e499e, 0x3ecaa7fedcef196d, 0x7e339c1e3de03475, 0x716a5fdb8062192a]),
    ("bwaves", [0xccdfb1e04dc40620, 0xf7e0e1be72d00b8b, 0xf7e0e1be72d00b8b, 0x5770ae1eb6b2d998]),
    ("milc", [0xeb0dceb28c85ee89, 0x649f507e332d2666, 0x649f507e332d2666, 0xf9df83a3e2f598ad]),
    ("zeusmp", [0xd37c13a77c5740be, 0x0a1eed27159aacca, 0x0a1eed27159aacca, 0x8946b945a3babd94]),
    ("gromacs", [0x1b091d4f0606ee92, 0x017b02a6dbf7ffe8, 0x9c7c8189cc969443, 0x6dc533e0ea39170b]),
    ("leslie3d", [0x7f9cd61ec7e96904, 0x0f7de20333d72e76, 0x0f7de20333d72e76, 0x77b8884b37ac5f8c]),
    ("namd", [0x432824cc58c0b8e4, 0xc2c2f768d6f0dbb4, 0xc2c2f768d6f0dbb4, 0x24f9e85ec5d142d4]),
    ("Gems", [0xf35a634869a17b48, 0x4a83accddb786346, 0x4a83accddb786346, 0xe24ea8d84f3d9392]),
    ("tonto", [0x3eb63b69f6deaaab, 0x037327193fa8c419, 0x037327193fa8c419, 0xf5956a7f0d03548a]),
    ("lbm", [0x74d128363aa3432b, 0xaf8f114feaa70bc4, 0xaf8f114feaa70bc4, 0xd6feebf645222b6a]),
    ("wrf", [0x13491c2d5c106b3b, 0xcf6b45b6b7596e5e, 0x065db9249a51ac67, 0x9c3cf0be6f2f952d]),
    ("sphinx3", [0x3f080371ad6d35ae, 0xe9e66d2650b058b8, 0xe9e66d2650b058b8, 0x0389685cccf1f6a2]),
];

fn run_one(kernel: &str, model: CommModel) -> u64 {
    let w = dmdp_workloads::by_name(kernel, Scale::Test).expect("known kernel");
    let report = Simulator::new(model).run(&w.program).expect("kernel halts");
    stats_digest(&report.stats)
}

#[test]
fn scheduler_reproduces_golden_timing() {
    let record = std::env::var("GOLDEN_RECORD").is_ok();
    let mut failures = Vec::new();
    if record {
        println!("const GOLDEN: &[(&str, [u64; 4])] = &[");
        for w in dmdp_workloads::all(Scale::Test) {
            let d: Vec<String> = CommModel::ALL
                .iter()
                .map(|&m| format!("{:#018x}", run_one(w.name, m)))
                .collect();
            println!("    (\"{}\", [{}]),", w.name, d.join(", "));
        }
        println!("];");
        return;
    }
    assert_eq!(GOLDEN.len(), 21, "golden table must cover all 21 kernels");
    for (kernel, digests) in GOLDEN {
        for (i, &model) in CommModel::ALL.iter().enumerate() {
            let got = run_one(kernel, model);
            if got != digests[i] {
                failures.push(format!(
                    "{kernel} × {}: got {got:#018x}, golden {:#018x}",
                    model.name(),
                    digests[i]
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "scheduler timing diverged from golden stats:\n{}",
        failures.join("\n")
    );
}

/// Non-default configuration variants covered by the variant golden
/// table. Both shrink a structural resource, so they exercise the
/// back-pressure paths (ROB-full rename stalls, SB-full retire stalls)
/// that the default configuration rarely hits at test scale.
const VARIANTS: &[&str] = &["rob32", "sb2"];

/// Kernel subset for the variant table: a mix of Int and FP kernels with
/// high and low store pressure, kept small so the sweep (kernels ×
/// variants × models, solo *and* batched) stays fast.
const VARIANT_KERNELS: &[&str] = &["perl", "mcf", "lib", "astar", "milc", "sphinx3"];

fn variant_config(model: CommModel, variant: &str) -> CoreConfig {
    let mut cfg = CoreConfig::new(model);
    match variant {
        "rob32" => cfg.rob_entries = 32,
        "sb2" => cfg.store_buffer_entries = 2,
        other => panic!("unknown variant `{other}`"),
    }
    cfg
}

/// (kernel, variant, per-model digests in `CommModel::ALL` order) —
/// captured from the solo reference path (`Simulator::with_config`).
const VARIANT_GOLDEN: &[(&str, &str, [u64; 4])] = &[
    ("perl", "rob32", [0x37fc3603e5fadaac, 0xc2cbdb432efcd63b, 0x1fd015ddfbf752c5, 0x27cc21bd1ebe3c75]),
    ("perl", "sb2", [0xa6dde7cafae6affb, 0x807dfd82a29beec7, 0xfdeb303eae384fa0, 0xbcd8936f115ca429]),
    ("mcf", "rob32", [0xf68847b461c8bc0c, 0xa508a7fce1eeee33, 0xdbbd0c8913da3dcf, 0x4d35f84101e9939c]),
    ("mcf", "sb2", [0x13fa7263493f93c8, 0x45662ff2ab58555c, 0x59ec7d72100848e9, 0x9339c493c5adf129]),
    ("lib", "rob32", [0x858fd8ecd2d22913, 0x39517b39a0982512, 0x39517b39a0982512, 0x9b6c79902a9b8993]),
    ("lib", "sb2", [0xc17b341b16ce7b77, 0xb0111eca7ca8b9ed, 0xb0111eca7ca8b9ed, 0x5e844387866cb43e]),
    ("astar", "rob32", [0xb57d3274734c927a, 0x47fc9138d5ea2694, 0x8f7e6c595371ed98, 0xada596ad7b43a477]),
    ("astar", "sb2", [0x24923b15d02e499e, 0x35e19f9d7ca25a6c, 0x077cf780d8cfa5cb, 0xaac80b756316101c]),
    ("milc", "rob32", [0x2beef83bcc95a4b4, 0xf6f5e23b57ee978b, 0xf6f5e23b57ee978b, 0x195ee611698c657b]),
    ("milc", "sb2", [0x13abece2eb454024, 0x42ce9f6bac52225f, 0x42ce9f6bac52225f, 0x5fd08da359686997]),
    ("sphinx3", "rob32", [0xd5da6d41b4f11d01, 0x5295b34d58961485, 0x5295b34d58961485, 0x796a59ce819725ea]),
    ("sphinx3", "sb2", [0x3f080371ad6d35ae, 0xe9e66d2650b058b8, 0xe9e66d2650b058b8, 0x0389685cccf1f6a2]),
];

/// Pins the timing of non-default configuration variants under every
/// model, and demands that [`BatchSimulator`] — which runs all lanes of
/// a kernel over one shared front end and derives the never-bound ones —
/// reproduces the *same* digests bit-for-bit as the solo path.
#[test]
fn variant_timing_is_pinned_for_solo_and_batched_paths() {
    if std::env::var("GOLDEN_RECORD").is_ok() {
        println!("const VARIANT_GOLDEN: &[(&str, &str, [u64; 4])] = &[");
        for kernel in VARIANT_KERNELS {
            let w = dmdp_workloads::by_name(kernel, Scale::Test).expect("known kernel");
            for variant in VARIANTS {
                let d: Vec<String> = CommModel::ALL
                    .iter()
                    .map(|&m| {
                        let cfg = variant_config(m, variant);
                        let report =
                            Simulator::with_config(cfg).run(&w.program).expect("kernel halts");
                        format!("{:#018x}", stats_digest(&report.stats))
                    })
                    .collect();
                println!("    (\"{kernel}\", \"{variant}\", [{}]),", d.join(", "));
            }
        }
        println!("];");
        return;
    }
    assert_eq!(
        VARIANT_GOLDEN.len(),
        VARIANT_KERNELS.len() * VARIANTS.len(),
        "variant golden table must cover the full kernel × variant cross-product"
    );
    let mut failures = Vec::new();
    for kernel in VARIANT_KERNELS {
        let w = dmdp_workloads::by_name(kernel, Scale::Test).expect("known kernel");
        let program = Arc::new(w.program);
        let plans = PlanCache::shared(&program);

        // One batch per kernel: every (variant × model) lane shares the
        // front-end, exactly as a harness sweep groups them.
        let mut batch = BatchSimulator::new(Arc::clone(&program), Arc::clone(&plans));
        let mut lanes = Vec::new();
        for &(golden_kernel, variant, digests) in VARIANT_GOLDEN {
            if golden_kernel != *kernel {
                continue;
            }
            for (i, &model) in CommModel::ALL.iter().enumerate() {
                batch.push(variant_config(model, variant));
                lanes.push((variant, model, digests[i]));
            }
        }
        let batched = batch.run();
        assert_eq!(batched.len(), lanes.len());

        for ((variant, model, golden), result) in lanes.into_iter().zip(batched) {
            let stats = result.expect("kernel halts");
            let got = stats_digest(&stats);
            if got != golden {
                failures.push(format!(
                    "{kernel} × {} [{variant}] (batched): got {got:#018x}, golden {golden:#018x}",
                    model.name()
                ));
            }
            let solo = Simulator::with_config(variant_config(model, variant))
                .run(&program)
                .expect("kernel halts");
            let solo_got = stats_digest(&solo.stats);
            if solo_got != golden {
                failures.push(format!(
                    "{kernel} × {} [{variant}] (solo): got {solo_got:#018x}, golden {golden:#018x}",
                    model.name()
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "variant timing diverged from golden stats:\n{}",
        failures.join("\n")
    );
}

/// The probe layer (PR 3) observes the pipeline; it must never perturb
/// it. Re-runs the entire golden table with a tracer *and* a sampler
/// attached and demands the same digests — `--trace`/`--sample-every`
/// change nothing about simulated timing, so `SIM_VERSION` stays fixed.
#[test]
fn probed_runs_reproduce_golden_timing() {
    if std::env::var("GOLDEN_RECORD").is_ok() {
        return; // the recording pass belongs to the un-probed test
    }
    let dir = std::env::temp_dir();
    let mut failures = Vec::new();
    for (kernel, digests) in GOLDEN {
        let w = dmdp_workloads::by_name(kernel, Scale::Test).expect("known kernel");
        for (i, &model) in CommModel::ALL.iter().enumerate() {
            let path = dir.join(format!("dmdp-golden-{}-{kernel}-{i}.jsonl", std::process::id()));
            let probe = Probe::default()
                .with_trace(&path, 0, None)
                .expect("trace file creatable")
                .with_samples(100);
            let (report, probes) =
                Simulator::new(model).run_probed(&w.program, probe).expect("kernel halts");
            std::fs::remove_file(&path).ok();
            assert!(probes.trace_error.is_none(), "{:?}", probes.trace_error);
            let got = stats_digest(&report.stats);
            if got != digests[i] {
                failures.push(format!(
                    "{kernel} × {}: probed run drifted to {got:#018x} (golden {:#018x})",
                    model.name(),
                    digests[i]
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "enabling probes changed simulated timing:\n{}",
        failures.join("\n")
    );
}
