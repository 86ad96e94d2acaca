#![warn(missing_docs)]
//! # dmdp-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§VI). Each experiment is a `harness = false`
//! bench target printing the same rows/series the paper reports:
//!
//! | target | paper artifact |
//! |---|---|
//! | `fig02_load_distribution` | Figure 2 — load breakdown under NoSQ |
//! | `fig03_delayed_vs_bypassing` | Figure 3 — delayed vs bypassing latency |
//! | `fig05_lowconf_breakdown` | Figure 5 — low-confidence outcomes |
//! | `fig12_speedup` | Figure 12 — IPC normalized to the baseline |
//! | `tab04_load_latency` | Table IV — mean load execution time |
//! | `tab05_lowconf_latency` | Table V — low-confidence load execution time |
//! | `tab06_mpki` | Table VI — dependence mispredictions / kilo-insn |
//! | `tab07_reexec_stalls` | Table VII — re-execution stall cycles / kilo-insn |
//! | `fig14_store_buffer` | Figure 14 — 32/64-entry SB vs 16-entry |
//! | `fig15_edp` | Figure 15 — EDP normalized to NoSQ |
//! | `alt_*`, `ablation_*` | §VI-f/g alternative configurations, §IV-C/E ablations |
//!
//! Run one with `cargo bench -p dmdp-bench --bench fig12_speedup`, or all
//! of them with `cargo bench`. Set `DMDP_SCALE=test|small|full`
//! (default `small`) to trade runtime for fidelity.
//!
//! Simulator speed is not a paper artifact: `perfbench/run.py` measures
//! it end to end (EXPERIMENTS.md, "Host-throughput recipe").

use dmdp_core::{CommModel, CoreConfig, SimReport, Simulator};
use dmdp_harness::{Campaign, CampaignSpec, RunOptions};
use dmdp_stats::geomean;
use dmdp_workloads::{Scale, Suite, Workload};

/// The workload scale selected via `DMDP_SCALE` (default `small`).
pub fn scale() -> Scale {
    match std::env::var("DMDP_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        Ok("full") => Scale::Full,
        _ => Scale::Small,
    }
}

/// All workloads at the selected scale.
pub fn workloads() -> Vec<Workload> {
    dmdp_workloads::all(scale())
}

/// Runs one workload under one model with the paper's main configuration.
pub fn run(model: CommModel, w: &Workload) -> SimReport {
    Simulator::new(model)
        .run(&w.program)
        .unwrap_or_else(|e| panic!("{} under {:?}: {e}", w.name, model))
}

/// Runs one workload under an explicit configuration.
pub fn run_cfg(cfg: CoreConfig, w: &Workload) -> SimReport {
    Simulator::with_config(cfg)
        .run(&w.program)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// Runs (or cache-resumes) a campaign over all workloads at the selected
/// scale under `models`, fanned out across every core. The artifact
/// lands in `bench-results/<name>-<scale>.json`; digest-matched jobs are
/// reused from it, so a repeated bench run simulates nothing.
pub fn campaign_models(name: &str, models: impl IntoIterator<Item = CommModel>) -> Campaign {
    let scale = scale();
    let out = std::path::PathBuf::from(format!("bench-results/{name}-{}.json", scale.name()));
    let spec = CampaignSpec::new(name, scale).models(models);
    let opts = RunOptions { cache: Some(out.clone()), ..RunOptions::default() };
    let campaign = spec.run(&opts).unwrap_or_else(|e| panic!("campaign {name}: {e}"));
    campaign.save(&out).unwrap_or_else(|e| panic!("campaign {name}: {e}"));
    campaign
}

/// [`campaign_models`] over all four communication models.
pub fn campaign_all_models(name: &str) -> Campaign {
    campaign_models(name, CommModel::ALL)
}

/// Per-suite geometric means of `(name, suite, value)` rows, returned as
/// `(int, fp)`.
pub fn suite_geomeans(rows: &[(String, Suite, f64)]) -> (f64, f64) {
    let int = geomean(rows.iter().filter(|r| r.1 == Suite::Int).map(|r| r.2));
    let fp = geomean(rows.iter().filter(|r| r.1 == Suite::Fp).map(|r| r.2));
    (int, fp)
}

/// Prints the standard experiment header.
pub fn header(id: &str, paper: &str) {
    println!("=== {id}: {paper} ===");
    println!("scale: {:?} ({} iteration units/kernel)", scale(), scale().iterations());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_small() {
        if std::env::var("DMDP_SCALE").is_err() {
            assert_eq!(scale(), Scale::Small);
        }
    }

    #[test]
    fn suite_geomeans_split() {
        let rows = vec![
            ("a".to_string(), Suite::Int, 2.0),
            ("b".to_string(), Suite::Int, 8.0),
            ("c".to_string(), Suite::Fp, 3.0),
        ];
        let (int, fp) = suite_geomeans(&rows);
        assert!((int - 4.0).abs() < 1e-12);
        assert!((fp - 3.0).abs() < 1e-12);
    }

    #[test]
    fn run_small_workload_under_all_models() {
        let w = dmdp_workloads::by_name("lib", Scale::Test).unwrap();
        for m in CommModel::ALL {
            let r = run(m, &w);
            assert!(r.stats.retired_insns > 0);
        }
    }
}
