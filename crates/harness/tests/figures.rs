//! The paper's figures as views over one campaign artifact
//! (`dmdp report --figure`):
//!
//! 1. **Coverage** — one Test-scale campaign over every kernel, every
//!    model and the union variants renders all sixteen figures.
//! 2. **Fidelity** — the cells of Fig. 2, Fig. 5, Table V, Fig. 14 and
//!    Fig. 15 equal the values computed from the `SimStats` of
//!    `JobSpec::execute`.
//! 3. **Lookup by configuration** — a missing cell is an error naming it
//!    and the campaign line that produces it; a row under a wrong label
//!    cannot stand in for it, and a right row under any label can.
//! 4. **Refusal** — sampled rows and rows without figure counters are
//!    refused, never rendered as zeros.

use std::collections::HashMap;
use std::path::Path;
use std::sync::OnceLock;

use dmdp_core::{CommModel, SimStats};
use dmdp_harness::figures::{figure_ids, UNION_VARIANTS};
use dmdp_harness::{render_figure, Campaign, CampaignSpec, CfgPatch, Json, Parser, RunOptions, Writer};
use dmdp_stats::{mpki, LoadSource};
use dmdp_workloads::Scale;

const ARTIFACT: &str = "figures-test.json";

/// The Test-scale union campaign, simulated once for every test here.
fn union() -> &'static Campaign {
    static UNION: OnceLock<Campaign> = OnceLock::new();
    UNION.get_or_init(|| {
        let variants = UNION_VARIANTS.map(|v| {
            let (label, knobs) = v.split_once('=').unwrap();
            (label.to_string(), patch(knobs))
        });
        CampaignSpec::new("figures", Scale::Test).variants(variants).run(&RunOptions::default()).unwrap()
    })
}

fn render(id: &str, c: &Campaign) -> Result<String, String> {
    render_figure(id, c, Path::new(ARTIFACT))
}

/// The cells of `workload`'s table row in a rendered figure.
fn cells<'a>(text: &'a str, workload: &str) -> Vec<&'a str> {
    let line = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(workload))
        .unwrap_or_else(|| panic!("no row for {workload} in:\n{text}"));
    line.split_whitespace().skip(1).collect()
}

/// `SimStats` of every (workload, model, knobs) job of `spec`, each run on
/// its own through `JobSpec::execute`.
fn executed(spec: &CampaignSpec) -> HashMap<(String, CommModel, String), SimStats> {
    spec.jobs()
        .unwrap()
        .iter()
        .map(|job| {
            let stats = *job.execute().unwrap().stats.unwrap();
            ((job.workload.clone(), job.model, job.variant.clone()), stats)
        })
        .collect()
}

fn patch(knobs: &str) -> CfgPatch {
    CfgPatch::parse(knobs).unwrap()
}

#[test]
fn every_figure_renders_from_one_union_campaign() {
    let c = union();
    assert_eq!(c.jobs.len(), 21 * 4 * 9);
    let all = render("all", c).unwrap();
    let ids: Vec<&str> = figure_ids().collect();
    assert_eq!(ids.len(), 16);
    for id in ids {
        let one = render(id, c).unwrap();
        let header = format!("=== {id}: ");
        assert!(one.starts_with(&header), "{one}");
        assert!(all.contains(&one), "`all` differs from `{id}` alone");
        assert!(one.contains("scale: Test"), "{one}");
    }
}

#[test]
fn cells_equal_the_stats_of_each_executed_job() {
    let c = union();
    let spec =
        CampaignSpec::new("direct", Scale::Test).models([CommModel::NoSq, CommModel::Dmdp]).variants([
            ("main".to_string(), patch("")),
            ("sb32".to_string(), patch("sb:32")),
            ("sb64".to_string(), patch("sb:64")),
        ]);
    let stats = executed(&spec);
    let get = |w: &str, m: CommModel, v: &str| &stats[&(w.to_string(), m, v.to_string())];
    let [fig02, fig05, tab05, fig14, fig15] = [
        "fig02_load_distribution",
        "fig05_lowconf_breakdown",
        "tab05_lowconf_latency",
        "fig14_store_buffer",
        "fig15_edp",
    ]
    .map(|id| render(id, c).unwrap());
    let mut stall_sum = [0.0f64; 3];
    for w in dmdp_workloads::names() {
        let (nosq, dmdp) = (get(w, CommModel::NoSq, "main"), get(w, CommModel::Dmdp, "main"));

        let pct = |s| format!("{:.1}", 100.0 * nosq.load_latency.fraction(s));
        let want = [pct(LoadSource::Direct), pct(LoadSource::Bypassed), pct(LoadSource::Delayed)];
        assert_eq!(cells(&fig02, w), want, "fig02 {w}");

        let b = nosq.lowconf;
        let share = |n: u64| format!("{:.1}", 100.0 * n as f64 / b.total().max(1) as f64);
        let want = [share(b.indep_store), share(b.diff_store), share(b.correct), b.total().to_string()];
        assert_eq!(cells(&fig05, w), want, "fig05 {w}");

        let (n, d) = (nosq.lowconf_latency.overall_mean(), dmdp.lowconf_latency.overall_mean());
        let count = nosq.lowconf_latency.total();
        let saved = if n > 0.0 && d > 0.0 && count > 10 {
            format!("{:.1}", 100.0 * (1.0 - d / n))
        } else {
            "n/a".into()
        };
        assert_eq!(
            cells(&tab05, w),
            [format!("{n:.1}"), format!("{d:.1}"), saved, count.to_string()],
            "tab05 {w}"
        );

        let sb = [dmdp, get(w, CommModel::Dmdp, "sb32"), get(w, CommModel::Dmdp, "sb64")];
        for (sum, s) in stall_sum.iter_mut().zip(sb) {
            *sum += mpki(s.sb_full_stall_cycles, s.retired_insns);
        }
        let ipc = sb.map(SimStats::ipc);
        let want =
            [format!("{:.3}", ipc[0]), format!("{:.3}", ipc[1] / ipc[0]), format!("{:.3}", ipc[2] / ipc[0])];
        assert_eq!(cells(&fig14, w), want, "fig14 {w}");

        let want = [
            format!("{:.3}", dmdp.energy.total_nj() / nosq.energy.total_nj()),
            format!("{:.3}", dmdp.cycles as f64 / nosq.cycles as f64),
            format!("{:.3}", dmdp.edp() / nosq.edp()),
        ];
        assert_eq!(cells(&fig15, w), want, "fig15 {w}");
    }
    let n = dmdp_workloads::names().len() as f64;
    let want = format!(
        "mean SB-full stall cycles/ki: 16-entry {:.1}, 32-entry {:.1}, 64-entry {:.1}",
        stall_sum[0] / n,
        stall_sum[1] / n,
        stall_sum[2] / n
    );
    assert!(fig14.contains(&want), "want `{want}` in:\n{fig14}");
}

#[test]
fn a_missing_cell_names_itself_and_the_campaign_line() {
    let mut c = union().clone();
    c.jobs.retain(|r| !(r.workload == "mcf" && r.model == CommModel::Dmdp && r.variant == "sb32"));
    let err = render("fig14_store_buffer", &c).unwrap_err();
    for want in [
        "figure `fig14_store_buffer` needs mcf × dmdp with knobs `sb:32` at scale test",
        "figures-test.json has no full-simulation row",
        "dmdp campaign --scale test --model all --variant main= --variant w4=width:4",
        "--variant sb32=sb:32",
        "--out figures-test.json",
    ] {
        assert!(err.contains(want), "want `{want}` in: {err}");
    }
    // Figures that do not read the cell still render.
    render("fig12_speedup", &c).unwrap();
    let err = render("nonesuch", &c).unwrap_err();
    assert!(err.contains("unknown figure `nonesuch`") && err.contains("fig02_load_distribution"), "{err}");
}

#[test]
fn rows_are_found_by_configuration_not_by_label() {
    let swap = |label: &str| match label {
        "sb32" => "sb64".to_string(),
        "sb64" => "sb32".to_string(),
        other => other.to_string(),
    };
    // Swapped labels change nothing: each row still carries its digest.
    let mut relabelled = union().clone();
    for r in &mut relabelled.jobs {
        r.variant = swap(&r.variant);
    }
    let fig14 = render("fig14_store_buffer", union()).unwrap();
    assert_eq!(render("fig14_store_buffer", &relabelled).unwrap(), fig14);
    // A row simulated under another configuration cannot stand in for a
    // missing one, whatever its label says.
    let mut mislabelled = union().clone();
    mislabelled.jobs.retain(|r| r.variant != "sb32");
    for r in &mut mislabelled.jobs {
        r.variant = swap(&r.variant);
    }
    let err = render("fig14_store_buffer", &mislabelled).unwrap_err();
    assert!(err.contains("with knobs `sb:32`"), "{err}");
}

#[test]
fn rows_without_figure_counters_are_refused() {
    // An artifact written before the counters were recorded: every row
    // ends at `cached`, where the figure keys now follow.
    let mut v = Json::parse(&Writer::compact(|w| union().write(w))).unwrap();
    let Some(Json::Arr(rows)) = (match &mut v {
        Json::Obj(members) => members.iter_mut().find(|(k, _)| k == "jobs").map(|(_, v)| v),
        _ => None,
    }) else {
        panic!("artifact has a `jobs` array");
    };
    for row in rows {
        if let Json::Obj(members) = row {
            let cached = members.iter().position(|(k, _)| k == "cached").unwrap();
            members.truncate(cached + 1);
        }
    }
    let old = Parser::document(&v.compact(), Campaign::read).unwrap();
    assert!(old.jobs.iter().all(|r| r.figures.is_none()));
    let err = render("fig02_load_distribution", &old).unwrap_err();
    assert!(err.contains("without figure counters") && err.contains("--force"), "{err}");
}

#[test]
fn sampled_rows_are_refused() {
    let sampled = CampaignSpec::new("sampled", Scale::Test)
        .models([CommModel::NoSq])
        .sampled(1000, 1)
        .run(&RunOptions::default())
        .unwrap();
    assert!(sampled.jobs.iter().all(|r| r.sampled && r.figures.is_none()));
    let err = render("fig02_load_distribution", &sampled).unwrap_err();
    assert!(err.contains("has no full-simulation row"), "{err}");
}
