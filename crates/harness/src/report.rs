//! Human-readable rendering of campaign artifacts.
//!
//! `dmdp report <artifact.json>` loads any campaign JSON — including
//! `ci-smoke.json` — and renders it as plain-text tables: a per-variant
//! workload × model IPC matrix with deltas against the baseline model,
//! per-suite geometric means, scheduler-occupancy summaries, the
//! campaign's stage wall-time breakdown and its slowest jobs. Everything
//! is recomputed from the job rows, so artifacts written by older
//! binaries render too (missing observability fields show as zero).

use std::fmt::Write as _;

use dmdp_core::CommModel;
use dmdp_workloads::Suite;

use crate::campaign::{Campaign, StageWall};
use crate::job::JobResult;
use crate::json::{obj, Json};

/// Renders a campaign as a plain-text report.
pub fn render_campaign(c: &Campaign) -> String {
    let mut out = String::new();
    header(&mut out, c);
    let models = c.models();
    for variant in c.variants() {
        ipc_table(&mut out, c, &models, &variant);
    }
    variant_sweep(&mut out, c, &models);
    geomeans(&mut out, c, &models);
    sched_occupancy(&mut out, c, &models);
    slowest(&mut out, c);
    out
}

fn header(out: &mut String, c: &Campaign) {
    let _ = writeln!(out, "campaign `{}`  (scale {}, sim {})", c.name, c.scale.name(), c.sim_version);
    let _ = writeln!(
        out,
        "  jobs {}  ({} executed, {} cached)   wall {:.2}s",
        c.jobs.len(),
        c.executed,
        c.cached,
        c.wall_s
    );
    if c.stages != StageWall::default() {
        let s = c.stages;
        let _ = writeln!(
            out,
            "  stages: build {:.2}s | cache {:.2}s | exec {:.2}s | aggregate {:.2}s",
            s.build_s, s.cache_s, s.exec_s, s.aggregate_s
        );
    }
    if let Some(s) = c.sampling {
        let simulated: u64 = c.jobs.iter().map(|r| r.intervals_simulated).sum();
        let total: u64 = c.jobs.iter().map(|r| r.intervals_total).sum();
        let _ = writeln!(
            out,
            "  sampled: {} insn intervals, {} warmup  ({simulated} of {total} intervals simulated)",
            s.interval_insns, s.warmup_intervals
        );
    }
}

/// The workloads of one variant, in job-list order.
fn workloads_of(c: &Campaign, variant: &str) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in c.jobs.iter().filter(|r| r.variant == variant) {
        if !names.contains(&r.workload) {
            names.push(r.workload.clone());
        }
    }
    names
}

/// The model IPC deltas are measured against: `Baseline` when the
/// campaign swept it, else the first model present.
fn reference_model(models: &[CommModel]) -> Option<CommModel> {
    models
        .iter()
        .copied()
        .find(|&m| m == CommModel::Baseline)
        .or_else(|| models.first().copied())
}

fn ipc_table(out: &mut String, c: &Campaign, models: &[CommModel], variant: &str) {
    let workloads = workloads_of(c, variant);
    if workloads.is_empty() || models.is_empty() {
        return;
    }
    let reference = reference_model(models);
    let name_w = workloads.iter().map(String::len).max().unwrap_or(8).max(8);
    let _ = writeln!(out, "\nIPC by workload × model  [variant {variant}]");
    let mut head = format!("  {:<name_w$}", "workload");
    for m in models {
        let _ = write!(head, "  {:>15}", m.name());
    }
    let _ = writeln!(out, "{head}");
    for w in &workloads {
        let base_ipc = reference
            .and_then(|m| c.get_variant(w, m, variant))
            .map(|r| r.ipc)
            .filter(|&ipc| ipc > 0.0);
        let mut line = format!("  {w:<name_w$}");
        for &m in models {
            let cell = match c.get_variant(w, m, variant) {
                None => "-".to_string(),
                Some(r) if Some(m) == reference => format!("{:.3}", r.ipc),
                Some(r) => match base_ipc {
                    Some(b) => format!("{:.3} {:>+6.1}%", r.ipc, (r.ipc / b - 1.0) * 100.0),
                    None => format!("{:.3}", r.ipc),
                },
            };
            let _ = write!(line, "  {cell:>15}");
        }
        let _ = writeln!(out, "{line}");
    }
}

/// Geometric mean of one variant's per-workload IPCs under one model.
fn variant_geomean(c: &Campaign, m: CommModel, variant: &str) -> Option<f64> {
    let logs: Vec<f64> = c
        .jobs
        .iter()
        .filter(|r| r.model == m && r.variant == variant && r.ipc > 0.0)
        .map(|r| r.ipc.ln())
        .collect();
    if logs.is_empty() {
        None
    } else {
        Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }
}

/// Geomean of per-workload IPC ratios of `variant` over `main` under one
/// model, computed pairwise so a workload missing from either side drops
/// out of both.
fn variant_delta_vs_main(c: &Campaign, m: CommModel, variant: &str) -> Option<f64> {
    let mut logs = Vec::new();
    for w in workloads_of(c, variant) {
        let (Some(v), Some(b)) = (c.get_variant(&w, m, variant), c.get_variant(&w, m, "main"))
        else {
            continue;
        };
        if v.ipc > 0.0 && b.ipc > 0.0 {
            logs.push((v.ipc / b.ipc).ln());
        }
    }
    if logs.is_empty() {
        None
    } else {
        Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }
}

/// Per-variant sweep summary: one row per variant, one column per model,
/// each cell the variant's geomean IPC plus its pairwise geomean delta
/// against the `main` variant of the same model. Rendered only for
/// multi-variant campaigns, so single-variant (and older) artifacts are
/// untouched; campaigns without a `main` variant show geomeans alone.
fn variant_sweep(out: &mut String, c: &Campaign, models: &[CommModel]) {
    let variants = c.variants();
    if variants.len() < 2 || models.is_empty() {
        return;
    }
    let name_w = variants.iter().map(String::len).max().unwrap_or(8).max(8);
    let _ = writeln!(out, "\nvariant sweep (geomean IPC, delta vs variant `main`)");
    let mut head = format!("  {:<name_w$}", "variant");
    for m in models {
        let _ = write!(head, "  {:>15}", m.name());
    }
    let _ = writeln!(out, "{head}");
    for variant in &variants {
        let mut line = format!("  {variant:<name_w$}");
        for &m in models {
            let cell = match variant_geomean(c, m, variant) {
                None => "-".to_string(),
                Some(g) if variant == "main" => format!("{g:.3}"),
                Some(g) => match variant_delta_vs_main(c, m, variant) {
                    Some(d) => format!("{g:.3} {:>+6.1}%", (d - 1.0) * 100.0),
                    None => format!("{g:.3}"),
                },
            };
            let _ = write!(line, "  {cell:>15}");
        }
        let _ = writeln!(out, "{line}");
    }
}

fn geomeans(out: &mut String, c: &Campaign, models: &[CommModel]) {
    let reference = reference_model(models);
    let mut lines = Vec::new();
    for suite in [Suite::Int, Suite::Fp] {
        let mut cells = Vec::new();
        for &m in models {
            let Some(g) = c.geomean_ipc(m, suite) else { continue };
            let mut cell = format!("{} {g:.3}", m.name());
            if let Some(base) = reference.filter(|&b| b != m) {
                if let Some(s) = c.geomean_speedup(base, m, suite) {
                    let _ = write!(cell, " (×{s:.3})");
                }
            }
            cells.push(cell);
        }
        if !cells.is_empty() {
            lines.push(format!("  {:<4} {}", suite.name(), cells.join("  |  ")));
        }
    }
    if !lines.is_empty() {
        let reference_note = reference.map(|m| m.name()).unwrap_or("-");
        let _ = writeln!(out, "\ngeomean IPC (speedup vs {reference_note}, variant main)");
        for l in lines {
            let _ = writeln!(out, "{l}");
        }
    }
}

fn sched_occupancy(out: &mut String, c: &Campaign, models: &[CommModel]) {
    // Means over the main-variant jobs of each model; artifacts written
    // before the counters existed contribute zeros.
    let mut rows = Vec::new();
    for &m in models {
        let jobs: Vec<&JobResult> =
            c.jobs.iter().filter(|r| r.model == m && r.variant == "main").collect();
        if jobs.is_empty() {
            continue;
        }
        let n = jobs.len() as f64;
        let ready = jobs.iter().map(|r| r.mean_ready_len).sum::<f64>() / n;
        let wakeups = jobs.iter().map(|r| r.wakeups_per_kilocycle).sum::<f64>() / n;
        let pops = jobs
            .iter()
            .map(|r| {
                if r.cycles == 0 {
                    0.0
                } else {
                    r.calendar_pops as f64 * 1000.0 / r.cycles as f64
                }
            })
            .sum::<f64>()
            / n;
        rows.push((m, ready, wakeups, pops));
    }
    if rows.iter().all(|&(_, r, w, p)| r == 0.0 && w == 0.0 && p == 0.0) {
        return;
    }
    let _ = writeln!(out, "\nscheduler occupancy (mean over main-variant jobs)");
    let _ = writeln!(
        out,
        "  {:<8}  {:>10}  {:>11}  {:>16}",
        "model", "ready-list", "wakeups/kc", "calendar-pops/kc"
    );
    for (m, ready, wakeups, pops) in rows {
        let _ = writeln!(out, "  {:<8}  {ready:>10.2}  {wakeups:>11.1}  {pops:>16.1}", m.name());
    }
}

fn slowest(out: &mut String, c: &Campaign) {
    let rows = c.slowest_jobs(5);
    if rows.is_empty() {
        return;
    }
    match &c.trace_id {
        Some(trace) => {
            let _ = writeln!(
                out,
                "\nslowest jobs (simulation wall-clock; daemon trace {trace})"
            );
        }
        None => {
            let _ = writeln!(out, "\nslowest jobs (simulation wall-clock)");
        }
    }
    for (i, r) in rows.iter().enumerate() {
        let mut line = format!(
            "  {}. {:>9} × {:<8} [{}]  {:.2}s  {:.2} MIPS",
            i + 1,
            r.workload,
            r.model.name(),
            r.variant,
            r.wall_s,
            r.mips
        );
        if r.cached {
            line.push_str("  (cached)");
        } else if r.finished_s > 0.0 {
            let _ = write!(line, "  (ran t+{:.2}s → t+{:.2}s)", r.started_s, r.finished_s);
        }
        let _ = writeln!(out, "{line}");
    }
}

/// One (workload, model, variant) comparison of a sampled estimate
/// against the full simulation.
#[derive(Debug, Clone)]
pub struct ErrorRow {
    /// Workload name.
    pub workload: String,
    /// Communication model.
    pub model: CommModel,
    /// Variant label.
    pub variant: String,
    /// The sampled campaign's IPC estimate.
    pub sampled_ipc: f64,
    /// The full campaign's measured IPC.
    pub full_ipc: f64,
    /// Signed relative error, percent: `(sampled/full - 1) × 100`.
    pub error_pct: f64,
}

/// The sampled-vs-full comparison of two campaign artifacts.
#[derive(Debug, Clone)]
pub struct ErrorTable {
    /// Per-row comparisons, in the sampled artifact's job order.
    pub rows: Vec<ErrorRow>,
    /// Geometric mean of per-row `|error_pct|` (each floored at 1e-4%
    /// so exact matches don't zero the mean).
    pub geomean_abs_error_pct: f64,
    /// The single worst `|error_pct|`.
    pub max_abs_error_pct: f64,
    /// The sampled campaign's wall clock, seconds.
    pub sampled_wall_s: f64,
    /// The full campaign's wall clock, seconds.
    pub full_wall_s: f64,
    /// `full_wall_s / sampled_wall_s` (0 when either side is cached-only
    /// or otherwise reports no wall time).
    pub wall_speedup: f64,
}

/// Compares a sampled campaign against the full campaign it estimates:
/// one row per (workload, model, variant) present in both artifacts.
///
/// # Errors
///
/// The sampled artifact has no sampled rows, the reference has no full
/// rows, or the two share no (workload, model, variant) with nonzero
/// full IPC.
pub fn error_table(sampled: &Campaign, full: &Campaign) -> Result<ErrorTable, String> {
    if !sampled.jobs.iter().any(|r| r.sampled) {
        return Err(format!("campaign `{}` has no sampled rows", sampled.name));
    }
    if full.jobs.iter().any(|r| r.sampled) {
        return Err(format!(
            "reference campaign `{}` has sampled rows; compare against a full run",
            full.name
        ));
    }
    let mut rows = Vec::new();
    for s in sampled.jobs.iter().filter(|r| r.sampled) {
        let Some(f) = full.get_variant(&s.workload, s.model, &s.variant) else { continue };
        if f.ipc <= 0.0 {
            continue;
        }
        rows.push(ErrorRow {
            workload: s.workload.clone(),
            model: s.model,
            variant: s.variant.clone(),
            sampled_ipc: s.ipc,
            full_ipc: f.ipc,
            error_pct: (s.ipc / f.ipc - 1.0) * 100.0,
        });
    }
    if rows.is_empty() {
        return Err(format!(
            "campaigns `{}` and `{}` share no (workload, model, variant) rows",
            sampled.name, full.name
        ));
    }
    let logs: Vec<f64> = rows.iter().map(|r| r.error_pct.abs().max(1e-4).ln()).collect();
    let geomean = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
    let max = rows.iter().map(|r| r.error_pct.abs()).fold(0.0, f64::max);
    let speedup = if sampled.wall_s > 0.0 && full.wall_s > 0.0 {
        full.wall_s / sampled.wall_s
    } else {
        0.0
    };
    Ok(ErrorTable {
        rows,
        geomean_abs_error_pct: geomean,
        max_abs_error_pct: max,
        sampled_wall_s: sampled.wall_s,
        full_wall_s: full.wall_s,
        wall_speedup: speedup,
    })
}

/// Renders an [`ErrorTable`] as plain text: per-row IPCs and signed
/// errors, then the aggregate error and wall-clock summary.
pub fn render_error_table(t: &ErrorTable) -> String {
    let mut out = String::new();
    let name_w = t.rows.iter().map(|r| r.workload.len()).max().unwrap_or(8).max(8);
    let _ = writeln!(out, "sampled vs full IPC error");
    let _ = writeln!(
        out,
        "  {:<name_w$}  {:<8}  {:<10}  {:>9}  {:>9}  {:>8}",
        "workload", "model", "variant", "sampled", "full", "error"
    );
    for r in &t.rows {
        let _ = writeln!(
            out,
            "  {:<name_w$}  {:<8}  {:<10}  {:>9.4}  {:>9.4}  {:>+7.2}%",
            r.workload,
            r.model.name(),
            r.variant,
            r.sampled_ipc,
            r.full_ipc,
            r.error_pct
        );
    }
    let _ = writeln!(
        out,
        "\n  {} rows: geomean |error| {:.3}%, worst |error| {:.3}%",
        t.rows.len(),
        t.geomean_abs_error_pct,
        t.max_abs_error_pct
    );
    if t.wall_speedup > 0.0 {
        let _ = writeln!(
            out,
            "  wall: sampled {:.2}s vs full {:.2}s  (×{:.1})",
            t.sampled_wall_s, t.full_wall_s, t.wall_speedup
        );
    }
    out
}

impl ErrorTable {
    /// The machine-readable form (`dmdp report --error-vs --json`),
    /// stable enough for CI to `jq` against.
    pub fn to_json(&self) -> Json {
        obj([
            ("type", Json::Str("sampled_error".into())),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            obj([
                                ("workload", Json::Str(r.workload.clone())),
                                ("model", Json::Str(r.model.name().into())),
                                ("variant", Json::Str(r.variant.clone())),
                                ("sampled_ipc", Json::Num(r.sampled_ipc)),
                                ("full_ipc", Json::Num(r.full_ipc)),
                                ("error_pct", Json::Num(r.error_pct)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("rows_compared", Json::Num(self.rows.len() as f64)),
            ("geomean_abs_error_pct", Json::Num(self.geomean_abs_error_pct)),
            ("max_abs_error_pct", Json::Num(self.max_abs_error_pct)),
            ("sampled_wall_s", Json::Num(self.sampled_wall_s)),
            ("full_wall_s", Json::Num(self.full_wall_s)),
            ("wall_speedup", Json::Num(self.wall_speedup)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignSpec, RunOptions};
    use dmdp_workloads::Scale;

    #[test]
    fn renders_every_section() {
        let campaign = CampaignSpec::new("render", Scale::Test)
            .models([CommModel::Baseline, CommModel::Dmdp])
            .kernels(["lib", "bwaves"])
            .run(&RunOptions { jobs: 1, ..RunOptions::default() })
            .unwrap();
        let text = render_campaign(&campaign);
        assert!(text.contains("campaign `render`"), "{text}");
        assert!(text.contains("IPC by workload × model"), "{text}");
        assert!(text.contains("geomean IPC"), "{text}");
        assert!(text.contains("scheduler occupancy"), "{text}");
        assert!(text.contains("slowest jobs"), "{text}");
        assert!(text.contains("stages: build"), "{text}");
        assert!(text.contains("lib"), "{text}");
        assert!(text.contains("bwaves"), "{text}");
    }

    #[test]
    fn variant_sweep_renders_deltas_against_main() {
        use crate::CfgPatch;
        let campaign = CampaignSpec::new("sweep", Scale::Test)
            .models([CommModel::Baseline, CommModel::Dmdp])
            .kernels(["lib", "mcf"])
            .variants([
                ("main".to_string(), CfgPatch::default()),
                ("rob32".to_string(), CfgPatch { rob: Some(32), ..CfgPatch::default() }),
                ("sb2".to_string(), CfgPatch { sb: Some(2), ..CfgPatch::default() }),
            ])
            .run(&RunOptions { jobs: 1, ..RunOptions::default() })
            .unwrap();
        let text = render_campaign(&campaign);
        assert!(text.contains("variant sweep"), "{text}");
        assert!(text.contains("rob32"), "{text}");
        assert!(text.contains("sb2"), "{text}");
        // Non-main rows carry a percentage delta against main.
        let sweep = text.split("variant sweep").nth(1).unwrap();
        let rob_row = sweep.lines().find(|l| l.trim_start().starts_with("rob32")).unwrap();
        assert!(rob_row.contains('%'), "{rob_row}");
        // The main row is the reference: geomean only, no delta.
        let main_row = sweep.lines().find(|l| l.trim_start().starts_with("main")).unwrap();
        assert!(!main_row.contains('%'), "{main_row}");
    }

    #[test]
    fn single_variant_artifacts_skip_the_sweep_section() {
        let campaign = CampaignSpec::new("solo", Scale::Test)
            .models([CommModel::Dmdp])
            .kernels(["lib"])
            .run(&RunOptions { jobs: 1, ..RunOptions::default() })
            .unwrap();
        let text = render_campaign(&campaign);
        assert!(!text.contains("variant sweep"), "{text}");
    }

    #[test]
    fn error_table_compares_sampled_to_full() {
        let full = CampaignSpec::new("full", Scale::Test)
            .models([CommModel::Baseline, CommModel::Dmdp])
            .kernels(["lib", "mcf"])
            .run(&RunOptions { jobs: 1, ..RunOptions::default() })
            .unwrap();
        let sampled = CampaignSpec::new("sampled", Scale::Test)
            .models([CommModel::Baseline, CommModel::Dmdp])
            .kernels(["lib", "mcf"])
            .sampled(1000, 2)
            .run(&RunOptions { jobs: 1, ..RunOptions::default() })
            .unwrap();
        let t = error_table(&sampled, &full).unwrap();
        assert_eq!(t.rows.len(), 4);
        assert!(t.max_abs_error_pct < 3.0, "{:#?}", t.rows);
        assert!(t.geomean_abs_error_pct <= t.max_abs_error_pct);
        let text = render_error_table(&t);
        assert!(text.contains("sampled vs full IPC error"), "{text}");
        assert!(text.contains("geomean |error|"), "{text}");
        let json = t.to_json();
        assert_eq!(json.get("rows_compared").and_then(Json::as_u64), Some(4));
        assert_eq!(json.get("rows").and_then(Json::as_arr).unwrap().len(), 4);
        // The sampled artifact's own report names the sampling knobs.
        assert!(render_campaign(&sampled).contains("sampled: 1000 insn intervals"));
        // Misuse errors, not panics.
        assert!(error_table(&full, &full).is_err(), "full-vs-full must be rejected");
        assert!(error_table(&sampled, &sampled).is_err(), "sampled reference rejected");
    }

    #[test]
    fn survives_artifact_round_trip() {
        let campaign = CampaignSpec::new("rt", Scale::Test)
            .models([CommModel::Dmdp])
            .kernels(["lib"])
            .run(&RunOptions { jobs: 1, ..RunOptions::default() })
            .unwrap();
        let text = crate::Writer::compact(|w| campaign.write(w));
        let back = crate::Parser::document(&text, Campaign::read).unwrap();
        assert_eq!(back.stages, campaign.stages);
        let text = render_campaign(&back);
        // Single-model campaign: deltas are measured against dmdp itself.
        assert!(text.contains("IPC by workload"), "{text}");
        assert!(text.contains("slowest jobs"), "{text}");
    }
}
