//! The paper's evaluation as views over one campaign artifact.
//!
//! `dmdp report --figure <id> ARTIFACT` renders one of the sixteen tables
//! and figure series of the paper's §VI, or `all` of them, from the rows
//! of a full-simulation campaign. Each figure declares the (model, knobs)
//! cells it reads. A cell's row is found by the digest
//! [`CampaignSpec::jobs`] computes for it at the artifact's scale, never
//! by its variant label, so a row simulated under another configuration
//! cannot stand in for it. One campaign over [`UNION_VARIANTS`] holds
//! every cell of every figure.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use dmdp_core::CommModel::{self, Baseline, Dmdp, NoSq, Perfect};
use dmdp_stats::{geomean, mpki, Table};
use dmdp_workloads::{Scale, Suite};

use crate::campaign::{Campaign, CampaignSpec};
use crate::job::{CfgPatch, FigureCounters, JobResult, JobSpec, WorkloadImage};

/// The variants, as `--variant LABEL=KNOBS`, of the one campaign (all
/// kernels, all models) that holds every figure's cells.
pub const UNION_VARIANTS: [&str; 9] = [
    "main=",
    "w4=width:4",
    "rob512=rob:512,prf:640",
    "prf160=prf:160",
    "rmo=rmo",
    "sb32=sb:32",
    "sb64=sb:64",
    "balanced=balanced",
    "nosilent=nosilent",
];

/// A figure's renderer: it declares the cells it reads by asking
/// [`Cells::grid`] for them, then prints the paper's rows.
type Render = fn(&Cells) -> Result<String, String>;

/// Every figure, in the paper's order: id, title, renderer.
const FIGURES: [(&str, &str, Render); 16] = [
    ("fig02_load_distribution", "Figure 2 — load instruction distribution under NoSQ", fig02),
    ("fig03_delayed_vs_bypassing", "Figure 3 — delayed vs bypassing load execution time (NoSQ)", fig03),
    ("fig05_lowconf_breakdown", "Figure 5 — low-confidence prediction outcomes (NoSQ)", fig05),
    ("fig12_speedup", "Figure 12 — SPEC 2006 speedup over the baseline", fig12),
    ("tab04_load_latency", "Table IV — average execution time of all loads", tab04),
    ("tab05_lowconf_latency", "Table V — execution time of low-confidence loads", tab05),
    ("tab06_mpki", "Table VI — memory dependence mispredictions (MPKI)", tab06),
    ("tab07_reexec_stalls", "Table VII — re-execution stall cycles per kilo-instruction", tab07),
    ("fig14_store_buffer", "Figure 14 — store buffer size sweep (DMDP)", fig14),
    ("fig15_edp", "Figure 15 — EDP of DMDP normalized to NoSQ", fig15),
    ("alt_issue_width", "§VI-g — 4-issue width: DMDP speedup over NoSQ", alt_issue_width),
    ("alt_rob_size", "§VI-g — 512-entry ROB: DMDP speedup over NoSQ", alt_rob_size),
    ("alt_rmo", "§VI-g — RMO consistency: DMDP speedup over NoSQ", alt_rmo),
    ("alt_regfile_pressure", "§VI-f — physical register pressure (DMDP over baseline)", alt_regfile_pressure),
    ("ablation_confidence", "§IV-E — biased vs balanced confidence update (DMDP)", ablation_confidence),
    ("ablation_silent_store", "§IV-C a — silent-store-aware predictor update", ablation_silent_store),
];

/// The main configuration's knob set.
const MAIN: &[&str] = &[""];

/// The figure ids `dmdp report --figure` accepts, besides `all`.
pub fn figure_ids() -> impl Iterator<Item = &'static str> {
    FIGURES.iter().map(|f| f.0)
}

/// Renders figure `id` (or `all` of them, in the paper's order) from
/// `campaign`, loaded from `artifact` (named in errors).
///
/// # Errors
///
/// An unknown id (listing the valid ones), or a cell the campaign has no
/// full-simulation row with figure counters for: the error names the
/// workload, model and knobs, and the `dmdp campaign` line that produces
/// it.
pub fn render_figure(id: &str, campaign: &Campaign, artifact: &Path) -> Result<String, String> {
    let figures: Vec<_> = FIGURES.iter().filter(|f| id == "all" || f.0 == id).collect();
    if figures.is_empty() {
        let ids: Vec<_> = figure_ids().collect();
        return Err(format!("unknown figure `{id}`; valid ids: {}, all", ids.join(", ")));
    }
    let scale = campaign.scale;
    let images: Vec<WorkloadImage> = dmdp_workloads::all(scale).into_iter().map(WorkloadImage::new).collect();
    let rows: HashMap<&str, &JobResult> = campaign.jobs.iter().map(|r| (r.digest.as_str(), r)).collect();
    let mut out = String::new();
    for (i, &&(id, title, render)) in figures.iter().enumerate() {
        let body = render(&Cells { id, scale, images: &images, rows: &rows, artifact })?;
        let gap = if i > 0 { "\n" } else { "" };
        let _ = write!(
            out,
            "{gap}=== {id}: {title} ===\nscale: {scale:?} ({} iteration units/kernel)\n",
            scale.iterations()
        );
        out.push_str(&body);
    }
    Ok(out)
}

/// Where one figure's cells come from: the artifact's rows by digest, and
/// the workload images the digests are computed over.
struct Cells<'a> {
    id: &'static str,
    scale: Scale,
    images: &'a [WorkloadImage],
    rows: &'a HashMap<&'a str, &'a JobResult>,
    artifact: &'a Path,
}

impl<'a> Cells<'a> {
    /// Every workload's row under each of `models` × `knobs` (knob sets in
    /// [`CfgPatch::parse`] form, `""` the main configuration), found by the
    /// digest [`CampaignSpec::jobs`] gives the cell at the artifact's scale.
    fn grid(&self, models: &[CommModel], knobs: &[&str]) -> Result<Grid<'a>, String> {
        // Variant labels are the knob texts: unique, and read back only for
        // messages.
        let variants = knobs.iter().map(|k| Ok((k.to_string(), CfgPatch::parse(k)?)));
        let spec = CampaignSpec::new(self.id, self.scale)
            .models(models.iter().copied())
            .variants(variants.collect::<Result<Vec<_>, String>>()?);
        let jobs =
            spec.jobs_over(self.images, 1, |_, _| Err("figures read full-simulation rows".to_string()))?;
        let cells = jobs.iter().map(|job| {
            let row = *self.rows.get(job.digest.as_str()).ok_or_else(|| self.missing(job, false))?;
            let text = row.figures.as_ref().ok_or_else(|| self.missing(job, true))?;
            let named =
                |e| format!("{} × {} in {}: {e}", job.workload, job.model.name(), self.artifact.display());
            Ok((row, text.counters().map_err(named)?))
        });
        let cells = cells.collect::<Result<_, String>>()?;
        Ok(Grid { images: self.images, models: models.to_vec(), knobs: knobs.len(), cells })
    }

    /// The error for a cell the artifact has no row for, or (`stale`) only
    /// a row without figure counters.
    fn missing(&self, job: &JobSpec, stale: bool) -> String {
        let knobs = match job.variant.as_str() {
            "" => "the main configuration".to_string(),
            k => format!("knobs `{k}`"),
        };
        let (id, model, scale) = (self.id, job.model.name(), self.scale.name());
        let artifact = self.artifact.display();
        // The campaign that writes every figure's cells into the artifact.
        let variants: String = UNION_VARIANTS.iter().map(|v| format!(" --variant {v}")).collect();
        let command = format!("dmdp campaign --scale {scale} --model all{variants} --out {artifact}");
        let (why, force) = if stale {
            (
                "holds that row without figure counters (written before they were recorded); re-simulate",
                " --force",
            )
        } else {
            ("has no full-simulation row for it; produce", "")
        };
        let workload = &job.workload;
        format!(
            "figure `{id}` needs {workload} × {model} with {knobs} at scale {scale}, and {artifact} {why} it \
             with\n  {command}{force}"
        )
    }
}

/// One figure's cells: per workload (reporting order), model and knob
/// set, the row and its figure counters.
struct Grid<'a> {
    images: &'a [WorkloadImage],
    models: Vec<CommModel>,
    knobs: usize,
    cells: Vec<(&'a JobResult, FigureCounters)>,
}

impl<'a> Grid<'a> {
    /// The workloads in reporting order: index, name (as a table cell)
    /// and suite.
    fn kernels(&self) -> impl Iterator<Item = (usize, String, Suite)> + 'a {
        self.images.iter().enumerate().map(|(w, k)| (w, k.name.to_string(), k.suite))
    }

    /// Workload `w` under `model` with knob set `knobs` (an index into the
    /// figure's list).
    fn cell(&self, w: usize, model: CommModel, knobs: usize) -> (&'a JobResult, FigureCounters) {
        let m =
            self.models.iter().position(|&x| x == model).expect("the figure declares the models it reads");
        self.cells[(w * self.models.len() + m) * self.knobs + knobs]
    }

    fn row(&self, w: usize, model: CommModel, knobs: usize) -> &'a JobResult {
        self.cell(w, model, knobs).0
    }

    fn counters(&self, w: usize, model: CommModel, knobs: usize) -> FigureCounters {
        self.cell(w, model, knobs).1
    }
}

/// Per-suite geometric means of `(suite, value)` rows, as `(int, fp)`.
fn suite_geomeans(rows: impl IntoIterator<Item = (Suite, f64)>) -> (f64, f64) {
    let rows: Vec<_> = rows.into_iter().collect();
    let of = |suite| geomean(rows.iter().filter(|r| r.0 == suite).map(|r| r.1));
    (of(Suite::Int), of(Suite::Fp))
}

fn fig02(c: &Cells) -> Result<String, String> {
    let g = c.grid(&[NoSq], MAIN)?;
    let mut t = Table::new(["bench", "direct%", "bypassing%", "delayed%"]);
    for (w, name, _) in g.kernels() {
        // `loads` runs direct, bypassed, delayed, predicated (`LoadSource::ALL`).
        let loads = g.counters(w, NoSq, 0).loads;
        let total: u64 = loads.iter().sum();
        let pct = |n: u64| format!("{:.1}", if total == 0 { 0.0 } else { 100.0 * (n as f64 / total as f64) });
        t.row([name, pct(loads[0]), pct(loads[1]), pct(loads[2])]);
    }
    Ok(format!("{t}\npaper shape: bzip2/gcc/mcf/hmmer/h264ref/astar show the largest Delayed fractions.\n"))
}

fn fig03(c: &Cells) -> Result<String, String> {
    let g = c.grid(&[NoSq], MAIN)?;
    let mut t = Table::new(["bench", "delayed(cyc)", "bypassing(cyc)", "log2 ratio"]);
    let (mut del_all, mut byp_all, mut n) = (0.0f64, 0.0f64, 0u32);
    for (w, name, _) in g.kernels() {
        let f = g.counters(w, NoSq, 0);
        let (d, b) = (f.delayed_latency, f.bypassed_latency);
        let ratio = if d > 0.0 && b > 0.0 {
            del_all += d;
            byp_all += b;
            n += 1;
            format!("{:+.2}", (d / b).log2())
        } else {
            "n/a".to_string()
        };
        t.row([name, format!("{d:.1}"), format!("{b:.1}"), ratio]);
    }
    let mut out = format!("{t}\n");
    if n > 0 {
        let ratio = (del_all / n as f64) / (byp_all / n as f64).max(1.0);
        let _ = writeln!(
            out,
            "mean over kernels with both classes: delayed/bypassing = {ratio:.1}x (paper: ~7x)"
        );
    }
    Ok(out)
}

fn fig05(c: &Cells) -> Result<String, String> {
    let g = c.grid(&[NoSq], MAIN)?;
    let mut t = Table::new(["bench", "indep%", "diff%", "correct%", "lowconf-loads"]);
    let mut tot = [0u64; 3];
    for (w, name, _) in g.kernels() {
        let b = g.counters(w, NoSq, 0).lowconf;
        let total = b.total().max(1) as f64;
        tot[0] += b.indep_store;
        tot[1] += b.diff_store;
        tot[2] += b.correct;
        let pct = |n: u64| format!("{:.1}", 100.0 * n as f64 / total);
        t.row([name, pct(b.indep_store), pct(b.diff_store), pct(b.correct), b.total().to_string()]);
    }
    let share = tot.map(|n| 100.0 * n as f64 / (tot[0] + tot[1] + tot[2]).max(1) as f64);
    Ok(format!(
        "{t}\nsuite: indep {:.1}%  diff {:.1}%  correct {:.1}%  (paper: IndepStore dominates; \
         naive-independent mispredict 11.4%, DMDP 3.7%)\n",
        share[0], share[1], share[2]
    ))
}

fn fig12(c: &Cells) -> Result<String, String> {
    let g = c.grid(&CommModel::ALL, MAIN)?;
    let mut t = Table::new(["bench", "base-IPC", "nosq", "dmdp", "perfect"]);
    let speedup = |w, m| g.row(w, m, 0).ipc / g.row(w, Baseline, 0).ipc;
    for (w, name, _) in g.kernels() {
        let rel = |m| format!("{:.3}", speedup(w, m));
        t.row([name, format!("{:.3}", g.row(w, Baseline, 0).ipc), rel(NoSq), rel(Dmdp), rel(Perfect)]);
    }
    let mut out = format!("{t}\n");
    for model in [NoSq, Dmdp, Perfect] {
        let (int, fp) = suite_geomeans(g.kernels().map(|(w, _, suite)| (suite, speedup(w, model))));
        let _ = writeln!(out, "{:8} geomean: Int {int:.3}  FP {fp:.3}", model.name());
    }
    out.push_str("paper    geomean: Int 0.975/1.045/1.068  FP 1.008/1.053/1.066 (nosq/dmdp/perfect)\n");
    Ok(out)
}

fn tab04(c: &Cells) -> Result<String, String> {
    let g = c.grid(&[Baseline, Dmdp], MAIN)?;
    let mut t = Table::new(["bench", "baseline(cyc)", "dmdp(cyc)", "saved%"]);
    let (mut b_sum, mut d_sum, mut n) = (0.0, 0.0, 0.0);
    for (w, name, _) in g.kernels() {
        let (b, d) = (g.row(w, Baseline, 0).load_mean_latency, g.row(w, Dmdp, 0).load_mean_latency);
        b_sum += b;
        d_sum += d;
        n += 1.0;
        t.row([
            name,
            format!("{b:.2}"),
            format!("{d:.2}"),
            format!("{:.1}", 100.0 * (1.0 - d / b.max(1e-9))),
        ]);
    }
    let (b, d) = (b_sum / n, d_sum / n);
    let saved = 100.0 * (1.0 - d / b);
    Ok(format!(
        "{t}\naverage: baseline {b:.2} -> dmdp {d:.2} cycles ({saved:.1}% saved; paper: 39.31 -> 31.15, >20% saved)\n"
    ))
}

fn tab05(c: &Cells) -> Result<String, String> {
    let g = c.grid(&[NoSq, Dmdp], MAIN)?;
    let mut t = Table::new(["bench", "nosq(cyc)", "dmdp(cyc)", "saved%", "n-lowconf"]);
    let mut savings = Vec::new();
    for (w, name, _) in g.kernels() {
        let nosq = g.counters(w, NoSq, 0);
        let (n, d, count) =
            (nosq.lowconf_latency, g.counters(w, Dmdp, 0).lowconf_latency, nosq.lowconf_loads);
        let saved = if n > 0.0 && d > 0.0 && count > 10 {
            let s = 100.0 * (1.0 - d / n);
            savings.push(s);
            format!("{s:.1}")
        } else {
            "n/a".to_string()
        };
        t.row([name, format!("{n:.1}"), format!("{d:.1}"), saved, count.to_string()]);
    }
    let mut out = format!("{t}\n");
    if !savings.is_empty() {
        let mean = savings.iter().sum::<f64>() / savings.len() as f64;
        let _ = writeln!(
            out,
            "mean saving over kernels with low-confidence loads: {mean:.1}% (paper avg 54.48%, max 79.25%)"
        );
    }
    Ok(out)
}

/// Tables VI and VII: one column per model, `cell` formatting each row.
fn nosq_vs_dmdp(c: &Cells, cell: impl Fn(&JobResult) -> String) -> Result<Table, String> {
    let g = c.grid(&[NoSq, Dmdp], MAIN)?;
    let mut t = Table::new(["bench", "nosq", "dmdp"]);
    for (w, name, _) in g.kernels() {
        t.row([name, cell(g.row(w, NoSq, 0)), cell(g.row(w, Dmdp, 0))]);
    }
    Ok(t)
}

fn tab06(c: &Cells) -> Result<String, String> {
    let t = nosq_vs_dmdp(c, |r| format!("{:.2}", r.mem_dep_mpki))?;
    Ok(format!("{t}\npaper reference points: hmmer NoSQ 3.06 vs DMDP 1.03; bzip2 has DMDP ~2x NoSQ.\n"))
}

fn tab07(c: &Cells) -> Result<String, String> {
    Ok(format!("{}\n", nosq_vs_dmdp(c, |r| format!("{:.1}", r.reexec_stalls_per_ki))?))
}

fn fig14(c: &Cells) -> Result<String, String> {
    let g = c.grid(&[Dmdp], &["sb:16", "sb:32", "sb:64"])?;
    let mut t = Table::new(["bench", "ipc@16", "32/16", "64/16"]);
    let (mut r32, mut r64, mut stalls) = (Vec::new(), Vec::new(), [0.0f64; 3]);
    for (w, name, suite) in g.kernels() {
        let ipc = [0, 1, 2].map(|i| {
            let (r, f) = g.cell(w, Dmdp, i);
            stalls[i] += mpki(f.sb_full_stall_cycles, r.retired_insns);
            r.ipc
        });
        r32.push((suite, ipc[1] / ipc[0]));
        r64.push((suite, ipc[2] / ipc[0]));
        t.row([
            name,
            format!("{:.3}", ipc[0]),
            format!("{:.3}", ipc[1] / ipc[0]),
            format!("{:.3}", ipc[2] / ipc[0]),
        ]);
    }
    let ((i32_, f32_), (i64_, f64_)) = (suite_geomeans(r32), suite_geomeans(r64));
    let stalls = stalls.map(|s| s / g.images.len() as f64);
    Ok(format!(
        "{t}\n32-entry geomean: Int {i32_:.3}  FP {f32_:.3}  (paper +2.07% / +3.81%)\n\
         64-entry geomean: Int {i64_:.3}  FP {f64_:.3}  (paper +2.77% / +5.01%)\n\
         mean SB-full stall cycles/ki: 16-entry {:.1}, 32-entry {:.1}, 64-entry {:.1} (paper 503.1 / 220.5 / 75.0)\n",
        stalls[0], stalls[1], stalls[2]
    ))
}

fn fig15(c: &Cells) -> Result<String, String> {
    let g = c.grid(&[NoSq, Dmdp], MAIN)?;
    let mut t = Table::new(["bench", "energy-ratio", "cycle-ratio", "edp-ratio"]);
    let mut rows = Vec::new();
    for (w, name, suite) in g.kernels() {
        let ((n, nf), (d, df)) = (g.cell(w, NoSq, 0), g.cell(w, Dmdp, 0));
        let e = df.energy_nj / nf.energy_nj;
        let cyc = d.cycles as f64 / n.cycles as f64;
        let edp = (df.energy_nj * d.cycles as f64) / (nf.energy_nj * n.cycles as f64);
        rows.push((suite, edp));
        t.row([name, format!("{e:.3}"), format!("{cyc:.3}"), format!("{edp:.3}")]);
    }
    let (int, fp) = suite_geomeans(rows);
    Ok(format!(
        "{t}\nEDP geomean (dmdp/nosq): Int {int:.3}  FP {fp:.3}  (paper 0.915 / 0.949)\n\
         shape: slight energy increase from predication uops, outweighed by shorter execution.\n"
    ))
}

/// The §VI-f/g shape: per kernel, the `num`/`den` IPC ratio under two knob
/// sets, then each set's suite geomeans. `sets[k]` is knob set `k`'s
/// knobs, column header, geomean tag and trailing note.
fn config_pair(
    c: &Cells,
    num: CommModel,
    den: CommModel,
    sets: [(&str, &str, &str, &str); 2],
) -> Result<String, String> {
    let g = c.grid(&[den, num], &sets.map(|s| s.0))?;
    let mut t = Table::new(["bench", sets[0].1, sets[1].1]);
    let mut ratios: [Vec<(Suite, f64)>; 2] = Default::default();
    for (w, name, suite) in g.kernels() {
        let ratio = [0, 1].map(|k| g.row(w, num, k).ipc / g.row(w, den, k).ipc);
        ratios[0].push((suite, ratio[0]));
        ratios[1].push((suite, ratio[1]));
        t.row([name, format!("{:.3}", ratio[0]), format!("{:.3}", ratio[1])]);
    }
    let mut out = format!("{t}\n");
    for ((_, _, tag, note), rows) in sets.into_iter().zip(ratios) {
        let (int, fp) = suite_geomeans(rows);
        let _ = writeln!(out, "geomean {}/{} @{tag}: Int {int:.3}  FP {fp:.3}{note}", num.name(), den.name());
    }
    Ok(out)
}

fn alt_issue_width(c: &Cells) -> Result<String, String> {
    config_pair(
        c,
        Dmdp,
        NoSq,
        [
            ("width:8", "w8 dmdp/nosq", "8-wide", "  (paper +7.17% / +4.48%)"),
            ("width:4", "w4 dmdp/nosq", "4-wide", "  (paper +4.56% / +2.41%)"),
        ],
    )
}

fn alt_rob_size(c: &Cells) -> Result<String, String> {
    // The PRF grows with the ROB so renaming is not starved.
    config_pair(
        c,
        Dmdp,
        NoSq,
        [
            ("rob:256,prf:320", "rob256 dmdp/nosq", "rob256", ""),
            ("rob:512,prf:640", "rob512 dmdp/nosq", "rob512", "  (paper +7.56% / +6.35%)"),
        ],
    )
}

fn alt_rmo(c: &Cells) -> Result<String, String> {
    config_pair(
        c,
        Dmdp,
        NoSq,
        [
            ("", "tso dmdp/nosq", "TSO", "  (paper +7.17% / +4.48%)"),
            ("rmo", "rmo dmdp/nosq", "RMO", "  (paper +7.67% / +4.08%)"),
        ],
    )
}

fn alt_regfile_pressure(c: &Cells) -> Result<String, String> {
    config_pair(
        c,
        Dmdp,
        Baseline,
        [
            ("prf:320", "prf320 dmdp/base", "prf320", ""),
            ("prf:160", "prf160 dmdp/base", "prf160", "  (paper: gain shrinks 4.94% -> 4.24%)"),
        ],
    )
}

fn ablation_confidence(c: &Cells) -> Result<String, String> {
    let g = c.grid(&[Dmdp], &["balanced", ""])?;
    let mut t =
        Table::new(["bench", "balanced-IPC", "biased-IPC", "bal-MPKI", "bias-MPKI", "bias-pred-uops"]);
    let mut rows = Vec::new();
    for (w, name, suite) in g.kernels() {
        let (bal, (bias, bias_counters)) = (g.row(w, Dmdp, 0), g.cell(w, Dmdp, 1));
        rows.push((suite, bias.ipc / bal.ipc));
        let uops = bias_counters.predication_uops.to_string();
        let (ipc, mpki) =
            (|r: &JobResult| format!("{:.3}", r.ipc), |r: &JobResult| format!("{:.2}", r.mem_dep_mpki));
        t.row([name, ipc(bal), ipc(bias), mpki(bal), mpki(bias), uops]);
    }
    let (int, fp) = suite_geomeans(rows);
    Ok(format!(
        "{t}\ngeomean biased/balanced IPC: Int {int:.3}  FP {fp:.3}\n\
         shape: biased has fewer mispredictions at the cost of more predications (paper §IV-E).\n"
    ))
}

fn ablation_silent_store(c: &Cells) -> Result<String, String> {
    let g = c.grid(&[NoSq, Dmdp], &["", "nosilent"])?;
    let mut t =
        Table::new(["bench", "model", "aware-IPC", "naive-IPC", "aware-reexec/ki", "naive-reexec/ki"]);
    let (ipc, reexec_ki) = (
        |r: &JobResult| format!("{:.3}", r.ipc),
        |r: &JobResult| format!("{:.2}", mpki(r.reexecutions, r.retired_insns)),
    );
    for (w, name, _) in g.kernels() {
        for model in [NoSq, Dmdp] {
            let (aware, naive) = (g.row(w, model, 0), g.row(w, model, 1));
            t.row([
                name.clone(),
                model.name().to_string(),
                ipc(aware),
                ipc(naive),
                reexec_ki(aware),
                reexec_ki(naive),
            ]);
        }
    }
    Ok(format!("{t}\nshape: the aware policy removes repeated silent-store re-executions (paper Fig. 10).\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_geomeans_split() {
        let (int, fp) = suite_geomeans([(Suite::Int, 2.0), (Suite::Int, 8.0), (Suite::Fp, 3.0)]);
        assert!((int - 4.0).abs() < 1e-12);
        assert!((fp - 3.0).abs() < 1e-12);
    }
}
