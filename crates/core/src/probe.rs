//! The pipeline probe layer: per-µop lifecycle observation that is
//! zero-cost when off.
//!
//! Every pipeline stage reports lifecycle events — fetched, renamed,
//! dispatched, issued, written back, retired, squashed, plus the
//! retire-time load-class resolution — through a [`Probe`] owned by the
//! pipeline. The default probe has no sinks attached: each hook is a
//! single `Option` discriminant test that the optimiser folds into the
//! caller, so the event-driven hot path (PR 2) is untouched
//! (`BENCH_PR3.json` records the overhead, and
//! `tests/golden_stats.rs` proves enabled probes do not perturb
//! *simulated* timing either — probes observe, never perturb).
//!
//! Two sinks live here:
//!
//! * [`Tracer`] — a stage-timeline tracer writing one JSONL record per
//!   µop (all stage cycles, the final load class, re-execution and
//!   squash markers). A µop is traced iff its *rename* cycle falls in
//!   the `[from, from + cycles)` window, so full-scale runs stay
//!   bounded.
//! * [`Sampler`] — a windowed time-series sampler recording IPC and
//!   structure occupancies every N cycles for plotting divergences over
//!   time.
//!
//! The third sink of the observability layer — the campaign job
//! reporter — lives in `dmdp-harness`, fed by pool lifecycle events
//! rather than µop events.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use dmdp_isa::uop::UopKind;
use dmdp_isa::Pc;
use dmdp_stats::LoadSource;

use crate::rob::SeqNum;
use crate::stats::SimStats;

/// Short stable label for a µop kind, used in trace records.
fn kind_label(kind: UopKind) -> &'static str {
    match kind {
        UopKind::Alu(_) => "alu",
        UopKind::Agi => "agi",
        UopKind::Load { .. } => "load",
        UopKind::Store { .. } => "store",
        UopKind::Branch(_) => "branch",
        UopKind::Jump { .. } => "jump",
        UopKind::Cmp { .. } => "cmp",
        UopKind::Cmov { .. } => "cmov",
        UopKind::ShiftMask { .. } => "shiftmask",
        UopKind::Halt => "halt",
        UopKind::Nop => "nop",
    }
}

/// Short stable label for a retired load's communication class.
fn class_label(class: LoadSource) -> &'static str {
    match class {
        LoadSource::Direct => "direct",
        LoadSource::Bypassed => "bypassed",
        LoadSource::Delayed => "delayed",
        LoadSource::Predicated => "predicated",
    }
}

/// One in-flight stage-timeline record. Stage cycles that have not
/// happened (yet, or ever — e.g. a store µop in the SQ-free models is
/// never issued) stay `None` and serialise as JSON `null`.
#[derive(Debug, Clone)]
struct TraceRec {
    pc: Pc,
    kind: &'static str,
    fetch: u64,
    rename: u64,
    dispatch: Option<u64>,
    issue: Option<u64>,
    wb: Option<u64>,
    load_class: Option<&'static str>,
    reexec: bool,
}

/// The stage-timeline tracer: accumulates per-µop records keyed by
/// sequence number and flushes one JSONL line when the µop leaves the
/// machine (retire or squash), so sequence-number reuse after a recovery
/// can never alias two µops into one record.
#[derive(Debug)]
struct Tracer {
    out: BufWriter<File>,
    /// Trace µops renamed in `[from, until)`.
    from: u64,
    until: u64,
    live: BTreeMap<SeqNum, TraceRec>,
    records: u64,
    /// First write error, if any; reported by [`Probe::finish`] instead
    /// of panicking mid-simulation.
    error: Option<String>,
    line: String,
}

impl Tracer {
    fn flush_rec(
        &mut self,
        seq: SeqNum,
        rec: &TraceRec,
        retire: Option<u64>,
        squash: Option<u64>,
    ) {
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"seq\":{seq},\"pc\":{},\"kind\":\"{}\",\"fetch\":{},\"rename\":{}",
            rec.pc, rec.kind, rec.fetch, rec.rename
        );
        for (key, v) in [
            ("dispatch", rec.dispatch),
            ("issue", rec.issue),
            ("wb", rec.wb),
            ("retire", retire),
            ("squash", squash),
        ] {
            match v {
                Some(c) => {
                    let _ = write!(self.line, ",\"{key}\":{c}");
                }
                None => {
                    let _ = write!(self.line, ",\"{key}\":null");
                }
            }
        }
        match rec.load_class {
            Some(c) => {
                let _ = write!(self.line, ",\"load_class\":\"{c}\"");
            }
            None => self.line.push_str(",\"load_class\":null"),
        }
        let _ = write!(self.line, ",\"reexec\":{}}}", rec.reexec);
        self.line.push('\n');
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(self.line.as_bytes()) {
                self.error = Some(e.to_string());
            } else {
                self.records += 1;
            }
        }
    }
}

/// One time-series window emitted by the sampler. All event counts are
/// deltas over the window ending at `cycle`; occupancies are end-of-window
/// snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Cycle the window ends at (inclusive).
    pub cycle: u64,
    /// Instructions retired in the window.
    pub insns: u64,
    /// Windowed IPC (`insns / window length`).
    pub ipc: f64,
    /// Instructions fetched in the window (includes wrong-path fetch).
    pub fetched: u64,
    /// ROB occupancy at the end of the window.
    pub rob: usize,
    /// Issue-queue occupancy at the end of the window.
    pub iq: usize,
    /// Ready-list length (IQ-ready + delayed-ready) at the end of the
    /// window.
    pub ready: usize,
    /// Store-buffer occupancy at the end of the window.
    pub sb: usize,
    /// Branch mispredictions in the window.
    pub branch_mispredicts: u64,
    /// Memory dependence mispredictions in the window.
    pub mem_dep_mispredicts: u64,
    /// Pipeline recoveries in the window.
    pub recoveries: u64,
    /// µops squashed in the window.
    pub squashed_uops: u64,
}

/// End-of-window occupancy snapshot, read by the pipeline (which owns
/// the structures) and handed to [`Probe::take_sample`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Occupancy {
    /// Live ROB entries.
    pub rob: usize,
    /// Issue-queue occupancy.
    pub iq: usize,
    /// Ready-list length (including delayed-ready loads).
    pub ready: usize,
    /// Store-buffer occupancy.
    pub sb: usize,
}

/// The windowed time-series sampler.
#[derive(Debug)]
struct Sampler {
    every: u64,
    last_cycle: u64,
    fetched: u64,
    prev_insns: u64,
    prev_bmiss: u64,
    prev_mmiss: u64,
    prev_recov: u64,
    prev_squash: u64,
    samples: Vec<Sample>,
}

/// Everything the probe collected, returned by [`Probe::finish`] (via
/// [`crate::Simulator::run_probed`]).
#[derive(Debug, Default)]
pub struct ProbeReport {
    /// JSONL records written by the tracer.
    pub trace_records: u64,
    /// First trace I/O error, if any (the run itself still completes).
    pub trace_error: Option<String>,
    /// Time-series windows collected by the sampler.
    pub samples: Vec<Sample>,
}

/// The per-pipeline probe: a set of optional sinks receiving µop
/// lifecycle events from every stage. [`Probe::default`] has no sinks
/// and makes every hook a single branch.
#[derive(Debug, Default)]
pub struct Probe {
    tracer: Option<Box<Tracer>>,
    sampler: Option<Box<Sampler>>,
}

impl Probe {
    /// Attaches a stage-timeline tracer writing JSONL to `path`. Only
    /// µops *renamed* in `[from, from + cycles)` are traced (`cycles =
    /// None` leaves the window open-ended).
    ///
    /// # Errors
    ///
    /// Returns the error from creating `path`. Write errors during the
    /// run are captured in [`ProbeReport::trace_error`] instead.
    pub fn with_trace(
        mut self,
        path: &Path,
        from: u64,
        cycles: Option<u64>,
    ) -> io::Result<Probe> {
        let file = File::create(path)?;
        self.tracer = Some(Box::new(Tracer {
            out: BufWriter::new(file),
            from,
            until: cycles.map_or(u64::MAX, |c| from.saturating_add(c)),
            live: BTreeMap::new(),
            records: 0,
            error: None,
            line: String::with_capacity(256),
        }));
        Ok(self)
    }

    /// Attaches a time-series sampler emitting one [`Sample`] every
    /// `every` cycles (plus a final partial window at halt).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_samples(mut self, every: u64) -> Probe {
        assert!(every > 0, "sample interval must be positive");
        self.sampler = Some(Box::new(Sampler {
            every,
            last_cycle: 0,
            fetched: 0,
            prev_insns: 0,
            prev_bmiss: 0,
            prev_mmiss: 0,
            prev_recov: 0,
            prev_squash: 0,
            samples: Vec::new(),
        }));
        self
    }

    /// Consumes the probe, flushing the tracer and returning everything
    /// collected.
    pub fn finish(self) -> ProbeReport {
        let mut report = ProbeReport::default();
        if let Some(mut t) = self.tracer {
            // µops still in flight at halt (wrong-path leftovers past the
            // halt µop) flush with neither retire nor squash.
            let live = std::mem::take(&mut t.live);
            for (seq, rec) in &live {
                t.flush_rec(*seq, rec, None, None);
            }
            if t.error.is_none() {
                if let Err(e) = t.out.flush() {
                    t.error = Some(e.to_string());
                }
            }
            report.trace_records = t.records;
            report.trace_error = t.error;
        }
        if let Some(s) = self.sampler {
            report.samples = s.samples;
        }
        report
    }

    // --- Per-µop hooks, called from the pipeline stages. Each starts
    // --- with a single cheap sink test so the off path costs one branch.

    /// An instruction entered the decode queue (sampler only; the
    /// per-µop fetch cycle reaches the tracer through `on_renamed`).
    #[inline]
    pub(crate) fn on_fetch(&mut self) {
        if let Some(s) = &mut self.sampler {
            s.fetched += 1;
        }
    }

    /// A µop was created at rename; opens its trace record when the
    /// rename cycle falls inside the trace window.
    #[inline]
    pub(crate) fn on_renamed(
        &mut self,
        cycle: u64,
        seq: SeqNum,
        pc: Pc,
        kind: UopKind,
        fetch_cycle: u64,
    ) {
        let Some(t) = &mut self.tracer else { return };
        if cycle < t.from || cycle >= t.until {
            return;
        }
        // Defensive: a stale record here would mean a squash failed to
        // flush; never alias two µops.
        if let Some(old) = t.live.remove(&seq) {
            debug_assert!(false, "trace record for seq {seq} not flushed before reuse");
            t.flush_rec(seq, &old, None, None);
        }
        t.live.insert(
            seq,
            TraceRec {
                pc,
                kind: kind_label(kind),
                fetch: fetch_cycle,
                rename: cycle,
                dispatch: None,
                issue: None,
                wb: None,
                load_class: None,
                reexec: false,
            },
        );
    }

    /// The µop entered the window (issue queue or the delayed-load
    /// parking area).
    #[inline]
    pub(crate) fn on_dispatched(&mut self, cycle: u64, seq: SeqNum) {
        if let Some(t) = &mut self.tracer {
            if let Some(r) = t.live.get_mut(&seq) {
                r.dispatch = Some(cycle);
            }
        }
    }

    /// The µop was selected and began executing. A baseline load that
    /// parks on the retry list re-issues later; the final attempt wins.
    #[inline]
    pub(crate) fn on_issued(&mut self, cycle: u64, seq: SeqNum) {
        if let Some(t) = &mut self.tracer {
            if let Some(r) = t.live.get_mut(&seq) {
                r.issue = Some(cycle);
            }
        }
    }

    /// The µop completed and wrote back (completion-calendar pop).
    #[inline]
    pub(crate) fn on_writeback(&mut self, cycle: u64, seq: SeqNum) {
        if let Some(t) = &mut self.tracer {
            if let Some(r) = t.live.get_mut(&seq) {
                r.wb = Some(cycle);
            }
        }
    }

    /// The load at `seq` entered retire-time re-execution.
    #[inline]
    pub(crate) fn on_reexec(&mut self, seq: SeqNum) {
        if let Some(t) = &mut self.tracer {
            if let Some(r) = t.live.get_mut(&seq) {
                r.reexec = true;
            }
        }
    }

    /// The µop retired; for a load, `class` is its resolved
    /// communication class. Flushes the trace record.
    #[inline]
    pub(crate) fn on_retired(&mut self, cycle: u64, seq: SeqNum, class: Option<LoadSource>) {
        let Some(t) = &mut self.tracer else { return };
        if let Some(mut rec) = t.live.remove(&seq) {
            rec.load_class = class.map(class_label);
            t.flush_rec(seq, &rec, Some(cycle), None);
        }
    }

    /// The µop was squashed by a recovery. Flushes the trace record
    /// (squashed µops never report a retire).
    #[inline]
    pub(crate) fn on_squashed(&mut self, cycle: u64, seq: SeqNum) {
        let Some(t) = &mut self.tracer else { return };
        if let Some(rec) = t.live.remove(&seq) {
            t.flush_rec(seq, &rec, None, Some(cycle));
        }
    }

    // --- Sampler driver, called once per cycle from `step_cycle`.

    /// Whether a sample window ends at `cycle`.
    #[inline]
    pub(crate) fn sample_due(&self, cycle: u64) -> bool {
        matches!(&self.sampler, Some(s) if cycle > s.last_cycle
            && cycle.is_multiple_of(s.every))
    }

    /// Whether a final partial window remains at end of run.
    #[inline]
    pub(crate) fn sample_pending(&self, cycle: u64) -> bool {
        matches!(&self.sampler, Some(s) if cycle > s.last_cycle)
    }

    /// Closes the window ending at `cycle` from the cumulative stats and
    /// the end-of-window occupancy snapshot.
    pub(crate) fn take_sample(&mut self, cycle: u64, stats: &SimStats, occ: Occupancy) {
        let Some(s) = &mut self.sampler else { return };
        let window = cycle - s.last_cycle;
        debug_assert!(window > 0);
        let insns = stats.retired_insns - s.prev_insns;
        s.samples.push(Sample {
            cycle,
            insns,
            ipc: insns as f64 / window as f64,
            fetched: s.fetched,
            rob: occ.rob,
            iq: occ.iq,
            ready: occ.ready,
            sb: occ.sb,
            branch_mispredicts: stats.branch_mispredicts - s.prev_bmiss,
            mem_dep_mispredicts: stats.mem_dep_mispredicts - s.prev_mmiss,
            recoveries: stats.recoveries - s.prev_recov,
            squashed_uops: stats.squashed_uops - s.prev_squash,
        });
        s.last_cycle = cycle;
        s.fetched = 0;
        s.prev_insns = stats.retired_insns;
        s.prev_bmiss = stats.branch_mispredicts;
        s.prev_mmiss = stats.mem_dep_mispredicts;
        s.prev_recov = stats.recoveries;
        s.prev_squash = stats.squashed_uops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_probe_is_off() {
        let p = Probe::default();
        assert!(!p.sample_due(64));
        let r = p.finish();
        assert_eq!(r.trace_records, 0);
        assert!(r.trace_error.is_none());
        assert!(r.samples.is_empty());
    }

    #[test]
    fn sampler_windows_and_final_partial() {
        let mut p = Probe::default().with_samples(10);
        assert!(!p.sample_due(5));
        assert!(p.sample_due(10));
        let mut stats = SimStats { retired_insns: 25, ..SimStats::default() };
        p.take_sample(10, &stats, Occupancy { rob: 3, iq: 2, ready: 1, sb: 0 });
        assert!(!p.sample_due(10), "window already closed");
        // Final partial window at halt.
        stats.retired_insns = 30;
        assert!(p.sample_pending(14));
        p.take_sample(14, &stats, Occupancy::default());
        let r = p.finish();
        assert_eq!(r.samples.len(), 2);
        assert_eq!(r.samples[0].insns, 25);
        assert_eq!(r.samples[0].ipc, 2.5);
        assert_eq!(r.samples[0].rob, 3);
        assert_eq!(r.samples[1].cycle, 14);
        assert_eq!(r.samples[1].insns, 5);
        assert_eq!(r.samples[1].ipc, 1.25);
    }

    #[test]
    fn tracer_windows_on_rename_cycle() {
        let dir = std::env::temp_dir().join(format!("dmdp-probe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("window.jsonl");
        let mut p = Probe::default().with_trace(&path, 10, Some(5)).unwrap();
        p.on_renamed(9, 1, 0, UopKind::Nop, 8); // before window
        p.on_renamed(10, 2, 1, UopKind::Nop, 9); // in window
        p.on_renamed(14, 3, 2, UopKind::Halt, 13); // in window
        p.on_renamed(15, 4, 3, UopKind::Nop, 14); // past window
        p.on_retired(11, 1, None);
        p.on_retired(12, 2, None);
        p.on_squashed(16, 3);
        p.on_retired(17, 4, None);
        let r = p.finish();
        assert!(r.trace_error.is_none());
        assert_eq!(r.trace_records, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":2") && lines[0].contains("\"retire\":12"));
        assert!(lines[1].contains("\"seq\":3") && lines[1].contains("\"squash\":16"));
        assert!(lines[1].contains("\"retire\":null"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
