#![warn(missing_docs)]
//! # dmdp-energy
//!
//! An event-based dynamic-energy model standing in for the paper's
//! modified McPAT 1.4 (§V). The paper's power claims are *relative*
//! (Figure 15 normalizes DMDP's EDP to NoSQ's), and relative EDP is
//! driven by event counts: DMDP executes extra `CMP`/`CMOV` µops but
//! avoids recoveries, delayed-load bookkeeping, and — versus the baseline
//! — the associative store-queue search on every load. The pipeline
//! records one [`Event`] per structure access; this crate prices them.
//!
//! The per-event energies are documented constants with McPAT-like
//! relative magnitudes: CAM searches cost several RAM reads, DRAM dwarfs
//! everything, and small tables (T-SSBF, predictors) are cheap.
//!
//! # Example
//!
//! ```
//! use dmdp_energy::{EnergyModel, Event};
//! let mut e = EnergyModel::new();
//! e.record(Event::AluOp, 100);
//! e.record(Event::DramAccess, 1);
//! assert!(e.total_nj() > 15.0); // one DRAM access alone costs 15 nJ
//! let edp = e.edp(1_000);
//! assert!(edp > 0.0);
//! ```

use std::fmt;

/// A dynamic-energy event. Each variant corresponds to one access of a
/// micro-architectural structure.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Event {
    /// Instruction fetched from the I-cache.
    Fetch,
    /// Instruction decoded / µop-expanded.
    Decode,
    /// µop renamed (RAT read/write, free-list pop).
    Rename,
    /// µop written into the issue queue.
    IqWrite,
    /// Issue-queue wakeup/select activity for one issued µop.
    IqWakeup,
    /// Physical register file read port use.
    PrfRead,
    /// Physical register file write port use.
    PrfWrite,
    /// ALU / AGU / CMP / CMOV execution.
    AluOp,
    /// L1D read (demand load or re-execution).
    CacheRead,
    /// L1D write (committing store).
    CacheWrite,
    /// L2 access (either direction).
    L2Access,
    /// DRAM access.
    DramAccess,
    /// Associative store-queue search (baseline only; the expensive CAM
    /// the store-queue-free designs delete).
    SqSearch,
    /// Store-queue/load-queue entry write (baseline only).
    SqWrite,
    /// T-SSBF probe (NoSQ/DMDP retire-time verification).
    TssbfRead,
    /// T-SSBF insert (NoSQ/DMDP store retire).
    TssbfWrite,
    /// Dependence/branch predictor table read.
    PredictorRead,
    /// Dependence/branch predictor table update.
    PredictorWrite,
    /// ROB entry write/read pair over a µop's lifetime.
    Rob,
    /// Data TLB lookup (AGI µops).
    TlbAccess,
    /// Store-buffer insert/drain bookkeeping.
    StoreBufferOp,
    /// One squashed µop during a pipeline recovery (wasted work plus
    /// RAT/counter repair activity).
    SquashedUop,
}

impl Event {
    /// Every event kind, for iteration/reporting.
    pub const ALL: [Event; 22] = [
        Event::Fetch,
        Event::Decode,
        Event::Rename,
        Event::IqWrite,
        Event::IqWakeup,
        Event::PrfRead,
        Event::PrfWrite,
        Event::AluOp,
        Event::CacheRead,
        Event::CacheWrite,
        Event::L2Access,
        Event::DramAccess,
        Event::SqSearch,
        Event::SqWrite,
        Event::TssbfRead,
        Event::TssbfWrite,
        Event::PredictorRead,
        Event::PredictorWrite,
        Event::Rob,
        Event::TlbAccess,
        Event::StoreBufferOp,
        Event::SquashedUop,
    ];

    /// Energy per occurrence in nanojoules.
    ///
    /// Relative magnitudes follow McPAT-style intuition for a ~4 GHz
    /// 8-wide core: wide CAMs ≫ small RAMs, DRAM ≫ everything on-chip.
    pub fn nanojoules(self) -> f64 {
        match self {
            Event::Fetch => 0.050,
            Event::Decode => 0.030,
            Event::Rename => 0.060,
            Event::IqWrite => 0.040,
            Event::IqWakeup => 0.030,
            Event::PrfRead => 0.030,
            Event::PrfWrite => 0.040,
            Event::AluOp => 0.100,
            Event::CacheRead => 0.200,
            Event::CacheWrite => 0.250,
            Event::L2Access => 0.900,
            Event::DramAccess => 15.000,
            Event::SqSearch => 0.300,
            Event::SqWrite => 0.060,
            Event::TssbfRead => 0.040,
            Event::TssbfWrite => 0.040,
            Event::PredictorRead => 0.020,
            Event::PredictorWrite => 0.020,
            Event::Rob => 0.030,
            Event::TlbAccess => 0.020,
            Event::StoreBufferOp => 0.040,
            Event::SquashedUop => 0.150,
        }
    }

    /// Position in [`Event::ALL`], which lists the variants in
    /// declaration order (a test pins this).
    #[inline]
    fn index(self) -> usize {
        self as usize
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Event::Fetch => "fetch",
            Event::Decode => "decode",
            Event::Rename => "rename",
            Event::IqWrite => "iq-write",
            Event::IqWakeup => "iq-wakeup",
            Event::PrfRead => "prf-read",
            Event::PrfWrite => "prf-write",
            Event::AluOp => "alu",
            Event::CacheRead => "l1-read",
            Event::CacheWrite => "l1-write",
            Event::L2Access => "l2",
            Event::DramAccess => "dram",
            Event::SqSearch => "sq-search",
            Event::SqWrite => "sq-write",
            Event::TssbfRead => "tssbf-read",
            Event::TssbfWrite => "tssbf-write",
            Event::PredictorRead => "pred-read",
            Event::PredictorWrite => "pred-write",
            Event::Rob => "rob",
            Event::TlbAccess => "tlb",
            Event::StoreBufferOp => "store-buffer",
            Event::SquashedUop => "squashed-uop",
        }
    }
}

/// Accumulates event counts and prices them.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct EnergyModel {
    counts: [u64; Event::ALL.len()],
}

impl EnergyModel {
    /// Creates an empty model.
    pub fn new() -> EnergyModel {
        EnergyModel::default()
    }

    /// Records `n` occurrences of `event`.
    #[inline]
    pub fn record(&mut self, event: Event, n: u64) {
        self.counts[event.index()] += n;
    }

    /// Occurrences recorded for `event`.
    pub fn count(&self, event: Event) -> u64 {
        self.counts[event.index()]
    }

    /// Total dynamic energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        Event::ALL
            .iter()
            .map(|e| self.counts[e.index()] as f64 * e.nanojoules())
            .sum()
    }

    /// Energy-delay product: total energy × execution cycles (the paper's
    /// Figure 15 metric, meaningful in ratios).
    pub fn edp(&self, cycles: u64) -> f64 {
        self.total_nj() * cycles as f64
    }

    /// Merges another model's counts into this one.
    pub fn merge(&mut self, other: &EnergyModel) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// A per-event breakdown sorted by descending energy share (empty
    /// categories omitted).
    pub fn breakdown(&self) -> Vec<(Event, u64, f64)> {
        let mut rows: Vec<(Event, u64, f64)> = Event::ALL
            .iter()
            .map(|&e| (e, self.count(e), self.count(e) as f64 * e.nanojoules()))
            .filter(|&(_, n, _)| n > 0)
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        rows
    }
}

impl fmt::Debug for EnergyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnergyModel")
            .field("total_nj", &self.total_nj())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_model_is_zero() {
        assert_eq!(EnergyModel::new().total_nj(), 0.0);
    }

    #[test]
    fn record_and_count() {
        let mut e = EnergyModel::new();
        e.record(Event::AluOp, 3);
        e.record(Event::AluOp, 2);
        assert_eq!(e.count(Event::AluOp), 5);
        assert!((e.total_nj() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edp_scales_with_cycles() {
        let mut e = EnergyModel::new();
        e.record(Event::Fetch, 10);
        assert_eq!(e.edp(200), e.total_nj() * 200.0);
    }

    #[test]
    fn cam_search_costs_more_than_ram_read() {
        assert!(Event::SqSearch.nanojoules() > Event::TssbfRead.nanojoules());
        assert!(Event::DramAccess.nanojoules() > Event::L2Access.nanojoules());
        assert!(Event::L2Access.nanojoules() > Event::CacheRead.nanojoules());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = EnergyModel::new();
        a.record(Event::Rob, 1);
        let mut b = EnergyModel::new();
        b.record(Event::Rob, 2);
        b.record(Event::Fetch, 1);
        a.merge(&b);
        assert_eq!(a.count(Event::Rob), 3);
        assert_eq!(a.count(Event::Fetch), 1);
    }

    #[test]
    fn breakdown_sorted_and_filtered() {
        let mut e = EnergyModel::new();
        e.record(Event::DramAccess, 1);
        e.record(Event::Fetch, 10);
        let rows = e.breakdown();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, Event::DramAccess);
    }

    #[test]
    fn discriminants_index_all() {
        for (i, e) in Event::ALL.iter().enumerate() {
            assert_eq!(*e as usize, i, "{e:?} is out of place in Event::ALL");
        }
    }

    #[test]
    fn all_events_have_distinct_labels() {
        let mut labels: Vec<&str> = Event::ALL.iter().map(|e| e.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Event::ALL.len());
    }
}
