#![warn(missing_docs)]
//! # dmdp-workloads
//!
//! Synthetic analogues of the 21 SPEC CPU2006 benchmarks the paper
//! simulates (§V), one kernel per benchmark, each engineered to
//! reproduce that benchmark's *memory-dependence character* — the only
//! property the DMDP mechanisms are sensitive to:
//!
//! * the mix of never/always/occasionally colliding loads (paper §II),
//! * store→load collision distance stability (drives confidence),
//! * silent stores (paper §IV-C a),
//! * partial-word store/load overlap (paper §IV-D),
//! * cache-miss behaviour and store-buffer pressure (§VI-e),
//! * branch-path-dependent collision distances (the path-sensitive
//!   predictor's reason to exist).
//!
//! Every kernel is deterministic: data is generated from a fixed seed and
//! the kernel ends with a checksum loop plus `halt`, so the functional
//! emulator can validate every simulator model against it.
//!
//! # Example
//!
//! ```
//! use dmdp_workloads::{all, by_name, Scale};
//! assert_eq!(all(Scale::Test).len(), 21);
//! let w = by_name("bzip2", Scale::Test).expect("bzip2 analogue exists");
//! assert_eq!(w.suite, dmdp_workloads::Suite::Int);
//! assert!(w.program.len() > 10);
//! ```

mod fp;
mod gen;
mod int;

use dmdp_isa::Program;

/// The benchmark suite a workload belongs to (the paper reports separate
/// Int and FP geomeans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPECint 2006 analogues.
    Int,
    /// SPECfp 2006 analogues (long-latency arithmetic stands in for FP).
    Fp,
}

/// How big to build the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// A few thousand dynamic instructions — fast unit tests.
    Test,
    /// Tens of thousands — integration tests and quick experiments.
    Small,
    /// Hundreds of thousands — the benchmark harness default.
    Full,
    /// Tens of millions — 10× `Full`; full detailed simulation at this
    /// scale is painfully slow by design, it exists to exercise the
    /// sampled-simulation pipeline (checkpoint fast-forward).
    Huge,
}

impl Scale {
    /// The iteration multiplier kernels derive their trip counts from.
    pub fn iterations(self) -> u32 {
        match self {
            Scale::Test => 64,
            Scale::Small => 512,
            Scale::Full => 4096,
            Scale::Huge => 40960,
        }
    }

    /// Stable lower-case name (CLI values and JSON artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Full => "full",
            Scale::Huge => "huge",
        }
    }

    /// Inverse of [`Scale::name`].
    pub fn from_name(name: &str) -> Option<Scale> {
        match name {
            "test" => Some(Scale::Test),
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            "huge" => Some(Scale::Huge),
            _ => None,
        }
    }
}

impl Suite {
    /// Stable lower-case name (JSON artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Suite::Int => "int",
            Suite::Fp => "fp",
        }
    }

    /// Inverse of [`Suite::name`].
    pub fn from_name(name: &str) -> Option<Suite> {
        match name {
            "int" => Some(Suite::Int),
            "fp" => Some(Suite::Fp),
            _ => None,
        }
    }
}

/// A named, buildable workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The SPEC benchmark this kernel is an analogue of.
    pub name: &'static str,
    /// Which suite the paper reports it under.
    pub suite: Suite,
    /// What memory-dependence behaviour the kernel reproduces.
    pub character: &'static str,
    /// The assembled program.
    pub program: Program,
}

/// All 21 workloads, in the paper's reporting order (Int then FP).
pub fn all(scale: Scale) -> Vec<Workload> {
    let n = scale.iterations();
    vec![
        int::perl(n),
        int::bzip2(n),
        int::gcc(n),
        int::mcf(n),
        int::gobmk(n),
        int::hmmer(n),
        int::sjeng(n),
        int::lib(n),
        int::h264ref(n),
        int::astar(n),
        fp::bwaves(n),
        fp::milc(n),
        fp::zeusmp(n),
        fp::gromacs(n),
        fp::leslie3d(n),
        fp::namd(n),
        fp::gems(n),
        fp::tonto(n),
        fp::lbm(n),
        fp::wrf(n),
        fp::sphinx3(n),
    ]
}

/// Looks up one workload by its SPEC name.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    all(scale).into_iter().find(|w| w.name == name)
}

/// The kernel names, in the paper's reporting order — for `unknown
/// workload` diagnostics that must list the valid spellings without
/// assembling 21 programs at the requested scale.
pub fn names() -> [&'static str; 21] {
    [
        "perl", "bzip2", "gcc", "mcf", "gobmk", "hmmer", "sjeng", "lib", "h264ref", "astar",
        "bwaves", "milc", "zeusmp", "gromacs", "leslie3d", "namd", "Gems", "tonto", "lbm", "wrf",
        "sphinx3",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmdp_isa::Emulator;

    #[test]
    fn twenty_one_workloads_ten_int_eleven_fp() {
        let ws = all(Scale::Test);
        assert_eq!(ws.len(), 21);
        assert_eq!(ws.iter().filter(|w| w.suite == Suite::Int).count(), 10);
        assert_eq!(ws.iter().filter(|w| w.suite == Suite::Fp).count(), 11);
    }

    #[test]
    fn names_matches_the_workload_list() {
        let ws = all(Scale::Test);
        assert_eq!(names().to_vec(), ws.iter().map(|w| w.name).collect::<Vec<_>>());
    }

    #[test]
    fn names_are_unique() {
        let ws = all(Scale::Test);
        let mut names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 21);
    }

    #[test]
    fn every_kernel_halts_functionally() {
        for w in all(Scale::Test) {
            let mut emu = Emulator::new(&w.program);
            let r = emu
                .run(50_000_000)
                .unwrap_or_else(|e| panic!("{} does not halt: {e}", w.name));
            assert!(r.retired > 500, "{} too small: {} instructions", w.name, r.retired);
            assert!(r.loads > 0 && r.stores > 0, "{} must touch memory", w.name);
        }
    }

    #[test]
    fn scales_are_ordered() {
        let small = by_name("mcf", Scale::Test).unwrap();
        let big = by_name("mcf", Scale::Small).unwrap();
        let mut e1 = Emulator::new(&small.program);
        let mut e2 = Emulator::new(&big.program);
        let r1 = e1.run(100_000_000).unwrap();
        let r2 = e2.run(100_000_000).unwrap();
        assert!(r2.retired > r1.retired);
    }

    #[test]
    fn huge_scale_parses_and_is_ten_x_full() {
        assert_eq!(Scale::from_name("huge"), Some(Scale::Huge));
        assert_eq!(Scale::Huge.name(), "huge");
        assert!(Scale::Huge.iterations() >= 10 * Scale::Full.iterations());
        assert!(Scale::Huge.iterations() >= 40960);
    }

    #[test]
    fn deterministic_builds() {
        let a = by_name("gcc", Scale::Test).unwrap();
        let b = by_name("gcc", Scale::Test).unwrap();
        assert_eq!(a.program.text(), b.program.text());
        assert_eq!(a.program.data(), b.program.data());
    }
}
