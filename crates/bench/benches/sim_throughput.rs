//! Benchmark of the simulator itself: simulated instructions per second
//! for each communication model (not a paper artifact). Hand-rolled
//! timing harness — the repository builds fully offline, so no criterion.
//!
//! Usage: `sim_throughput [--scale test|small|full] [--repeats N] [kernel ...]`
//! (defaults: test scale, 1 repeat; a mix of branchy and memory-bound
//! kernels). `--repeats N` runs N independent measurement loops per
//! (kernel × model) and reports the fastest — min-of-N strips scheduler
//! and frequency noise from comparisons across commits.
//!
//! Output is line-oriented, for scripts to parse:
//! one `calib <Mops>` line (a fixed xorshift64 loop timed on this host,
//! for normalising MIPS across machines), then one
//! `<kernel> <model> <ms/run> ms/run <MIPS> MIPS (<n> iters)` line per
//! (kernel × model) pair.

use std::hint::black_box;
use std::time::Instant;

use dmdp_core::{CommModel, Simulator};
use dmdp_workloads::{by_name, Scale};

/// Kernels benchmarked when none are named on the command line: gcc is
/// branchy/recovery-heavy (worst case for event bookkeeping), mcf, milc
/// and lbm are memory-bound (high IQ/calendar occupancy, where the old
/// per-cycle rescans were most expensive).
const DEFAULT_KERNELS: &[&str] = &["gcc", "mcf", "milc", "lbm"];

/// Times a fixed 64M-step xorshift64 loop and returns host mega-ops/s.
/// The loop is pure register arithmetic, so the figure tracks the
/// single-core integer speed the simulator itself is bound by.
fn calibrate() -> f64 {
    let n = 1u64 << 26;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let start = Instant::now();
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    let secs = start.elapsed().as_secs_f64();
    n as f64 / secs / 1e6
}

fn main() {
    let mut scale = Scale::Test;
    let mut repeats = 1u32;
    let mut kernels: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().expect("--scale needs a value");
                scale = Scale::from_name(&v)
                    .unwrap_or_else(|| panic!("unknown scale {v:?} (test|small|full)"));
            }
            "--repeats" => {
                let v = args.next().expect("--repeats needs a value");
                repeats = v.parse().expect("--repeats takes a positive integer");
                assert!(repeats >= 1, "--repeats takes a positive integer");
            }
            // `cargo bench` appends `--bench` to the harness arguments.
            "--bench" => {}
            _ => kernels.push(a),
        }
    }
    if kernels.is_empty() {
        kernels = DEFAULT_KERNELS.iter().map(|s| s.to_string()).collect();
    }

    println!("=== sim_throughput: simulator speed at {} scale ===", scale.name());
    println!("calib {:.1} host Mops (xorshift64)", calibrate());

    for name in &kernels {
        let w = by_name(name, scale)
            .unwrap_or_else(|| panic!("unknown kernel {name:?} (see dmdp-workloads)"));
        let insns = {
            let mut emu = dmdp_isa::Emulator::new(&w.program);
            emu.run(1_000_000_000).expect("halts").retired
        };
        println!("--- {name}/{} ({insns} insns) ---", scale.name());
        for model in CommModel::ALL {
            let sim = Simulator::new(model);
            // Warm up, then measure enough iterations for a stable
            // number; with --repeats, keep the fastest of N such loops.
            for _ in 0..3 {
                black_box(sim.run(&w.program).expect("runs"));
            }
            let mut best_per_run = f64::INFINITY;
            let mut best_iters = 0u32;
            for _ in 0..repeats {
                let mut iters = 0u32;
                let start = Instant::now();
                while iters < 5 || start.elapsed().as_millis() < 500 {
                    black_box(sim.run(&w.program).expect("runs"));
                    iters += 1;
                }
                let per_run = start.elapsed().as_secs_f64() / iters as f64;
                if per_run < best_per_run {
                    best_per_run = per_run;
                    best_iters = iters;
                }
            }
            let mips = insns as f64 / best_per_run / 1e6;
            println!(
                "{name:9} {:9} {:>8.3} ms/run {mips:>8.2} MIPS ({best_iters} iters)",
                model.name(),
                best_per_run * 1e3,
            );
        }
    }
}
