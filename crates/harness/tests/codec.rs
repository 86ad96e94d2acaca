//! The row codec: `JobResult` and `Campaign` written and read member by
//! member, without a `Json` tree.
//!
//! - Golden text: `tests/golden/` holds a small artifact (pretty and
//!   compact) and one store file written by the tree writer the codec
//!   replaced. The codec must reproduce them byte for byte, and `load`
//!   followed by `save` must give the same file back.
//! - A seeded property test: random rows read back bit for bit in both
//!   styles, and the compact text equals what the tree writer makes of
//!   the parsed text.
//! - The reader's tolerance: members in any order, unknown members
//!   skipped, optional members defaulted when absent or mistyped, the
//!   first of two duplicate keys winning, and a missing required member
//!   named in the error.

use std::path::Path;

use dmdp_core::{CommModel, LowConfBreakdown};
use dmdp_harness::{Campaign, FigureCounters, JobResult, Json, Parser, Sampling, StageWall, Writer};
use dmdp_prng::Prng;
use dmdp_workloads::{Scale, Suite};

/// The hand-built rows and campaign whose text is pinned byte for byte:
/// a full row with figure counters and awkward floats and counts, a
/// sampled row under an escaped label, a row written before the figure
/// counters existed, and campaign metadata with every optional member.
fn golden_rows() -> Vec<JobResult> {
    let figures = FigureCounters {
        loads: [11, 0, 3, 9_007_199_254_740_992],
        delayed_latency: 12.345678901234567,
        bypassed_latency: 0.1,
        lowconf: LowConfBreakdown { indep_store: 1, diff_store: 2, correct: 3 },
        lowconf_loads: 6,
        lowconf_latency: 5e-324,
        sb_full_stall_cycles: 0,
        energy_nj: 1.0e21,
        predication_uops: 77,
    };
    let full = JobResult {
        workload: "mcf".to_string(),
        suite: Suite::Int,
        model: CommModel::Baseline,
        variant: "main".to_string(),
        digest: "0123456789abcdef".to_string(),
        wall_s: 0.125,
        started_s: 0.5,
        finished_s: 0.625,
        mips: 3.25,
        cycles: 123_456,
        retired_insns: 234_567,
        retired_uops: 345_678,
        ipc: 1.9000016200051842,
        mem_dep_mpki: 1e-300,
        load_mean_latency: 0.0,
        branch_mispredicts: 42,
        mem_dep_mispredicts: 7,
        reexecutions: 9_007_199_254_740_992,
        reexec_stalls_per_ki: f64::MAX,
        mean_ready_len: 12_345_678_901_234_567.0,
        wakeups_per_kilocycle: 5e-324,
        calendar_pops: 8_999_999_999_999_999,
        plan_builds: 3,
        plan_hits: 4,
        cached: false,
        sampled: false,
        interval_insns: 0,
        warmup_intervals: 0,
        intervals_total: 0,
        intervals_simulated: 0,
        figures: Some(figures.to_text()),
        stats: None,
    };
    let sampled = JobResult {
        workload: "lbm".to_string(),
        suite: Suite::Fp,
        model: CommModel::Dmdp,
        variant: "sweep \"q\" \\ \t\n\u{1}\u{1f} λ 😀".to_string(),
        digest: "fedcba9876543210".to_string(),
        retired_uops: 0,
        mem_dep_mpki: 0.0,
        branch_mispredicts: 0,
        cached: true,
        sampled: true,
        interval_insns: 1000,
        warmup_intervals: 2,
        intervals_total: 50,
        intervals_simulated: 6,
        figures: None,
        ..full.clone()
    };
    let old = JobResult {
        model: CommModel::Dmdp,
        digest: "00112233445566ff".to_string(),
        ipc: 2.0,
        wall_s: 7.0,
        mean_ready_len: 0.0,
        wakeups_per_kilocycle: 0.0,
        calendar_pops: 0,
        plan_builds: 0,
        plan_hits: 0,
        figures: None,
        ..full.clone()
    };
    let fp = JobResult {
        workload: "lbm".to_string(),
        suite: Suite::Fp,
        digest: "aaaaaaaaaaaaaaaa".to_string(),
        ipc: 0.75,
        ..full.clone()
    };
    vec![full, sampled, old, fp]
}

fn golden_campaign() -> Campaign {
    Campaign {
        name: "golden \"codec\" é".to_string(),
        scale: Scale::Test,
        sim_version: "golden-sim".to_string(),
        created_unix: 1_700_000_000,
        wall_s: 1.5,
        stages: StageWall { build_s: 0.25, cache_s: 0.0, exec_s: 1.0, aggregate_s: 0.125 },
        executed: 3,
        cached: 1,
        cache_warning: None,
        trace_id: Some("t-1-2".to_string()),
        sampling: Some(Sampling { interval_insns: 1000, warmup_intervals: 2 }),
        jobs: golden_rows(),
    }
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every field, floats by their bits.
fn assert_same_row(got: &JobResult, want: &JobResult) {
    let text = |r: &JobResult| Writer::compact(|w| r.write(w));
    let floats = |r: &JobResult| {
        [
            r.wall_s,
            r.started_s,
            r.finished_s,
            r.mips,
            r.ipc,
            r.mem_dep_mpki,
            r.load_mean_latency,
            r.reexec_stalls_per_ki,
            r.mean_ready_len,
            r.wakeups_per_kilocycle,
        ]
        .map(f64::to_bits)
    };
    let counts = |r: &JobResult| {
        [
            r.cycles,
            r.retired_insns,
            r.retired_uops,
            r.branch_mispredicts,
            r.mem_dep_mispredicts,
            r.reexecutions,
            r.calendar_pops,
            r.plan_builds,
            r.plan_hits,
            r.interval_insns,
            r.warmup_intervals,
            r.intervals_total,
            r.intervals_simulated,
        ]
    };
    let named = |r: &JobResult| {
        (r.workload.clone(), r.suite, r.model, r.variant.clone(), r.digest.clone(), r.cached, r.sampled)
    };
    assert_eq!(named(got), named(want), "{}", text(want));
    assert_eq!(floats(got), floats(want), "{}", text(want));
    assert_eq!(counts(got), counts(want), "{}", text(want));
    assert_eq!(got.figures, want.figures, "{}", text(want));
    assert!(got.stats.is_none());
}

fn read_campaign(text: &str) -> Result<Campaign, String> {
    Parser::document(text, Campaign::read)
}

fn read_row(text: &str) -> Result<JobResult, String> {
    Parser::document(text, JobResult::read)
}

#[test]
fn the_writer_reproduces_the_golden_text() {
    let campaign = golden_campaign();
    assert_eq!(Writer::pretty(|w| campaign.write(w)), golden("campaign.json"));
    assert_eq!(Writer::compact(|w| campaign.write(w)), golden("campaign-compact.json"));
    // A store file is the pretty row.
    assert_eq!(Writer::pretty(|w| golden_rows()[0].write(w)), golden("row.json"));
    // The tree writer agrees with the direct one.
    assert_eq!(Json::parse(&golden("campaign.json")).unwrap().pretty(), golden("campaign.json"));
}

#[test]
fn the_golden_text_reads_back_and_saves_identically() {
    let back = read_campaign(&golden("campaign.json")).unwrap();
    let want = golden_campaign();
    assert_eq!(back.jobs.len(), want.jobs.len());
    for (got, want) in back.jobs.iter().zip(&want.jobs) {
        assert_same_row(got, want);
    }
    assert_eq!((back.name.as_str(), back.scale, back.sim_version.as_str()), ("golden \"codec\" é", Scale::Test, "golden-sim"));
    assert_eq!((back.created_unix, back.wall_s.to_bits(), back.stages), (1_700_000_000, 1.5f64.to_bits(), want.stages));
    assert_eq!((back.executed, back.cached, back.trace_id.as_deref()), (3, 1, Some("t-1-2")));
    assert_eq!(back.sampling, want.sampling);
    assert_same_row(&read_row(&golden("row.json")).unwrap(), &golden_rows()[0]);
    assert_eq!(read_campaign(&golden("campaign-compact.json")).unwrap().jobs.len(), 4);

    // `load` then `save` gives the file back byte for byte.
    let dir = std::env::temp_dir().join(format!("dmdp-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (src, dst) = (dir.join("golden.json"), dir.join("resaved.json"));
    std::fs::write(&src, golden("campaign.json")).unwrap();
    Campaign::load(&src).unwrap().save(&dst).unwrap();
    assert_eq!(std::fs::read(&dst).unwrap(), golden("campaign.json").into_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

/// A label drawn from plain text, JSON's escapes, control characters
/// and non-ASCII.
fn label(rng: &mut Prng) -> String {
    const PIECES: [&str; 10] = ["rob", "\"", "\\", "\n", "\t", "\u{1}", "\u{1f}", "λ", "😀", "/"];
    (0..rng.index(8)).map(|_| PIECES[rng.index(PIECES.len())]).collect()
}

fn float(rng: &mut Prng) -> f64 {
    const SPECIAL: [f64; 9] = [0.0, -0.0, 1e-300, 5e-324, f64::MAX, 9.5e15, 12_345_678_901_234_567.0, 0.1, 1.0];
    let x = if rng.flip() {
        SPECIAL[rng.index(SPECIAL.len())]
    } else {
        // Any finite bit pattern.
        loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x.abs();
            }
        }
    };
    // Negative values round-trip too, negative zero included.
    if rng.chance(1, 4) {
        -x
    } else {
        x
    }
}

fn count(rng: &mut Prng) -> u64 {
    match rng.index(4) {
        0 => 0,
        1 => rng.next_u64() >> 11, // up to 2^53
        2 => 1 << 53,
        _ => u64::from(rng.next_u32()),
    }
}

fn random_row(rng: &mut Prng) -> JobResult {
    let mut r = golden_rows()[0].clone();
    r.workload = label(rng);
    r.suite = if rng.flip() { Suite::Int } else { Suite::Fp };
    r.model = CommModel::ALL[rng.index(CommModel::ALL.len())];
    r.variant = label(rng);
    r.digest = label(rng);
    for f in [
        &mut r.wall_s,
        &mut r.started_s,
        &mut r.finished_s,
        &mut r.mips,
        &mut r.ipc,
        &mut r.mem_dep_mpki,
        &mut r.load_mean_latency,
        &mut r.reexec_stalls_per_ki,
        &mut r.mean_ready_len,
        &mut r.wakeups_per_kilocycle,
    ] {
        *f = float(rng);
    }
    for c in [
        &mut r.cycles,
        &mut r.retired_insns,
        &mut r.retired_uops,
        &mut r.branch_mispredicts,
        &mut r.mem_dep_mispredicts,
        &mut r.reexecutions,
        &mut r.calendar_pops,
        &mut r.plan_builds,
        &mut r.plan_hits,
    ] {
        *c = count(rng);
    }
    r.cached = rng.flip();
    r.sampled = rng.flip();
    if r.sampled {
        r.interval_insns = count(rng);
        r.warmup_intervals = count(rng);
        r.intervals_total = count(rng);
        r.intervals_simulated = count(rng);
    } else {
        (r.interval_insns, r.warmup_intervals, r.intervals_total, r.intervals_simulated) = (0, 0, 0, 0);
    }
    r.figures = rng.flip().then(|| {
        FigureCounters {
            loads: [count(rng), count(rng), count(rng), count(rng)],
            delayed_latency: float(rng).abs(),
            energy_nj: float(rng).abs(),
            ..FigureCounters::default()
        }
        .to_text()
    });
    r
}

#[test]
fn random_rows_read_back_bit_for_bit_in_both_styles() {
    let mut rng = Prng::new(0x0c0d_ec23);
    for _ in 0..2_000 {
        let row = random_row(&mut rng);
        let compact = Writer::compact(|w| row.write(w));
        let pretty = Writer::pretty(|w| row.write(w));
        assert!(!compact.contains('\n'), "{compact}");
        assert_same_row(&read_row(&compact).unwrap(), &row);
        assert_same_row(&read_row(&pretty).unwrap(), &row);
        let tree = Json::parse(&compact).unwrap();
        assert_eq!(tree.compact(), compact);
        assert_eq!(tree.pretty(), pretty);
    }
}

#[test]
fn a_campaign_of_random_rows_round_trips() {
    let mut rng = Prng::new(7);
    let campaign = Campaign { jobs: (0..50).map(|_| random_row(&mut rng)).collect(), ..golden_campaign() };
    for text in [Writer::compact(|w| campaign.write(w)), Writer::pretty(|w| campaign.write(w))] {
        let back = read_campaign(&text).unwrap();
        for (got, want) in back.jobs.iter().zip(&campaign.jobs) {
            assert_same_row(got, want);
        }
        assert_eq!(Json::parse(&text).unwrap().compact(), Writer::compact(|w| campaign.write(w)));
    }
}

/// An object's members, as a `Json` tree holds them.
type Members = Vec<(String, Json)>;

/// A compact row with its members re-spelled by `edit`.
fn edited_row(edit: impl FnOnce(&mut Members)) -> String {
    let Json::Obj(mut members) = Json::parse(&golden("row.json")).unwrap() else { panic!("a row is an object") };
    edit(&mut members);
    Json::Obj(members).compact()
}

#[test]
fn the_reader_keeps_the_tolerance_rules() {
    let want = golden_rows()[0].clone();
    // Members in reverse order.
    let reversed = edited_row(|m| m.reverse());
    assert_same_row(&read_row(&reversed).unwrap(), &want);

    // Unknown members, nested containers included, are skipped.
    let unknown = edited_row(|m| {
        let nested = Json::parse(r#"{"a": [1, {"b": [[], {}]}, "x\"y"], "cycles": "no"}"#).unwrap();
        m.insert(3, ("extra".to_string(), nested));
        m.push(("stacks".to_string(), Json::parse("[[1, 2], [3]]").unwrap()));
    });
    assert_same_row(&read_row(&unknown).unwrap(), &want);

    // A row from before the scheduler, lifecycle, plan-cache, sampling
    // and figure members were added: only the required members.
    let optional = [
        "started_s",
        "finished_s",
        "mean_ready_len",
        "wakeups_per_kilocycle",
        "calendar_pops",
        "plan_builds",
        "plan_hits",
        "cached",
        "figures",
        "sampled",
        "interval_insns",
        "warmup_intervals",
        "intervals_total",
        "intervals_simulated",
    ];
    let oldest = edited_row(|m| m.retain(|(k, _)| !optional.contains(&k.as_str())));
    let defaults = JobResult {
        started_s: 0.0,
        finished_s: 0.0,
        mean_ready_len: 0.0,
        wakeups_per_kilocycle: 0.0,
        calendar_pops: 0,
        plan_builds: 0,
        plan_hits: 0,
        figures: None,
        ..want.clone()
    };
    assert_same_row(&read_row(&oldest).unwrap(), &defaults);

    // Optional members of the wrong type take their defaults.
    let mistyped = edited_row(|m| {
        for (k, v) in m.iter_mut() {
            if optional.contains(&k.as_str()) {
                *v = if k == "figures" { Json::Num(3.0) } else { Json::Str("x".to_string()) };
            }
        }
    });
    assert_same_row(&read_row(&mistyped).unwrap(), &defaults);
    // A count must be a non-negative integer: 1.5 or -1 is a default.
    let fractional = edited_row(|m| m.push(("sampled".to_string(), Json::Bool(true))));
    let fractional = fractional.replace("\"plan_hits\":4", "\"plan_hits\":1.5").replace("\"plan_builds\":3", "\"plan_builds\":-1");
    let back = read_row(&fractional).unwrap();
    assert_eq!((back.plan_hits, back.plan_builds, back.sampled), (0, 0, true));

    // The first of two duplicate keys wins, even when it is mistyped.
    let duplicated = edited_row(|m| {
        m.push(("ipc".to_string(), Json::Num(99.0)));
        m.push(("figures".to_string(), Json::Str("1 2".to_string())));
        m.insert(0, ("calendar_pops".to_string(), Json::Str("first".to_string())));
    });
    let back = read_row(&duplicated).unwrap();
    assert_eq!(back.ipc.to_bits(), want.ipc.to_bits());
    assert_eq!(back.figures, want.figures);
    assert_eq!(back.calendar_pops, 0, "a mistyped first occurrence still wins");
    let duplicated_required = edited_row(|m| m.insert(0, ("cycles".to_string(), Json::Bool(true))));
    assert_eq!(read_row(&duplicated_required).unwrap_err(), "job row: missing count `cycles`");

    // A missing or mistyped required member is an error naming it.
    for (key, kind) in [("workload", "string"), ("digest", "string"), ("wall_s", "number"), ("mips", "number"), ("retired_uops", "count"), ("reexec_stalls_per_ki", "number")] {
        let missing = edited_row(|m| m.retain(|(k, _)| k != key));
        assert_eq!(read_row(&missing).unwrap_err(), format!("job row: missing {kind} `{key}`"));
        let mistyped = edited_row(|m| m.iter_mut().filter(|(k, _)| k == key).for_each(|(_, v)| *v = Json::Null));
        assert_eq!(read_row(&mistyped).unwrap_err(), format!("job row: missing {kind} `{key}`"));
    }
    assert_eq!(read_row("[]").unwrap_err(), "job row: missing string `suite`");
    let unknown_model = edited_row(|m| m[2].1 = Json::Str("oracle".to_string()));
    assert_eq!(read_row(&unknown_model).unwrap_err(), "job row: unknown model `oracle`");
}

#[test]
fn the_campaign_reader_keeps_the_tolerance_rules() {
    let campaign = |edit: &dyn Fn(&mut Members)| {
        let Json::Obj(mut members) = Json::parse(&golden("campaign.json")).unwrap() else { panic!() };
        edit(&mut members);
        read_campaign(&Json::Obj(members).compact())
    };
    let drop = |key: &'static str| move |m: &mut Members| m.retain(|(k, _)| k != key);
    // The head members added after the first artifacts default.
    let old = campaign(&|m| {
        m.retain(|(k, _)| !["created_unix", "wall_s", "stages", "executed", "cached", "trace_id", "sampling", "slowest_jobs", "aggregates"].contains(&k.as_str()))
    })
    .unwrap();
    assert_eq!((old.created_unix, old.stages, old.executed, old.trace_id, old.sampling), (0, StageWall::default(), 0, None, None));
    assert_eq!(old.jobs.len(), 4);
    // Reordered, with unknown members and mistyped optional ones.
    let odd = campaign(&|m| {
        m.reverse();
        m.push(("future".to_string(), Json::parse(r#"{"jobs": [1], "schema": 2}"#).unwrap()));
        for (k, v) in m.iter_mut() {
            match k.as_str() {
                "stages" => *v = Json::Arr(vec![]),
                "sampling" => *v = Json::parse(r#"{"interval_insns": 10}"#).unwrap(),
                "trace_id" => *v = Json::Num(1.0),
                _ => {}
            }
        }
    })
    .unwrap();
    assert_eq!((odd.stages, odd.sampling, odd.trace_id, odd.jobs.len()), (StageWall::default(), None, None, 4));
    // Duplicates: the first `jobs` and the first `schema` win.
    let dup = campaign(&|m| {
        m.push(("jobs".to_string(), Json::Arr(vec![])));
        m.push(("schema".to_string(), Json::Num(2.0)));
    })
    .unwrap();
    assert_eq!(dup.jobs.len(), 4);
    // Errors name what is missing.
    assert_eq!(campaign(&drop("schema")).unwrap_err(), "unsupported campaign schema 0");
    assert_eq!(campaign(&|m| m[0].1 = Json::Num(2.0)).unwrap_err(), "unsupported campaign schema 2");
    assert_eq!(campaign(&drop("scale")).unwrap_err(), "campaign: missing `scale`");
    assert_eq!(campaign(&drop("jobs")).unwrap_err(), "campaign: missing `jobs` array");
    assert_eq!(campaign(&drop("campaign")).unwrap_err(), "campaign: missing `campaign`");
    assert_eq!(campaign(&drop("sim_version")).unwrap_err(), "campaign: missing `sim_version`");
    let no_cycles = campaign(&|m| {
        let Some((_, Json::Arr(rows))) = m.iter_mut().find(|(k, _)| k == "jobs") else { panic!() };
        let Json::Obj(row) = &mut rows[2] else { panic!() };
        row.retain(|(k, _)| k != "cycles");
    });
    assert_eq!(no_cycles.unwrap_err(), "job row: missing count `cycles`");
}
