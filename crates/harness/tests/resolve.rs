//! The resolver against a fake store and executor: rows are made up, not
//! simulated, and every executor call is recorded by member digest.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dmdp_core::{CommModel, CoreConfig, SimStats};
use dmdp_harness::{resolve, CfgPatch, Inflight, JobResult, JobSpec, Outcome, PlannedImage, Resolve, Source};
use dmdp_workloads::Scale;

fn image() -> PlannedImage {
    PlannedImage::new(Arc::new(dmdp_workloads::by_name("lib", Scale::Test).unwrap().program))
}

/// `lib` jobs under `model` on one image, one per `(label, rob)` (`None`
/// = the main config).
fn sweep(image: &PlannedImage, model: CommModel, variants: &[(&str, Option<usize>)]) -> Vec<JobSpec> {
    let suite = dmdp_workloads::Suite::Int;
    variants
        .iter()
        .map(|&(label, rob)| {
            let mut cfg = CoreConfig::new(model);
            CfgPatch { rob, ..CfgPatch::default() }.apply(&mut cfg);
            JobSpec::new("lib", suite, model, Scale::Test, label, cfg, image)
        })
        .collect()
}

fn digests(specs: &[JobSpec]) -> Vec<String> {
    specs.iter().map(|s| s.digest.clone()).collect()
}

fn row(spec: &JobSpec) -> JobResult {
    JobResult::from_stats(spec, SimStats::default(), 0.0)
}

#[derive(Default)]
struct Fake {
    store: Mutex<HashMap<String, JobResult>>,
    calls: Mutex<Vec<Vec<String>>>,
    /// Execution delay for units of this model.
    slow: Option<(CommModel, Duration)>,
    /// Runs first in every executor call.
    on_execute: Option<Box<dyn Fn() + Send + Sync>>,
}

impl Fake {
    fn holding(rows: impl IntoIterator<Item = JobResult>) -> Fake {
        Fake { store: Mutex::new(rows.into_iter().map(|r| (r.digest.clone(), r)).collect()), ..Fake::default() }
    }

    fn calls(&self) -> Vec<Vec<String>> {
        self.calls.lock().unwrap().clone()
    }
}

impl Resolve for Fake {
    fn lookup(&self, spec: &JobSpec) -> Option<JobResult> {
        self.store.lock().unwrap().get(&spec.digest).cloned()
    }

    fn execute(&self, specs: &[&JobSpec]) -> Vec<Result<JobResult, String>> {
        self.on_execute.iter().for_each(|hook| hook());
        self.calls.lock().unwrap().push(specs.iter().map(|s| s.digest.clone()).collect());
        if let Some((_, delay)) = self.slow.filter(|(m, _)| *m == specs[0].model) {
            std::thread::sleep(delay);
        }
        specs.iter().map(|s| Ok(row(s))).collect()
    }

    fn publish(&self, row: &JobResult) {
        self.store.lock().unwrap().insert(row.digest.clone(), row.clone());
    }
}

fn sources(outcomes: &[Outcome]) -> Vec<Source> {
    outcomes.iter().map(|o| o.as_ref().unwrap().1).collect()
}

fn field<'a>(outcomes: &'a [Outcome], f: impl Fn(&'a JobResult) -> &'a str) -> Vec<&'a str> {
    outcomes.iter().map(|o| f(&o.as_ref().unwrap().0)).collect()
}

#[test]
fn an_all_hit_unit_never_calls_the_executor() {
    let specs = sweep(&image(), CommModel::Dmdp, &[("main", None), ("rob32", Some(32))]);
    let fake = Fake::holding(specs.iter().map(row));
    let out = resolve(&specs, 1, &Inflight::default(), &fake);
    assert!(fake.calls().is_empty());
    assert_eq!(sources(&out), [Source::Store, Source::Store]);
    assert!(out.iter().all(|o| o.as_ref().unwrap().0.cached));
}

#[test]
fn a_partial_hit_executes_only_the_misses_in_one_call() {
    let specs =
        sweep(&image(), CommModel::Dmdp, &[("main", None), ("rob32", Some(32)), ("rob48", Some(48))]);
    // The stored row was produced under another label.
    let fake = Fake::holding([JobResult { variant: "other".into(), ..row(&specs[1]) }]);
    let out = resolve(&specs, 1, &Inflight::default(), &fake);
    assert_eq!(fake.calls(), [vec![specs[0].digest.clone(), specs[2].digest.clone()]]);
    assert_eq!(sources(&out), [Source::Executed, Source::Store, Source::Executed]);
    assert_eq!(field(&out, |r| &r.variant), ["main", "rob32", "rob48"]);
    assert_eq!(out.iter().map(|o| o.as_ref().unwrap().0.cached).collect::<Vec<_>>(), [false, true, false]);
    assert_eq!(fake.store.lock().unwrap().len(), 3, "the misses were published");
}

#[test]
fn a_single_job_is_a_unit_of_one() {
    let specs = sweep(&image(), CommModel::NoSq, &[("main", None)]);
    let (fake, table) = (Fake::default(), Inflight::default());
    assert_eq!(sources(&resolve(&specs, 4, &table, &fake)), [Source::Executed]);
    assert_eq!(fake.calls(), [digests(&specs)]);
    assert_eq!(sources(&resolve(&specs, 4, &table, &fake)), [Source::Store]);
    assert_eq!(fake.calls().len(), 1, "the published row satisfies the repeat");
    assert_eq!(table.count(), 0, "no claim outlives its resolve");
}

#[test]
fn twin_labels_of_one_config_execute_once_and_keep_their_labels() {
    let specs = sweep(&image(), CommModel::Dmdp, &[("main", None), ("base", None)]);
    let fake = Fake::default();
    let out = resolve(&specs, 1, &Inflight::default(), &fake);
    assert_eq!(fake.calls(), [vec![specs[0].digest.clone()]]);
    assert_eq!(sources(&out), [Source::Executed, Source::Dedup]);
    assert_eq!(field(&out, |r| &r.variant), ["main", "base"]);
}

#[test]
fn rows_come_back_in_job_list_order() {
    let lib = image();
    let specs: Vec<JobSpec> = [CommModel::Baseline, CommModel::NoSq, CommModel::Dmdp]
        .into_iter()
        .flat_map(|m| sweep(&lib, m, &[("main", None), ("rob32", Some(32))]))
        .collect();
    // Three units on three threads; the first finishes last.
    let fake = Fake { slow: Some((CommModel::Baseline, Duration::from_millis(80))), ..Fake::default() };
    let out = resolve(&specs, 3, &Inflight::default(), &fake);
    assert_eq!(fake.calls().len(), 3, "one executor call per unit");
    assert_eq!(field(&out, |r| &r.digest), digests(&specs));
    assert_eq!(field(&out, |r| &r.variant), specs.iter().map(|s| s.variant.as_str()).collect::<Vec<_>>());
}

#[test]
fn overlapping_units_claimed_in_opposite_order_both_finish() {
    let variants = [("main", None), ("rob32", Some(32)), ("rob48", Some(48)), ("rob64", Some(64))];
    let forward = sweep(&image(), CommModel::Dmdp, &variants);
    let backward: Vec<JobSpec> = forward.iter().rev().cloned().collect();
    let table = Arc::new(Inflight::default());
    let fake = Arc::new(Fake { slow: Some((CommModel::Dmdp, Duration::from_millis(50))), ..Fake::default() });
    let (tx, rx) = mpsc::channel();
    // Both claim at once, well before either publishes.
    let start = Arc::new(std::sync::Barrier::new(2));
    let threads: Vec<_> = [forward.clone(), backward]
        .into_iter()
        .map(|specs| {
            let (table, fake, tx, start) = (Arc::clone(&table), Arc::clone(&fake), tx.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let out = resolve(&specs, 1, &table, &*fake);
                tx.send((digests(&specs), out)).unwrap();
            })
        })
        .collect();
    for _ in 0..2 {
        let (want, out) = rx.recv_timeout(Duration::from_secs(30)).expect("both resolves finish");
        assert_eq!(field(&out, |r| &r.digest), want);
    }
    threads.into_iter().for_each(|t| t.join().unwrap());
    let mut executed: Vec<String> = fake.calls().into_iter().flatten().collect();
    let mut all = digests(&forward);
    executed.sort();
    all.sort();
    assert_eq!(executed, all, "the executor saw each digest exactly once");
}

#[test]
fn a_panicking_owner_fails_its_waiters_and_retires_its_claim() {
    // The waiter's unit is [main, rob32]: by the time its executor runs
    // (for rob32), it has claimed main as a waiter — only then may the
    // owner of main panic.
    let waiter_specs = sweep(&image(), CommModel::Dmdp, &[("main", None), ("rob32", Some(32))]);
    let owner_specs = vec![waiter_specs[0].clone()];
    let main = owner_specs[0].digest.clone();
    let table = Arc::new(Inflight::default());
    let (entered_tx, entered_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let (entered_tx, go_rx, go_tx) = (Mutex::new(entered_tx), Mutex::new(go_rx), Mutex::new(go_tx));
    let spawn = |specs: Vec<JobSpec>, fake: Fake| {
        let table = Arc::clone(&table);
        std::thread::spawn(move || (resolve(&specs, 1, &table, &fake), fake.calls()))
    };
    let owner = spawn(owner_specs.clone(), Fake {
        on_execute: Some(Box::new(move || {
            entered_tx.lock().unwrap().send(()).unwrap();
            go_rx.lock().unwrap().recv().unwrap();
            panic!("fake executor failure");
        })),
        ..Fake::default()
    });
    entered_rx.recv_timeout(Duration::from_secs(10)).expect("the owner is executing");
    let waiter = spawn(waiter_specs.clone(), Fake {
        on_execute: Some(Box::new(move || go_tx.lock().unwrap().send(()).unwrap())),
        ..Fake::default()
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !waiter.is_finished() {
        assert!(std::time::Instant::now() < deadline, "the waiter is stuck");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (out, waiter_calls) = waiter.join().unwrap();
    let err = out[0].as_ref().unwrap_err();
    assert!(err.contains(&main) && err.contains("panicked"), "{err}");
    assert_eq!(sources(&out[1..]), [Source::Executed]);
    assert_eq!(waiter_calls, [vec![waiter_specs[1].digest.clone()]], "the waiter never ran main");
    assert!(owner.join().is_err(), "the owner's panic reaches its caller");
    assert_eq!(table.count(), 0, "the panicked claim was retired");

    // The next resolve claims the digest afresh and executes it.
    let fake = Fake::default();
    assert_eq!(sources(&resolve(&owner_specs, 1, &table, &fake)), [Source::Executed]);
    assert_eq!(fake.calls(), [vec![main]]);
}
