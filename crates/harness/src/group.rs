//! Job units and the one resolver every execution path goes through.
//!
//! A job list is resolved as *units*: runs of consecutive variant jobs
//! of one (workload, model) that the batch engine
//! ([`crate::JobSpec::execute_batch`]) runs over one shared front end,
//! with sampled jobs as singletons. The local campaign and the daemon's
//! submit path both go through [`resolve`] and differ only in their
//! [`Resolve`] half, so their artifacts agree by construction. A worker
//! of a sharded daemon never resolves: it is only where the daemon's
//! executor runs a unit, so the one process that looks rows up is the
//! one that publishes them, and a store directory has one row writer.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::job::{JobResult, JobSpec};
use crate::pool;

/// Partitions `specs` (in campaign order) into pool/dispatch units.
///
/// `batchable(i)` says whether job `i` may participate in a multi-job
/// unit at all ([`resolve`] passes "not sampled" — sampled jobs measure
/// checkpointed intervals and never run as a batch). A job extends the
/// previous unit only when both it and the unit's leading member are
/// batchable and share one (workload, model) and one program image;
/// anything else starts a new singleton unit. Units preserve index
/// order, so flattening them reproduces the campaign row order exactly.
pub fn partition_units(specs: &[JobSpec], batchable: impl Fn(usize) -> bool) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    for i in 0..specs.len() {
        if batchable(i) {
            if let Some(unit) = units.last_mut() {
                let j = unit[0];
                if batchable(j)
                    && specs[j].workload == specs[i].workload
                    && specs[j].model == specs[i].model
                    && Arc::ptr_eq(&specs[j].program, &specs[i].program)
                {
                    unit.push(i);
                    continue;
                }
            }
        }
        units.push(vec![i]);
    }
    units
}

/// How a resolved row was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Simulated for this request.
    Executed,
    /// Found by [`Resolve::lookup`] in a result store.
    Store,
    /// Shared from an identical job another caller had in flight.
    Dedup,
}

impl Source {
    /// The wire's `source` tag: `executed`, `store` or `dedup`.
    pub fn name(self) -> &'static str {
        match self {
            Source::Executed => "executed",
            Source::Store => "store",
            Source::Dedup => "dedup",
        }
    }
}

/// One job's resolution: its row and where it came from, or its error.
pub type Outcome = Result<(JobResult, Source), String>;

/// The caller's half of [`resolve`]: where finished rows are looked up
/// and published, how misses execute, and what to report as units move.
pub trait Resolve: Sync {
    /// A finished row for `spec`'s digest, if the caller has one.
    fn lookup(&self, spec: &JobSpec) -> Option<JobResult>;

    /// Executes one unit's claimed misses, returning one row or error
    /// per spec, in order.
    fn execute(&self, specs: &[&JobSpec]) -> Vec<Result<JobResult, String>>;

    /// Persists a row [`Resolve::execute`] returned.
    fn publish(&self, _row: &JobResult) {}

    /// A pool thread claimed `unit` (indices into `specs`, the job list).
    fn claimed(&self, _specs: &[JobSpec], _unit: &[usize]) {}

    /// A unit resolved: each member's job-list index and outcome.
    fn finished(&self, _rows: &[(usize, Outcome)]) {}
}

/// The digest-keyed table of jobs in flight: the first caller to claim a
/// digest executes it, later callers wait for its published result.
#[derive(Debug, Default)]
pub struct Inflight {
    slots: Mutex<HashMap<String, Arc<Slot>>>,
}

#[derive(Debug, Default)]
struct Slot {
    outcome: Mutex<Option<Result<JobResult, String>>>,
    cv: Condvar,
}

impl Slot {
    fn wait(&self) -> Result<JobResult, String> {
        let outcome = self.cv.wait_while(lock(&self.outcome), |o| o.is_none());
        outcome.unwrap_or_else(PoisonError::into_inner).clone().expect("published before the wake")
    }
}

impl Inflight {
    /// Digests claimed and not yet published.
    pub fn count(&self) -> usize {
        lock(&self.slots).len()
    }

    fn claim(&self, digest: &str) -> Member<'_> {
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.get(digest) {
            return Member::Wait(Arc::clone(slot));
        }
        let slot = Arc::new(Slot::default());
        slots.insert(digest.to_string(), Arc::clone(&slot));
        Member::Own(Claim { table: self, digest: digest.to_string(), slot, outcome: None })
    }
}

/// An owned in-flight entry. Dropping it publishes `outcome` and retires
/// the entry; if the owner unwinds first, the waiters get an error
/// naming the digest instead of hanging.
struct Claim<'a> {
    table: &'a Inflight,
    digest: String,
    slot: Arc<Slot>,
    outcome: Option<Result<JobResult, String>>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let outcome = self.outcome.take().unwrap_or_else(|| {
            Err(format!("job {}: its executor panicked before publishing a result", self.digest))
        });
        *lock(&self.slot.outcome) = Some(outcome);
        self.slot.cv.notify_all();
        lock(&self.table.slots).remove(&self.digest);
    }
}

enum Member<'a> {
    Done(Outcome),
    Own(Claim<'a>),
    Wait(Arc<Slot>),
}

/// Locks a mutex whose data stays consistent even if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resolves a job list, `width` units at a time, into outcomes in
/// job-list order. For each [`partition_units`] unit (batchable means
/// "not sampled"; a single job is a unit of one) it drops the lookup
/// hits, claims the remaining digests in `inflight`, hands the owned
/// misses to the executor in one call, publishes them, and only then
/// waits on digests other callers own — so overlapping units claimed in
/// any order never deadlock.
///
/// Every row carries its requesting spec's variant label (the digest
/// does not cover it), rows this call did not execute are marked
/// `cached`, and executed rows get their unit's claim and finish times.
pub fn resolve<R: Resolve + ?Sized>(
    specs: &[JobSpec],
    width: usize,
    inflight: &Inflight,
    r: &R,
) -> Vec<Outcome> {
    let units = partition_units(specs, |i| specs[i].sampling.is_none());
    let start = Instant::now();
    let per_unit = pool::map_ordered(&units, width, |_, unit| {
        r.claimed(specs, unit);
        let claimed_s = start.elapsed().as_secs_f64();
        // Hits never touch the in-flight table. A row published between
        // a miss and its claim runs again: equal digests give equal rows,
        // so that costs time, never correctness.
        let mut members: Vec<Member> = unit
            .iter()
            .map(|&i| match r.lookup(&specs[i]) {
                Some(hit) => Member::Done(Ok((hit, Source::Store))),
                None => inflight.claim(&specs[i].digest),
            })
            .collect();
        let owned: Vec<&JobSpec> = unit
            .iter()
            .zip(&members)
            .filter(|(_, m)| matches!(m, Member::Own(_)))
            .map(|(&i, _)| &specs[i])
            .collect();
        if !owned.is_empty() {
            let mut results = r.execute(&owned).into_iter();
            let finished_s = start.elapsed().as_secs_f64();
            for member in members.iter_mut() {
                let Member::Own(claim) = member else { continue };
                let mut result = results.next().expect("one result per executed job");
                if let Ok(row) = &mut result {
                    row.started_s = claimed_s;
                    row.finished_s = finished_s;
                    r.publish(row);
                }
                // Waiters get a summary copy; only the owner keeps stats.
                claim.outcome = Some(match &result {
                    Ok(row) => Ok(JobResult { stats: None, ..row.clone() }),
                    Err(e) => Err(e.clone()),
                });
                *member = Member::Done(result.map(|row| (row, Source::Executed)));
            }
        }
        let rows: Vec<(usize, Outcome)> = unit
            .iter()
            .zip(members)
            .map(|(&i, member)| {
                let outcome = match member {
                    Member::Done(outcome) => outcome,
                    Member::Wait(slot) => slot.wait().map(|row| (row, Source::Dedup)),
                    Member::Own(_) => unreachable!("every owned member was executed"),
                };
                let outcome = outcome.map(|(mut row, source)| {
                    row.variant.clone_from(&specs[i].variant);
                    row.cached = source != Source::Executed;
                    (row, source)
                });
                (i, outcome)
            })
            .collect();
        r.finished(&rows);
        rows
    });
    per_unit.into_iter().flatten().map(|(_, outcome)| outcome).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::PlannedImage;
    use dmdp_core::{CommModel, CoreConfig};
    use dmdp_workloads::Scale;

    fn image_of(workload: &str) -> PlannedImage {
        let w = dmdp_workloads::by_name(workload, Scale::Test).unwrap();
        PlannedImage::new(Arc::new(w.program))
    }

    fn spec_on(image: &PlannedImage, workload: &str, model: CommModel, variant: &str) -> JobSpec {
        let w = dmdp_workloads::by_name(workload, Scale::Test).unwrap();
        JobSpec::new(workload, w.suite, model, Scale::Test, variant, CoreConfig::new(model), image)
    }

    fn spec(workload: &str, model: CommModel, variant: &str) -> JobSpec {
        spec_on(&image_of(workload), workload, model, variant)
    }

    #[test]
    fn consecutive_variants_of_one_pair_form_one_unit() {
        let lib = image_of("lib");
        let mcf = image_of("mcf");
        let specs = vec![
            spec_on(&lib, "lib", CommModel::Dmdp, "main"),
            spec_on(&lib, "lib", CommModel::Dmdp, "rob32"),
            spec_on(&lib, "lib", CommModel::NoSq, "main"),
            spec_on(&mcf, "mcf", CommModel::NoSq, "main"),
            spec_on(&mcf, "mcf", CommModel::NoSq, "rob32"),
        ];
        let units = partition_units(&specs, |_| true);
        assert_eq!(units, vec![vec![0, 1], vec![2], vec![3, 4]]);
    }

    #[test]
    fn unbatchable_jobs_stay_singletons_and_break_runs() {
        let specs = vec![
            spec("lib", CommModel::Dmdp, "main"),
            spec("lib", CommModel::Dmdp, "rob32"),
            spec("lib", CommModel::Dmdp, "sb2"),
        ];
        // Job 1 is not batchable (e.g. sampled): it stays a singleton,
        // and job 2 cannot extend it — units never mix batchable and
        // unbatchable members.
        let units = partition_units(&specs, |i| i != 1);
        assert_eq!(units, vec![vec![0], vec![1], vec![2]]);
        let none = partition_units(&specs, |_| false);
        assert_eq!(none, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn distinct_images_of_one_workload_never_share_a_unit() {
        // Two separately-built images of the same workload are equal in
        // content but not pointer-shared; the batch engine requires
        // one shared image per unit, so they must not merge.
        let a = spec("lib", CommModel::Dmdp, "main");
        let b = spec("lib", CommModel::Dmdp, "rob32");
        assert!(!std::sync::Arc::ptr_eq(&a.program, &b.program));
        let units = partition_units(&[a, b], |_| true);
        assert_eq!(units, vec![vec![0], vec![1]]);
    }
}
