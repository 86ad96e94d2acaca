//! A minimal work-stealing thread pool over `std::thread::scope`.
//!
//! Campaign jobs are independent, deterministic and of wildly uneven
//! duration (a `Perfect`-model run of `lbm` is many times slower than a
//! `Baseline` run of `lib`), so workers *steal* the next job index from
//! one shared atomic counter the moment they finish — natural load
//! balancing with no channels, no queues, no dependencies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on `workers` threads, returning the results
/// in input order. `f(index, item)` may run on any thread and in any
/// order; a panic in `f` propagates to the caller after the scope joins.
///
/// `workers == 1` executes inline on the calling thread — serial
/// semantics, identical results (each job is deterministic), no thread
/// overhead.
pub fn map_ordered<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let workers = workers.min(items.len());
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(i, item);
                *results[i].lock().unwrap() = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every job produced a result"))
        .collect()
}

/// The host's available parallelism (at least 1).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 8] {
            let out = map_ordered(&items, workers, |_, &x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let items: Vec<usize> = (0..257).collect();
        let hits = AtomicU64::new(0);
        let out = map_ordered(&items, 4, |i, &x| {
            assert_eq!(i, x);
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 257);
        assert_eq!(hits.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn empty_and_singleton() {
        let none: Vec<u32> = Vec::new();
        assert!(map_ordered(&none, 8, |_, &x| x).is_empty());
        assert_eq!(map_ordered(&[41], 8, |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn uses_multiple_threads_when_asked() {
        use std::collections::HashSet;
        let items: Vec<u32> = (0..64).collect();
        let ids = Mutex::new(HashSet::new());
        map_ordered(&items, 4, |_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
            // Give other workers a chance to claim indices.
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        // On a single-core host the scheduler may still serialize onto
        // fewer threads, but more than one must have participated given
        // 64 sleeping jobs and 4 workers.
        assert!(ids.lock().unwrap().len() > 1);
    }
}
