//! Semantic parallelism: decomposed units of work (DUs).
//!
//! "Engineering applications with their 'sizable' operations on complex
//! objects incorporate substantial portions of inherent parallelism
//! \[HHM86\] which may not be exploited when such operations are
//! synchronously invoked and serially executed. […] we have defined the
//! concept of semantic decomposition: units of work decomposed from a
//! single user operation are said to allow for inherent semantic
//! parallelism when they do not conflict with each other at the level of
//! decomposition. Such decomposed units of work (DU's) may be scheduled
//! and executed concurrently by the DBMS." (Section 4.)
//!
//! This module is the generic decomposition/scheduling facility:
//! [`DecomposedUnit`]s declare read/write sets; [`conflict_free_batches`]
//! partitions them into batches whose members can run concurrently, and
//! [`run_batches`] / [`run_parallel`] execute them on a thread pool. The
//! query path ([`crate::datasys::execute`] with `threads > 1`) uses it
//! with one read-only DU per qualifying root atom — molecule construction
//! is read-only, so every DU is compatible: the maximally parallel case
//! the paper targets for vertical access.
//!
//! The multi-processor PRIMA of the paper maps onto threads here: the
//! claim under test is about decomposability and speed-up shape, not
//! about a particular interconnect.

use crate::error::PrimaResult;
use prima_mad::value::AtomId;
use parking_lot::rank;
use std::collections::HashSet;

/// A unit of work with declared read and write sets (atom granularity —
/// matching the lock granularity of [`crate::txn`]).
pub struct DecomposedUnit<T> {
    pub reads: Vec<AtomId>,
    pub writes: Vec<AtomId>,
    pub task: T,
}

impl<T> DecomposedUnit<T> {
    /// A read-only DU.
    pub fn read_only(reads: Vec<AtomId>, task: T) -> Self {
        DecomposedUnit { reads, writes: Vec::new(), task }
    }

    /// Conflict test: write/write or read/write overlap.
    pub fn conflicts_with<U>(&self, other: &DecomposedUnit<U>) -> bool {
        let overlap = |a: &[AtomId], b: &[AtomId]| {
            if a.len() > 16 || b.len() > 16 {
                let set: HashSet<&AtomId> = a.iter().collect();
                b.iter().any(|x| set.contains(x))
            } else {
                a.iter().any(|x| b.contains(x))
            }
        };
        overlap(&self.writes, &other.writes)
            || overlap(&self.writes, &other.reads)
            || overlap(&self.reads, &other.writes)
    }
}

/// Partitions DUs into batches such that the members of each batch are
/// mutually conflict-free ("they do not conflict with each other at the
/// level of decomposition"). Greedy first-fit; order within the input is
/// preserved across batches.
pub fn conflict_free_batches<T>(units: Vec<DecomposedUnit<T>>) -> Vec<Vec<DecomposedUnit<T>>> {
    let mut batches: Vec<Vec<DecomposedUnit<T>>> = Vec::new();
    for u in units {
        match batches
            .iter_mut()
            .find(|b| b.iter().all(|m| !m.conflicts_with(&u)))
        {
            Some(b) => b.push(u),
            None => batches.push(vec![u]),
        }
    }
    batches
}

/// Executes every batch in order; within a batch, DU tasks run
/// concurrently on up to `threads` workers. Results are returned in the
/// original DU order within each batch, flattened.
pub fn run_batches<T, R>(
    batches: Vec<Vec<DecomposedUnit<T>>>,
    threads: usize,
    f: impl Fn(T) -> PrimaResult<R> + Sync,
) -> PrimaResult<Vec<R>>
where
    T: Send,
    R: Send,
{
    let mut out = Vec::new();
    for batch in batches {
        let results = run_parallel(
            batch.into_iter().map(|u| u.task).collect(),
            threads,
            &f,
        )?;
        out.extend(results);
    }
    Ok(out)
}

/// Runs `tasks` on up to `threads` scoped workers, preserving input
/// order in the result.
pub fn run_parallel<T, R>(
    tasks: Vec<T>,
    threads: usize,
    f: impl Fn(T) -> PrimaResult<R> + Sync,
) -> PrimaResult<Vec<R>>
where
    T: Send,
    R: Send,
{
    let threads = threads.max(1);
    if threads == 1 || tasks.len() <= 1 {
        return tasks.into_iter().map(f).collect();
    }
    // lockrank: obs.1 — work queue; popped transiently, never held while
    // a task runs.
    let queue: parking_lot::Mutex<Vec<(usize, T)>> =
        parking_lot::Mutex::new_ranked(tasks.into_iter().enumerate().rev().collect(), rank::OBS + 1);
    // lockrank: obs.2 — result collection; pushed transiently after the
    // task completes.
    let results: parking_lot::Mutex<Vec<(usize, PrimaResult<R>)>> =
        parking_lot::Mutex::new_ranked(Vec::new(), rank::OBS + 2);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = queue.lock().pop();
                match next {
                    Some((i, task)) => {
                        let r = f(task);
                        results.lock().push((i, r));
                    }
                    None => break,
                }
            });
        }
    });
    let mut collected = results.into_inner();
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// Convenience used by update-style operations: run DUs transactionally —
/// each DU in its own subtransaction, retrying once serially on lock
/// conflicts (conflicting DUs should not share a batch, so retries are
/// rare).
pub fn run_units_transactional<T, R>(
    units: Vec<DecomposedUnit<T>>,
    threads: usize,
    f: impl Fn(T) -> PrimaResult<R> + Sync,
) -> PrimaResult<Vec<R>>
where
    T: Send,
    R: Send,
{
    let batches = conflict_free_batches(units);
    run_batches(batches, threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PrimaError;

    fn id(n: u64) -> AtomId {
        AtomId::new(0, n)
    }

    #[test]
    fn conflict_detection() {
        let a = DecomposedUnit { reads: vec![id(1)], writes: vec![id(2)], task: () };
        let b = DecomposedUnit { reads: vec![id(2)], writes: vec![], task: () };
        let c = DecomposedUnit { reads: vec![id(1)], writes: vec![], task: () };
        assert!(a.conflicts_with(&b), "read/write overlap");
        assert!(!b.conflicts_with(&c), "read/read is no conflict");
        assert!(a.conflicts_with(&a), "write/write overlap");
    }

    #[test]
    fn batching_separates_conflicts() {
        let units = vec![
            DecomposedUnit { reads: vec![], writes: vec![id(1)], task: 1 },
            DecomposedUnit { reads: vec![], writes: vec![id(2)], task: 2 },
            DecomposedUnit { reads: vec![id(1)], writes: vec![], task: 3 },
        ];
        let batches = conflict_free_batches(units);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].len(), 2, "units 1 and 2 are compatible");
        assert_eq!(batches[1][0].task, 3);
    }

    #[test]
    fn read_only_units_form_one_batch() {
        let units: Vec<DecomposedUnit<usize>> =
            (0..20).map(|i| DecomposedUnit::read_only(vec![id(i)], i as usize)).collect();
        let batches = conflict_free_batches(units);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 20);
    }

    #[test]
    fn run_parallel_preserves_order() {
        let tasks: Vec<u64> = (0..100).collect();
        let out = run_parallel(tasks, 8, |x| Ok(x * 2)).unwrap();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_single_thread_fallback() {
        let out = run_parallel(vec![1, 2, 3], 1, |x| Ok(x + 1)).unwrap();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn run_parallel_propagates_errors() {
        let r: PrimaResult<Vec<u32>> = run_parallel(vec![1u32, 2, 3], 4, |x| {
            if x == 2 {
                Err(PrimaError::BadStatement("boom".into()))
            } else {
                Ok(x)
            }
        });
        assert!(r.is_err());
    }
}
