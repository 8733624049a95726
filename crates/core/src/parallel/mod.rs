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
//! This module is the DU executor: [`run_parallel`] runs independent
//! units on a pool of scoped threads. The query path
//! ([`crate::datasys::execute`] with `threads > 1`) uses it with one DU
//! per qualifying root atom — molecule construction is read-only, so no
//! two DUs conflict: the maximally parallel case the paper targets for
//! vertical access, needing no conflict analysis or batching.
//!
//! The multi-processor PRIMA of the paper maps onto threads here: the
//! claim under test is about decomposability and speed-up shape, not
//! about a particular interconnect.

use crate::error::PrimaResult;
use parking_lot::rank;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PrimaError;

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
