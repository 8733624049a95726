//! Deferred update of redundant storage structures.
//!
//! "Storage redundancy may introduce substantial overhead when an atom is
//! modified (and necessarily all its allocated physical records). To limit
//! the amount of immediate overhead, deferred update is used, i.e., during
//! an update operation only one physical record is modified whereas all
//! others are modified later." (Section 3.2.)
//!
//! The queue records which redundant copies are pending; the address
//! table's staleness bit (see [`crate::addressing`]) makes readers bypass
//! them until [`crate::AccessSystem::reconcile`] applies the queue.

use parking_lot::{rank, Mutex};
use prima_mad::value::AtomId;
use std::collections::VecDeque;

use crate::addressing::StructureId;

/// One queued maintenance action: rewrite the copy of `atom` in
/// `structure` (for a cluster, the cluster `atom` characterises) from its
/// primary record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refresh {
    pub structure: StructureId,
    pub atom: AtomId,
}

/// FIFO queue of deferred maintenance work.
#[derive(Debug)]
pub struct DeferredQueue {
    // lockrank: access.7 — pending maintenance FIFO; pushed/popped
    // transiently, never held while an op is applied.
    inner: Mutex<VecDeque<Refresh>>,
}

impl Default for DeferredQueue {
    fn default() -> Self {
        DeferredQueue { inner: Mutex::new_ranked(VecDeque::new(), rank::ACCESS + 7) }
    }
}

impl DeferredQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a maintenance action. Duplicate back-to-back entries for
    /// the same copy are collapsed (only the latest state matters).
    pub fn push(&self, op: Refresh) {
        let mut q = self.inner.lock();
        if q.back() != Some(&op) {
            q.push_back(op);
        }
    }

    /// Removes and returns the oldest pending action.
    pub fn pop(&self) -> Option<Refresh> {
        self.inner.lock().pop_front()
    }

    /// Actions currently pending.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Discards all pending actions that refer to `structure` (structure
    /// dropped before reconciliation).
    pub fn purge_structure(&self, structure: StructureId) {
        self.inner.lock().retain(|op| op.structure != structure);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(s: StructureId, a: u64) -> Refresh {
        Refresh { structure: s, atom: AtomId::new(0, a) }
    }

    fn pop_all(q: &DeferredQueue) -> Vec<Refresh> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn fifo_order() {
        let q = DeferredQueue::new();
        q.push(op(1, 1));
        q.push(op(1, 2));
        q.push(op(2, 1));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(op(1, 1)));
        assert_eq!(pop_all(&q), vec![op(1, 2), op(2, 1)]);
        assert!(q.is_empty());
    }

    #[test]
    fn back_to_back_duplicates_collapse() {
        let q = DeferredQueue::new();
        q.push(op(1, 1));
        q.push(op(1, 1));
        q.push(op(1, 2));
        q.push(op(1, 1));
        assert_eq!(q.len(), 3, "only adjacent duplicates collapse");
        assert_eq!(pop_all(&q), vec![op(1, 1), op(1, 2), op(1, 1)]);
    }

    #[test]
    fn purge_structure_removes_only_its_ops() {
        let q = DeferredQueue::new();
        q.push(op(1, 1));
        q.push(op(2, 1));
        q.push(op(1, 9));
        q.purge_structure(1);
        assert_eq!(pop_all(&q), vec![op(2, 1)]);
    }
}
