//! The slow-statement log: a bounded ring of full statement profiles.

use super::profile::StatementProfile;
use parking_lot::{rank, Mutex};
use std::collections::VecDeque;

/// Default ring capacity (overridable via
/// `PrimaBuilder::slow_log_capacity`).
pub const DEFAULT_SLOW_LOG_CAPACITY: usize = 64;

/// Bounded ring buffer of the most recent statements that exceeded the
/// configured threshold: pushing past capacity evicts the oldest entry.
#[derive(Debug)]
pub struct SlowLog {
    // lockrank: obs.0 — bounded profile ring; pushed after the statement
    // has released every kernel lock.
    ring: Mutex<VecDeque<StatementProfile>>,
    capacity: usize,
}

impl SlowLog {
    pub fn new(capacity: usize) -> SlowLog {
        SlowLog { ring: Mutex::new_ranked(VecDeque::new(), rank::OBS), capacity: capacity.max(1) }
    }

    pub fn push(&self, profile: StatementProfile) {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(profile);
    }

    /// The retained profiles, oldest first.
    pub fn entries(&self) -> Vec<StatementProfile> {
        self.ring.lock().iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{MetricsSnapshot, Span, SpanKind, StatementKind};
    use std::time::Duration;

    fn profile(n: u64) -> StatementProfile {
        StatementProfile {
            kind: StatementKind::Select,
            statement: format!("q{n}"),
            total: Duration::from_nanos(n),
            root: Span {
                kind: SpanKind::Statement,
                nanos: n,
                count: 1,
                bytes: 0,
                attrs: vec![],
                children: vec![],
            },
            counters: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let log = SlowLog::new(3);
        for n in 0..5 {
            log.push(profile(n));
        }
        let kept: Vec<String> = log.entries().into_iter().map(|p| p.statement).collect();
        assert_eq!(kept, ["q2", "q3", "q4"]);
        assert_eq!(log.len(), 3);
    }
}
