//! The slow-statement log: a bounded ring of full statement profiles.

use super::profile::StatementProfile;
use parking_lot::{rank, Mutex};
use std::collections::VecDeque;

/// Profiles the ring keeps.
pub const SLOW_LOG_CAPACITY: usize = 64;

/// Bounded ring buffer of the most recent statements that exceeded the
/// configured threshold: pushing past [`SLOW_LOG_CAPACITY`] evicts the
/// oldest entry.
#[derive(Debug)]
pub struct SlowLog {
    // lockrank: obs.0 — bounded profile ring; pushed after the statement
    // has released every kernel lock.
    ring: Mutex<VecDeque<StatementProfile>>,
}

impl Default for SlowLog {
    fn default() -> SlowLog {
        SlowLog { ring: Mutex::new_ranked(VecDeque::new(), rank::OBS) }
    }
}

impl SlowLog {
    pub fn push(&self, profile: StatementProfile) {
        let mut ring = self.ring.lock();
        if ring.len() == SLOW_LOG_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(profile);
    }

    /// The retained profiles, oldest first.
    pub fn entries(&self) -> Vec<StatementProfile> {
        self.ring.lock().iter().cloned().collect()
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
        let log = SlowLog::default();
        let pushed = SLOW_LOG_CAPACITY as u64 + 2;
        for n in 0..pushed {
            log.push(profile(n));
        }
        let kept: Vec<String> = log.entries().into_iter().map(|p| p.statement).collect();
        assert_eq!(kept.len(), SLOW_LOG_CAPACITY);
        assert_eq!(kept[0], "q2");
        assert_eq!(kept[SLOW_LOG_CAPACITY - 1], format!("q{}", pushed - 1));
    }
}
