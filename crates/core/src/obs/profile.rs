//! Statement profiles: the recorder's span tree plus the counter
//! deltas a statement caused.
//!
//! The span recorder itself ([`Probe`], [`span`], [`event`], …) lives in
//! `prima_storage::probe`, the bottom kernel crate, so that every layer
//! records into it directly; this module wraps one finished tree into a
//! [`StatementProfile`], which carries a [`MetricsSnapshot`] and so
//! belongs to the data system.
//!
//! [`Probe`]: prima_storage::probe::Probe
//! [`span`]: prima_storage::probe::span
//! [`event`]: prima_storage::probe::event

use super::MetricsSnapshot;
use prima_storage::probe::{Span, SpanKind};
use std::fmt::Write as _;
use std::time::Duration;

/// What a profiled statement was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatementKind {
    Select,
    Insert,
    Modify,
    Delete,
    Commit,
}

impl StatementKind {
    /// Every kind, in histogram-index order.
    pub const ALL: [StatementKind; 5] = [
        StatementKind::Select,
        StatementKind::Insert,
        StatementKind::Modify,
        StatementKind::Delete,
        StatementKind::Commit,
    ];

    /// Index into per-kind arrays (histograms).
    pub fn index(self) -> usize {
        match self {
            StatementKind::Select => 0,
            StatementKind::Insert => 1,
            StatementKind::Modify => 2,
            StatementKind::Delete => 3,
            StatementKind::Commit => 4,
        }
    }

    /// Lower-case label used in metric renderings.
    pub fn label(self) -> &'static str {
        match self {
            StatementKind::Select => "select",
            StatementKind::Insert => "insert",
            StatementKind::Modify => "modify",
            StatementKind::Delete => "delete",
            StatementKind::Commit => "commit",
        }
    }
}

// ---------------------------------------------------------------------
// StatementProfile
// ---------------------------------------------------------------------

/// Everything recorded about one profiled statement: the span tree plus
/// the per-layer counter deltas taken across the statement's execution.
#[derive(Debug, Clone)]
pub struct StatementProfile {
    pub kind: StatementKind,
    /// The statement text (`"COMMIT"` for a commit; a cursor's open and
    /// fetches carry the text of the cursor's statement).
    pub statement: String,
    pub total: Duration,
    /// Root of the span tree ([`SpanKind::Statement`]).
    pub root: Span,
    /// What every counter family moved by while the statement ran.
    pub counters: MetricsSnapshot,
}

impl StatementProfile {
    /// The root access choice `key` (`path`, `roots`, `cluster`) recorded
    /// on the statement's [`SpanKind::RootAccess`] span.
    pub fn access(&self, key: &str) -> Option<&str> {
        self.root.find(SpanKind::RootAccess)?.attr(key)
    }

    /// Structural well-formedness: the root is a `Statement` span and,
    /// recursively, every node's *scoped* children (see
    /// [`SpanKind::is_scoped`]) sum to no more than the node's own
    /// duration — frames are disjoint sub-intervals of their parent's
    /// interval, so this must hold on a monotone clock. Leaf events are
    /// exempt: they may overlap (a `BufferFix` includes the `PageLoad`
    /// it triggered).
    pub fn validate(&self) -> Result<(), String> {
        if self.root.kind != SpanKind::Statement {
            return Err(format!("root span is {:?}, expected Statement", self.root.kind));
        }
        fn check(span: &Span, path: &str) -> Result<(), String> {
            let child_sum: u64 =
                span.children.iter().filter(|c| c.kind.is_scoped()).map(|c| c.nanos).sum();
            if child_sum > span.nanos {
                return Err(format!(
                    "span {path}/{}: scoped children sum to {} ns > own {} ns",
                    span.kind.label(),
                    child_sum,
                    span.nanos
                ));
            }
            for c in &span.children {
                check(c, &format!("{path}/{}", span.kind.label()))?;
            }
            Ok(())
        }
        check(&self.root, "")
    }

    /// EXPLAIN-ANALYZE-style rendering: the span tree with durations and
    /// counts, followed by the per-layer counter deltas.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "-- {} ({:?}): {} ns total",
            self.kind.label(),
            self.statement,
            self.total.as_nanos()
        );
        let _ = write!(out, "{}", self.root);
        self.counters.render_counters(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_storage::probe::{attr, span_guard, Probe};

    #[test]
    fn attrs_attach_to_the_innermost_frame_and_merge_once() {
        let probe = Probe::start();
        // Two same-kind frames (a DML statement's qualification
        // sub-queries): each distinct pair kept once, first-seen order.
        for (path, roots) in [("type_scan", "3"), ("key_lookup(n)", "1"), ("type_scan", "3")] {
            let _g = span_guard(SpanKind::RootAccess);
            attr("path", || path.to_string());
            attr("roots", || roots.to_string());
            attr("cluster", || None);
        }
        attr("outer", || "x".to_string());
        let root = probe.finish(Duration::from_micros(1));
        let ra = root.find(SpanKind::RootAccess).expect("root access span");
        assert_eq!(ra.count, 3);
        let pairs: Vec<(&str, &str)> = ra.attrs.iter().map(|(k, v)| (*k, v.as_str())).collect();
        assert_eq!(
            pairs,
            [("path", "type_scan"), ("roots", "3"), ("path", "key_lookup(n)"), ("roots", "1")]
        );
        assert_eq!(ra.attr("path"), Some("type_scan"));
        assert_eq!(ra.attr("cluster"), None);
        assert_eq!(root.attr("outer"), Some("x"));
        let profile = StatementProfile {
            kind: StatementKind::Select,
            statement: String::new(),
            total: Duration::from_micros(1),
            root,
            counters: MetricsSnapshot::default(),
        };
        assert_eq!(profile.access("roots"), Some("3"));
        assert!(profile.render().contains("path=type_scan  roots=3  path=key_lookup(n)"));
    }
}
