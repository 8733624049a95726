//! The statement profiler: hierarchical timed spans.
//!
//! A profiled statement installs a thread-local *recorder* plus the
//! storage crate's probe hook for exactly its own duration. Scoped code
//! regions ([`span`] / [`span_guard`]) open a frame on the recorder's
//! stack; hot leaf events ([`event`], and everything arriving through
//! the storage hook) merge into the currently open frame. On close a
//! frame merges into its parent **by kind**, so the thousands of buffer
//! fixes of a large assembly collapse into one child per kind with a
//! count — the tree stays bounded by the number of distinct span kinds
//! per level, not by data volume.
//!
//! A frame can also carry `key = value` attributes ([`attr`]): the data
//! system names its root access choice on the [`SpanKind::RootAccess`]
//! span this way, so the profile is the one place that says what a
//! statement did.
//!
//! When no recorder is installed every entry point is a no-op behind a
//! single thread-local flag read: no clock read, no allocation — pinned
//! by the counting-allocator test in `tests/observability.rs`.

use super::MetricsSnapshot;
use prima_storage::probe::{self, ProbeEvent};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

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

/// One kind of timed region in a statement profile, covering every
/// layer of the Fig. 3.1 stack a statement crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole statement (root of every profile).
    Statement,
    /// MQL lexing + parsing.
    Parse,
    /// Validation / plan construction.
    Plan,
    /// Pinning an MVCC snapshot for a lock-free read.
    SnapshotPin,
    /// One lock-table acquisition (leaf; merged per statement).
    LockAcquire,
    /// Time spent parked in the lock table's wait queue (leaf).
    LockWait,
    /// Root access: key lookup / access path / scan.
    RootAccess,
    /// One level of vertical molecule assembly (level-batched reads +
    /// child materialisation).
    AssemblyLevel(u32),
    /// DML execution under the transaction (qualification + apply).
    DmlApply,
    /// Buffer guard acquisition, including the load on a miss (leaf,
    /// from the storage probe).
    BufferFix,
    /// Device read on a buffer miss (leaf, from the storage probe).
    PageLoad,
    /// WAL record append to the group buffer (leaf; bytes = record).
    WalAppend,
    /// WAL force to the device's log area (leaf; bytes = batch).
    WalForce,
    /// Page-grouped batched read in the access system (leaf;
    /// bytes = atoms requested).
    BatchRead,
}

impl SpanKind {
    /// Whether this kind is recorded as a *scoped frame* (open/close on
    /// the recorder stack) rather than a leaf event. Frames at the same
    /// level are disjoint sub-intervals of their parent; leaf events may
    /// overlap each other (a `BufferFix` leaf's duration includes the
    /// `PageLoad` it triggered on a miss).
    pub fn is_scoped(self) -> bool {
        matches!(
            self,
            SpanKind::Statement
                | SpanKind::Parse
                | SpanKind::Plan
                | SpanKind::SnapshotPin
                | SpanKind::RootAccess
                | SpanKind::AssemblyLevel(_)
                | SpanKind::DmlApply
        )
    }

    /// Display label (assembly levels carry their level number).
    pub fn label(self) -> String {
        match self {
            SpanKind::Statement => "statement".into(),
            SpanKind::Parse => "parse".into(),
            SpanKind::Plan => "plan".into(),
            SpanKind::SnapshotPin => "snapshot_pin".into(),
            SpanKind::LockAcquire => "lock_acquire".into(),
            SpanKind::LockWait => "lock_wait".into(),
            SpanKind::RootAccess => "root_access".into(),
            SpanKind::AssemblyLevel(n) => format!("assembly_level_{n}"),
            SpanKind::DmlApply => "dml_apply".into(),
            SpanKind::BufferFix => "buffer_fix".into(),
            SpanKind::PageLoad => "page_load".into(),
            SpanKind::WalAppend => "wal_append".into(),
            SpanKind::WalForce => "wal_force".into(),
            SpanKind::BatchRead => "batch_read".into(),
        }
    }
}

/// One node of a statement's span tree: a kind, the merged duration and
/// occurrence count, an optional byte volume, attributes, and children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    pub nanos: u64,
    pub count: u64,
    pub bytes: u64,
    /// Distinct `key = value` pairs in first-seen order ([`attr`]).
    pub attrs: Vec<(&'static str, String)>,
    pub children: Vec<Span>,
}

impl Span {
    fn new(kind: SpanKind) -> Span {
        Span { kind, nanos: 0, count: 1, bytes: 0, attrs: Vec::new(), children: Vec::new() }
    }

    /// Merges `other` into `self` (same kind): durations, counts and
    /// bytes add; attributes are kept once each; child lists merge
    /// recursively by kind.
    fn absorb(&mut self, other: Span) {
        self.nanos += other.nanos;
        self.count += other.count;
        self.bytes += other.bytes;
        for pair in other.attrs {
            self.add_attr(pair);
        }
        for child in other.children {
            merge_child(&mut self.children, child);
        }
    }

    fn add_attr(&mut self, pair: (&'static str, String)) {
        if !self.attrs.contains(&pair) {
            self.attrs.push(pair);
        }
    }

    /// The first value recorded under `key` on this span.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }

    /// The first descendant (depth-first, self included) of `kind`.
    pub fn find(&self, kind: SpanKind) -> Option<&Span> {
        if self.kind == kind {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(kind))
    }

    /// Sum of direct children's durations.
    pub fn child_nanos(&self) -> u64 {
        self.children.iter().map(|c| c.nanos).sum()
    }

    /// Tree-wide `(count, nanos, bytes)` totals of every node of `kind`
    /// (self included) — leaf events merge per enclosing frame, so one
    /// kind can appear under several frames of the same tree.
    pub fn totals(&self, kind: SpanKind) -> (u64, u64, u64) {
        let own = if self.kind == kind { (self.count, self.nanos, self.bytes) } else { (0, 0, 0) };
        self.children.iter().map(|c| c.totals(kind)).fold(own, |(c, n, b), (dc, dn, db)| {
            (c + dc, n + dn, b + db)
        })
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let _ = write!(
            out,
            "{:indent$}{:<24} {:>12} ns  ×{}{}",
            "",
            self.kind.label(),
            self.nanos,
            self.count,
            if self.bytes > 0 { format!("  {} bytes", self.bytes) } else { String::new() },
            indent = depth * 2,
        );
        for (k, v) in &self.attrs {
            let _ = write!(out, "  {k}={v}");
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

fn merge_child(children: &mut Vec<Span>, span: Span) {
    match children.iter_mut().find(|c| c.kind == span.kind) {
        Some(existing) => existing.absorb(span),
        None => children.push(span),
    }
}

// ---------------------------------------------------------------------
// Thread-local recorder
// ---------------------------------------------------------------------

struct Frame {
    span: Span,
    started: Instant,
}

struct Recorder {
    stack: Vec<Frame>,
}

thread_local! {
    /// Fast-path flag: every entry point reads this one `Cell` and
    /// bails before touching the clock or the `RefCell` when off.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

#[inline]
fn active() -> bool {
    ACTIVE.with(std::cell::Cell::get)
}

fn open_frame(kind: SpanKind) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.stack.push(Frame { span: Span::new(kind), started: Instant::now() });
        }
    });
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
fn close_frame() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if rec.stack.len() > 1 {
                // lint: allow(error-hygiene, guarded by the len > 1 check above)
                let mut frame = rec.stack.pop().expect("len checked");
                frame.span.nanos = frame.started.elapsed().as_nanos() as u64;
                // lint: allow(error-hygiene, the root frame is never popped while a child is being folded)
                let parent = rec.stack.last_mut().expect("root frame remains");
                merge_child(&mut parent.span.children, frame.span);
            }
        }
    });
}

/// Records a leaf event into the currently open frame. No-op (one flag
/// read) when no recorder is installed on this thread.
#[inline]
pub fn event(kind: SpanKind, nanos: u64, bytes: u64) {
    if !active() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if let Some(top) = rec.stack.last_mut() {
                let mut leaf = Span::new(kind);
                leaf.nanos = nanos;
                leaf.bytes = bytes;
                merge_child(&mut top.span.children, leaf);
            }
        }
    });
}

/// Attaches `key = value()` to the innermost open frame (a `None` value
/// attaches nothing). No-op (one flag read; `value` never runs) when no
/// recorder is installed on this thread.
#[inline]
pub fn attr<V: Into<Option<String>>>(key: &'static str, value: impl FnOnce() -> V) {
    if !active() {
        return;
    }
    let Some(value) = value().into() else { return };
    RECORDER.with(|r| {
        if let Some(top) = r.borrow_mut().as_mut().and_then(|rec| rec.stack.last_mut()) {
            top.span.add_attr((key, value));
        }
    });
}

/// Runs `f` inside a scoped span of `kind`. No-op wrapper (one flag
/// read, `f` runs untouched) when no recorder is installed.
pub fn span<R>(kind: SpanKind, f: impl FnOnce() -> R) -> R {
    let _guard = span_guard(kind);
    f()
}

/// Runs `f`, recording it as a *leaf* event of `kind` (timed, but any
/// spans opened inside `f` attach to the enclosing frame, not to this
/// event). For hot call sites where a full frame would be overkill.
pub fn observed<R>(kind: SpanKind, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    let started = Instant::now();
    let out = f();
    event(kind, started.elapsed().as_nanos() as u64, 0);
    out
}

/// RAII span: opens a frame now, closes it on drop (so `?`, `break` and
/// early `return` inside the region all close the span correctly).
pub fn span_guard(kind: SpanKind) -> SpanGuard {
    if !active() {
        return SpanGuard { open: false };
    }
    open_frame(kind);
    SpanGuard { open: true }
}

/// Guard returned by [`span_guard`].
pub struct SpanGuard {
    open: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.open {
            close_frame();
        }
    }
}

/// The storage-probe bridge: maps storage-layer events into leaf spans
/// of the current frame. Installed per profiled statement.
fn storage_hook(ev: ProbeEvent, nanos: u64, bytes: u64) {
    let kind = match ev {
        ProbeEvent::BufferFix => SpanKind::BufferFix,
        ProbeEvent::PageLoad => SpanKind::PageLoad,
        ProbeEvent::WalAppend => SpanKind::WalAppend,
        ProbeEvent::WalForce => SpanKind::WalForce,
        ProbeEvent::BatchRead => SpanKind::BatchRead,
    };
    event(kind, nanos, bytes);
}

// ---------------------------------------------------------------------
// Probe: the per-statement recorder handle
// ---------------------------------------------------------------------

/// Handle owning one statement's recording session: installs the
/// thread-local recorder and the storage probe hook on
/// [`Probe::start`], uninstalls both and yields the finished span tree
/// on [`Probe::finish`]. Starting while another probe is active on the
/// thread yields an inert handle (re-entrancy guard), so nested scopes
/// attribute to the outermost statement.
pub struct Probe {
    active: bool,
}

impl Probe {
    /// Begins recording on this thread (inert if already recording).
    pub fn start() -> Probe {
        if active() {
            return Probe { active: false };
        }
        RECORDER.with(|r| {
            *r.borrow_mut() = Some(Recorder {
                stack: vec![Frame { span: Span::new(SpanKind::Statement), started: Instant::now() }],
            });
        });
        ACTIVE.with(|a| a.set(true));
        probe::set_thread_hook(Some(storage_hook));
        Probe { active: true }
    }

    /// Whether this handle owns the thread's recording session.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Ends recording and returns the root span (duration = `total`).
    /// An inert probe returns an empty root.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    pub fn finish(self, total: Duration) -> Span {
        if !self.active {
            return Span::new(SpanKind::Statement);
        }
        probe::set_thread_hook(None);
        ACTIVE.with(|a| a.set(false));
        RECORDER.with(|r| {
            let rec = r.borrow_mut().take();
            // lint: allow(error-hygiene, probe construction always installs a recorder before handing out the probe)
            let mut rec = rec.expect("active probe owns a recorder");
            // Close any frames a panic-free caller should already have
            // closed; being defensive keeps a malformed tree from
            // panicking the statement that produced it.
            while rec.stack.len() > 1 {
                // lint: allow(error-hygiene, guarded by the len check above)
                let mut frame = rec.stack.pop().expect("len checked");
                frame.span.nanos = frame.started.elapsed().as_nanos() as u64;
                // lint: allow(error-hygiene, the root frame is never popped while a child is being folded)
                let parent = rec.stack.last_mut().expect("root remains");
                merge_child(&mut parent.span.children, frame.span);
            }
            // lint: allow(error-hygiene, finish runs once and the root frame is still on the stack here)
            let mut root = rec.stack.pop().expect("root frame").span;
            root.nanos = total.as_nanos() as u64;
            root
        })
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
        self.root.render_into(&mut out, 0);
        self.counters.render_counters(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_merge_by_kind() {
        let probe = Probe::start();
        assert!(probe.is_active());
        span(SpanKind::RootAccess, || {
            event(SpanKind::BufferFix, 10, 0);
            event(SpanKind::BufferFix, 5, 0);
        });
        for level in 0..2u32 {
            let _g = span_guard(SpanKind::AssemblyLevel(level));
            event(SpanKind::BatchRead, 7, 3);
        }
        // A second molecule's levels merge into the same children.
        {
            let _g = span_guard(SpanKind::AssemblyLevel(0));
            event(SpanKind::BatchRead, 7, 3);
        }
        let root = probe.finish(Duration::from_micros(100));
        assert_eq!(root.kind, SpanKind::Statement);
        let ra = root.find(SpanKind::RootAccess).expect("root access span");
        let fix = ra.find(SpanKind::BufferFix).expect("merged buffer fixes");
        assert_eq!(fix.count, 2);
        assert_eq!(fix.nanos, 15);
        let l0 = root.find(SpanKind::AssemblyLevel(0)).expect("level 0");
        assert_eq!(l0.count, 2, "two molecules' level 0 merged");
        assert_eq!(l0.find(SpanKind::BatchRead).unwrap().bytes, 6);
        assert!(root.find(SpanKind::AssemblyLevel(1)).is_some());
        // Recorder fully uninstalled.
        assert!(!active());
        assert!(!prima_storage::probe::enabled());
    }

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

    #[test]
    fn inert_when_nested() {
        let outer = Probe::start();
        let inner = Probe::start();
        assert!(!inner.is_active());
        let empty = inner.finish(Duration::ZERO);
        assert!(empty.children.is_empty());
        assert!(active(), "inner finish must not tear down the outer session");
        outer.finish(Duration::ZERO);
        assert!(!active());
    }

    #[test]
    fn disabled_entry_points_are_inert() {
        assert!(!active());
        event(SpanKind::BufferFix, 1, 0);
        assert_eq!(span(SpanKind::Parse, || 42), 42);
        assert_eq!(observed(SpanKind::LockAcquire, || 7), 7);
        attr("path", || -> String { unreachable!("attr value built while off") });
        drop(span_guard(SpanKind::RootAccess));
    }
}
