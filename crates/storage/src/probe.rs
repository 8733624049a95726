//! The statement span recorder: one thread-local recorder that every
//! layer of the Fig. 3.1 stack records into.
//!
//! It lives in the bottom kernel crate so that every layer names the
//! same recorder and the same vocabulary ([`SpanKind`]): this crate's
//! buffer and WAL, the access system's batched reads, and the data
//! system's parse, plan, lock and assembly code. The data system
//! re-exports it as `prima::obs` and pairs each finished span tree with
//! the statement's counter deltas (`StatementProfile`).
//!
//! A profiled statement installs the recorder for exactly its own
//! duration ([`Probe::start`] / [`Probe::finish`]). Scoped code regions
//! ([`span`] / [`span_guard`]) open a frame on the recorder's stack; hot
//! leaf events ([`event`], [`observed`], [`leaf`]) merge into the
//! currently open frame. On close a frame merges into its parent **by
//! kind**, so the thousands of buffer fixes of a large assembly collapse
//! into one child per kind with a count — the tree stays bounded by the
//! number of distinct span kinds per level, not by data volume.
//!
//! A frame can also carry `key = value` attributes ([`attr`]): the data
//! system names its root access choice on the [`SpanKind::RootAccess`]
//! span this way, so the profile is the one place that says what a
//! statement did.
//!
//! The recorder is thread-local on purpose: spans are attributed to the
//! statement running on the *current* thread. Worker threads of a
//! parallel query never start a probe, so their storage traffic shows
//! up only in the global counter structs, not in per-statement profiles.
//!
//! When no recorder is installed every entry point is a no-op behind a
//! single thread-local flag read: no clock read, no allocation — pinned
//! by the counting-allocator test in `tests/observability.rs`.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::time::{Duration, Instant};

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
    /// Buffer guard acquisition (`fix` / `fix_mut` / `fix_new`),
    /// including the load on a miss (leaf).
    BufferFix,
    /// Device read on a buffer miss (leaf).
    PageLoad,
    /// WAL record append to the group buffer (leaf; bytes = record).
    WalAppend,
    /// One device append of the WAL's buffered batch (leaf; bytes =
    /// batch). Under cross-session group commit one force may cover many
    /// sessions' commit records; the checkpoint reset's re-append of
    /// pending records records this kind too — every device log write
    /// is visible here.
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

    /// Tree-wide `(count, nanos, bytes)` totals of every node of `kind`
    /// (self included) — leaf events merge per enclosing frame, so one
    /// kind can appear under several frames of the same tree.
    pub fn totals(&self, kind: SpanKind) -> (u64, u64, u64) {
        let own = if self.kind == kind { (self.count, self.nanos, self.bytes) } else { (0, 0, 0) };
        self.children.iter().map(|c| c.totals(kind)).fold(own, |(c, n, b), (dc, dn, db)| {
            (c + dc, n + dn, b + db)
        })
    }

    fn fmt_at(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        write!(
            f,
            "{:indent$}{:<24} {:>12} ns  ×{}",
            "",
            self.kind.label(),
            self.nanos,
            self.count,
            indent = depth * 2,
        )?;
        if self.bytes > 0 {
            write!(f, "  {} bytes", self.bytes)?;
        }
        for (k, v) in &self.attrs {
            write!(f, "  {k}={v}")?;
        }
        writeln!(f)?;
        self.children.iter().try_for_each(|c| c.fmt_at(f, depth + 1))
    }
}

/// The tree, one line per node indented by depth: label, duration,
/// count, bytes (when non-zero) and attributes.
impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_at(f, 0)
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

thread_local! {
    /// Fast-path flag: every entry point reads this one `Cell` and
    /// bails before touching the clock or the `RefCell` when off.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// The open frames, root first; empty when no probe is recording.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

#[inline]
fn active() -> bool {
    ACTIVE.with(Cell::get)
}

fn nanos_since(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// Folds the innermost frame into its parent; the root frame stays.
fn close_top(stack: &mut Vec<Frame>) {
    if stack.len() < 2 {
        return;
    }
    let Some(mut frame) = stack.pop() else { return };
    frame.span.nanos = nanos_since(frame.started);
    if let Some(parent) = stack.last_mut() {
        merge_child(&mut parent.span.children, frame.span);
    }
}

/// Records a leaf event into the currently open frame. No-op (one flag
/// read) when no recorder is installed on this thread.
#[inline]
pub fn event(kind: SpanKind, nanos: u64, bytes: u64) {
    if !active() {
        return;
    }
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            merge_child(&mut top.span.children, Span { nanos, bytes, ..Span::new(kind) });
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
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
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
#[inline]
pub fn observed<R>(kind: SpanKind, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    let started = Instant::now();
    let out = f();
    event(kind, nanos_since(started), 0);
    out
}

/// Starts a leaf event of `kind` for a site that knows its byte count
/// only at the end ([`Leaf::finish`]). No clock read when no recorder
/// is installed; a leaf dropped unfinished (an error path) records
/// nothing.
#[inline]
pub fn leaf(kind: SpanKind) -> Leaf {
    Leaf { kind, started: active().then(Instant::now) }
}

/// A started leaf event ([`leaf`]).
#[must_use = "a leaf records nothing until it is finished"]
pub struct Leaf {
    kind: SpanKind,
    started: Option<Instant>,
}

impl Leaf {
    /// Records the leaf: the time since [`leaf`] and `bytes`.
    #[inline]
    pub fn finish(self, bytes: u64) {
        if let Some(started) = self.started {
            event(self.kind, nanos_since(started), bytes);
        }
    }
}

/// RAII span: opens a frame now, closes it on drop (so `?`, `break` and
/// early `return` inside the region all close the span correctly).
pub fn span_guard(kind: SpanKind) -> SpanGuard {
    if !active() {
        return SpanGuard { open: false };
    }
    STACK.with(|s| s.borrow_mut().push(Frame { span: Span::new(kind), started: Instant::now() }));
    SpanGuard { open: true }
}

/// Guard returned by [`span_guard`].
pub struct SpanGuard {
    open: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.open {
            STACK.with(|s| close_top(&mut s.borrow_mut()));
        }
    }
}

// ---------------------------------------------------------------------
// Probe: the per-statement recorder handle
// ---------------------------------------------------------------------

/// Handle owning one statement's recording session: installs the
/// thread-local recorder on [`Probe::start`], uninstalls it and yields
/// the finished span tree on [`Probe::finish`]. Starting while another
/// probe is active on the thread yields an inert handle (re-entrancy
/// guard), so nested scopes attribute to the outermost statement. A
/// probe dropped unfinished (an early return, a panic) uninstalls the
/// recorder and discards its spans, so the thread's next probe records.
pub struct Probe {
    active: bool,
}

impl Probe {
    /// Begins recording on this thread (inert if already recording).
    pub fn start() -> Probe {
        if active() {
            return Probe { active: false };
        }
        STACK.with(|s| {
            *s.borrow_mut() =
                vec![Frame { span: Span::new(SpanKind::Statement), started: Instant::now() }];
        });
        ACTIVE.with(|a| a.set(true));
        Probe { active: true }
    }

    /// Whether this handle owns the thread's recording session.
    #[cfg(test)]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Ends recording and returns the root span (duration = `total`).
    /// An inert probe returns an empty root.
    pub fn finish(mut self, total: Duration) -> Span {
        if !self.active {
            return Span::new(SpanKind::Statement);
        }
        // Disarm the drop: this call uninstalls the recorder itself.
        self.active = false;
        ACTIVE.with(|a| a.set(false));
        let mut stack = STACK.with(|s| std::mem::take(&mut *s.borrow_mut()));
        // Close any frames a panic-free caller should already have
        // closed; being defensive keeps a malformed tree from panicking
        // the statement that produced it.
        while stack.len() > 1 {
            close_top(&mut stack);
        }
        let mut root = stack.pop().map_or_else(|| Span::new(SpanKind::Statement), |f| f.span);
        root.nanos = total.as_nanos() as u64;
        root
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        if self.active {
            ACTIVE.with(|a| a.set(false));
            STACK.with(|s| s.borrow_mut().clear());
        }
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
            leaf(SpanKind::BatchRead).finish(3);
        }
        // An unfinished leaf (an error path) records nothing.
        drop(leaf(SpanKind::WalAppend));
        let root = probe.finish(Duration::from_micros(100));
        assert_eq!(root.kind, SpanKind::Statement);
        let ra = root.find(SpanKind::RootAccess).expect("root access span");
        let fix = ra.find(SpanKind::BufferFix).expect("merged buffer fixes");
        assert_eq!(fix.count, 2);
        assert_eq!(fix.nanos, 15);
        let l0 = root.find(SpanKind::AssemblyLevel(0)).expect("level 0");
        assert_eq!(l0.count, 2, "two molecules' level 0 merged");
        let batch = l0.find(SpanKind::BatchRead).unwrap();
        assert_eq!((batch.count, batch.bytes), (2, 6));
        assert!(root.find(SpanKind::AssemblyLevel(1)).is_some());
        assert!(root.find(SpanKind::WalAppend).is_none());
        // Recorder fully uninstalled.
        assert!(!active());
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

    /// A probe dropped without `finish` must not leave the recorder
    /// installed: the thread's next probe records its spans.
    #[test]
    fn dropped_probe_does_not_silence_the_next_one() {
        drop(Probe::start());
        assert!(!active(), "the drop uninstalled the recorder");
        let probe = Probe::start();
        assert!(probe.is_active());
        span(SpanKind::Parse, || {});
        let root = probe.finish(Duration::ZERO);
        assert_eq!(root.children.len(), 1, "{root}");
        // An inert (nested) probe's drop leaves the outer one alone.
        let outer = Probe::start();
        drop(Probe::start());
        assert!(active());
        drop(outer);
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
        let unstarted = leaf(SpanKind::WalForce);
        assert!(unstarted.started.is_none(), "no clock read while off");
        unstarted.finish(40);
    }
}
