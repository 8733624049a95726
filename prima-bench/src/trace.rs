//! Bench-side span recorder. Spans are taken around calls into the
//! kernel's public functions, from outside: the kernel's own
//! `StatementProfile` is deliberately not the source, because its leaves
//! overlap, and spans inside the program are a later change.
//!
//! One recorder per thread, spans kept in memory in a pre-allocated
//! vector and written out once at the end of the run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What a span was taken around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Name {
    /// One whole operation of the closed loop; the parent of the rest.
    Op,
    SessionQuery,
    PreparedBind,
    PreparedQuery,
    SessionBegin,
    SessionModify,
    SessionCommit,
    PrimaCheckpoint,
    // Replay spans: the same work repeated outside an operation, to time
    // a layer the operation's own spans cannot separate.
    ParseStatement,
    SessionPrepare,
    ReadAtomsBatch,
    StorageFixHit,
    StorageFixMiss,
}

impl Name {
    pub const ALL: [Name; 13] = [
        Name::Op,
        Name::SessionQuery,
        Name::PreparedBind,
        Name::PreparedQuery,
        Name::SessionBegin,
        Name::SessionModify,
        Name::SessionCommit,
        Name::PrimaCheckpoint,
        Name::ParseStatement,
        Name::SessionPrepare,
        Name::ReadAtomsBatch,
        Name::StorageFixHit,
        Name::StorageFixMiss,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::SessionQuery => "Session::query",
            Name::PreparedBind => "Prepared::bind",
            Name::PreparedQuery => "Prepared::query",
            Name::SessionBegin => "Session::begin",
            Name::SessionModify => "Session::modify_atom_named",
            Name::SessionCommit => "Session::commit",
            Name::PrimaCheckpoint => "Prima::checkpoint",
            Name::ParseStatement => "mql::parse_statement",
            Name::SessionPrepare => "Session::prepare",
            Name::ReadAtomsBatch => "AccessSystem::read_atoms_batch",
            Name::StorageFixHit => "StorageSystem::fix (resident)",
            Name::StorageFixMiss => "StorageSystem::fix (after drop_cache)",
        }
    }

    pub fn is_replay(self) -> bool {
        self as u8 >= Name::ParseStatement as u8
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u32,
    /// Index of the span that caused this one, in the same recorder.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off, `enter`/`exit` read no clock.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    current: u32,
    op: u32,
}

/// Handle of an open span.
pub struct Open(u32);

impl Recorder {
    pub fn off() -> Recorder {
        Recorder::new(false, 0, Instant::now())
    }

    /// `epoch` is shared by the recorders of one run so their spans are
    /// on one time axis.
    pub fn new(on: bool, cap: usize, epoch: Instant) -> Recorder {
        Recorder {
            on,
            epoch,
            spans: Vec::with_capacity(cap),
            cap,
            current: NO_PARENT,
            op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// No room left for another operation's spans.
    pub fn is_full(&self) -> bool {
        self.on && self.spans.len() + 64 > self.cap
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a top-level span and gives it a fresh operation id.
    pub fn enter_op(&mut self) -> Open {
        self.op = self.op.wrapping_add(1);
        self.enter(Name::Op)
    }

    pub fn enter(&mut self, name: Name) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.current,
            start_ns,
            end_ns: start_ns,
        });
        self.current = idx;
        Open(idx)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        self.current = span.parent;
    }

    pub fn time<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }
}

/// Per span name: how many spans, their total duration, and their total
/// self time — duration minus the part their child spans cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its direct children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Totals per span name, indexed by `Name as usize`, over span lists
/// whose parent indices each refer to their own list.
pub fn totals(lists: &[&[Span]]) -> [NameTotals; Name::ALL.len()] {
    let mut out = [NameTotals::default(); Name::ALL.len()];
    for spans in lists {
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let t = &mut out[s.name as usize];
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
    }
    out
}

/// Writes every span as `[recorder, name, op, parent, start_ns, end_ns]`
/// under a header that names the columns and the span names; `parent`
/// is −1 at the top level and otherwise a row index within the same
/// recorder.
pub fn write_file(path: &Path, workload: &str, recorders: &[&Recorder]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names: Vec<String> = Name::ALL
        .iter()
        .map(|n| {
            format!(
                "{{\"name\": \"{}\", \"replay\": {}}}",
                n.label(),
                n.is_replay()
            )
        })
        .collect();
    writeln!(w, "{{\"workload\": \"{workload}\",")?;
    writeln!(
        w,
        " \"columns\": [\"recorder\", \"name\", \"op\", \"parent\", \"start_ns\", \"end_ns\"],"
    )?;
    writeln!(w, " \"names\": [{}],", names.join(", "))?;
    writeln!(w, " \"spans\": [")?;
    let mut first = true;
    for (r, rec) in recorders.iter().enumerate() {
        for s in rec.spans() {
            let sep = if first { "" } else { ",\n" };
            first = false;
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "{sep}[{r},{},{},{parent},{},{}]",
                s.name as u8, s.op, s.start_ns, s.end_ns
            )?;
        }
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(Name::Op, NO_PARENT, 0, 100),
            span(Name::PreparedBind, 0, 10, 20),
            span(Name::PreparedQuery, 0, 30, 90),
            // A grandchild takes from its parent only, not from the op.
            span(Name::ReadAtomsBatch, 2, 40, 70),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 30, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(Name::Op, NO_PARENT, 100, 200),
            span(Name::SessionBegin, 0, 110, 150),
            span(Name::SessionModify, 0, 140, 160),
            span(Name::SessionCommit, 0, 190, 230),
        ];
        // Covered: 110..160 and 190..200.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut r = Recorder::new(true, 128, Instant::now());
        let op = r.enter_op();
        r.time(Name::PreparedBind, || ());
        let q = r.enter(Name::PreparedQuery);
        r.time(Name::ReadAtomsBatch, || ());
        r.exit(q);
        r.exit(op);
        let parents: Vec<u32> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0, 2]);
        assert!(r
            .spans()
            .iter()
            .all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        let t = totals(&[r.spans()]);
        assert_eq!(t[Name::Op as usize].count, 1);
        let all_self: u64 = t.iter().map(|n| n.self_ns).sum();
        assert_eq!(all_self, t[Name::Op as usize].total_ns);

        let mut off = Recorder::off();
        let op = off.enter_op();
        off.exit(op);
        assert!(off.spans().is_empty() && !off.is_full());
    }
}
