//! The four workloads: what each sets up, what one operation is, and
//! what it checks on every result.

use crate::mesh::{self, Rng, MOLECULE_ATOMS, POINTS_PER_BREP};
use crate::trace::{Name, Recorder};
use prima::{AtomId, Prepared, Prima, QueryOptions, QueryResult, Session, Value};
use prima_mad::ddl::FIG_2_3_DDL;
use prima_storage::FileDisk;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Closed loop: this many sessions, one thread each, every session
/// issuing its next operation when the previous one has returned. Never
/// more threads than the sandbox has cores (2).
pub const SESSIONS: usize = 2;

pub const ASM_MQL: &str = "SELECT ALL FROM brep-face-edge-point WHERE brep_no = ?";

pub fn adhoc_mql(solid_no: i64) -> String {
    format!("SELECT solid_no, description FROM solid WHERE solid_no = {solid_no}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Prepared molecule assembly, auto-commit (lock-free snapshot read).
    Asm,
    /// Unprepared point query by text.
    Adhoc,
    /// begin → check out one brep molecule → modify its 8 points → commit.
    Checkin,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub solids: usize,
    /// Buffer size at the default `solids`; scaled with the dataset.
    pub buffer_bytes: usize,
    pub durable: bool,
    /// Whether the data fits the buffer, so that no page may be loaded.
    pub fits_buffer: bool,
    /// Length of one slice of the measured window. Every end-to-end
    /// metric is the median of its per-slice values, so slices are short,
    /// but long enough for ten samples beyond each slice's p99: at 2 000
    /// transactions per second that takes a second.
    pub slice_s: f64,
    /// How often a run sets up, to report the median set-up time: three
    /// times where a set-up takes 4 s, twice where it takes 14 s.
    pub setups: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "asm.warm",
        why: "molecule assembly with the data in the buffer: decode/assembly (datasys) and batched record reads (access) do the work; buffer hit-only, WAL and lock table idle",
        kind: Kind::Asm,
        solids: 10_000,
        buffer_bytes: 64 << 20,
        durable: false,
        fits_buffer: true,
        slice_s: 0.25,
        setups: 3,
    },
    Workload {
        name: "asm.cold",
        why: "same statements and data as asm.warm with a buffer of 1/11 of the data: the buffer's miss path and the device make the difference",
        kind: Kind::Asm,
        solids: 10_000,
        buffer_bytes: 4 << 20,
        durable: false,
        fits_buffer: false,
        slice_s: 0.25,
        setups: 3,
    },
    Workload {
        name: "adhoc.point",
        why: "unprepared 5 us point queries: lex/parse/validate/plan (mad, session) are a third of the time and assembly is trivial; bypasses what asm.* stresses",
        kind: Kind::Adhoc,
        solids: 10_000,
        buffer_bytes: 64 << 20,
        durable: false,
        fits_buffer: true,
        slice_s: 0.25,
        setups: 3,
    },
    Workload {
        name: "txn.checkin",
        why: "checkout/modify/checkin transactions on a durable kernel: the only workload where lock table, version store, WAL and commit force do the work",
        kind: Kind::Checkin,
        solids: 2_000,
        buffer_bytes: 16 << 20,
        durable: true,
        fits_buffer: true,
        slice_s: 1.0,
        setups: 2,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn buffer_for(&self, solids: usize) -> usize {
        (self.buffer_bytes as u128 * solids as u128 / self.solids as u128) as usize
    }
}

/// Generate + load + checkpoint into a fresh database directory. Every
/// workload runs on a `FileDisk`, durable or not, so evictions and page
/// loads are real file I/O.
pub fn set_up(w: &Workload, solids: usize, seed: u64, dir: &Path) -> Result<Prima, String> {
    let builder = Prima::builder().buffer_bytes(w.buffer_for(solids));
    let builder = if w.durable {
        builder
            .path(dir)
            .map_err(|e| format!("create {}: {e}", dir.display()))?
    } else {
        let disk = FileDisk::create(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        builder.device(Arc::new(disk))
    };
    let db = builder
        .build_with_ddl(FIG_2_3_DDL)
        .map_err(|e| format!("build: {e}"))?;
    mesh::load(&db, solids, seed).map_err(|e| format!("load: {e}"))?;
    if w.durable {
        db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    }
    Ok(db)
}

/// Attribute positions the per-result checks read.
#[derive(Debug, Clone, Copy)]
pub struct Attrs {
    brep_no: usize,
    solid_no: usize,
    pub placement: usize,
}

impl Attrs {
    pub fn of(db: &Prima) -> Result<Attrs, String> {
        let idx = |t: &str, a: &str| {
            db.schema()
                .type_by_name(t)
                .and_then(|at| at.attribute_index(a))
                .ok_or_else(|| format!("schema has no {t}.{a}"))
        };
        Ok(Attrs {
            brep_no: idx("brep", "brep_no")?,
            solid_no: idx("solid", "solid_no")?,
            placement: idx("point", "placement")?,
        })
    }
}

/// Exactly one molecule of `atoms` atoms whose root carries `key`.
fn check_result(r: &QueryResult, key_attr: usize, key: i64, atoms: usize) -> Result<(), String> {
    let [m] = r.set.molecules.as_slice() else {
        return Err(format!(
            "key {key}: {} molecules, expected 1",
            r.set.molecules.len()
        ));
    };
    if m.atom_count() != atoms {
        return Err(format!(
            "key {key}: {} atoms, expected {atoms}",
            m.atom_count()
        ));
    }
    match m.root.atom.values.get(key_attr).and_then(Value::as_int) {
        Some(k) if k == key => Ok(()),
        other => Err(format!("key {key}: root carries {other:?}")),
    }
}

/// The brep's distinct points in insertion order (= corner order).
pub fn points_of(r: &QueryResult) -> Vec<&prima::Atom> {
    let node = r.set.node_id("point").unwrap_or(usize::MAX);
    let mut pts = r
        .set
        .molecules
        .first()
        .map(|m| m.atoms_of_node(node))
        .unwrap_or_default();
    pts.sort_by_key(|a| a.id.seq);
    pts.dedup_by_key(|a| a.id);
    pts
}

/// The placement a check-in of version `v` writes to corner `corner` of
/// brep `key`: recomputable, so the durability check needs to remember
/// only the last acknowledged version per brep.
pub fn checkin_placement(v: u64, key: i64, corner: usize) -> [f64; 3] {
    [v as f64, key as f64, corner as f64]
}

/// Per-session state of one workload's operation.
pub struct Ops<'s> {
    kind: Kind,
    session: &'s Session,
    stmt: Option<Prepared<'s>>,
    opts: QueryOptions,
    attrs: Attrs,
    /// Source of check-in versions, shared by all sessions of a run.
    versions: &'s AtomicU64,
    /// Last acknowledged check-in version per `brep_no` (0 = none).
    pub acked: Vec<u64>,
}

impl<'s> Ops<'s> {
    pub fn new(
        w: &Workload,
        session: &'s Session,
        attrs: Attrs,
        solids: usize,
        versions: &'s AtomicU64,
    ) -> Result<Ops<'s>, String> {
        let stmt = match w.kind {
            Kind::Adhoc => None,
            Kind::Asm | Kind::Checkin => Some(
                session
                    .prepare(ASM_MQL)
                    .map_err(|e| format!("prepare: {e}"))?,
            ),
        };
        let acked = if w.kind == Kind::Checkin {
            vec![0; solids + 1]
        } else {
            Vec::new()
        };
        Ok(Ops {
            kind: w.kind,
            session,
            stmt,
            opts: QueryOptions::new(),
            attrs,
            versions,
            acked,
        })
    }

    /// One operation on `key`; `Err` is a failed operation (an error from
    /// the kernel or a wrong result).
    pub fn run(&mut self, key: i64, rec: &mut Recorder) -> Result<(), String> {
        match self.kind {
            Kind::Asm => self.assemble(key, rec).map(drop),
            Kind::Adhoc => {
                let text = adhoc_mql(key);
                let r = rec
                    .time(Name::SessionQuery, || self.session.query(&text, &self.opts))
                    .map_err(|e| format!("key {key}: {e}"))?;
                check_result(&r, self.attrs.solid_no, key, 1)
            }
            Kind::Checkin => {
                let out = self.checkin(key, rec);
                if out.is_err() {
                    // The failed transaction's locks must not outlive it.
                    let _ = self.session.rollback();
                }
                out
            }
        }
    }

    fn assemble(&mut self, key: i64, rec: &mut Recorder) -> Result<QueryResult, String> {
        let stmt = self.stmt.as_mut().ok_or("no prepared statement")?;
        rec.time(Name::PreparedBind, || {
            stmt.bind(&[Value::Int(key)]).map(drop)
        })
        .map_err(|e| format!("key {key}: bind: {e}"))?;
        let r = rec
            .time(Name::PreparedQuery, || stmt.query(&self.opts))
            .map_err(|e| format!("key {key}: {e}"))?;
        check_result(&r, self.attrs.brep_no, key, MOLECULE_ATOMS)?;
        Ok(r)
    }

    fn checkin(&mut self, key: i64, rec: &mut Recorder) -> Result<(), String> {
        rec.time(Name::SessionBegin, || self.session.begin())
            .map_err(|e| format!("key {key}: begin: {e}"))?;
        let molecule = self.assemble(key, rec)?;
        let points: Vec<AtomId> = points_of(&molecule).iter().map(|a| a.id).collect();
        if points.len() != POINTS_PER_BREP {
            return Err(format!("key {key}: {} distinct points", points.len()));
        }
        let v = self.versions.fetch_add(1, Ordering::Relaxed);
        for (corner, id) in points.into_iter().enumerate() {
            let value = mesh::placement(checkin_placement(v, key, corner));
            rec.time(Name::SessionModify, || {
                self.session.modify_atom_named(id, &[("placement", value)])
            })
            .map_err(|e| format!("key {key}: modify: {e}"))?;
        }
        rec.time(Name::SessionCommit, || self.session.commit())
            .map_err(|e| format!("key {key}: commit: {e}"))?;
        self.acked[key as usize] = v;
        Ok(())
    }
}

/// The key stream of one session: uniform over the dataset. Check-in
/// sessions draw from disjoint residue classes instead — two sessions
/// checking out the same brep share-lock it and then both ask for the
/// exclusive lock, a deadlock the kernel resolves by aborting one, and
/// the benchmark's workloads are chosen so that no operation fails.
pub struct Keys {
    rng: Rng,
    solids: u64,
    /// `(class, classes)`: draw only keys ≡ class (mod classes).
    residue: Option<(u64, u64)>,
}

impl Keys {
    pub fn new(w: &Workload, solids: usize, seed: u64, session: usize) -> Keys {
        let residue = (w.kind == Kind::Checkin).then_some((session as u64, SESSIONS as u64));
        Keys {
            rng: Rng::new(seed, 1 + session as u64),
            solids: solids as u64,
            residue,
        }
    }

    /// Uniform over all keys from one fixed stream (the durability tail).
    pub fn uniform(solids: usize, seed: u64) -> Keys {
        Keys {
            rng: Rng::new(seed, 0),
            solids: solids as u64,
            residue: None,
        }
    }

    pub fn next(&mut self) -> i64 {
        match self.residue {
            None => 1 + self.rng.below(self.solids) as i64,
            Some((class, classes)) => {
                // Keys are 1..=solids; class c owns 1+c, 1+c+classes, ...
                let owned = (self.solids - class).div_ceil(classes);
                (1 + class + classes * self.rng.below(owned)) as i64
            }
        }
    }
}

/// After a reopen: every point of every brep carries the placement of
/// its last acknowledged check-in, or the loader's if it never had one.
pub fn verify_placements(
    db: &Prima,
    w: &Workload,
    solids: usize,
    seed: u64,
    acked: &[u64],
) -> Result<(), String> {
    let attrs = Attrs::of(db)?;
    let session = db.session();
    let versions = AtomicU64::new(0);
    let mut ops = Ops::new(w, &session, attrs, solids, &versions)?;
    let mut rec = Recorder::off();
    for key in 1..=solids as i64 {
        let molecule = ops.assemble(key, &mut rec)?;
        let points = points_of(&molecule);
        if points.len() != POINTS_PER_BREP {
            return Err(format!("brep {key}: {} points after reopen", points.len()));
        }
        for (corner, p) in points.iter().enumerate() {
            let want = match acked[key as usize] {
                0 => mesh::corner_placement(seed, key, corner),
                v => checkin_placement(v, key, corner),
            };
            let got = p.values.get(attrs.placement).and_then(mesh::placement_of);
            if got != Some(want) {
                return Err(format!(
                    "brep {key} corner {corner}: placement {got:?} after reopen, acknowledged {want:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkin_key_classes_are_disjoint_and_cover_the_dataset() {
        let w = by_name("txn.checkin").unwrap();
        for solids in [7usize, 8, 2000] {
            let mut seen = vec![None; solids + 1];
            for s in 0..SESSIONS {
                let mut keys = Keys::new(w, solids, 3, s);
                for _ in 0..solids * 40 {
                    let k = keys.next() as usize;
                    assert!((1..=solids).contains(&k));
                    assert!(
                        seen[k].is_none_or(|owner| owner == s),
                        "key {k} drawn by two sessions"
                    );
                    seen[k] = Some(s);
                }
            }
            assert!(
                seen[1..].iter().all(Option::is_some),
                "{solids}: a key is never drawn"
            );
        }
    }

    #[test]
    fn read_keys_repeat_per_seed_and_differ_per_session() {
        let w = by_name("asm.warm").unwrap();
        let draw = |seed, s| {
            let mut k = Keys::new(w, 10_000, seed, s);
            (0..50).map(|_| k.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5, 0), draw(5, 0));
        assert_ne!(draw(5, 0), draw(5, 1));
        assert_ne!(draw(5, 0), draw(6, 0));
        assert!(draw(5, 0).iter().all(|k| (1..=10_000).contains(k)));
    }

    #[test]
    fn buffer_scales_with_the_dataset() {
        let cold = by_name("asm.cold").unwrap();
        assert_eq!(cold.buffer_for(10_000), 4 << 20);
        assert_eq!(cold.buffer_for(500), (4 << 20) / 20);
    }
}
