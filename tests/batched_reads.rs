//! Equivalence and guard-churn guarantees of the batched atom-read path:
//!
//! * `read_atoms_batch_into` returns byte-identical atoms — same order,
//!   same projections — as N calls to `read_atom`, and a hole exactly
//!   where `read_atom` finds no atom, including mixed-page and mixed-type
//!   batches, and projects like the partition a query scans instead;
//! * the kernel's level-batched molecule assembly returns exactly the
//!   molecules of the naive per-atom reference in `common/reference.rs`
//!   (flat, deep, recursive and cluster-prefetched structures);
//! * each distinct atom of a molecule is fetched and decoded once, and
//!   every position referencing it shares that one `Arc<Atom>`;
//! * the batched path issues measurably fewer buffer fix calls at
//!   fan-out >= 10 than the reference (counter-verified via
//!   `Prima::metrics` deltas);
//! * an atom that stays record bytes until a value is read is
//!   transparent: every read path returns atoms equal to an eager decode
//!   of their record, and an unchanged atom encodes back to its record
//!   byte for byte.

#[path = "common/reference.rs"]
mod reference;

use prima::{MolAtom, Molecule, Prima, QueryOptions, Structure, Value};
use prima_access::multidim::DimRange;
use prima_access::record_file::RecordFile;
use prima_access::scan::Scan;
use prima_access::{AccessError, Atom, Ssa};
use prima_mad::codec;
use prima_mad::value::AtomId;
use prima_workloads::brep::{self, BrepConfig};
use prima_workloads::exec;
use prima_workloads::map::{self, MapConfig};
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::Arc;

const DDL: &str = "
CREATE ATOM_TYPE part
  ( id : IDENTIFIER, n : INTEGER, name : CHAR_VAR,
    parent : SET_OF (REF_TO (assembly.comps)) );
CREATE ATOM_TYPE assembly
  ( id : IDENTIFIER, n : INTEGER,
    comps : SET_OF (REF_TO (part.parent)) );
";

/// `ids` read through one batched read.
fn read_batch(db: &Prima, ids: &[AtomId], projection: Option<&[usize]>) -> Vec<Option<Atom>> {
    let mut out = Vec::new();
    db.access().read_atoms_batch_into(ids, projection, &mut out).unwrap();
    out
}

/// `ids` read one `read_atom` call at a time.
fn read_each(db: &Prima, ids: &[AtomId], projection: Option<&[usize]>) -> Vec<Option<Atom>> {
    ids.iter().map(|id| Some(db.access().read_atom(*id, projection).unwrap())).collect()
}

/// Kernel with `parts` part atoms, each padded so records span many pages.
fn parts_db(parts: usize) -> (Prima, Vec<AtomId>) {
    let db = Prima::builder().buffer_bytes(8 << 20).build_with_ddl(DDL).unwrap();
    let ids: Vec<AtomId> = (0..parts)
        .map(|i| {
            db.insert(
                "part",
                &[
                    ("n", Value::Int(i as i64)),
                    ("name", Value::Str(format!("part-{i:05} padded {}", "x".repeat(i % 40)))),
                ],
            )
            .unwrap()
        })
        .collect();
    (db, ids)
}

#[test]
fn batch_matches_sequential_reads_unprojected() {
    let (db, ids) = parts_db(300);
    // Shuffled-ish order with duplicates, crossing page boundaries.
    let mut order: Vec<AtomId> = Vec::new();
    for i in 0..ids.len() {
        order.push(ids[(i * 97) % ids.len()]);
        if i % 7 == 0 {
            order.push(ids[i]); // duplicates must be preserved positionally
        }
    }
    let batched = read_batch(&db, &order, None);
    let sequential = read_each(&db, &order, None);
    assert_eq!(batched, sequential);
    // Byte-identical, not merely structurally equal.
    for (b, s) in batched.iter().flatten().zip(sequential.iter().flatten()) {
        assert_eq!(b.encode(), s.encode());
    }
}

#[test]
fn batch_matches_sequential_reads_projected() {
    let (db, ids) = parts_db(120);
    let proj = [1usize];
    let batched = read_batch(&db, &ids, Some(&proj));
    assert_eq!(batched, read_each(&db, &ids, Some(&proj)));
    // Projection nulls the unselected attributes in both paths.
    assert!(batched.iter().flatten().all(|a| matches!(a.values[2], Value::Null)));
}

#[test]
fn batch_uses_fresh_partitions_like_read_atom() {
    let (db, ids) = parts_db(80);
    let t = db.schema().type_id("part").unwrap();
    db.access().create_partition("p_n", t, vec![0, 1]).unwrap();
    // MQL reaches a partition through root access only: a scan of it.
    let (set, profile) = exec::query_profiled(&db, "SELECT n FROM part").unwrap();
    assert_eq!(profile.access("path"), Some("partition_scan(p_n)"));
    let mut scanned: Vec<Atom> = set.molecules.iter().map(|m| Atom::clone(&m.root.atom)).collect();
    scanned.sort_by_key(|a| a.id);
    // The batch projects the primary records onto the partition's
    // attributes: the same atoms the partition copies hold.
    let proj = [0usize, 1];
    let batched = read_batch(&db, &ids, Some(&proj));
    assert_eq!(batched, read_each(&db, &ids, Some(&proj)));
    assert_eq!(scanned, batched.into_iter().flatten().collect::<Vec<_>>());
}

#[test]
fn batch_missing_id_matches_sequential_error() {
    let (db, ids) = parts_db(40);
    let victim = ids[17];
    db.delete(victim).unwrap();
    let err = db.access().read_atom(victim, None).unwrap_err();
    assert!(matches!(err, AccessError::NoSuchAtom(id) if id == victim), "got {err}");
    // The batch reports the hole positionally.
    let opt = read_batch(&db, &ids, None);
    assert!(opt[17].is_none());
    assert_eq!(opt.iter().filter(|a| a.is_none()).count(), 1);
    for (i, a) in opt.iter().enumerate() {
        if i != 17 {
            assert_eq!(a.as_ref().unwrap(), &db.access().read_atom(ids[i], None).unwrap());
        }
    }
}

#[test]
fn batch_handles_mixed_types_and_empty_input() {
    let (db, part_ids) = parts_db(30);
    let asm = db
        .insert("assembly", &[("n", Value::Int(1)), ("comps", Value::ref_set(part_ids.clone()))])
        .unwrap();
    // Interleave the two atom types (different base record files).
    let mut mixed = Vec::new();
    for id in part_ids.iter().take(10) {
        mixed.push(*id);
        mixed.push(asm);
    }
    assert_eq!(read_batch(&db, &mixed, None), read_each(&db, &mixed, None));
    assert!(read_batch(&db, &[], None).is_empty());
}

/// The kernel's molecules for `q` (ordered by root atom id, like the
/// reference's) and the atoms its assembly read: the profile's
/// `primary_reads`, less the roots a key lookup or an access path read
/// through that counter (a type scan reads none through it).
fn kernel_molecules(db: &Prima, q: &str) -> (Vec<Molecule>, usize) {
    let (set, profile) = exec::query_profiled(db, q).unwrap();
    let mut molecules = set.molecules;
    molecules.sort_by_key(|m| m.root.atom.id);
    let root_reads = match profile.access("path") {
        Some("type_scan") => 0,
        _ => profile.access("roots").unwrap().parse().unwrap(),
    };
    (molecules, profile.counters.access.primary_reads as usize - root_reads)
}

/// Without a cluster every distinct component atom of a molecule is
/// fetched exactly once, however many positions it occupies.
fn distinct_components(molecules: &[Molecule]) -> usize {
    molecules
        .iter()
        .map(|m| {
            let ids: HashSet<AtomId> = m.atom_ids().into_iter().collect();
            ids.len() - 1
        })
        .sum()
}

/// Asserts that every two positions of `m` holding the same atom id share
/// one decoded atom; returns the number of distinct decoded atoms.
fn assert_shared(m: &Molecule) -> usize {
    let mut by_id: HashMap<AtomId, Arc<Atom>> = HashMap::new();
    m.for_each(|ma| {
        let first = by_id.entry(ma.atom.id).or_insert_with(|| Arc::clone(&ma.atom));
        assert!(Arc::ptr_eq(first, &ma.atom), "{} decoded twice", ma.atom.id);
    });
    by_id.len()
}

#[test]
fn kernel_matches_reference_on_flat_and_deep_molecules() {
    let db = brep::open_db(16 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_assembly(6, 2, 2)).unwrap();
    for q in [
        "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2",
        "SELECT ALL FROM brep-face-edge-point WHERE brep_no > 0",
        "SELECT ALL FROM solid-brep",
    ] {
        let (kernel, fetched) = kernel_molecules(&db, q);
        assert!(!kernel.is_empty(), "{q}");
        assert_eq!(kernel, reference::molecules(&db, q), "molecule sets diverge for {q}");
        assert_eq!(fetched, distinct_components(&kernel), "fetch accounting for {q}");
    }
}

#[test]
fn kernel_matches_reference_on_recursive_molecules() {
    let db = brep::open_db(16 << 20).unwrap();
    let stats = brep::populate(&db, &BrepConfig::with_assembly(8, 3, 2)).unwrap();
    let root = stats.root_solid_nos[0];
    let q = format!("SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = {root}");
    let (kernel, fetched) = kernel_molecules(&db, &q);
    assert_eq!(kernel, reference::molecules(&db, &q));
    assert_eq!(fetched, distinct_components(&kernel));
    assert!(kernel[0].depth() >= 2, "recursion actually expanded");
}

#[test]
fn kernel_matches_reference_on_clustered_molecules() {
    let db = brep::open_db(16 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(5)).unwrap();
    db.ldl("CREATE ATOM_CLUSTER cl_brep ON brep (faces, edges, points) PAGESIZE 1K").unwrap();
    for q in [
        "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 3",
        "SELECT ALL FROM brep-face-edge-point WHERE brep_no > 0",
    ] {
        let (set, profile) = exec::query_profiled(&db, q).unwrap();
        assert_eq!(profile.access("cluster"), Some("cl_brep"), "{q}");
        let mut kernel = set.molecules;
        kernel.sort_by_key(|m| m.root.atom.id);
        assert_eq!(kernel, reference::molecules(&db, q), "molecule sets diverge for {q}");
    }
}

#[test]
fn shared_atoms_are_decoded_once() {
    let db = brep::open_db(16 << 20).unwrap();
    let stats = brep::populate(&db, &BrepConfig::with_assembly(4, 2, 2)).unwrap();
    let q = "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2";
    let session = db.session();

    // Fig. 2.3 box: 79 positions over 27 atoms (1 brep, 6 faces, 12
    // edges, 8 points); the 26 components are one batch read's atoms.
    let before = db.metrics();
    let set = session.query(q, &QueryOptions::default()).unwrap().set;
    let d = db.metrics().delta(&before);
    assert_eq!(set.molecules.len(), 1);
    let m = &set.molecules[0];
    assert_eq!(m.atom_count(), 79);
    assert_eq!(assert_shared(m), 27);
    assert_eq!(d.access.batch_atoms, 26);

    // Under a transaction: one extension lock plus one per distinct atom.
    session.begin().unwrap();
    let before = db.metrics().lock;
    let locked = session.query(q, &QueryOptions::default()).unwrap().set;
    let acquired = db.metrics().lock.since(&before).acquisitions;
    session.rollback().unwrap();
    assert_eq!(acquired, 28);
    assert_eq!(locked, set);
    assert_eq!(assert_shared(&locked.molecules[0]), 27);

    // Recursion: a composite over {composite 5, base solid 1}, where 5
    // itself contains 1 — solid 1 is reached at levels 1 and 2, shares
    // one decoded atom and keeps both levels.
    let (base_1, composite_5) = (stats.solid_ids[0], stats.solid_ids[4]);
    db.insert(
        "solid",
        &[
            ("solid_no", Value::Int(100)),
            ("description", Value::Str("overlapping assembly".into())),
            ("sub", Value::ref_set(vec![composite_5, base_1])),
        ],
    )
    .unwrap();
    let q = "SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = 100";
    let (kernel, fetched) = kernel_molecules(&db, q);
    assert_eq!(kernel, reference::molecules(&db, q));
    assert_eq!(fetched, distinct_components(&kernel));
    let m = &kernel[0];
    assert_shared(m);
    let mut levels = Vec::new();
    m.for_each(|ma| {
        if ma.atom.id == base_1 {
            levels.push(ma.level);
        }
    });
    levels.sort_unstable();
    assert_eq!(levels, [1, 2], "one atom, two recursion levels");
}

/// `m` with every position mapped through `f`; a position `f` rejects
/// drops with its subtree, as a qualified projection drops it.
fn project_tree(ma: &MolAtom, f: &dyn Fn(&MolAtom) -> Option<Atom>) -> Option<MolAtom> {
    let mut out = MolAtom::new(ma.node, ma.level, f(ma)?);
    out.children = ma.children.iter().filter_map(|c| project_tree(c, f)).collect();
    Some(out)
}

/// `SELECT ALL` delivers the molecule as assembled, so two positions
/// share one decoded atom exactly when they hold the same id. Attribute
/// projections, qualified projections and excluded nodes still project
/// every position of that molecule.
#[test]
fn select_all_keeps_sharing_and_projections_still_project() {
    let db = brep::open_db(16 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_assembly(4, 2, 2)).unwrap();
    let from = "FROM brep-face-edge-point WHERE brep_no = 2";
    let all = exec::query(&db, &format!("SELECT ALL {from}")).unwrap();
    assert_eq!(all.molecules.len(), 1);
    let m = &all.molecules[0];
    let mut positions = Vec::new();
    m.for_each(|ma| positions.push(Arc::clone(&ma.atom)));
    for a in &positions {
        for b in &positions {
            assert_eq!(Arc::ptr_eq(a, b), a.id == b.id, "{} / {}", a.id, b.id);
        }
    }

    let node = |label: &str| all.node_id(label).unwrap();
    let (face, point) = (node("face"), node("point"));
    // brep_no, square_dim: attribute 1 of brep and of face; 0 is the id.
    let expect = |f: &dyn Fn(&MolAtom) -> Option<Atom>| {
        let root = project_tree(&m.root, f).unwrap();
        vec![Molecule::new(root)]
    };
    let query = |select: &str| exec::query(&db, &format!("SELECT {select} {from}")).unwrap();

    // An attribute projection on the root.
    let got = query("brep_no, face, edge, point");
    let want = expect(&|ma| {
        Some(if ma.node == 0 { ma.atom.project(&[0, 1]) } else { (*ma.atom).clone() })
    });
    assert_eq!(got.molecules, want, "attribute projection");

    // A qualified projection on the faces, with a threshold between the
    // smallest and the largest face.
    let mut areas: Vec<f64> =
        m.atoms_of_node(face).iter().map(|a| a.values[1].as_real().unwrap()).collect();
    areas.sort_by(f64::total_cmp);
    let threshold = format!("{:.3}", (areas[0] + areas[areas.len() - 1]) / 2.0);
    let t: f64 = threshold.parse().unwrap();
    assert!(areas[0] <= t && t < areas[areas.len() - 1], "faces differ in area: {areas:?}");
    let got = query(&format!(
        "brep, (face := SELECT face_id, square_dim FROM face WHERE square_dim > {threshold}), \
         edge, point"
    ));
    let want = expect(&|ma| match ma.node {
        n if n == face => {
            (ma.atom.values[1].as_real().unwrap() > t).then(|| ma.atom.project(&[0, 1]))
        }
        _ => Some((*ma.atom).clone()),
    });
    assert_eq!(got.molecules, want, "qualified projection");

    // An excluded node keeps its identifier only.
    let got = query("brep, face, edge");
    let want = expect(&|ma| {
        Some(if ma.node == point { ma.atom.project(&[0]) } else { (*ma.atom).clone() })
    });
    assert_eq!(got.molecules, want, "excluded node");
}

#[test]
fn batched_assembly_issues_fewer_fix_calls_at_fanout_10() {
    let db = Prima::builder().buffer_bytes(8 << 20).build_with_ddl(DDL).unwrap();
    for a in 0..20 {
        let comps: Vec<AtomId> = (0..10)
            .map(|i| {
                db.insert(
                    "part",
                    &[("n", Value::Int(i)), ("name", Value::Str(format!("p{a}-{i}")))],
                )
                .unwrap()
            })
            .collect();
        db.insert("assembly", &[("n", Value::Int(a)), ("comps", Value::ref_set(comps))])
            .unwrap();
    }
    let q = "SELECT ALL FROM assembly-part";
    let fix_calls_of = |assemble: &dyn Fn() -> usize| {
        assemble(); // warm the buffer
        let before = db.metrics();
        assert_eq!(assemble(), 20);
        db.metrics().delta(&before).buffer.fix_calls
    };
    let per_atom = fix_calls_of(&|| reference::molecules(&db, q).len());
    let batched = fix_calls_of(&|| exec::query(&db, q).unwrap().len());
    assert!(
        batched * 2 <= per_atom,
        "batched path must at least halve fix calls at fan-out 10: {batched} vs {per_atom}"
    );
}

// ---------------------------------------------------------------------
// The lazy atom is transparent
// ---------------------------------------------------------------------

/// Every primary record by atom id, read from the base files through a
/// second handle on their segments: bytes no atom has touched.
fn primary_records(db: &Prima) -> HashMap<AtomId, Vec<u8>> {
    let mut out = HashMap::new();
    for segment in db.access().type_segments() {
        let file = RecordFile::attach(Arc::clone(db.access().storage()), segment).unwrap();
        file.for_each(|_, bytes| {
            out.insert(eager(bytes).id, bytes.to_vec());
            Ok(())
        })
        .unwrap();
    }
    out
}

/// The atom a record holds, decoded eagerly: the id header, then every
/// value of the rest.
fn eager(record: &[u8]) -> Atom {
    let (header, values) = record.split_at(10);
    let seq = u64::from_le_bytes(header[2..].try_into().unwrap());
    let id = AtomId::new(u16::from_le_bytes([header[0], header[1]]), seq);
    Atom::new(id, codec::decode_values_where(values, |_| true).unwrap())
}

/// `atom` equals the eager decode of its record (projected onto `proj`
/// when given: a projection or a partition copy).
fn assert_eager(records: &HashMap<AtomId, Vec<u8>>, atom: &Atom, proj: Option<&[usize]>, at: &str) {
    let want = eager(&records[&atom.id]);
    let want = match proj {
        Some(proj) => want.project(proj),
        None => want,
    };
    assert_eq!(*atom, want, "{at}: {}", atom.id);
}

#[test]
fn lazy_atoms_equal_eager_decodes_on_every_read_path() {
    let db = brep::open_db(16 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(4)).unwrap();
    let records = primary_records(&db);
    let ids: Vec<AtomId> = records.keys().copied().collect();
    let sys = db.access();

    // Direct and batched reads; an unchanged atom encodes to its record,
    // before and after its values are read.
    for (i, &id) in ids.iter().enumerate() {
        let atom = sys.read_atom(id, None).unwrap();
        if i % 2 == 0 {
            assert_eq!(atom.encode(), records[&id], "unread {id}");
        }
        assert_eager(&records, &atom, None, "read_atom");
        assert_eq!(atom.encode(), records[&id], "read {id}");
        let proj = [1, 2];
        assert_eager(&records, &sys.read_atom(id, Some(&proj)).unwrap(), Some(&proj), "projected");
    }
    for atom in read_batch(&db, &ids, None).iter().flatten() {
        assert_eq!(atom.encode(), records[&atom.id], "batch {}", atom.id);
        assert_eager(&records, atom, None, "batch");
    }
    let proj = [0, 1];
    for atom in read_batch(&db, &ids, Some(&proj)).iter().flatten() {
        assert_eager(&records, atom, Some(&proj), "projected batch");
    }

    // Cluster prefetch: every position of every molecule.
    db.ldl("CREATE ATOM_CLUSTER cl_brep ON brep (faces, edges, points) PAGESIZE 1K").unwrap();
    let q = "SELECT ALL FROM brep-face-edge-point WHERE brep_no > 0";
    let (set, profile) = exec::query_profiled(&db, q).unwrap();
    assert_eq!(profile.access("cluster"), Some("cl_brep"));
    assert_eq!(set.molecules.len(), 4);
    for m in &set.molecules {
        m.for_each(|ma| assert_eager(&records, &ma.atom, None, "cluster prefetch"));
    }

    // A covering partition's copy, read by the query's partition scan.
    let point = db.schema().type_id("point").unwrap();
    sys.create_partition("p_point", point, vec![0, 1]).unwrap();
    let (set, profile) = exec::query_profiled(&db, "SELECT placement FROM point").unwrap();
    assert_eq!(profile.access("path"), Some("partition_scan(p_point)"));
    assert_eq!(set.molecules.len(), ids.iter().filter(|id| id.atom_type == point).count());
    for m in &set.molecules {
        assert_eager(&records, &m.root.atom, Some(&[0, 1]), "partition");
    }

    // A snapshot's version image: a reader outside any transaction sees
    // the before-image of an uncommitted modify.
    let writer = db.session();
    writer.begin().unwrap();
    let solid = db.schema().type_id("solid").unwrap();
    let victim = ids.iter().copied().find(|id| id.atom_type == solid).unwrap();
    writer.modify_atom_named(victim, &[("description", Value::Str("dirty".into()))]).unwrap();
    let seen = db.session().read_atom(victim).unwrap();
    assert_eager(&records, &seen, None, "version image");
    writer.rollback().unwrap();
}

#[test]
fn lazy_atoms_equal_eager_decodes_through_every_scan() {
    let db = map::open_db(32 << 20).unwrap();
    map::populate(&db, &MapConfig { sheets: 2, grid: 4, seed: 21 }).unwrap();
    db.ldl(
        "CREATE PARTITION p_land ON region (region_no, land_use); \
         CREATE SORT ORDER sox ON node (x); \
         CREATE ACCESS PATH ap_no ON border (border_no); \
         CREATE MULTIDIM ACCESS PATH g_xy ON node (x, y); \
         CREATE ATOM_CLUSTER cl_sheet ON sheet (regions) PAGESIZE 1K",
    )
    .unwrap();
    let records = primary_records(&db);
    let sys = db.access();
    let region = db.schema().type_id("region").unwrap();
    let node = db.schema().type_id("node").unwrap();
    let x = db.schema().atom_type(node).unwrap().attribute_index("x").unwrap();
    let Some(Structure::Partition(part)) = sys.structure("p_land") else { panic!("no partition") };
    let Some(Structure::BTree(ix)) = sys.structure("ap_no") else { panic!("no B*-tree") };
    let Some(Structure::Grid(gx)) = sys.structure("g_xy") else { panic!("no grid") };
    let Some(Structure::Cluster(ct)) = sys.structure("cl_sheet") else { panic!("no cluster") };
    let ch = ct.characteristic_atoms()[0];
    let (unbounded, all) = (Bound::Unbounded, [DimRange::all(), DimRange::all()]);
    let scans: Vec<(&str, Scan, Option<&[usize]>)> = vec![
        ("atom_type", Scan::atom_type(sys, region, Ssa::True).unwrap(), None),
        ("partition", Scan::partition(sys, part.clone(), Ssa::True).unwrap(), Some(&[0, 1, 2])),
        ("sort", Scan::sort(sys, node, &[x], Ssa::True, unbounded.clone(), unbounded.clone()).unwrap(), None),
        ("access_path", Scan::access_path(sys, &ix, Ssa::True, unbounded.clone(), unbounded, false).unwrap(), None),
        ("multidim", Scan::multidim(sys, &gx, Ssa::True, &all).unwrap(), None),
        ("cluster_type", Scan::cluster_type(sys, ct.clone(), Ssa::True).unwrap(), None),
        ("cluster", Scan::cluster(sys, &ct, ch, region, Ssa::True).unwrap(), None),
        ("projected", Scan::atom_type(sys, node, Ssa::True).unwrap().project(vec![0, 2]), Some(&[0, 2])),
    ];
    for (kind, mut scan, proj) in scans {
        let atoms = scan.collect_remaining().unwrap();
        assert!(atoms.len() >= 2, "{kind}: {} atoms", atoms.len());
        for atom in &atoms {
            assert_eager(&records, atom, proj, kind);
        }
    }
}
