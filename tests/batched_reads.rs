//! Equivalence and guard-churn guarantees of the batched atom-read path:
//!
//! * `read_atoms_batch` returns byte-identical atoms — same order, same
//!   projections, same error behaviour — as N calls to `read_atom`,
//!   including mixed-page and mixed-type batches and partition-covered
//!   projections;
//! * the kernel's level-batched molecule assembly returns exactly the
//!   molecules of the naive per-atom reference in `common/reference.rs`
//!   (flat, deep, recursive and cluster-prefetched structures);
//! * the batched path issues measurably fewer buffer fix calls at
//!   fan-out >= 10 than the reference (counter-verified via
//!   `BufferStats::detail`).

#[path = "common/reference.rs"]
mod reference;

use prima::{Molecule, Prima, QueryOptions, Value};
use prima_workloads::exec;
use prima_access::AccessError;
use prima_mad::value::AtomId;
use prima_workloads::brep::{self, BrepConfig};

const DDL: &str = "
CREATE ATOM_TYPE part
  ( id : IDENTIFIER, n : INTEGER, name : CHAR_VAR,
    parent : SET_OF (REF_TO (assembly.comps)) );
CREATE ATOM_TYPE assembly
  ( id : IDENTIFIER, n : INTEGER,
    comps : SET_OF (REF_TO (part.parent)) );
";

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
    let batched = db.access().read_atoms_batch(&order, None).unwrap();
    let sequential: Vec<_> =
        order.iter().map(|id| db.access().read_atom(*id, None).unwrap()).collect();
    assert_eq!(batched, sequential);
    // Byte-identical, not merely structurally equal.
    for (b, s) in batched.iter().zip(&sequential) {
        assert_eq!(b.encode(), s.encode());
    }
}

#[test]
fn batch_matches_sequential_reads_projected() {
    let (db, ids) = parts_db(120);
    let proj = [1usize];
    let batched = db.access().read_atoms_batch(&ids, Some(&proj)).unwrap();
    let sequential: Vec<_> =
        ids.iter().map(|id| db.access().read_atom(*id, Some(&proj)).unwrap()).collect();
    assert_eq!(batched, sequential);
    // Projection nulls the unselected attributes in both paths.
    assert!(batched.iter().all(|a| matches!(a.values[2], Value::Null)));
}

#[test]
fn batch_uses_fresh_partitions_like_read_atom() {
    let (db, ids) = parts_db(80);
    let t = db.schema().type_id("part").unwrap();
    db.access().create_partition("p_n", t, vec![0, 1]).unwrap();
    let before = db.metrics();
    let proj = [1usize];
    let batched = db.access().read_atoms_batch(&ids, Some(&proj)).unwrap();
    let part_reads = db.metrics().delta(&before).access.partition_reads;
    assert_eq!(part_reads as usize, ids.len(), "covered projection reads the partition");
    let sequential: Vec<_> =
        ids.iter().map(|id| db.access().read_atom(*id, Some(&proj)).unwrap()).collect();
    assert_eq!(batched, sequential);
}

#[test]
fn batch_missing_id_matches_sequential_error() {
    let (db, ids) = parts_db(40);
    let victim = ids[17];
    db.delete(victim).unwrap();
    let err = db.access().read_atoms_batch(&ids, None).unwrap_err();
    assert!(
        matches!(err, AccessError::NoSuchAtom(id) if id == victim),
        "batch error must name the first missing atom, got {err}"
    );
    // The tolerant variant reports the hole positionally.
    let opt = db.access().read_atoms_batch_opt(&ids, None).unwrap();
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
    let batched = db.access().read_atoms_batch(&mixed, None).unwrap();
    let sequential: Vec<_> =
        mixed.iter().map(|id| db.access().read_atom(*id, None).unwrap()).collect();
    assert_eq!(batched, sequential);
    assert!(db.access().read_atoms_batch(&[], None).unwrap().is_empty());
}

/// The kernel's molecules for `q` (ordered by root atom id, like the
/// reference's) and its `atoms_fetched` count.
fn kernel_molecules(db: &Prima, q: &str) -> (Vec<Molecule>, usize) {
    let r = db.session().query(q, &QueryOptions::new().traced()).unwrap();
    let mut molecules = r.set.molecules;
    molecules.sort_by_key(|m| m.root.atom.id);
    (molecules, r.trace.unwrap().atoms_fetched)
}

/// Without a cluster every component position is fetched exactly once.
fn component_positions(molecules: &[Molecule]) -> usize {
    molecules.iter().map(|m| m.atom_count() - 1).sum()
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
        assert_eq!(fetched, component_positions(&kernel), "fetch accounting for {q}");
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
    assert_eq!(fetched, component_positions(&kernel));
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
        let r = db.session().query(q, &QueryOptions::new().traced()).unwrap();
        assert_eq!(r.trace.unwrap().cluster_used.as_deref(), Some("cl_brep"), "{q}");
        let mut kernel = r.set.molecules;
        kernel.sort_by_key(|m| m.root.atom.id);
        assert_eq!(kernel, reference::molecules(&db, q), "molecule sets diverge for {q}");
    }
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
