//! E-F3.1: the layer model of Fig. 3.1 — one molecule query maps through
//! molecule sets → atoms → physical records → pages → blocks, and every
//! layer's accounting is observable and consistent.

use prima_workloads::brep::{self, BrepConfig};
use prima_workloads::exec;

#[test]
fn one_query_touches_every_layer() {
    let db = brep::open_db(1 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(10)).unwrap();
    db.storage().drop_cache().unwrap();
    let before = db.metrics();

    // Data system: molecule-set in, atoms out.
    let (set, profile) =
        exec::query_profiled(&db, "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 5")
            .unwrap();
    let d = db.metrics().delta(&before);

    // Layer 1 — data system: a key lookup delivering one root, one
    // molecule of 79 positions over 27 atoms.
    assert_eq!(profile.access("path"), Some("key_lookup(brep_no)"));
    assert_eq!(profile.access("roots"), Some("1"));
    assert_eq!(set.len(), 1);
    let atoms_in_molecule = set.molecules[0].atom_count();
    assert_eq!(atoms_in_molecule, 79);
    assert_eq!(
        profile.counters.access.primary_reads - 1,
        26,
        "assembly fetched each distinct component once (the key lookup read the root)"
    );

    // Layer 2 — access system: one primary-record read for the root and
    // one per distinct component.
    let primary_reads = d.access.primary_reads;
    assert_eq!(primary_reads, 27);

    // Layer 3 — storage system: buffer served page fixes, some missed to
    // the device.
    let buf = d.buffer;
    assert!(buf.hits + buf.misses > 0, "pages were fixed");
    assert!(buf.misses > 0, "cold start must read the device");

    // Layer 4 — device: block reads of 4K data pages.
    let io = d.io;
    assert!(io.block_reads > 0);
    assert_eq!(io.block_reads, buf.misses, "every miss is exactly one block read");
    assert!(io.bytes_read >= io.block_reads * 512);
}

#[test]
fn warm_repeat_stays_in_upper_layers() {
    let db = brep::open_db(8 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(5)).unwrap();
    let q = "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2";
    let _ = exec::query(&db, q).unwrap();
    let before = db.metrics();
    let _ = exec::query(&db, q).unwrap();
    let io = db.metrics().delta(&before).io;
    assert_eq!(io.block_reads, 0, "warm repeat must not touch the device");
}

#[test]
fn atoms_fetched_scale_with_molecule_count() {
    let db = brep::open_db(16 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(12)).unwrap();
    // The key lookup reads its root through `primary_reads`, the type
    // scan does not: subtract it to compare assembly reads alone.
    let (_, p1) =
        exec::query_profiled(&db, "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1")
            .unwrap();
    assert_eq!(p1.access("path"), Some("key_lookup(brep_no)"));
    let one = p1.counters.access.primary_reads - 1;
    let (all, p_all) =
        exec::query_profiled(&db, "SELECT ALL FROM brep-face-edge-point WHERE brep_no > 0")
            .unwrap();
    assert_eq!(p_all.access("path"), Some("type_scan"));
    assert_eq!(all.len(), 12);
    let fetched = p_all.counters.access.primary_reads;
    assert!(
        fetched >= 12 * one,
        "12 molecules fetch at least 12x the atoms of one ({fetched} vs {one})"
    );
}
