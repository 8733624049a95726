//! E-F3.2: the atom-cluster mapping of Fig. 3.2 — logical view (a) →
//! one physical record (b) → page sequence (c), with chained I/O for the
//! whole cluster and relative addressing for single atoms.

use prima_workloads::brep::{self, BrepConfig};
use prima_workloads::exec;

fn cluster(db: &prima::Prima) -> std::sync::Arc<prima_access::cluster::AtomClusterType> {
    match db.access().structure("cl_brep") {
        Some(prima::Structure::Cluster(ct)) => ct,
        _ => panic!("cl_brep is no cluster"),
    }
}

fn tuned_db(n: usize) -> prima::Prima {
    let db = brep::open_db(32 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(n)).unwrap();
    db.ldl("CREATE ATOM_CLUSTER cl_brep ON brep (faces, edges, points) PAGESIZE 1K").unwrap();
    db
}

#[test]
fn cluster_materialises_molecule_atoms() {
    let db = tuned_db(3);
    let ct = cluster(&db);
    let chars = ct.characteristic_atoms();
    assert_eq!(chars.len(), 3, "one cluster per characteristic atom");
    let members = ct.members(chars[0]).unwrap();
    assert_eq!(members.len(), 6 + 12 + 8, "faces, edges, points of one box");
}

#[test]
fn molecule_query_reads_cluster_chained() {
    let db = tuned_db(5);
    db.storage().flush().unwrap();
    let before = db.metrics();
    let (set, profile) =
        exec::query_profiled(&db, "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 3")
            .unwrap();
    assert_eq!(set.len(), 1);
    assert_eq!(profile.access("cluster"), Some("cl_brep"));
    let io = db.metrics().delta(&before).io;
    assert!(io.chained_runs >= 1, "cluster read must be chained: {io:?}");
}

#[test]
fn cluster_beats_scattered_assembly_in_io() {
    // Build two identical databases; tune only one.
    let build = |tuned: bool| {
        let db = brep::open_db(512 * 1024).unwrap(); // small buffer: I/O visible
        brep::populate(&db, &BrepConfig::with_solids(30)).unwrap();
        if tuned {
            db.ldl("CREATE ATOM_CLUSTER cl ON brep (faces, edges, points) PAGESIZE 1K")
                .unwrap();
        }
        // Cold start: drop the buffer cache so assembly I/O hits the
        // device.
        db.storage().drop_cache().unwrap();
        let before = db.metrics();
        (db, before)
    };
    let (with, with_before) = build(true);
    let (without, without_before) = build(false);
    let q = "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 17";
    let s1 = exec::query(&with, q).unwrap();
    let s2 = exec::query(&without, q).unwrap();
    assert_eq!(s1.atoms_of("point").len(), s2.atoms_of("point").len(), "same answer");
    let io_with = with.metrics().delta(&with_before).io;
    let io_without = without.metrics().delta(&without_before).io;
    assert!(
        io_with.seeks <= io_without.seeks,
        "clustered assembly must not seek more: {} vs {}",
        io_with.seeks,
        io_without.seeks
    );
    assert!(
        io_with.sim_time_ns < io_without.sim_time_ns,
        "clustered assembly must be faster on the device-time axis: {} vs {}",
        io_with.sim_time_ns,
        io_without.sim_time_ns
    );
}

#[test]
fn modifying_member_refreshes_cluster_on_reconcile() {
    let db = tuned_db(2);
    db.set_update_policy(prima::UpdatePolicy::Deferred);
    // Modify a face's area.
    let set = exec::query(&db, "SELECT ALL FROM brep-face WHERE brep_no = 1").unwrap();
    let face_node = set.node_id("face").unwrap();
    let victim = set.molecules[0].atoms_of_node(face_node)[0].id;
    db.modify(victim, &[("square_dim", prima::Value::Real(123.456))]).unwrap();
    assert!(!db.access().deferred_queue().is_empty(), "cluster refresh queued");
    db.reconcile().unwrap();
    // The cluster copy now shows the new value.
    let ct = cluster(&db);
    let ch = ct.characteristic_atoms()[0];
    let copy = ct.read_one(ch, victim).unwrap().expect("member present");
    assert_eq!(copy.values[1], prima::Value::Real(123.456));
}

#[test]
fn deleting_characteristic_atom_drops_cluster() {
    let db = tuned_db(2);
    let ct = cluster(&db);
    let chars = ct.characteristic_atoms();
    db.delete(chars[0]).unwrap();
    assert_eq!(ct.characteristic_atoms().len(), 1);
    assert!(!ct.contains(chars[0]));
}

#[test]
fn single_member_access_uses_relative_addressing() {
    let db = tuned_db(1);
    let ct = cluster(&db);
    let ch = ct.characteristic_atoms()[0];
    let members = ct.members(ch).unwrap();
    db.storage().drop_cache().unwrap();
    let before = db.metrics();
    let one = ct.read_one(ch, members[20]).unwrap().unwrap();
    assert_eq!(one.id, members[20]);
    let io = db.metrics().delta(&before).io;
    let before = db.metrics();
    let _ = ct.read_all(ch).unwrap();
    let io_all = db.metrics().delta(&before).io;
    assert!(
        io.bytes_read < io_all.bytes_read,
        "single-atom access must read less than the whole sequence ({} vs {})",
        io.bytes_read,
        io_all.bytes_read
    );
}
