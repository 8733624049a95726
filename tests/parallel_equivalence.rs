//! E-PAR: semantic parallelism — parallel DU execution (selected per
//! query via `QueryOptions::threads`) returns exactly the serial result,
//! for every query shape and thread count.

use prima::QueryOptions;
use prima_workloads::brep::{self, BrepConfig};
use prima_workloads::vlsi::{self, VlsiConfig};

#[test]
fn parallel_equals_serial_on_vertical_access() {
    let db = brep::open_db(32 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(24)).unwrap();
    let q = "SELECT ALL FROM brep-face-edge-point WHERE brep_no > 0";
    let session = db.session();
    let serial = session.query(q, &QueryOptions::default()).unwrap().set;
    for threads in [1, 2, 4, 8] {
        let parallel =
            session.query(q, &QueryOptions::new().threads(threads)).unwrap().set;
        assert_eq!(serial.molecules, parallel.molecules, "threads = {threads}");
    }
}

#[test]
fn parallel_equals_serial_on_recursion() {
    let db = brep::open_db(32 << 20).unwrap();
    let stats = brep::populate(&db, &BrepConfig::with_assembly(8, 3, 2)).unwrap();
    let root = stats.root_solid_nos[0];
    let q = format!("SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = {root}");
    let session = db.session();
    let serial = session.query(&q, &QueryOptions::default()).unwrap().set;
    let parallel = session.query(&q, &QueryOptions::new().threads(4)).unwrap().set;
    assert_eq!(serial.molecules, parallel.molecules);
}

#[test]
fn parallel_equals_serial_with_quantifiers_and_projection() {
    let db = vlsi::open_db(32 << 20).unwrap();
    vlsi::populate(&db, &VlsiConfig { cells: 60, nets: 40, ..Default::default() }).unwrap();
    let q = "SELECT net_no FROM net-pin WHERE EXISTS_AT_LEAST (2) pin: pin.x > 100.0";
    let session = db.session();
    let serial = session.query(q, &QueryOptions::default()).unwrap().set;
    let parallel = session.query(q, &QueryOptions::new().threads(4)).unwrap().set;
    assert_eq!(serial.molecules, parallel.molecules);
}

#[test]
fn parallel_respects_cluster_prefetch() {
    let db = brep::open_db(32 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(10)).unwrap();
    db.ldl("CREATE ATOM_CLUSTER cl ON brep (faces, edges, points) PAGESIZE 1K").unwrap();
    let q = "SELECT ALL FROM brep-face-edge-point WHERE brep_no > 0";
    let session = db.session();
    let serial = session.query(q, &QueryOptions::default()).unwrap().set;
    let parallel = session.query(q, &QueryOptions::new().threads(4)).unwrap().set;
    assert_eq!(serial.molecules, parallel.molecules);
}

#[test]
fn concurrent_du_reads_do_not_interfere() {
    // Stress: many threads repeatedly constructing molecules while the
    // buffer evicts (small pool) — results must stay stable.
    let db = brep::open_db(256 * 1024).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(16)).unwrap();
    let q = "SELECT ALL FROM brep-face-edge-point WHERE brep_no > 0";
    let session = db.session();
    let expected = session.query(q, &QueryOptions::default()).unwrap().set;
    for _ in 0..5 {
        let got = session.query(q, &QueryOptions::new().threads(8)).unwrap().set;
        assert_eq!(expected.molecules.len(), got.molecules.len());
        assert_eq!(expected.molecules, got.molecules);
    }
}

#[test]
fn parallel_trace_matches_serial_on_clustered_query() {
    // The clustered brep query of `tests/cluster_mapping.rs`, plus a
    // multi-root variant so the DUs really spread over workers: the
    // profile must name the same access choice, and its counters must
    // account for what the workers read.
    let db = brep::open_db(32 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(5)).unwrap();
    db.ldl("CREATE ATOM_CLUSTER cl_brep ON brep (faces, edges, points) PAGESIZE 1K").unwrap();
    let session = db.session();
    session.set_profiling(true);
    for q in [
        "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 3",
        "SELECT ALL FROM brep-face-edge-point WHERE brep_no > 0",
    ] {
        let run = |threads| {
            let set = session.query(q, &QueryOptions::new().threads(threads)).unwrap().set;
            (set, session.last_profile().unwrap())
        };
        let (serial_set, serial) = run(1);
        let (parallel_set, parallel) = run(4);
        assert_eq!(serial.access("cluster"), Some("cl_brep"), "{q}");
        // The cluster prefetched every component: assembly batch-reads
        // none of them again.
        assert!(serial.counters.buffer.fix_calls > 0, "{q}");
        assert_eq!(serial.counters.access.batch_atoms, 0, "{q}");
        for key in ["path", "cluster", "roots"] {
            assert_eq!(parallel.access(key), serial.access(key), "{key} of {q}");
        }
        assert_eq!(parallel_set.len(), serial_set.len(), "{q}");
        let (s, p) = (&serial.counters.access, &parallel.counters.access);
        assert_eq!(p.primary_reads, s.primary_reads, "{q}");
        assert_eq!(p.batch_atoms, s.batch_atoms, "{q}");
        assert_eq!(p.batch_pages, s.batch_pages, "{q}");
    }
}
