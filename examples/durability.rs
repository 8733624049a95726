//! Durability: the quickstart database, but one that survives restart.
//!
//! The paper presents PRIMA on the INCAS *file manager* — real files —
//! and argues for keeping engineering data in a DBMS rather than flat
//! files precisely because a database has a life beyond one process.
//! This example is that argument end to end:
//!
//! 1. build a file-backed kernel (`PrimaBuilder::path`) with the Fig. 2.3
//!    schema, populate it through sessions and commit;
//! 2. "crash" (drop the instance without a checkpoint — dirty pages and
//!    all);
//! 3. `Prima::open` the directory: restart recovery redoes the committed
//!    work from the write-ahead log and rolls back the transaction that
//!    was still open, then the Table 2.1a query runs against the
//!    recovered molecules.
//!
//! ```sh
//! cargo run --example durability
//! ```

use prima::{Prima, PrimaResult, QueryOptions, Value};
use prima_workloads::brep::{self, BrepConfig};

fn main() -> PrimaResult<()> {
    let dir = std::env::temp_dir().join(format!("prima-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. A *durable* kernel: FileDisk at `dir`, WAL on, initial checkpoint.
    let db = Prima::builder()
        .buffer_bytes(8 << 20)
        .path(&dir)?
        .build_with_ddl(brep::schema_ddl())?;
    println!("created file-backed database at {}", dir.display());

    let stats = brep::populate(&db, &BrepConfig::with_assembly(4, 2, 2))?;
    // The bulk load runs through the direct atom interface (no
    // transaction), so it becomes durable at the next checkpoint — the
    // classic load-then-checkpoint pattern.
    db.checkpoint()?;
    println!(
        "populated + checkpointed: {} solids, {} faces, {} edges, {} points",
        stats.solid_ids.len(),
        stats.faces,
        stats.edges,
        stats.points
    );

    // An open transaction that will NOT survive: the crash below loses it.
    let session = db.session();
    session.execute("INSERT solid (solid_no: 4711, description: 'uncommitted scratch')")?;
    println!("left one transaction open (solid 4711, never committed)");

    // 2. Crash: no checkpoint, no rollback, no flush.
    std::mem::forget(session);
    std::mem::forget(db);
    println!("-- crash --");

    // 3. Restart recovery.
    let db = Prima::open(&dir)?;
    println!("reopened via Prima::open: recovery replayed the log tail");

    let gone = db
        .session()
        .query("SELECT ALL FROM solid WHERE solid_no = 4711", &QueryOptions::default())?;
    assert!(gone.set.is_empty(), "the open transaction must be rolled back");
    println!("uncommitted solid 4711: rolled back ✓");

    // Table 2.1a against the recovered database, prepared + bound.
    let session = db.session();
    session.set_profiling(true);
    let mut by_brep = session.prepare(
        "SELECT ALL FROM brep-face-edge-point WHERE brep_no = ? (* qualification *)",
    )?;
    for n in 1..=2i64 {
        by_brep.bind(&[Value::Int(n)])?;
        let r = by_brep.query(&QueryOptions::new())?;
        let profile = session.last_profile().expect("profiling is on");
        println!(
            "Table 2.1a (brep {n}) after restart: {} molecule(s), {} faces via {}",
            r.set.len(),
            r.set.atoms_of("face").len(),
            profile.access("path").unwrap_or("?")
        );
        assert_eq!(r.set.len(), 1, "committed breps must be readable after recovery");
    }

    std::fs::remove_dir_all(&dir).ok();
    println!("done — database recovered exactly to its committed state");
    Ok(())
}
