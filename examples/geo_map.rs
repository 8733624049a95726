//! Map-handling example: horizontal access, partitions and sort orders
//! on a geographic database.
//!
//! ```sh
//! cargo run --example geo_map
//! ```

use prima::{PrimaResult, QueryOptions, UpdatePolicy, Value};
use prima_workloads::exec;
use prima_workloads::map::{self, MapConfig};

fn main() -> PrimaResult<()> {
    let db = map::open_db(16 << 20)?;
    let stats = map::populate(&db, &MapConfig { sheets: 3, grid: 8, seed: 5 })?;
    println!(
        "map: {} sheets, {} regions, {} borders, {} nodes",
        stats.sheet_ids.len(),
        stats.region_ids.len(),
        stats.border_ids.len(),
        stats.node_ids.len()
    );

    // Horizontal access: all water regions (atom-type scan + SSA). The
    // query is prepared once; the land-use classification is a named
    // parameter re-bound per run.
    let session = db.session();
    session.set_profiling(true);
    let path = |s: &prima::Session| {
        s.last_profile().and_then(|p| p.access("path").map(String::from)).expect("profiled")
    };
    let mut by_use =
        session.prepare("SELECT region_no, area FROM region WHERE land_use = :use")?;
    by_use.bind_named(&[("use", Value::Str("water".into()))])?;
    let r = by_use.query(&QueryOptions::new())?;
    let set = r.set;
    println!("water regions: {} (root access {})", set.len(), path(&session));

    // LDL tuning: partition the frequently projected attributes; sort
    // order by area for range reporting.
    db.ldl(
        "CREATE PARTITION p_region_head ON region (region_no, land_use, area);
         CREATE SORT ORDER so_area ON region (area);
         CREATE ACCESS PATH ap_region ON region (region_no)",
    )?;
    println!("tuning structures installed (transparent to MQL)");

    // Same prepared statement, same answer — but now the (denser)
    // partition is scanned instead of the base file. (Root access is
    // chosen per execution, so tuning applies without re-preparing.)
    let r = by_use.query(&QueryOptions::new())?;
    assert_eq!(set.len(), r.set.len());
    println!("re-run root access: {}", path(&session));

    // Vertical access: one sheet's full map molecule.
    let set = exec::query(&db, "SELECT ALL FROM sheet_map WHERE sheet_no = 2")?;
    println!(
        "sheet 2 molecule: {} regions, {} border occurrences",
        set.atoms_of("region").len(),
        set.atoms_of("border").len()
    );

    // Update with deferred maintenance: re-classify a region. The MODIFY
    // runs under the session's transaction and is committed explicitly.
    db.set_update_policy(UpdatePolicy::Deferred);
    session.execute("MODIFY region SET land_use = 'wetland' WHERE region_no = 1")?;
    session.commit()?;
    println!(
        "after MODIFY: {} deferred structure updates pending",
        db.access().deferred_queue().len()
    );
    db.reconcile()?;
    println!("reconciled; queue now {}", db.access().deferred_queue().len());

    // Shared borders: deleting a region must not delete shared borders'
    // neighbours — DELETE ONLY the region component.
    let n_regions_before = set.atoms_of("region").len();
    exec::execute(&db, "DELETE ONLY (region) FROM region WHERE region_no = 2")?;
    let set = exec::query(&db, "SELECT ALL FROM sheet_map WHERE sheet_no = 1")?;
    println!(
        "deleted region 2; sheet 1 now shows {} regions (was {})",
        set.atoms_of("region").len(),
        n_regions_before
    );

    // MQL CONNECT: move region 3 to sheet 3.
    exec::execute(&db, 
        "MODIFY region SET sheet = CONNECT (SELECT ALL FROM sheet WHERE sheet_no = 3)
         WHERE region_no = 3",
    )?;
    let a = exec::query(&db, "SELECT ALL FROM region-sheet WHERE region_no = 3")?;
    let sheet_no = a.atoms_of("sheet")[0].values[1].clone();
    println!("region 3 reconnected to sheet {sheet_no}");
    assert_eq!(sheet_no, Value::Int(3));
    Ok(())
}
