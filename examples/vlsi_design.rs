//! VLSI example: n:m netlists, multi-dimensional access paths, and
//! semantic parallelism on a circuit database.
//!
//! ```sh
//! cargo run --example vlsi_design
//! ```

use prima::{PrimaResult, QueryOptions, Value as PValue};
use prima_workloads::exec;
use prima_access::multidim::DimRange;
use prima_access::scan::Scan;
use prima_access::Ssa;
use prima_mad::Value;
use prima_workloads::vlsi::{self, VlsiConfig};
use std::ops::Bound;

fn main() -> PrimaResult<()> {
    let db = vlsi::open_db(16 << 20)?;
    let cfg = VlsiConfig {
        cells: 200,
        pins_per_cell: 4,
        nets: 150,
        fanout: 4,
        hierarchy_depth: 3,
        seed: 99,
    };
    let stats = vlsi::populate(&db, &cfg)?;
    println!(
        "circuit: {} cells, {} pins, {} nets",
        stats.cell_ids.len(),
        stats.pin_ids.len(),
        stats.net_ids.len()
    );

    // Netlist molecule: net -> pins -> cells (vertical access over n:m),
    // prepared once and bound per net — the shape an interactive design
    // tool uses against the kernel.
    let session = db.session();
    let mut net_q = session.prepare("SELECT ALL FROM netlist WHERE net_no = ?")?;
    net_q.bind(&[PValue::Int(42)])?;
    let set = net_q.query(&QueryOptions::default())?.set;
    println!(
        "net 42 connects {} pins on {} cells",
        set.atoms_of("pin").len(),
        set.atoms_of("cell").len()
    );

    // Symmetric traversal: which nets does pin 17 join?
    let set = exec::query(&db, "SELECT ALL FROM pin-net WHERE pin_no = 17")?;
    println!("pin 17 joins {} net(s) (symmetric direction)", set.atoms_of("net").len());

    // LDL: a multidimensional access path over pin coordinates.
    db.ldl("CREATE MULTIDIM ACCESS PATH gf_xy ON pin (x, y)")?;
    let Some(prima::Structure::Grid(gx)) = db.access().structure("gf_xy") else {
        unreachable!("gf_xy was just created as a grid file")
    };
    let enc = |v: f64| {
        let mut k = Vec::new();
        prima_mad::codec::encode_key(&Value::Real(v), &mut k);
        k
    };
    // Region query: pins in the window x ∈ [100,300), y ∈ [0,500), x
    // ascending, y descending — per-key directions as in Section 3.2.
    let ranges = vec![
        DimRange { start: Bound::Included(enc(100.0)), stop: Bound::Excluded(enc(300.0)), descending: false },
        DimRange { start: Bound::Included(enc(0.0)), stop: Bound::Excluded(enc(500.0)), descending: true },
    ];
    let mut scan = Scan::multidim(db.access(), &gx, Ssa::True, &ranges)?;
    let hits = scan.collect_remaining()?;
    println!("window query via grid file: {} pins", hits.len());

    // Recursive macro hierarchy.
    let root = stats.root_cell_nos[0];
    let set = exec::query(&db, &format!(
        "SELECT ALL FROM cell_tree WHERE cell_tree (0).cell_no = {root}"
    ))?;
    println!(
        "macro cell {root}: {} cells in the expansion, {} levels",
        set.molecules[0].atom_count(),
        set.molecules[0].depth()
    );

    // Semantic parallelism: construct all netlist molecules, serially vs
    // with 4 workers (QueryOptions::threads); results must agree.
    let q = "SELECT ALL FROM netlist WHERE net_no > 0";
    let t0 = std::time::Instant::now();
    let serial = session.query(q, &QueryOptions::default())?.set;
    let t_serial = t0.elapsed();
    let t0 = std::time::Instant::now();
    let parallel = session.query(q, &QueryOptions::new().threads(4))?.set;
    let t_par = t0.elapsed();
    assert_eq!(serial.len(), parallel.len());
    println!(
        "semantic parallelism: {} molecules; serial {:?}, 4 DUs {:?}",
        serial.len(),
        t_serial,
        t_par
    );
    Ok(())
}
