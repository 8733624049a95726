//! Quickstart: the paper's running example through the session API.
//!
//! Loads the verbatim Fig. 2.3 schema, populates a small solid-modeling
//! database, then exercises the three kernel objects applications use:
//! `Session` (transactional conversation), `Prepared` (parse/plan once,
//! bind + execute many) and `MoleculeCursor` (piecewise molecule
//! delivery), running the four queries of Table 2.1 along the way.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use prima::{PrimaResult, QueryOptions, Value};
use prima_workloads::brep::{self, BrepConfig};

fn main() -> PrimaResult<()> {
    // 1. Open a kernel with the Fig. 2.3 schema (MAD-DDL, verbatim).
    let db = brep::open_db(8 << 20)?;
    println!("schema loaded: {} atom types", db.schema().atom_types().len());

    // 2. Populate: base solids with boundary representations plus a
    //    two-level assembly hierarchy.
    let stats = brep::populate(&db, &BrepConfig::with_assembly(4, 2, 2))?;
    println!(
        "populated: {} solids, {} faces, {} edges, {} points",
        stats.solid_ids.len(),
        stats.faces,
        stats.edges,
        stats.points
    );

    // 3. A session is the application's conversation with the kernel.
    let session = db.session();

    // 4. Table 2.1a — vertical access, as a *prepared* statement: the
    //    MQL is parsed and planned once; each execution only binds the
    //    brep number. (The trace proves the key lookup survives binding.)
    let mut by_brep = session.prepare(
        "SELECT ALL
         FROM brep-face-edge-point
         WHERE brep_no = ? (* qualification *)",
    )?;
    for n in 1..=2i64 {
        by_brep.bind(&[Value::Int(n)])?;
        let r = by_brep.query(&QueryOptions::new().traced())?;
        println!(
            "\nTable 2.1a (brep {n}): {} molecule(s) via {:?}",
            r.set.len(),
            r.trace.expect("traced").root_access
        );
        println!(
            "  faces: {}, edge occurrences: {}, point occurrences: {}",
            r.set.atoms_of("face").len(),
            r.set.atoms_of("edge").len(),
            r.set.atoms_of("point").len()
        );
    }
    let stats_now = db.metrics().api;
    println!(
        "  (api stats: {} parse(s), {} plan(s), {} plan reuse(s))",
        stats_now.statements_parsed, stats_now.plans_built, stats_now.plan_reuses
    );

    // 5. Table 2.1b — recursive molecule with a seed qualification.
    let root = stats.root_solid_nos[0];
    let mut pieces = session.prepare(
        "SELECT ALL
         FROM piece_list (* pre-defined molecule type *)
         WHERE piece_list (0).solid_no = :root (* seed qualification *)",
    )?;
    pieces.bind_named(&[("root", Value::Int(root))])?;
    let set = pieces.query(&QueryOptions::default())?.set;
    println!("\nTable 2.1b (recursive piece list of solid {root}):");
    println!("  {} atoms, {} levels deep", set.molecules[0].atom_count(), set.molecules[0].depth());

    // 6. Table 2.1c — horizontal access with unqualified projection.
    let set = session
        .query(
            "SELECT solid_no, description (* unqualified projection *)
             FROM solid
             WHERE sub = EMPTY",
            &QueryOptions::default(),
        )?
        .set;
    println!("\nTable 2.1c (primitive solids): {} found", set.len());
    for m in set.molecules.iter().take(3) {
        println!("  {} {}", m.root.atom.values[1], m.root.atom.values[2]);
    }

    // 7. Table 2.1d — tree molecule, quantifier, qualified projection.
    let set = session
        .query(
            "SELECT edge, (point, (* unqualified projection p1 *)
                    face := SELECT face_id, square_dim
                    FROM face (* qualified projection q3, p2 *)
                    WHERE square_dim > 10.0)
             FROM brep-edge (face, point)
             WHERE brep_no = 1 (* qualification q1 *)
             AND EXISTS_AT_LEAST (2) edge: edge.length > 1.0
             (* quantified restriction q2 *)",
            &QueryOptions::default(),
        )?
        .set;
    println!("\nTable 2.1d (misc query): {} molecule(s)", set.len());
    if let Some(m) = set.molecules.first() {
        println!(
            "  edges: {}, faces surviving qualified projection: {}",
            set.atoms_of("edge").len(),
            m.atoms_of_node(set.node_id("face").expect("face node")).len()
        );
    }

    // 8. Piecewise delivery: a cursor assembles molecules lazily, chunk
    //    by chunk — large results never materialise in full.
    let mut cursor =
        session.query_cursor("SELECT ALL FROM brep-face", &QueryOptions::default())?;
    println!("\nstreaming brep-face molecules ({} roots):", cursor.remaining_roots());
    let mut delivered = 0usize;
    loop {
        let chunk = cursor.fetch(2)?;
        if chunk.is_empty() {
            break;
        }
        delivered += chunk.len();
    }
    println!("  delivered {delivered} molecules in chunks of 2");

    // 9. MQL manipulation under the session's transaction: explicit
    //    commit — and rollback undoing everything since the last one.
    session.execute("INSERT solid (solid_no: 999, description: 'adhoc part')")?;
    session.commit()?;
    session.execute("MODIFY solid SET description = 'renamed part' WHERE solid_no = 999")?;
    session.execute("DELETE FROM solid WHERE solid_no = 999")?;
    session.rollback()?; // the modify and delete never happened
    let found = session
        .query("SELECT ALL FROM solid WHERE solid_no = 999", &QueryOptions::default())?
        .set;
    println!(
        "\ninserted solid 999 (committed), then rolled a modify+delete back: {} molecule(s), {}",
        found.len(),
        found.molecules[0].root.atom.values[2]
    );
    session.execute("DELETE FROM solid WHERE solid_no = 999")?;
    session.commit()?;
    println!("deleted it for good");

    Ok(())
}
