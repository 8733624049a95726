//! CAD-session example: workstation-style object handling on PRIMA.
//!
//! Recreates the usage sketched in Section 4: an application layer checks
//! a molecule *out* into an object buffer, works on it locally, and
//! checks the modifications back in at commit time — with LDL tuning
//! (an atom cluster on the brep "main lanes") making the checkout fast.
//! Checkout and checkin share one session transaction: the checkout's
//! shared locks keep the molecule stable against concurrent writers for
//! the whole engineering session, the checkin upgrades them to exclusive
//! (strict two-phase), and any failure rolls every buffered edit back.
//!
//! ```sh
//! cargo run --example brep_cad
//! ```

use prima::{Molecule, PrimaResult, QueryOptions, Value};
use prima_workloads::brep::{self, BrepConfig};

/// A minimal "object buffer": the checked-out molecule plus pending
/// attribute updates, applied wholesale at checkin.
struct ObjectBuffer {
    molecule: Molecule,
    pending: Vec<(prima::AtomId, Vec<(String, Value)>)>,
}

impl ObjectBuffer {
    /// Checkout through a prepared statement the caller built once: each
    /// checkout only binds the brep number and pulls one molecule from a
    /// streaming cursor — no re-parse, no re-plan.
    fn checkout(stmt: &mut prima::Prepared<'_>, brep_no: i64) -> PrimaResult<ObjectBuffer> {
        stmt.bind(&[Value::Int(brep_no)])?;
        let mut cursor = stmt.cursor(&QueryOptions::default())?;
        let molecule = cursor
            .fetch(1)?
            .into_iter()
            .next()
            .expect("brep exists");
        Ok(ObjectBuffer { molecule, pending: Vec::new() })
    }

    /// Local (buffered) edit — no DBMS call.
    fn edit(&mut self, id: prima::AtomId, attr: &str, value: Value) {
        self.pending.push((id, vec![(attr.to_string(), value)]));
    }

    /// Checkin through the session that did the checkout: the writes
    /// upgrade the checkout's shared locks in place (a foreign
    /// transaction would conflict with them — that is the isolation
    /// working). Any failure rolls back every buffered edit.
    fn checkin(self, session: &prima::Session) -> PrimaResult<usize> {
        let n = self.pending.len();
        let apply = || -> PrimaResult<()> {
            for (id, updates) in &self.pending {
                let pairs: Vec<(&str, Value)> =
                    updates.iter().map(|(name, v)| (name.as_str(), v.clone())).collect();
                session.modify_atom_named(*id, &pairs)?;
            }
            Ok(())
        };
        match apply() {
            Ok(()) => {
                session.commit()?;
                Ok(n)
            }
            Err(e) => {
                session.rollback()?;
                Err(e)
            }
        }
    }
}

fn main() -> PrimaResult<()> {
    let db = brep::open_db(16 << 20)?;
    brep::populate(&db, &BrepConfig::with_solids(20))?;

    // DBA tuning: cluster the brep main lanes so checkout is one chained
    // read per molecule; keep redundancy maintenance deferred.
    db.ldl(
        "CREATE ATOM_CLUSTER cl_brep ON brep (faces, edges, points) PAGESIZE 2K;
         CREATE ACCESS PATH ap_brep_no ON brep (brep_no);
         SET UPDATE POLICY DEFERRED",
    )?;

    // Checkout brep 7 into the workstation's object buffer.
    let session = db.session();
    session.set_profiling(true);
    let r = session
        .query("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 7", &QueryOptions::new())?;
    let profile = session.last_profile().expect("profiling is on");
    println!(
        "checkout: {} atoms via {}, cluster used: {}",
        r.set.molecules[0].atom_count(),
        profile.access("path").unwrap_or("?"),
        profile.access("cluster").unwrap_or("none")
    );

    // The checkout statement is prepared once per session; every
    // checkout below only binds a brep number.
    let mut checkout_stmt =
        session.prepare("SELECT ALL FROM brep-face-edge-point WHERE brep_no = ?")?;
    let mut buffer = ObjectBuffer::checkout(&mut checkout_stmt, 7)?;

    // Local engineering work: scale every face area (imagine a resize).
    let face_node = 1; // brep-face-edge-point: node 1 = face
    let edits: Vec<prima::AtomId> = buffer
        .molecule
        .atoms_of_node(face_node)
        .iter()
        .map(|a| a.id)
        .collect();
    let schema_face = db.schema().type_by_name("face").unwrap();
    let sq = schema_face.attribute_index("square_dim").unwrap();
    for id in edits {
        // Read through the same session: the atom is already checked out
        // (shared-locked) here, so this is a lock re-acquisition, not a
        // conflict.
        let current = session.read_atom(id)?;
        let old = current.values[sq].as_real().unwrap_or(1.0);
        buffer.edit(id, "square_dim", Value::Real(old * 2.0));
    }
    println!("buffered {} local edits (no DBMS calls)", buffer.pending.len());

    // Checkin at commit time.
    let n = buffer.checkin(&session)?;
    println!("checkin committed {n} modifications atomically");

    // Deferred maintenance is reconciled explicitly (e.g. at end of
    // session).
    let reconciled = db.reconcile()?;
    println!("reconciled {reconciled} deferred structure updates");

    // A failed checkin rolls everything back.
    let mut buffer = ObjectBuffer::checkout(&mut checkout_stmt, 7)?;
    let victim = buffer.molecule.atoms_of_node(face_node)[0].id;
    buffer.edit(victim, "square_dim", Value::Real(-1.0));
    buffer.edit(victim, "nonsense_attribute", Value::Int(0));
    let result = buffer.checkin(&session);
    println!(
        "broken checkin rejected: {}",
        if result.is_err() { "yes (rolled back)" } else { "no" }
    );
    let after = db.read(victim)?;
    println!("face value survived the failed checkin: {}", after.values[sq]);
    Ok(())
}
