//! The session-centric kernel API: prepared statements (parse/plan once,
//! bind + execute many), streaming molecule cursors (piecewise delivery),
//! and transactional sessions with explicit commit/rollback.

use prima_workloads::exec;
use prima::{Prima, PrimaError, QueryOptions, Value};
use prima_workloads::brep::{self, BrepConfig};

fn brep_db(n: usize) -> Prima {
    let db = brep::open_db(16 << 20).expect("open");
    brep::populate(&db, &BrepConfig::with_solids(n)).expect("populate");
    db
}

// ---------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------

#[test]
fn prepared_reexecution_matches_one_shot_query() {
    let db = brep_db(4);
    let session = db.session();
    session.set_profiling(true);
    let mut stmt = session
        .prepare("SELECT ALL FROM brep-face-edge-point WHERE brep_no = ?")
        .unwrap();
    for n in 1..=4i64 {
        stmt.bind(&[Value::Int(n)]).unwrap();
        let prepared = stmt.query(&QueryOptions::new()).unwrap();
        let one_shot = exec::query(&db, &format!("SELECT ALL FROM brep-face-edge-point WHERE brep_no = {n}"))
            .unwrap();
        assert_eq!(prepared.set.molecules, one_shot.molecules, "brep_no = {n}");
        // Binding must not demote the plan: brep_no is KEYS_ARE, so the
        // bound comparison still routes to the direct key lookup.
        let profile = session.last_profile().unwrap();
        assert_eq!(profile.access("path"), Some("key_lookup(brep_no)"));
    }
}

#[test]
fn prepared_skips_parse_and_plan_on_reexecution() {
    let db = brep_db(3);
    let session = db.session();
    let before = db.metrics().api;
    let mut stmt = session
        .prepare("SELECT ALL FROM brep-face WHERE brep_no = ?")
        .unwrap();
    let after_prepare = db.metrics().api;
    assert_eq!(after_prepare.statements_parsed, before.statements_parsed + 1);
    assert_eq!(after_prepare.plans_built, before.plans_built + 1);

    stmt.bind(&[Value::Int(1)]).unwrap();
    for n in 1..=5i64 {
        stmt.bind(&[Value::Int(n % 3 + 1)]).unwrap();
        stmt.execute().unwrap();
    }
    let after_runs = db.metrics().api;
    assert_eq!(
        after_runs.statements_parsed,
        after_prepare.statements_parsed,
        "re-execution must not re-parse"
    );
    assert_eq!(
        after_runs.plans_built, after_prepare.plans_built,
        "re-execution must not re-plan"
    );
    assert_eq!(after_runs.plan_reuses, after_prepare.plan_reuses + 5);
}

#[test]
fn binding_arity_and_type_mismatches_error_cleanly() {
    let db = brep_db(2);
    let session = db.session();
    let mut stmt = session
        .prepare("SELECT ALL FROM brep-face WHERE brep_no = ? AND face.square_dim > ?")
        .unwrap();
    // Too few / too many values.
    assert!(matches!(
        stmt.bind(&[Value::Int(1)]),
        Err(PrimaError::BadStatement(_))
    ));
    assert!(matches!(
        stmt.bind(&[Value::Int(1), Value::Real(1.0), Value::Int(9)]),
        Err(PrimaError::BadStatement(_))
    ));
    // Wrong type for an INTEGER attribute.
    let err = stmt.bind(&[Value::Str("box".into()), Value::Real(1.0)]).err().unwrap();
    assert!(
        matches!(err, PrimaError::ParamTypeMismatch { slot: 0, .. }),
        "got {err:?}"
    );
    // Executing without a successful bind reports the unbound slot.
    assert!(matches!(
        stmt.execute(),
        Err(PrimaError::UnboundParameter { .. })
    ));
    // A correct binding then works.
    stmt.bind(&[Value::Int(1), Value::Real(0.0)]).unwrap();
    assert!(stmt.execute().is_ok());
}

#[test]
fn named_parameters_bind_by_name() {
    let db = brep_db(3);
    let session = db.session();
    let mut stmt = session
        .prepare("SELECT ALL FROM brep WHERE brep_no >= :lo AND brep_no <= :hi")
        .unwrap();
    assert_eq!(stmt.params().len(), 2);
    stmt.bind_named(&[("hi", Value::Int(2)), ("lo", Value::Int(1))]).unwrap();
    let r = stmt.query(&QueryOptions::default()).unwrap();
    assert_eq!(r.set.len(), 2);
    // Unknown names are rejected.
    assert!(matches!(
        stmt.bind_named(&[("nope", Value::Int(1)), ("hi", Value::Int(2))]),
        Err(PrimaError::BadStatement(_))
    ));
    // Missing names are reported as unbound.
    assert!(matches!(
        stmt.bind_named(&[("lo", Value::Int(1))]),
        Err(PrimaError::UnboundParameter { .. })
    ));
}

#[test]
fn prepared_dml_insert_with_parameters() {
    let db = brep_db(1);
    let session = db.session();
    let mut ins = session
        .prepare("INSERT solid (solid_no: ?, description: :d)")
        .unwrap();
    for (n, d) in [(9001i64, "first"), (9002, "second")] {
        ins.bind(&[Value::Int(n), Value::Str(d.into())]).unwrap();
        ins.execute().unwrap().dml().unwrap();
    }
    session.commit().unwrap();
    assert_eq!(exec::query(&db, "SELECT ALL FROM solid WHERE solid_no >= 9001").unwrap().len(), 2);
    // Type checking covers DML assignment positions too.
    assert!(matches!(
        ins.bind(&[Value::Str("oops".into()), Value::Str("d".into())]),
        Err(PrimaError::ParamTypeMismatch { slot: 0, .. })
    ));
}

#[test]
fn prepared_modify_binds_params_inside_connect_subqueries() {
    let db = brep_db(1);
    let session = db.session();
    exec::execute(&db, "INSERT solid (solid_no: 500, description: 'parent')").unwrap();
    exec::execute(&db, "INSERT solid (solid_no: 501, description: 'child')").unwrap();
    let mut conn = session
        .prepare(
            "MODIFY solid SET sub = CONNECT (SELECT ALL FROM solid WHERE solid_no = ?)
             WHERE solid_no = :t",
        )
        .unwrap();
    conn.bind_named(&[("?1", Value::Int(501)), ("t", Value::Int(500))]).unwrap();
    conn.execute().unwrap().dml().unwrap();
    session.commit().unwrap();
    let set = exec::query(&db, "SELECT ALL FROM solid.sub-solid WHERE solid_no = 500").unwrap();
    assert_eq!(
        set.molecules[0].atom_count(),
        2,
        "the CONNECT sub-query parameter must be substituted, actually connecting 501"
    );
}

#[test]
fn prepared_options_collapse_the_query_variants() {
    let db = brep_db(4);
    let session = db.session();
    session.set_profiling(true);
    let mut stmt =
        session.prepare("SELECT ALL FROM brep-face-edge WHERE brep_no >= ?").unwrap();
    stmt.bind(&[Value::Int(1)]).unwrap();
    let serial = stmt.query(&QueryOptions::default()).unwrap();
    let serial_profile = session.last_profile().unwrap();
    let parallel = stmt.query(&QueryOptions::new().threads(4)).unwrap();
    let parallel_profile = session.last_profile().unwrap();
    assert_eq!(serial.set.molecules, parallel.set.molecules);
    for key in ["path", "roots", "cluster"] {
        assert_eq!(serial_profile.access(key), parallel_profile.access(key), "{key}");
    }
    let (s, p) = (&serial_profile.counters.access, &parallel_profile.counters.access);
    assert_eq!((s.primary_reads, s.batch_atoms), (p.primary_reads, p.batch_atoms));
    // threads: 0 is invalid everywhere, prepared included.
    assert!(matches!(
        stmt.query(&QueryOptions::new().threads(0)),
        Err(PrimaError::BadStatement(_))
    ));
}

// ---------------------------------------------------------------------
// Sessions & transactions
// ---------------------------------------------------------------------

#[test]
fn session_rollback_undoes_dml() {
    let db = brep_db(2);
    let session = db.session();
    session.execute("INSERT solid (solid_no: 7777, description: 'doomed')").unwrap();
    // Read-your-own-writes before commit — through the writing session
    // itself (a different session would now rightly hit a lock conflict).
    assert_eq!(
        session
            .query("SELECT ALL FROM solid WHERE solid_no = 7777", &QueryOptions::default())
            .unwrap()
            .set
            .len(),
        1
    );
    session.rollback().unwrap();
    assert!(exec::query(&db, "SELECT ALL FROM solid WHERE solid_no = 7777").unwrap().is_empty());

    // Rollback also restores modified and deleted atoms.
    exec::execute(&db, "INSERT solid (solid_no: 8888, description: 'keeper')").unwrap();
    session.execute("MODIFY solid SET description = 'scribbled' WHERE solid_no = 8888").unwrap();
    session.execute("DELETE FROM solid WHERE solid_no = 8888").unwrap();
    assert!(session
        .query("SELECT ALL FROM solid WHERE solid_no = 8888", &QueryOptions::default())
        .unwrap()
        .set
        .is_empty());
    session.rollback().unwrap();
    let survived = exec::query(&db, "SELECT ALL FROM solid WHERE solid_no = 8888").unwrap();
    assert_eq!(survived.len(), 1);
    assert_eq!(
        survived.molecules[0].root.atom.values[2],
        Value::Str("keeper".into()),
        "modification rolled back alongside the delete"
    );
}

#[test]
fn session_commit_chains_transactions() {
    let db = brep_db(1);
    let session = db.session();
    session.execute("INSERT solid (solid_no: 100, description: 'a')").unwrap();
    session.commit().unwrap();
    // A fresh transaction begins lazily; rolling it back must not touch
    // the committed work.
    session.execute("INSERT solid (solid_no: 101, description: 'b')").unwrap();
    session.rollback().unwrap();
    assert_eq!(exec::query(&db, "SELECT ALL FROM solid WHERE solid_no = 100").unwrap().len(), 1);
    assert!(exec::query(&db, "SELECT ALL FROM solid WHERE solid_no = 101").unwrap().is_empty());
    assert_eq!(db.metrics().lock.active_txns, 0, "commit/rollback leave nothing behind");
}

#[test]
fn dropping_an_uncommitted_session_rolls_back() {
    let db = brep_db(1);
    {
        let session = db.session();
        session.execute("INSERT solid (solid_no: 4242, description: 'ghost')").unwrap();
    } // dropped without commit
    assert!(exec::query(&db, "SELECT ALL FROM solid WHERE solid_no = 4242").unwrap().is_empty());
    assert_eq!(db.metrics().lock.active_txns, 0);
}

// ---------------------------------------------------------------------
// Streaming molecule cursors
// ---------------------------------------------------------------------

const STREAM_DDL: &str = "
CREATE ATOM_TYPE pt
  ( id : IDENTIFIER, n : INTEGER,
    owner : SET_OF (REF_TO (part.pts)) );
CREATE ATOM_TYPE part
  ( id : IDENTIFIER, n : INTEGER,
    pts : SET_OF (REF_TO (pt.owner)),
    parent : SET_OF (REF_TO (assembly.comps)) );
CREATE ATOM_TYPE assembly
  ( id : IDENTIFIER, n : INTEGER,
    comps : SET_OF (REF_TO (part.parent)) );
";

/// `roots` three-level molecules: assembly -> 2 parts -> 2 points each.
fn stream_db(roots: usize) -> Prima {
    let db = Prima::builder().buffer_bytes(4 << 20).build_with_ddl(STREAM_DDL).unwrap();
    let mut n = 0i64;
    for a in 0..roots {
        let mut comps = Vec::new();
        for _ in 0..2 {
            n += 1;
            let pts: Vec<prima::AtomId> = (0..2)
                .map(|k| db.insert("pt", &[("n", Value::Int(n * 10 + k))]).unwrap())
                .collect();
            comps.push(
                db.insert("part", &[("n", Value::Int(n)), ("pts", Value::ref_set(pts))])
                    .unwrap(),
            );
        }
        db.insert(
            "assembly",
            &[("n", Value::Int(a as i64)), ("comps", Value::ref_set(comps))],
        )
        .unwrap();
    }
    db
}

const STREAM_Q: &str = "SELECT ALL FROM assembly-part-pt WHERE n >= 0";

#[test]
fn cursor_streams_piecewise_and_matches_materialized_query() {
    let db = stream_db(1000);
    let materialized = exec::query(&db, STREAM_Q).unwrap();
    assert_eq!(materialized.len(), 1000);

    let mut cursor = db.query_cursor(STREAM_Q).unwrap();
    assert_eq!(cursor.remaining_roots(), 1000, "roots located up front");
    assert_eq!(cursor.nodes().len(), 3);
    let mut streamed = Vec::new();
    loop {
        let chunk = cursor.fetch(64).unwrap();
        if chunk.is_empty() {
            break;
        }
        assert!(chunk.len() <= 64, "fetch(n) holds at most one chunk");
        streamed.extend(chunk);
    }
    assert_eq!(streamed, materialized.molecules, "stream ≡ materialized set");
    assert_eq!(streamed.len(), 1000);
}

#[test]
fn cursor_assembles_lazily_and_drop_releases_the_tail() {
    let db = stream_db(1000);
    let fix_calls = || db.metrics().buffer.fix_calls;

    // Cost of full materialisation (warm buffer).
    let _ = exec::query(&db, STREAM_Q).unwrap();
    let before = fix_calls();
    let _ = exec::query(&db, STREAM_Q).unwrap();
    let full_fixes = fix_calls() - before;

    // One chunk of 64 out of 1000 roots: component assembly for the
    // unread tail must not have happened.
    let before = fix_calls();
    let mut cursor = db.query_cursor(STREAM_Q).unwrap();
    let chunk = cursor.fetch(64).unwrap();
    assert_eq!(chunk.len(), 64);
    let chunk_fixes = fix_calls() - before;
    assert!(
        chunk_fixes * 2 < full_fixes,
        "one chunk must fix far fewer pages than materialising all \
         ({chunk_fixes} vs {full_fixes})"
    );

    // Dropping mid-stream abandons the remaining roots without touching
    // the buffer again...
    drop(cursor);
    assert_eq!(fix_calls() - before, chunk_fixes, "drop fixes nothing further");
    // ...and leaves no page fixed: a full query over the same data still
    // succeeds against the small buffer.
    let again = exec::query(&db, STREAM_Q).unwrap();
    assert_eq!(again.len(), 1000);
}

#[test]
fn prepared_cursor_streams_per_binding() {
    let db = stream_db(20);
    let session = db.session();
    let mut stmt = session.prepare("SELECT ALL FROM assembly-part-pt WHERE n < ?").unwrap();
    for limit in [5i64, 10] {
        stmt.bind(&[Value::Int(limit)]).unwrap();
        let mut cursor = stmt.cursor(&QueryOptions::default()).unwrap();
        let set = cursor.fetch_all().unwrap();
        assert_eq!(set.len(), limit as usize);
    }
    // Cursors are serial by construction.
    assert!(matches!(
        stmt.cursor(&QueryOptions::new().threads(4)),
        Err(PrimaError::BadStatement(_))
    ));
}

#[test]
fn cursor_iterator_interface() {
    let db = stream_db(10);
    let cursor = db.query_cursor(STREAM_Q).unwrap();
    let molecules: Result<Vec<_>, _> = cursor.collect();
    assert_eq!(molecules.unwrap().len(), 10);
}

#[test]
fn cursor_drop_mid_iteration_leaks_no_buffer_fixes() {
    let db = stream_db(200);
    let buffer = db.storage().buffer();
    let mut cursor = db.query_cursor(STREAM_Q).unwrap();
    let chunk = cursor.fetch(10).unwrap();
    assert_eq!(chunk.len(), 10);
    // Between fetches the cursor holds materialised atoms, never guards.
    assert_eq!(buffer.fixed_frames(), 0, "no page stays fixed between fetches");
    drop(cursor);
    assert_eq!(buffer.fixed_frames(), 0, "dropping mid-stream releases everything");
    // The whole pool is still evictable: nothing is pinned behind our back.
    db.storage().drop_cache().unwrap();
    assert_eq!(db.storage().buffer().resident(), 0);
}

#[test]
fn cursor_fetch_after_rollback_delivers_no_stale_molecules() {
    // Roots are located at open time; if the inserting transaction rolls
    // back before the cursor is drained, the stream must not resurrect
    // the rolled-back atoms.
    let db = stream_db(5);
    let session = db.session();
    for n in 0..4 {
        session
            .execute(&format!("INSERT assembly (n: {})", 1000 + n))
            .unwrap();
    }
    let q = "SELECT ALL FROM assembly WHERE n >= 0";
    let mut cursor = session.query_cursor(q, &QueryOptions::default()).unwrap();
    assert_eq!(
        cursor.remaining_roots(),
        9,
        "read-your-own-writes: uncommitted roots are located"
    );
    // Consume a little, then roll the inserting transaction back.
    let first = cursor.fetch(2).unwrap();
    assert_eq!(first.len(), 2);
    session.rollback().unwrap();
    // The unread tail still lists the stale roots, but fetching them must
    // skip every atom the rollback removed.
    let rest = cursor.fetch_all().unwrap();
    for m in &rest.molecules {
        let n = match &m.root.atom.values[1] {
            Value::Int(n) => *n,
            other => panic!("n should be Int, got {other:?}"),
        };
        assert!(n < 1000, "rolled-back assembly {n} must not stream out");
    }
    assert_eq!(
        first.len() + rest.len(),
        5,
        "exactly the five committed assemblies stream out (2 before, 3 after rollback)"
    );
    assert_eq!(db.storage().buffer().fixed_frames(), 0, "no fixes leaked");
}

#[test]
fn cursor_fetch_reflects_modifications_since_open() {
    // The piecewise stream reads current atom state: a root modified
    // after open streams with its new values, one that no longer
    // qualifies is skipped.
    let db = stream_db(6);
    let session = db.session();
    // In-transaction cursor: fetches read current state under locks. (A
    // cursor opened outside a transaction pins a snapshot instead and
    // would *not* reflect these modifications — tests/snapshot.rs.)
    session.begin().unwrap();
    let q = "SELECT ALL FROM assembly WHERE n < 100";
    let mut cursor = session.query_cursor(q, &QueryOptions::default()).unwrap();
    assert_eq!(cursor.remaining_roots(), 6);
    session.execute("MODIFY assembly SET n = 500 WHERE n = 3").unwrap();
    session.execute("MODIFY assembly SET n = 7 WHERE n = 4").unwrap();
    session.commit().unwrap();
    let all = cursor.fetch_all().unwrap();
    let ns: Vec<i64> = all
        .molecules
        .iter()
        .map(|m| match &m.root.atom.values[1] {
            Value::Int(n) => *n,
            other => panic!("n should be Int, got {other:?}"),
        })
        .collect();
    assert!(!ns.contains(&500), "disqualified root must be skipped");
    assert!(ns.contains(&7), "modified-but-qualifying root streams fresh values");
    assert_eq!(ns.len(), 5);
}

#[test]
fn cursor_respects_residual_qualification() {
    // A residual (non-root) predicate filters during streaming exactly
    // like in materialised execution.
    let db = stream_db(30);
    let q = "SELECT ALL FROM assembly-part-pt WHERE part.n > 40";
    let materialized = exec::query(&db, q).unwrap();
    let mut cursor = db.query_cursor(q).unwrap();
    let streamed = cursor.fetch_all().unwrap();
    assert_eq!(streamed.molecules, materialized.molecules);
    assert!(streamed.len() < 30, "some molecules filtered");
}
