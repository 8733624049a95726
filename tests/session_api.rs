//! The session-centric kernel API: prepared statements (parse/plan once,
//! bind + execute many), the per-session plan cache of one-shot text
//! (cached statements behave exactly like uncached ones), streaming
//! molecule cursors (piecewise delivery), and transactional sessions with
//! explicit commit/rollback.

use prima_workloads::exec;
use prima::session::PLAN_CACHE_ENTRIES;
use prima::{Prima, PrimaError, QueryOptions, SpanKind, StatementOutcome, Value};
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

#[test]
fn prepared_dml_compiles_once() {
    let db = brep_db(3);
    let session = db.session();
    let before = db.metrics().api;
    let mut stmt =
        session.prepare("MODIFY solid SET description = ? WHERE solid_no = ?").unwrap();
    for n in 1..=5i64 {
        stmt.bind(&[Value::Str(format!("v{n}")), Value::Int(n % 3 + 1)]).unwrap();
        let modified = stmt.execute().unwrap().dml().unwrap();
        assert_eq!(modified, prima::datasys::DmlResult::Modified(1));
    }
    session.commit().unwrap();
    let d = db.metrics().api.since(&before);
    assert_eq!((d.statements_parsed, d.plans_built, d.plan_reuses), (1, 1, 5));
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

#[test]
fn ad_hoc_text_compiles_once_per_session() {
    let db = brep_db(4);
    let session = db.session();
    let point =
        |key: i64| format!("SELECT solid_no, description FROM solid WHERE solid_no = {key}");
    let before = db.metrics().api;
    for key in 0..1000 {
        let r = session.query(&point(key), &QueryOptions::new()).unwrap();
        assert_eq!(r.set.len(), usize::from((1..=4).contains(&key)), "key {key}");
    }
    let d = db.metrics().api.since(&before);
    assert_eq!(
        (d.statements_parsed, d.plans_built, d.plan_cache_hits, d.plan_reuses),
        (1000, 1, 999, 0)
    );
    db.metrics().check_coherence().unwrap();

    // A profiled hit says so on the statement and plans nothing.
    session.set_profiling(true);
    session.query(&point(2), &QueryOptions::new()).unwrap();
    let hit = session.last_profile().unwrap();
    assert_eq!(hit.root.attr("plan_cache"), Some("hit"), "{}", hit.render());
    assert!(hit.root.find(SpanKind::Plan).is_none(), "{}", hit.render());
    assert_eq!(hit.access("path"), Some("key_lookup(solid_no)"));
    // Another session starts cold.
    let other = db.session();
    other.set_profiling(true);
    other.query(&point(2), &QueryOptions::new()).unwrap();
    let miss = other.last_profile().unwrap();
    assert_eq!(miss.root.attr("plan_cache"), Some("miss"));
    assert!(miss.root.find(SpanKind::Plan).is_some());
}

#[test]
fn profiled_execute_and_cursor_open_record_their_compile() {
    let db = brep_db(2);
    let session = db.session();
    session.set_profiling(true);
    // The first text of its shape is compiled inside the statement's
    // profile; the same text with another literal is a cache hit.
    session.execute("INSERT solid (solid_no: 901)").unwrap();
    let miss = session.last_profile().unwrap();
    assert_eq!(miss.root.attr("plan_cache"), Some("miss"), "{}", miss.render());
    assert!(miss.root.find(SpanKind::Plan).is_some(), "{}", miss.render());
    session.execute("INSERT solid (solid_no: 902)").unwrap();
    let hit = session.last_profile().unwrap();
    assert_eq!(hit.root.attr("plan_cache"), Some("hit"), "{}", hit.render());
    assert!(hit.root.find(SpanKind::Plan).is_none(), "{}", hit.render());
    // A cursor open is profiled the same way.
    let point = |key: i64| format!("SELECT ALL FROM solid WHERE solid_no = {key}");
    for (key, cache) in [(1, "miss"), (2, "hit")] {
        drop(session.query_cursor(&point(key), &QueryOptions::default()).unwrap());
        let open = session.last_profile().unwrap();
        assert_eq!(open.root.attr("plan_cache"), Some(cache), "{}", open.render());
        assert_eq!(open.root.find(SpanKind::Plan).is_some(), cache == "miss", "{}", open.render());
    }
    session.rollback().unwrap();
}

#[test]
fn plan_cache_holds_a_bounded_number_of_statements() {
    let db = brep_db(2);
    let session = db.session();
    // PLAN_CACHE_ENTRIES + 1 shapes: the first is replaced by the last.
    let shape = |i: usize| {
        let conjuncts = vec!["solid_no > 0"; i + 1].join(" AND ");
        format!("SELECT ALL FROM solid WHERE {conjuncts}")
    };
    let hits = || db.metrics().api.plan_cache_hits;
    for i in 0..=PLAN_CACHE_ENTRIES {
        session.query(&shape(i), &QueryOptions::new()).unwrap();
    }
    let before = hits();
    session.query(&shape(PLAN_CACHE_ENTRIES), &QueryOptions::new()).unwrap();
    assert_eq!(hits(), before + 1, "the newest shape is cached");
    session.query(&shape(0), &QueryOptions::new()).unwrap();
    assert_eq!(hits(), before + 1, "the oldest shape was replaced");
}

/// How the warm session of [`cached_statements_behave_like_uncached_ones`]
/// is expected to serve a text.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Served {
    /// Compiled now (and cached when its lifted form compiles).
    Compiled,
    /// From the plan cache.
    Hit,
}

/// `text`'s outcome through a session's one-shot entry point — `query`
/// for a SELECT, `execute` then commit otherwise — rendered with `{:?}`,
/// so results and errors compare byte for byte.
fn one_shot(s: &prima::Session, text: &str) -> String {
    if is_select(text) {
        format!("{:?}", s.query(text, &QueryOptions::new()).map(|r| r.set))
    } else {
        let out = format!("{:?}", s.execute(text));
        s.commit().unwrap();
        out
    }
}

/// `text`'s outcome as a prepared statement: compiled as written, never
/// through the plan cache. Rendered like [`one_shot`].
fn prepared_once(s: &prima::Session, text: &str) -> String {
    let out = match s.prepare(text).and_then(|p| p.execute()) {
        Ok(StatementOutcome::Molecules(r)) => format!("{:?}", Ok::<_, PrimaError>(r.set)),
        Ok(StatementOutcome::Dml(d)) => format!("{:?}", Ok::<_, PrimaError>(d)),
        Err(e) => format!("{:?}", Err::<(), _>(e)),
    };
    s.commit().unwrap();
    out
}

fn is_select(text: &str) -> bool {
    text.trim_start().get(..6).is_some_and(|k| k.eq_ignore_ascii_case("select"))
}

/// Three identical kernels: one runs every text on one warm session, one
/// on a fresh session per text (a cold cache), one as a prepared
/// statement (no cache at all). All three must agree on every outcome,
/// errors byte for byte, and the warm session must serve exactly the
/// texts marked [`Served::Hit`] from its cache.
fn differential(kernels: [Prima; 3], corpus: &[(String, Served)]) {
    let [warm_db, cold_db, prepared_db] = kernels;
    let warm = warm_db.session();
    for (text, served) in corpus {
        let hits = warm_db.metrics().api.plan_cache_hits;
        let cached = one_shot(&warm, text);
        let hit = warm_db.metrics().api.plan_cache_hits > hits;
        let got = if hit { Served::Hit } else { Served::Compiled };
        assert_eq!(got, *served, "{text}");
        assert_eq!(cached, one_shot(&cold_db.session(), text), "warm vs cold: {text}");
        let prepared = prepared_once(&prepared_db.session(), text);
        assert_eq!(cached, prepared, "cached vs prepared: {text}");
    }
    for db in [&warm_db, &cold_db, &prepared_db] {
        db.metrics().check_coherence().unwrap();
    }
}

#[test]
fn cached_statements_behave_like_uncached_ones_on_table_2_1() {
    use Served::{Compiled as C, Hit as H};
    let build = || {
        let db = brep::open_db(16 << 20).unwrap();
        let stats = brep::populate(&db, &BrepConfig::with_assembly(4, 2, 2)).unwrap();
        (db, stats.root_solid_nos)
    };
    let (a, roots) = build();
    let (b, _) = build();
    let (c, _) = build();
    let t21d = |sq: &str, no: i64, n: u32, len: &str| {
        format!(
            "SELECT edge, (point, face := SELECT face_id, square_dim FROM face WHERE square_dim > {sq})
             FROM brep-edge (face, point)
             WHERE brep_no = {no} AND EXISTS_AT_LEAST ({n}) edge: edge.length > {len}"
        )
    };
    let mut corpus: Vec<(String, Served)> = vec![
        // Table 2.1a; a negative key stays verbatim, so only the same
        // negative key hits.
        ("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1 (* qualification *)".into(), C),
        ("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2 (* other comment *)".into(), H),
        ("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 99".into(), H),
        ("SELECT ALL FROM brep-face-edge-point WHERE brep_no > -1".into(), C),
        ("SELECT ALL FROM brep-face-edge-point WHERE brep_no > -1".into(), H),
        ("SELECT ALL FROM brep-face-edge-point WHERE brep_no > -3".into(), C),
        ("SELECT ALL FROM brep-face-edge-point WHERE brep_no > 1".into(), C),
        ("SELECT ALL FROM brep-face-edge-point WHERE brep_no > 3".into(), H),
        // A real against an INTEGER attribute does not fit the slot: it
        // is compiled as written, cached entry or not.
        ("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1.0".into(), C),
        ("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2.0".into(), C),
        ("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2.5".into(), C),
        // An integer against a REAL attribute fits it.
        ("SELECT ALL FROM brep-face WHERE brep_no = 1 AND face.square_dim > 10".into(), C),
        ("SELECT ALL FROM brep-face WHERE brep_no = 2 AND face.square_dim > 20".into(), H),
        ("SELECT ALL FROM brep-face WHERE brep_no = 2 AND face.square_dim > 20.5".into(), C),
        ("SELECT ALL FROM brep-face WHERE brep_no = 3 AND face.square_dim > 1.0E1".into(), H),
        // Table 2.1c, strings with '' escapes.
        ("SELECT solid_no, description FROM solid WHERE sub = EMPTY".into(), C),
        ("SELECT solid_no, description FROM solid WHERE sub = EMPTY".into(), H),
        ("SELECT solid_no, description FROM solid WHERE description = 'base solid 2'".into(), C),
        ("SELECT solid_no, description FROM solid WHERE description = 'it''s'".into(), H),
        ("SELECT solid_no, description FROM solid WHERE description <> ''''".into(), C),
        ("SELECT solid_no, description FROM solid WHERE description <> 'assembly 6'".into(), H),
        // Table 2.1d: the qualified projection's literal and the
        // quantifier's count stay verbatim, the WHERE comparisons do not.
        (t21d("10.0", 1, 2, "1.0"), C),
        (t21d("10.0", 2, 2, "1000.0"), H),
        (t21d("50.0", 2, 2, "1.0"), C),
        (t21d("50.0", 3, 2, "2.5"), H),
        (t21d("50.0", 3, 3, "2.5"), C),
        // Errors: validation failures are never cached.
        ("SELECT ALL FROM brep-widget WHERE brep_no = 1".into(), C),
        ("SELECT ALL FROM brep-widget WHERE brep_no = 2".into(), C),
        ("SELECT ALL FROM piece_list".into(), C),
        ("SELECT ALL FROM brep WHERE colour = 1".into(), C),
        // Manipulation through `execute`, checked by the queries after it.
        ("INSERT solid (solid_no: 5001, description: 'it''s')".into(), C),
        ("INSERT solid (solid_no: 5002, description: 'o''clock')".into(), H),
        ("INSERT solid (solid_no: 5003)".into(), C),
        ("INSERT solid (solid_no: 5004)".into(), H),
        ("INSERT solid (solid_no: 'abc')".into(), C),
        ("INSERT solid (solid_no: 'xyz')".into(), C),
        ("INSERT solid (colour: 1)".into(), C),
        ("MODIFY solid SET description = 'renamed' WHERE solid_no = 5001".into(), C),
        ("MODIFY solid SET description = 'again' WHERE solid_no = 5002".into(), H),
        ("MODIFY solid SET solid_no = 'x' WHERE solid_no = 5002".into(), C),
        ("MODIFY solid SET sub = CONNECT (SELECT ALL FROM solid WHERE solid_no = 5002) WHERE solid_no = 5001".into(), C),
        ("MODIFY solid SET sub = CONNECT (SELECT ALL FROM solid WHERE solid_no = 5004) WHERE solid_no = 5003".into(), H),
        ("DELETE FROM solid WHERE solid_no = 5004".into(), C),
        ("DELETE FROM solid WHERE solid_no = 5003".into(), H),
        ("SELECT solid_no, description FROM solid WHERE solid_no > 5000".into(), C),
        ("SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = 5001".into(), C),
    ];
    // Table 2.1b: recursion seeded by each root solid.
    for root in &roots {
        let text = format!("SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = {root}");
        corpus.push((text, H));
    }
    differential([a, b, c], &corpus);
}

const TEAM_DDL: &str = "
CREATE ATOM_TYPE team
  ( id : IDENTIFIER, team_no : INTEGER, city : CHAR_VAR,
    members : SET_OF (REF_TO (person.teams)) )
KEYS_ARE (team_no);
CREATE ATOM_TYPE person
  ( id : IDENTIFIER, p_no : INTEGER, age : INTEGER, name : CHAR_VAR,
    teams : SET_OF (REF_TO (team.members)) )
KEYS_ARE (p_no);
";

/// The kernel of `tests/queries_semantics.rs`: 12 people in 4
/// overlapping teams.
fn team_db() -> Prima {
    let db = Prima::builder().build_with_ddl(TEAM_DDL).unwrap();
    let people: Vec<_> = (0..12i64)
        .map(|p| {
            let attrs = [
                ("p_no", Value::Int(p)),
                ("age", Value::Int(20 + p * 3)),
                ("name", Value::Str(format!("person {p}"))),
            ];
            db.insert("person", &attrs).unwrap()
        })
        .collect();
    for t in 0..4i64 {
        let members =
            (0..12).filter(|p| p % 4 == t || p % 3 == t).map(|p| people[p as usize]).collect();
        let attrs = [
            ("team_no", Value::Int(t)),
            ("city", Value::Str(["kaiserslautern", "brighton"][t as usize % 2].into())),
            ("members", Value::ref_set(members)),
        ];
        db.insert("team", &attrs).unwrap();
    }
    db
}

#[test]
fn cached_statements_behave_like_uncached_ones_on_the_semantics_corpus() {
    use Served::{Compiled as C, Hit as H};
    let corpus: Vec<(String, Served)> = [
        ("SELECT ALL FROM team WHERE team_no = 0 OR team_no = 3", C),
        ("SELECT ALL FROM team WHERE team_no = 1 OR team_no = 2", H),
        ("SELECT ALL FROM team WHERE NOT city = 'brighton'", C),
        ("SELECT ALL FROM team WHERE NOT city = 'kaiserslautern'", H),
        ("SELECT ALL FROM team WHERE city = 'brighton' AND NOT team_no = 1", C),
        ("SELECT ALL FROM team WHERE city = 'brighton' AND NOT team_no = 3", H),
        ("SELECT ALL FROM team-person WHERE person.age > 45", C),
        ("SELECT ALL FROM team-person WHERE person.age > 30", H),
        ("SELECT ALL FROM team-person WHERE ALL person: person.age >= 20", C),
        ("SELECT ALL FROM team-person WHERE ALL person: person.age >= 40", H),
        ("SELECT ALL FROM team-person WHERE ALL person: person.age >= -5", C),
        ("SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (4) person: person.age >= 20", C),
        ("SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (4) person: person.age >= 50", H),
        ("SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (2) person: person.age >= 50", C),
        ("SELECT ALL FROM team-person WHERE person.age > person.p_no", C),
        ("SELECT ALL FROM team-person WHERE person.age > person.p_no", H),
        ("SELECT team_no, person.name FROM team-person WHERE team_no = 1", C),
        ("SELECT team_no, person.name FROM team-person WHERE team_no = 2", H),
        ("SELECT ALL FROM team WHERE team_no = 999", C),
        ("SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (99) person: person.age > 0", C),
        ("SELECT ALL FROM team WHERE 1 = 1", C),
        ("SELECT ALL FROM team WHERE 2 = 1", H),
        ("SELECT ALL FROM team WHERE 'a' = 1", C),
        ("SELECT ALL FROM team-person WHERE person.age > 45 AND team_no < 3 OR city = 'x'", C),
        ("SELECT ALL FROM team-person WHERE person.age > 50 AND team_no < 2 OR city = 'brighton'", H),
        ("SELECT ALL FROM team-widget", C),
        ("SELECT ALL FROM team WHERE colour = 1", C),
        ("SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (1) nosuch: nosuch.age > 1", C),
        ("SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (1) nosuch: nosuch.age > 2", C),
        ("INSERT person (p_no: 100, age: 33, name: 'new''comer')", C),
        ("INSERT person (p_no: 101, age: 34, name: 'x')", H),
        ("SELECT ALL FROM person WHERE name = 'new''comer'", C),
        ("MODIFY team SET members = CONNECT (SELECT ALL FROM person WHERE p_no = 100) WHERE team_no = 0", C),
        ("MODIFY team SET members = DISCONNECT (SELECT ALL FROM person WHERE p_no = 0) WHERE team_no = 0", C),
        ("MODIFY team SET members = DISCONNECT (SELECT ALL FROM person WHERE p_no = 4) WHERE team_no = 0", H),
        ("SELECT ALL FROM team-person WHERE team_no = 0", C),
    ]
    .into_iter()
    .map(|(text, served)| (text.to_string(), served))
    .collect();
    differential([team_db(), team_db(), team_db()], &corpus);
}

#[test]
fn one_shot_placeholders_and_wrong_entry_points_are_rejected_warm_or_cold() {
    let db = brep_db(2);
    let opts = QueryOptions::new();
    let warm = db.session();
    // The cache holds the same shapes written with literals.
    warm.query("SELECT ALL FROM solid WHERE solid_no = 1", &opts).unwrap();
    warm.execute("INSERT solid (solid_no: 77)").unwrap();
    warm.commit().unwrap();
    for s in [&warm, &db.session()] {
        assert!(matches!(
            s.query("SELECT ALL FROM solid WHERE solid_no = ?", &opts),
            Err(PrimaError::UnboundParameter { .. })
        ));
        assert!(matches!(
            s.execute("INSERT solid (solid_no: :v)"),
            Err(PrimaError::UnboundParameter { .. })
        ));
        assert!(matches!(
            s.execute("SELECT ALL FROM solid WHERE solid_no = 2"),
            Err(PrimaError::BadStatement(m)) if m.contains("query()")
        ));
        assert!(matches!(
            s.query("INSERT solid (solid_no: 78)", &opts),
            Err(PrimaError::BadStatement(m)) if m.contains("execute()")
        ));
    }
}

#[test]
fn a_cached_statement_uses_a_structure_built_after_it() {
    let db = brep_db(4);
    let s = db.session();
    s.set_profiling(true);
    let faces = |bound: &str| {
        let text = format!("SELECT ALL FROM face WHERE square_dim > {bound}");
        let set = s.query(&text, &QueryOptions::new()).unwrap().set;
        let mut ids: Vec<_> = set.molecules.iter().map(|m| m.root.atom.id).collect();
        ids.sort();
        (ids, s.last_profile().unwrap())
    };
    let (scanned, profile) = faces("20.0");
    assert_eq!(profile.access("path"), Some("type_scan"));
    db.ldl("CREATE ACCESS PATH ap_square ON face (square_dim)").unwrap();
    let (indexed, profile) = faces("20.0");
    assert_eq!(profile.root.attr("plan_cache"), Some("hit"));
    assert_eq!(profile.access("path"), Some("access_path(ap_square)"), "{}", profile.render());
    assert_eq!(indexed, scanned);
    assert!(!indexed.is_empty());
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

    let session = db.session();
    let mut cursor = session.query_cursor(STREAM_Q, &QueryOptions::default()).unwrap();
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
    let session = db.session();
    let mut cursor = session.query_cursor(STREAM_Q, &QueryOptions::default()).unwrap();
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
    let session = db.session();
    let cursor = session.query_cursor(STREAM_Q, &QueryOptions::default()).unwrap();
    let molecules: Result<Vec<_>, _> = cursor.collect();
    assert_eq!(molecules.unwrap().len(), 10);
}

#[test]
fn cursor_drop_mid_iteration_leaks_no_buffer_fixes() {
    let db = stream_db(200);
    let buffer = db.storage().buffer();
    let session = db.session();
    let mut cursor = session.query_cursor(STREAM_Q, &QueryOptions::default()).unwrap();
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
    let session = db.session();
    let mut cursor = session.query_cursor(q, &QueryOptions::default()).unwrap();
    let streamed = cursor.fetch_all().unwrap();
    assert_eq!(streamed.molecules, materialized.molecules);
    assert!(streamed.len() < 30, "some molecules filtered");
}
