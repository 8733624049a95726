//! MQL semantics beyond Table 2.1: boolean structure, quantifiers,
//! reference-to-reference comparisons, molecule overlap (non-disjoint
//! molecules), and error reporting — and the kernel's WHERE evaluation
//! against the naive evaluator of `common/reference.rs`.

#[path = "common/reference.rs"]
mod reference;

use prima::{Prima, PrimaError, QueryOptions, Value};
use prima_mad::mql::{lex, parse_statement_lifted, TokenKind};
use prima_workloads::brep::{self, BrepConfig};
use prima_workloads::exec;

const DDL: &str = "
CREATE ATOM_TYPE team
  ( id : IDENTIFIER, team_no : INTEGER, city : CHAR_VAR,
    members : SET_OF (REF_TO (person.teams)) )
KEYS_ARE (team_no);
CREATE ATOM_TYPE person
  ( id : IDENTIFIER, p_no : INTEGER, age : INTEGER, name : CHAR_VAR,
    teams : SET_OF (REF_TO (team.members)) )
KEYS_ARE (p_no);
";

fn setup() -> Prima {
    let db = Prima::builder().build_with_ddl(DDL).unwrap();
    let mut people = Vec::new();
    for p in 0..12i64 {
        people.push(
            db.insert(
                "person",
                &[
                    ("p_no", Value::Int(p)),
                    ("age", Value::Int(20 + p * 3)),
                    ("name", Value::Str(format!("person {p}"))),
                ],
            )
            .unwrap(),
        );
    }
    for t in 0..4i64 {
        // Overlapping membership: person p joins team t iff p % 4 == t or
        // p % 3 == t (non-disjoint molecules: people shared by teams).
        let members: Vec<_> = (0..12)
            .filter(|p| p % 4 == t || p % 3 == t)
            .map(|p| people[p as usize])
            .collect();
        db.insert(
            "team",
            &[
                ("team_no", Value::Int(t)),
                ("city", Value::Str(["kaiserslautern", "brighton"][t as usize % 2].into())),
                ("members", Value::ref_set(members)),
            ],
        )
        .unwrap();
    }
    db
}

#[test]
fn or_and_not_in_where() {
    let db = setup();
    let set = exec::query(&db, "SELECT ALL FROM team WHERE team_no = 0 OR team_no = 3")
        .unwrap();
    assert_eq!(set.len(), 2);
    let set = exec::query(&db, "SELECT ALL FROM team WHERE NOT city = 'brighton'")
        .unwrap();
    assert_eq!(set.len(), 2);
    let set = exec::query(&db, "SELECT ALL FROM team WHERE city = 'brighton' AND NOT team_no = 1")
        .unwrap();
    assert_eq!(set.len(), 1);
    assert_eq!(set.molecules[0].root.atom.values[1], Value::Int(3));
}

#[test]
fn non_root_comparison_is_existential() {
    let db = setup();
    // Teams having at least one member older than 45.
    let set = exec::query(&db, "SELECT ALL FROM team-person WHERE person.age > 45").unwrap();
    let expected: usize = exec::query(&db, "SELECT ALL FROM team-person WHERE team_no >= 0")
        .unwrap()
        .molecules
        .iter()
        .filter(|m| {
            m.atoms_of_node(1).iter().any(|a| a.values[2].as_int().unwrap() > 45)
        })
        .count();
    assert_eq!(set.len(), expected);
}

#[test]
fn for_all_quantifier_semantics() {
    let db = setup();
    // ALL members at least 20 — true everywhere.
    let set = exec::query(&db, "SELECT ALL FROM team-person WHERE ALL person: person.age >= 20")
        .unwrap();
    assert_eq!(set.len(), 4);
    // ALL members younger than 40 — only teams whose member set avoids
    // the older people.
    let set = exec::query(&db, "SELECT ALL FROM team-person WHERE ALL person: person.age < 40")
        .unwrap();
    for m in &set.molecules {
        for p in m.atoms_of_node(1) {
            assert!(p.values[2].as_int().unwrap() < 40);
        }
    }
}

#[test]
fn exists_at_least_counts_members() {
    let db = setup();
    let set = exec::query(&db, "SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (4) person: person.age >= 20")
        .unwrap();
    // Teams with >= 4 members (all ages >= 20).
    let all = exec::query(&db, "SELECT ALL FROM team-person WHERE team_no >= 0").unwrap();
    let expected =
        all.molecules.iter().filter(|m| m.atoms_of_node(1).len() >= 4).count();
    assert_eq!(set.len(), expected);
}

#[test]
fn ref_to_ref_comparison() {
    let db = setup();
    // Teams where some member's age equals 3*p_no + 20 of another… keep
    // it simple: person.age > person.p_no always holds (age = 20 + 3p).
    let set = exec::query(&db, "SELECT ALL FROM team-person WHERE person.age > person.p_no")
        .unwrap();
    assert_eq!(set.len(), 4);
}

#[test]
fn overlapping_molecules_share_atoms() {
    let db = setup();
    let set = exec::query(&db, "SELECT ALL FROM team-person WHERE team_no >= 0").unwrap();
    let mut seen = std::collections::HashMap::new();
    for m in &set.molecules {
        for a in m.atoms_of_node(1) {
            *seen.entry(a.id).or_insert(0usize) += 1;
        }
    }
    assert!(
        seen.values().any(|&n| n > 1),
        "non-disjoint molecules must share person atoms"
    );
    // Shared atoms are genuinely the same logical atom (same values).
    let shared = seen.iter().find(|(_, &n)| n > 1).map(|(id, _)| *id).unwrap();
    let copies: Vec<_> = set
        .molecules
        .iter()
        .flat_map(|m| m.atoms_of_node(1))
        .filter(|a| a.id == shared)
        .collect();
    assert!(copies.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn projection_of_component_attribute() {
    let db = setup();
    let set = exec::query(&db, "SELECT team_no, person.name FROM team-person WHERE team_no = 1")
        .unwrap();
    let m = &set.molecules[0];
    assert!(matches!(m.root.atom.values[1], Value::Int(1)));
    assert!(matches!(m.root.atom.values[2], Value::Null), "city projected away");
    for p in m.atoms_of_node(1) {
        assert!(matches!(p.values[3], Value::Str(_)), "name kept");
        assert!(matches!(p.values[2], Value::Null), "age projected away");
    }
}

#[test]
fn empty_results_are_not_errors() {
    let db = setup();
    let set = exec::query(&db, "SELECT ALL FROM team WHERE team_no = 999").unwrap();
    assert!(set.is_empty());
    let set = exec::query(&db, "SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (99) person: person.age > 0")
        .unwrap();
    assert!(set.is_empty());
}

#[test]
fn helpful_validation_errors() {
    let db = setup();
    let err = exec::query(&db, "SELECT ALL FROM team-widget").unwrap_err();
    assert!(err.to_string().contains("widget"), "{err}");
    let err = exec::query(&db, "SELECT ALL FROM team WHERE colour = 1").unwrap_err();
    assert!(err.to_string().contains("colour"), "{err}");
    let err = exec::query(&db, "SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (1) nosuch: nosuch.age > 1")
        .unwrap_err();
    assert!(err.to_string().contains("nosuch"), "{err}");
}

#[test]
fn seed_level_addressing_beyond_zero() {
    // Levels above 0 in predicates address deeper recursion levels.
    let db = Prima::builder()
        .build_with_ddl(
            "CREATE ATOM_TYPE n (id: IDENTIFIER, v: INTEGER,
                kids: SET_OF (REF_TO (n.parent)),
                parent: SET_OF (REF_TO (n.kids)))
             KEYS_ARE (v);
             DEFINE MOLECULE TYPE tree FROM n.kids - n (recursive);",
        )
        .unwrap();
    let leaf = db.insert("n", &[("v", Value::Int(3))]).unwrap();
    let mid = db
        .insert("n", &[("v", Value::Int(2)), ("kids", Value::ref_set(vec![leaf]))])
        .unwrap();
    let _root = db
        .insert("n", &[("v", Value::Int(1)), ("kids", Value::ref_set(vec![mid]))])
        .unwrap();
    let set = exec::query(&db, "SELECT ALL FROM tree WHERE tree (0).v = 1").unwrap();
    assert_eq!(set.molecules[0].depth(), 2);
    // Residual on level 2: only molecules whose level-2 set contains v=3.
    let set = exec::query(&db, "SELECT ALL FROM tree WHERE tree (0).v = 1 AND tree (2).v = 3")
        .unwrap();
    assert_eq!(set.len(), 1);
    let set = exec::query(&db, "SELECT ALL FROM tree WHERE tree (0).v = 1 AND tree (2).v = 99")
        .unwrap();
    assert!(set.is_empty());
}

/// One `a` (`k = 1`, `v = 5`) linked to one `b` (`v = 500`): both types
/// have a `v`, so a reference that names the wrong component reads a
/// different value.
const TWO_TYPE_DDL: &str = "
CREATE ATOM_TYPE a
  ( id : IDENTIFIER, k : INTEGER, v : INTEGER, bs : SET_OF (REF_TO (b.owners)) )
KEYS_ARE (k);
CREATE ATOM_TYPE b
  ( id : IDENTIFIER, v : INTEGER, owners : SET_OF (REF_TO (a.bs)) );
";

fn two_type_db() -> Prima {
    let db = Prima::builder().build_with_ddl(TWO_TYPE_DDL).unwrap();
    let b = db.insert("b", &[("v", Value::Int(500))]).unwrap();
    let attrs = [("k", Value::Int(1)), ("v", Value::Int(5)), ("bs", Value::ref_set(vec![b]))];
    db.insert("a", &attrs).unwrap();
    db
}

#[test]
fn quantifier_body_reads_only_the_quantified_component() {
    let db = two_type_db();
    // `a.v` is 5: read as `b.v` (500) it would qualify the molecule.
    let err = exec::query(&db, "SELECT ALL FROM a-b WHERE k = 1 AND ALL b: a.v > 100")
        .unwrap_err();
    assert!(matches!(err, PrimaError::BadStatement(_)), "{err:?}");
    assert!(
        err.to_string().contains("quantifier body must be decidable on the quantified component"),
        "{err}"
    );
    // A bare attribute in the body is the quantified component's.
    let set = exec::query(&db, "SELECT ALL FROM a-b WHERE k = 1 AND ALL b: v > 100").unwrap();
    assert_eq!(set.len(), 1);
    let set = exec::query(&db, "SELECT ALL FROM a-b WHERE k = 1 AND ALL b: v > 1000").unwrap();
    assert!(set.is_empty());
    let set =
        exec::query(&db, "SELECT ALL FROM a-b WHERE k = 1 AND EXISTS_AT_LEAST (1) b: b.v = 500")
            .unwrap();
    assert_eq!(set.len(), 1);
}

#[test]
fn unresolvable_quantifiers_fail_whatever_the_data() {
    let db = two_type_db();
    // `k = 2` qualifies no root, so no molecule ever reaches the
    // quantifier: the statement must fail all the same.
    for k in [1, 2] {
        let text = format!("SELECT ALL FROM a-b WHERE k = {k} AND ALL b: b.v > b.v");
        let err = exec::query(&db, &text).unwrap_err();
        assert!(matches!(err, PrimaError::BadStatement(_)), "{text}: {err:?}");
        let text = format!("SELECT ALL FROM a-b WHERE k = {k} AND ALL nosuch: b.v > 1");
        let err = exec::query(&db, &text).unwrap_err();
        assert!(matches!(err, PrimaError::UnresolvedReference { .. }), "{text}: {err:?}");
        assert!(err.to_string().contains("nosuch"), "{err}");
    }
}

#[test]
fn a_null_value_satisfies_no_comparison_on_any_component() {
    let db = Prima::builder().build_with_ddl(TWO_TYPE_DDL).unwrap();
    let b = db.insert("b", &[]).unwrap();
    db.insert("a", &[("k", Value::Int(1)), ("bs", Value::ref_set(vec![b]))]).unwrap();
    // `b.v` is null: pushed down to the root, compared on a component or
    // in a quantifier body, the comparison is false alike.
    for text in [
        "SELECT ALL FROM b WHERE v < 5",
        "SELECT ALL FROM b WHERE v <> 5",
        "SELECT ALL FROM a-b WHERE b.v < 5",
        "SELECT ALL FROM a-b WHERE b.v <> 5",
        "SELECT ALL FROM a-b WHERE k = 1 AND EXISTS_AT_LEAST (1) b: v < 5",
    ] {
        assert!(exec::query(&db, text).unwrap().is_empty(), "{text}");
    }
    assert_eq!(exec::query(&db, "SELECT ALL FROM a-b WHERE b.v = EMPTY").unwrap().len(), 1);
}

/// `text` as a prepared statement: each literal the plan cache lifts into
/// a slot replaced by `?`, and those literals' values in slot order.
fn with_slots(text: &str) -> (String, Vec<Value>) {
    let lifted = parse_statement_lifted(text).unwrap();
    let literals = lex(text).unwrap().into_iter().filter(|t| t.kind.is_literal());
    let (mut prepared, mut values, mut at) = (String::new(), Vec::new(), 0);
    for (token, slot) in literals.zip(&lifted.literal_slots) {
        let Some(slot) = slot else { continue };
        assert_eq!(usize::from(*slot), values.len(), "{text}");
        prepared.push_str(&text[at..token.offset]);
        prepared.push('?');
        at = token.offset + literal_len(&text[token.offset..]);
        values.push(match token.kind {
            TokenKind::Int(i) => Value::Int(i),
            TokenKind::Real(r) => Value::Real(r),
            TokenKind::Str(s) => Value::Str(s),
            other => panic!("not a literal: {other:?}"),
        });
    }
    prepared.push_str(&text[at..]);
    (prepared, values)
}

/// The length of the literal `s` starts with.
fn literal_len(s: &str) -> usize {
    let b = s.as_bytes();
    if b[0] == b'\'' {
        // A string ends at a quote not doubled.
        let mut i = 1;
        while b[i] != b'\'' || b.get(i + 1) == Some(&b'\'') {
            i += if b[i] == b'\'' { 2 } else { 1 };
        }
        return i + 1;
    }
    let number = |i: usize| {
        b[i].is_ascii_alphanumeric()
            || b[i] == b'.'
            || (matches!(b[i], b'+' | b'-') && matches!(b[i - 1], b'E' | b'e'))
    };
    (0..b.len()).find(|&i| !number(i)).unwrap_or(b.len())
}

/// Asserts kernel == reference for every text: run one-shot, again as a
/// plan-cache hit, and prepared with its literals bound into slots.
fn agrees_with_reference(db: &Prima, texts: &[String]) {
    let session = db.session();
    let opts = QueryOptions::new();
    for text in texts {
        let expected = reference::molecules(db, text);
        let one_shot = session.query(text, &opts).unwrap().set.molecules;
        assert_eq!(one_shot, expected, "one-shot: {text}");
        let hits = db.metrics().api.plan_cache_hits;
        let cached = session.query(text, &opts).unwrap().set.molecules;
        assert_eq!(db.metrics().api.plan_cache_hits, hits + 1, "not served by the cache: {text}");
        assert_eq!(cached, expected, "cache hit: {text}");
        let (prepared, values) = with_slots(text);
        let mut p = session.prepare(&prepared).unwrap();
        let bound = p.bind(&values).unwrap().query(&opts).unwrap().set.molecules;
        assert_eq!(bound, expected, "prepared: {prepared} with {values:?}");
    }
}

#[test]
fn where_clauses_agree_with_the_reference_evaluator() {
    let team = [
        "SELECT ALL FROM team WHERE team_no = 0 OR team_no = 3",
        "SELECT ALL FROM team WHERE team_no = 1 OR team_no = 2",
        "SELECT ALL FROM team WHERE NOT city = 'brighton'",
        "SELECT ALL FROM team WHERE NOT city = 'kaiserslautern'",
        "SELECT ALL FROM team WHERE city = 'brighton' AND NOT team_no = 1",
        "SELECT ALL FROM team WHERE city = 'brighton' AND NOT team_no = 3",
        "SELECT ALL FROM team-person WHERE person.age > 45",
        "SELECT ALL FROM team-person WHERE person.age > 30",
        "SELECT ALL FROM team-person WHERE ALL person: person.age >= 20",
        "SELECT ALL FROM team-person WHERE ALL person: person.age >= 40",
        "SELECT ALL FROM team-person WHERE ALL person: person.age >= -5",
        "SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (4) person: person.age >= 20",
        "SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (4) person: person.age >= 50",
        "SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (2) person: person.age >= 50",
        "SELECT ALL FROM team-person WHERE person.age > person.p_no",
        "SELECT ALL FROM team WHERE team_no = 999",
        "SELECT ALL FROM team-person WHERE EXISTS_AT_LEAST (99) person: person.age > 0",
        "SELECT ALL FROM team WHERE 1 = 1",
        "SELECT ALL FROM team WHERE 2 = 1",
        "SELECT ALL FROM team WHERE 'a' = 1",
        "SELECT ALL FROM team-person WHERE person.age > 45 AND team_no < 3 OR city = 'x'",
        "SELECT ALL FROM team-person WHERE person.age > 50 AND team_no < 2 OR city = 'brighton'",
        "SELECT ALL FROM person WHERE name = 'person 4'",
        "SELECT ALL FROM team-person WHERE team_no = 0",
    ];
    agrees_with_reference(&setup(), &team.map(String::from));

    // Table 2.1d's quantifier, over the whole molecule.
    let brep = brep::open_db(16 << 20).unwrap();
    brep::populate(&brep, &BrepConfig::with_assembly(4, 2, 2)).unwrap();
    let t21d = |no: i64, n: u32, len: &str| {
        format!(
            "SELECT ALL FROM brep-edge (face, point)
             WHERE brep_no = {no} AND EXISTS_AT_LEAST ({n}) edge: edge.length > {len}"
        )
    };
    let table_2_1 = [
        t21d(1, 2, "1.0"),
        t21d(2, 2, "1000.0"),
        t21d(2, 2, "1.0"),
        t21d(3, 2, "2.5"),
        t21d(3, 3, "2.5"),
        t21d(4, 13, "0.5"),
    ];
    agrees_with_reference(&brep, &table_2_1);

    let two_type = [
        "SELECT ALL FROM a-b WHERE k = 1 AND ALL b: v > 100",
        "SELECT ALL FROM a-b WHERE k = 1 AND ALL b: v > 1000",
        "SELECT ALL FROM a-b WHERE k = 1 AND EXISTS_AT_LEAST (1) b: b.v = 500",
        "SELECT ALL FROM a-b WHERE b.v > 100 AND a.v < 10",
        "SELECT ALL FROM a-b WHERE v = 5 OR b.v = 7",
    ];
    agrees_with_reference(&two_type_db(), &two_type.map(String::from));
}
