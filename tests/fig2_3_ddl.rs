//! E-F2.3: the verbatim DDL of Fig. 2.3 loads, validates, enforces its
//! constraints, and round-trips through the pretty-printer.

use prima::{Prima, Value};
use prima_mad::ddl::{load_script, parse_script, DdlStatement, FIG_2_3_DDL};
use prima_mad::{AttrType, Cardinality, Schema};

#[test]
fn fig_2_3_parses_completely() {
    let stmts = parse_script(FIG_2_3_DDL).unwrap();
    let types = stmts.iter().filter(|s| matches!(s, DdlStatement::CreateAtomType(_))).count();
    let mols =
        stmts.iter().filter(|s| matches!(s, DdlStatement::DefineMoleculeType(_))).count();
    assert_eq!(types, 5, "solid, brep, face, edge, point");
    assert_eq!(mols, 4, "edge_obj, face_obj, brep_obj, piece_list");
}

#[test]
fn all_associations_are_symmetric() {
    let mut schema = Schema::new();
    load_script(&mut schema, FIG_2_3_DDL).unwrap();
    schema.validate().unwrap();
    // Count associations: each one appears in both directions.
    let assocs = schema
        .atom_types()
        .iter()
        .flat_map(|at| (0..at.attributes.len()).filter_map(|i| schema.association_of(at.id, i)))
        .count();
    // solid: sub, super, brep = 3; brep: solid, faces, edges, points = 4;
    // face: border, crosspoint, brep = 3; edge: boundary, face, brep = 3;
    // point: line, face, brep = 3 -> 16 direction entries.
    assert_eq!(assocs, 16);
}

#[test]
fn cardinalities_of_fig_2_3() {
    let mut schema = Schema::new();
    load_script(&mut schema, FIG_2_3_DDL).unwrap();
    let brep = schema.type_by_name("brep").unwrap();
    for (attr, min) in [("faces", 4), ("edges", 6), ("points", 4)] {
        match &brep.attribute(attr).unwrap().ty {
            AttrType::RefSet(_, c) => assert_eq!(*c, Cardinality::var(min), "{attr}"),
            other => panic!("{attr}: {other:?}"),
        }
    }
    let edge = schema.type_by_name("edge").unwrap();
    match &edge.attribute("boundary").unwrap().ty {
        AttrType::RefSet(_, c) => assert_eq!(*c, Cardinality::var(2)),
        other => panic!("{other:?}"),
    }
}

#[test]
fn keys_are_enforced_at_runtime() {
    let db = Prima::builder().build_with_ddl(FIG_2_3_DDL).unwrap();
    db.insert("solid", &[("solid_no", Value::Int(4711))]).unwrap();
    let err = db.insert("solid", &[("solid_no", Value::Int(4711))]).unwrap_err();
    assert!(err.to_string().contains("duplicate key"), "{err}");
}

#[test]
fn record_attribute_round_trips() {
    let db = Prima::builder().build_with_ddl(FIG_2_3_DDL).unwrap();
    let placement = Value::Record(vec![
        ("x_coord".into(), Value::Real(1.0)),
        ("y_coord".into(), Value::Real(2.0)),
        ("z_coord".into(), Value::Real(3.0)),
    ]);
    let p = db.insert("point", &[("placement", placement.clone())]).unwrap();
    let back = db.read(p).unwrap();
    let schema = db.schema();
    let idx = schema.type_by_name("point").unwrap().attribute_index("placement").unwrap();
    assert_eq!(back.values[idx], placement);
}

#[test]
fn wrong_record_shape_rejected() {
    let db = Prima::builder().build_with_ddl(FIG_2_3_DDL).unwrap();
    let bad = Value::Record(vec![("x".into(), Value::Real(1.0))]);
    assert!(db.insert("point", &[("placement", bad)]).is_err());
}

#[test]
fn pretty_printed_types_reparse() {
    let mut schema = Schema::new();
    load_script(&mut schema, FIG_2_3_DDL).unwrap();
    for at in schema.atom_types() {
        let printed = at.to_string();
        let reparsed = parse_script(&printed).unwrap();
        let DdlStatement::CreateAtomType(back) = &reparsed[0] else {
            panic!("expected atom type");
        };
        assert_eq!(back.name, at.name);
        assert_eq!(back.attributes.len(), at.attributes.len(), "{printed}");
        for (a, b) in back.attributes.iter().zip(&at.attributes) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ty, b.ty, "attribute {} of {}", a.name, at.name);
        }
    }
}

#[test]
fn max_cardinality_enforced() {
    let ddl = "
        CREATE ATOM_TYPE pair (id: IDENTIFIER, n: INTEGER,
            items: SET_OF (REF_TO (item.owner)) (0,2));
        CREATE ATOM_TYPE item (id: IDENTIFIER,
            owner: SET_OF (REF_TO (pair.items)));
    ";
    let db = Prima::builder().build_with_ddl(ddl).unwrap();
    let i1 = db.insert("item", &[]).unwrap();
    let i2 = db.insert("item", &[]).unwrap();
    let i3 = db.insert("item", &[]).unwrap();
    db.insert("pair", &[("items", Value::ref_set(vec![i1, i2]))]).unwrap();
    let err = db
        .insert("pair", &[("items", Value::ref_set(vec![i1, i2, i3]))])
        .unwrap_err();
    assert!(err.to_string().contains("cardinality"), "{err}");
}
