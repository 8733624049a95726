//! MAD-DDL: the data definition language of Fig. 2.3.
//!
//! Supports the constructs the paper's schema uses verbatim:
//!
//! ```text
//! CREATE ATOM_TYPE solid
//!   ( solid_id   : IDENTIFIER,
//!     solid_no   : INTEGER,
//!     description: CHAR_VAR,
//!     sub        : SET_OF (REF_TO (solid.super)),
//!     super      : SET_OF (REF_TO (solid.sub)),
//!     brep       : REF_TO (brep.solid) )
//! KEYS_ARE (solid_no)
//!
//! DEFINE MOLECULE TYPE piece_list FROM solid.sub - solid (recursive)
//! ```
//!
//! plus `RECORD … END`, `SET_OF`/`LIST_OF` with cardinality restrictions
//! `(n,VAR)` / `(n,m)`, `CHAR(n)`, `ARRAY(n) OF t`, `BOOLEAN` and the
//! domain shorthand `HULL_DIM(n)` of Fig. 2.3 (an n-vector of REALs).

use crate::mql::lexer::{ParseError, TokenKind};
use crate::mql::parser::Parser;
use crate::schema::{AtomType, Attribute, AttrType, Cardinality, MoleculeType, RefTarget, Schema};

/// One parsed DDL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum DdlStatement {
    CreateAtomType(AtomType),
    DefineMoleculeType(MoleculeType),
}

/// Parses a whole DDL script (statements separated by semicolons or just
/// juxtaposed) and applies it to a schema.
pub fn parse_script(src: &str) -> Result<Vec<DdlStatement>, ParseError> {
    let run = || -> Result<Vec<DdlStatement>, ParseError> {
        let mut p = DdlParser { p: Parser::new(src)? };
        let mut out = Vec::new();
        loop {
            while p.p.eat(&TokenKind::Semicolon) {}
            if p.p.peek() == &TokenKind::Eof {
                break;
            }
            out.push(p.statement()?);
        }
        Ok(out)
    };
    run().map_err(|e| e.locate(src))
}

/// Parses a script and loads it into `schema` (types first, then molecule
/// types), validating at the end.
pub fn load_script(schema: &mut Schema, src: &str) -> Result<(), DdlError> {
    let stmts = parse_script(src).map_err(DdlError::Parse)?;
    // Atom types first (any order within the script is fine because
    // references are resolved at validate()).
    for s in &stmts {
        if let DdlStatement::CreateAtomType(at) = s {
            schema.add_atom_type(at.clone()).map_err(DdlError::Schema)?;
        }
    }
    schema.validate().map_err(DdlError::Schema)?;
    for s in stmts {
        if let DdlStatement::DefineMoleculeType(mt) = s {
            schema.define_molecule_type(mt).map_err(DdlError::Schema)?;
        }
    }
    Ok(())
}

/// Errors from loading a DDL script.
#[derive(Debug)]
pub enum DdlError {
    Parse(ParseError),
    Schema(crate::schema::SchemaError),
}

impl std::fmt::Display for DdlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DdlError::Parse(e) => write!(f, "DDL parse error: {e}"),
            DdlError::Schema(e) => write!(f, "DDL schema error: {e}"),
        }
    }
}

impl std::error::Error for DdlError {}

struct DdlParser {
    p: Parser,
}

impl DdlParser {
    fn statement(&mut self) -> Result<DdlStatement, ParseError> {
        if self.p.eat_kw("create") {
            self.p.expect_kw("atom_type")?;
            return self.create_atom_type();
        }
        if self.p.eat_kw("define") {
            self.p.expect_kw("molecule")?;
            self.p.expect_kw("type")?;
            let name = self.p.ident()?;
            self.p.expect_kw("from")?;
            let graph = self.p.from_structure()?;
            return Ok(DdlStatement::DefineMoleculeType(MoleculeType::new(name, graph)));
        }
        Err(ParseError::new(
            format!("expected CREATE ATOM_TYPE or DEFINE MOLECULE TYPE, found '{}'", self.p.peek()),
            self.p.offset(),
        ))
    }

    fn create_atom_type(&mut self) -> Result<DdlStatement, ParseError> {
        let name = self.p.ident()?;
        self.p.expect(TokenKind::LParen)?;
        let mut attributes = Vec::new();
        loop {
            let attr_name = self.p.ident()?;
            self.p.expect(TokenKind::Colon)?;
            let ty = self.attr_type()?;
            attributes.push(Attribute::new(attr_name, ty));
            if !self.p.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.p.expect(TokenKind::RParen)?;
        let mut keys = Vec::new();
        if self.p.eat_kw("keys_are") {
            self.p.expect(TokenKind::LParen)?;
            keys.push(self.p.ident()?);
            while self.p.eat(&TokenKind::Comma) {
                keys.push(self.p.ident()?);
            }
            self.p.expect(TokenKind::RParen)?;
        }
        Ok(DdlStatement::CreateAtomType(AtomType::build(name, attributes, keys)))
    }

    fn attr_type(&mut self) -> Result<AttrType, ParseError> {
        let kw = self.p.ident()?;
        let kw_lc = kw.to_ascii_lowercase();
        match kw_lc.as_str() {
            "identifier" => Ok(AttrType::Identifier),
            "integer" | "int" => Ok(AttrType::Integer),
            "real" => Ok(AttrType::Real),
            "boolean" => Ok(AttrType::Boolean),
            "char_var" => Ok(AttrType::CharVar),
            "char" => {
                self.p.expect(TokenKind::LParen)?;
                let n = self.int()?;
                self.p.expect(TokenKind::RParen)?;
                Ok(AttrType::Char(n as usize))
            }
            "ref_to" => {
                self.p.expect(TokenKind::LParen)?;
                let target = self.ref_target()?;
                self.p.expect(TokenKind::RParen)?;
                Ok(AttrType::Ref(target))
            }
            "set_of" | "list_of" => {
                self.p.expect(TokenKind::LParen)?;
                // Either SET_OF (REF_TO (t.a)) or SET_OF (elem_type).
                let inner_is_ref = self.p.peek().is_kw("ref_to");
                if inner_is_ref {
                    self.p.bump();
                    self.p.expect(TokenKind::LParen)?;
                    let target = self.ref_target()?;
                    self.p.expect(TokenKind::RParen)?;
                    self.p.expect(TokenKind::RParen)?;
                    let card = self.optional_cardinality()?;
                    if kw_lc == "set_of" {
                        Ok(AttrType::RefSet(target, card))
                    } else {
                        // Reference lists are modelled as sets (the paper
                        // uses sets for all associations).
                        Ok(AttrType::RefSet(target, card))
                    }
                } else {
                    let elem = self.attr_type()?;
                    self.p.expect(TokenKind::RParen)?;
                    let card = self.optional_cardinality()?;
                    if kw_lc == "set_of" {
                        Ok(AttrType::SetOf(Box::new(elem), card))
                    } else {
                        Ok(AttrType::ListOf(Box::new(elem), card))
                    }
                }
            }
            "record" => {
                let mut fields = Vec::new();
                loop {
                    // name {, name} : type
                    let mut names = vec![self.p.ident()?];
                    while self.p.eat(&TokenKind::Comma) {
                        names.push(self.p.ident()?);
                    }
                    self.p.expect(TokenKind::Colon)?;
                    let ty = self.attr_type()?;
                    for n in names {
                        fields.push((n, ty.clone()));
                    }
                    // Paper ends groups with '.' or just END; accept both
                    // plus ',' continuation.
                    let _ = self.p.eat(&TokenKind::Dot) || self.p.eat(&TokenKind::Comma);
                    if self.p.eat_kw("end") {
                        break;
                    }
                }
                Ok(AttrType::Record(fields))
            }
            "array" => {
                self.p.expect(TokenKind::LParen)?;
                let n = self.int()?;
                self.p.expect(TokenKind::RParen)?;
                self.p.expect_kw("of")?;
                let elem = self.attr_type()?;
                Ok(AttrType::Array(Box::new(elem), n as usize))
            }
            // Domain shorthand of Fig. 2.3: hull : HULL_DIM(3).
            "hull_dim" => {
                self.p.expect(TokenKind::LParen)?;
                let n = self.int()?;
                self.p.expect(TokenKind::RParen)?;
                Ok(AttrType::Array(Box::new(AttrType::Real), n as usize))
            }
            other => Err(ParseError::new(
                format!("unknown attribute type '{other}'"),
                self.p.offset(),
            )),
        }
    }

    fn ref_target(&mut self) -> Result<RefTarget, ParseError> {
        let ty = self.p.ident()?;
        self.p.expect(TokenKind::Dot)?;
        let attr = self.p.ident()?;
        Ok(RefTarget { type_name: ty, attr_name: attr })
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        match self.p.bump() {
            TokenKind::Int(i) => Ok(i),
            other => Err(ParseError::new(
                format!("expected integer, found '{other}'"),
                self.p.offset(),
            )),
        }
    }

    /// `(n,VAR)` or `(n,m)` after a repeating-group type; absent means
    /// unrestricted.
    fn optional_cardinality(&mut self) -> Result<Cardinality, ParseError> {
        // Lookahead: '(' INT ',' …
        let save = self.p.pos;
        if self.p.eat(&TokenKind::LParen) {
            if let TokenKind::Int(min) = self.p.peek().clone() {
                self.p.bump();
                if self.p.eat(&TokenKind::Comma) {
                    let card = if self.p.eat_kw("var") {
                        Cardinality::var(min as u32)
                    } else {
                        let max = self.int()?;
                        Cardinality::range(min as u32, max as u32)
                    };
                    self.p.expect(TokenKind::RParen)?;
                    return Ok(card);
                }
            }
            self.p.pos = save;
        }
        Ok(Cardinality::any())
    }
}

/// The verbatim DDL of Fig. 2.3 (solid representation), exposed for tests
/// and examples.
pub const FIG_2_3_DDL: &str = r#"
CREATE ATOM_TYPE solid
  ( solid_id    : IDENTIFIER,
    solid_no    : INTEGER,
    description : CHAR_VAR,
    sub         : SET_OF (REF_TO (solid.super)),
    super       : SET_OF (REF_TO (solid.sub)),
    brep        : REF_TO (brep.solid) )
KEYS_ARE (solid_no);

CREATE ATOM_TYPE brep
  ( brep_id : IDENTIFIER,
    brep_no : INTEGER,
    hull    : HULL_DIM(3),
    solid   : REF_TO (solid.brep),
    faces   : SET_OF (REF_TO (face.brep)) (4,VAR),
    edges   : SET_OF (REF_TO (edge.brep)) (6,VAR),
    points  : SET_OF (REF_TO (point.brep)) (4,VAR) )
KEYS_ARE (brep_no);

CREATE ATOM_TYPE face
  ( face_id    : IDENTIFIER,
    square_dim : REAL,
    border     : SET_OF (REF_TO (edge.face)) (3,VAR),
    crosspoint : SET_OF (REF_TO (point.face)) (3,VAR),
    brep       : REF_TO (brep.faces) );

CREATE ATOM_TYPE edge
  ( edge_id  : IDENTIFIER,
    length   : REAL,
    boundary : SET_OF (REF_TO (point.line)) (2,VAR),
    face     : SET_OF (REF_TO (face.border)) (2,VAR),
    brep     : REF_TO (brep.edges) );

CREATE ATOM_TYPE point
  ( point_id  : IDENTIFIER,
    placement : RECORD
                  x_coord, y_coord, z_coord : REAL
                END,
    line      : SET_OF (REF_TO (edge.boundary)) (1,VAR),
    face      : SET_OF (REF_TO (face.crosspoint)) (1,VAR),
    brep      : REF_TO (brep.points) );

DEFINE MOLECULE TYPE edge_obj  FROM edge - point;
DEFINE MOLECULE TYPE face_obj  FROM face - edge_obj;
DEFINE MOLECULE TYPE brep_obj  FROM brep - face_obj;
DEFINE MOLECULE TYPE piece_list FROM solid.sub - solid (recursive);
"#;

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a single DDL statement.
    fn parse_ddl(src: &str) -> Result<DdlStatement, ParseError> {
        let run = || -> Result<DdlStatement, ParseError> {
            let mut p = DdlParser { p: Parser::new(src)? };
            let stmt = p.statement()?;
            p.p.expect_eof()?;
            Ok(stmt)
        };
        run().map_err(|e| e.locate(src))
    }

    #[test]
    fn parse_simple_atom_type() {
        let s = parse_ddl(
            "CREATE ATOM_TYPE solid (solid_id: IDENTIFIER, solid_no: INTEGER) KEYS_ARE (solid_no)",
        )
        .unwrap();
        let DdlStatement::CreateAtomType(at) = s else { panic!() };
        assert_eq!(at.name, "solid");
        assert_eq!(at.attributes.len(), 2);
        assert_eq!(at.keys, vec!["solid_no".to_string()]);
    }

    #[test]
    fn parse_ref_types_with_cardinality() {
        let s = parse_ddl(
            "CREATE ATOM_TYPE edge (edge_id: IDENTIFIER, boundary: SET_OF (REF_TO (point.line)) (2,VAR), brep: REF_TO (brep.edges))",
        )
        .unwrap();
        let DdlStatement::CreateAtomType(at) = s else { panic!() };
        match &at.attributes[1].ty {
            AttrType::RefSet(t, c) => {
                assert_eq!(t.type_name, "point");
                assert_eq!(t.attr_name, "line");
                assert_eq!(*c, Cardinality::var(2));
            }
            other => panic!("unexpected type {other:?}"),
        }
        assert!(matches!(&at.attributes[2].ty, AttrType::Ref(_)));
    }

    #[test]
    fn parse_record_type() {
        let s = parse_ddl(
            "CREATE ATOM_TYPE point (point_id: IDENTIFIER, placement: RECORD x_coord, y_coord, z_coord: REAL END)",
        )
        .unwrap();
        let DdlStatement::CreateAtomType(at) = s else { panic!() };
        match &at.attributes[1].ty {
            AttrType::Record(fields) => {
                assert_eq!(fields.len(), 3);
                assert_eq!(fields[0].0, "x_coord");
                assert!(matches!(fields[2].1, AttrType::Real));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_molecule_type_definitions() {
        let s = parse_ddl("DEFINE MOLECULE TYPE brep_obj FROM brep - face_obj").unwrap();
        let DdlStatement::DefineMoleculeType(mt) = s else { panic!() };
        assert_eq!(mt.name, "brep_obj");
        assert_eq!(mt.graph.component_names(), vec!["brep", "face_obj"]);
    }

    #[test]
    fn fig_2_3_loads_and_validates() {
        let mut schema = Schema::new();
        load_script(&mut schema, FIG_2_3_DDL).unwrap();
        assert_eq!(schema.atom_types().len(), 5);
        assert!(schema.molecule_type("piece_list").is_some());
        assert!(schema.molecule_type("brep_obj").is_some());
        // The solid type has the recursive n:m association.
        let solid = schema.type_by_name("solid").unwrap();
        assert!(solid.attribute("sub").unwrap().ty.is_ref_set());
        // hull shorthand became ARRAY(3) OF REAL.
        let brep = schema.type_by_name("brep").unwrap();
        assert_eq!(
            brep.attribute("hull").unwrap().ty,
            AttrType::Array(Box::new(AttrType::Real), 3)
        );
        // Cardinality restrictions parsed.
        let face = schema.type_by_name("face").unwrap();
        match &face.attribute("border").unwrap().ty {
            AttrType::RefSet(_, c) => assert_eq!(*c, Cardinality::var(3)),
            _ => panic!(),
        }
    }

    #[test]
    fn unknown_type_keyword_rejected() {
        assert!(parse_ddl("CREATE ATOM_TYPE x (a: FLOAT32)").is_err());
    }

    #[test]
    fn script_with_multiple_statements() {
        let stmts = parse_script(
            "CREATE ATOM_TYPE a (id: IDENTIFIER); CREATE ATOM_TYPE b (id: IDENTIFIER);",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn asymmetric_script_rejected_at_load() {
        let mut schema = Schema::new();
        let err = load_script(
            &mut schema,
            "CREATE ATOM_TYPE a (id: IDENTIFIER, b_ref: REF_TO (b.missing));
             CREATE ATOM_TYPE b (id: IDENTIFIER);",
        )
        .unwrap_err();
        assert!(matches!(err, DdlError::Schema(_)));
    }
}
