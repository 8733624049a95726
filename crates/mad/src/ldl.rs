//! LDL — the load definition language (Section 2.3).
//!
//! "We have defined a load definition language (LDL) used by the database
//! administrator to provide some 'hints' for the access system which is
//! responsible for the creation of appropriate storage structures,
//! tailored access paths, and special tuning mechanisms." The paper lists
//! the four mechanisms (access methods, partitions, sort orders,
//! physical clusters) but gives no concrete syntax; the statement forms
//! below are our reconstruction:
//!
//! ```text
//! CREATE ACCESS PATH ap_no ON solid (solid_no)
//! CREATE MULTIDIM ACCESS PATH ap_xyz ON point (x_coord, y_coord)
//! CREATE SORT ORDER so_len ON edge (length)
//! CREATE PARTITION p_head ON solid (solid_no, description)
//! CREATE ATOM_CLUSTER cl_brep ON brep (faces, edges, points) PAGESIZE 1K
//! DROP STRUCTURE ap_no
//! SET UPDATE POLICY DEFERRED
//! RECONCILE
//! ```

use crate::mql::lexer::{ParseError, TokenKind};
use crate::mql::parser::Parser;

/// Page-size names accepted by `PAGESIZE` (mirrors the storage system's
/// five sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdlPageSize {
    Half,
    K1,
    K2,
    K4,
    K8,
}

/// One LDL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum LdlStatement {
    /// `CREATE ACCESS PATH name ON type (attrs…)` — B*-tree.
    CreateAccessPath { name: String, atom_type: String, attrs: Vec<String> },
    /// `CREATE MULTIDIM ACCESS PATH name ON type (attrs…)` — grid file.
    CreateMultidimAccessPath { name: String, atom_type: String, attrs: Vec<String> },
    /// `CREATE SORT ORDER name ON type (attrs…)`.
    CreateSortOrder { name: String, atom_type: String, attrs: Vec<String> },
    /// `CREATE PARTITION name ON type (attrs…)`.
    CreatePartition { name: String, atom_type: String, attrs: Vec<String> },
    /// `CREATE ATOM_CLUSTER name ON char_type (ref attrs…) [PAGESIZE s]`.
    CreateAtomCluster {
        name: String,
        char_type: String,
        member_attrs: Vec<String>,
        page_size: Option<LdlPageSize>,
    },
    /// `DROP STRUCTURE name`.
    DropStructure { name: String },
    /// `SET UPDATE POLICY IMMEDIATE|DEFERRED`.
    SetUpdatePolicy { deferred: bool },
    /// `RECONCILE` — apply all pending deferred updates.
    Reconcile,
}

/// Parses a script of LDL statements.
pub fn parse_ldl_script(src: &str) -> Result<Vec<LdlStatement>, ParseError> {
    let run = || -> Result<Vec<LdlStatement>, ParseError> {
        let mut p = LdlParser { p: Parser::new(src)? };
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

struct LdlParser {
    p: Parser,
}

impl LdlParser {
    fn statement(&mut self) -> Result<LdlStatement, ParseError> {
        if self.p.eat_kw("create") {
            if self.p.eat_kw("access") {
                self.p.expect_kw("path")?;
                let (name, atom_type, attrs) = self.on_clause()?;
                return Ok(LdlStatement::CreateAccessPath { name, atom_type, attrs });
            }
            if self.p.eat_kw("multidim") {
                self.p.expect_kw("access")?;
                self.p.expect_kw("path")?;
                let (name, atom_type, attrs) = self.on_clause()?;
                return Ok(LdlStatement::CreateMultidimAccessPath { name, atom_type, attrs });
            }
            if self.p.eat_kw("sort") {
                self.p.expect_kw("order")?;
                let (name, atom_type, attrs) = self.on_clause()?;
                return Ok(LdlStatement::CreateSortOrder { name, atom_type, attrs });
            }
            if self.p.eat_kw("partition") {
                let (name, atom_type, attrs) = self.on_clause()?;
                return Ok(LdlStatement::CreatePartition { name, atom_type, attrs });
            }
            if self.p.eat_kw("atom_cluster") {
                let (name, char_type, member_attrs) = self.on_clause()?;
                let page_size = if self.p.eat_kw("pagesize") {
                    Some(self.page_size()?)
                } else {
                    None
                };
                return Ok(LdlStatement::CreateAtomCluster {
                    name,
                    char_type,
                    member_attrs,
                    page_size,
                });
            }
            return Err(ParseError::new(
                format!("unknown CREATE object '{}'", self.p.peek()),
                self.p.offset(),
            ));
        }
        if self.p.eat_kw("drop") {
            self.p.expect_kw("structure")?;
            let name = self.p.ident()?;
            return Ok(LdlStatement::DropStructure { name });
        }
        if self.p.eat_kw("set") {
            self.p.expect_kw("update")?;
            self.p.expect_kw("policy")?;
            if self.p.eat_kw("deferred") {
                return Ok(LdlStatement::SetUpdatePolicy { deferred: true });
            }
            self.p.expect_kw("immediate")?;
            return Ok(LdlStatement::SetUpdatePolicy { deferred: false });
        }
        if self.p.eat_kw("reconcile") {
            return Ok(LdlStatement::Reconcile);
        }
        Err(ParseError::new(
            format!("expected CREATE/DROP/SET/RECONCILE, found '{}'", self.p.peek()),
            self.p.offset(),
        ))
    }

    /// `name ON type (attr, …)`.
    fn on_clause(&mut self) -> Result<(String, String, Vec<String>), ParseError> {
        let name = self.p.ident()?;
        self.p.expect_kw("on")?;
        let atom_type = self.p.ident()?;
        self.p.expect(TokenKind::LParen)?;
        let mut attrs = vec![self.p.ident()?];
        while self.p.eat(&TokenKind::Comma) {
            attrs.push(self.p.ident()?);
        }
        self.p.expect(TokenKind::RParen)?;
        Ok((name, atom_type, attrs))
    }

    fn page_size(&mut self) -> Result<LdlPageSize, ParseError> {
        // Accept `1K`, `2K`, `4K`, `8K` (lexed as Int + Ident) and `HALF`.
        match self.p.bump() {
            TokenKind::Int(n) => {
                // The trailing K.
                let k = self.p.ident()?;
                if !k.eq_ignore_ascii_case("k") {
                    return Err(ParseError::new(
                        format!("expected K after page size, found '{k}'"),
                        self.p.offset(),
                    ));
                }
                match n {
                    1 => Ok(LdlPageSize::K1),
                    2 => Ok(LdlPageSize::K2),
                    4 => Ok(LdlPageSize::K4),
                    8 => Ok(LdlPageSize::K8),
                    other => Err(ParseError::new(
                        format!("unsupported page size {other}K"),
                        self.p.offset(),
                    )),
                }
            }
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("half") => Ok(LdlPageSize::Half),
            other => Err(ParseError::new(
                format!("expected page size, found '{other}'"),
                self.p.offset(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one LDL statement.
    fn parse_ldl(src: &str) -> Result<LdlStatement, ParseError> {
        let run = || -> Result<LdlStatement, ParseError> {
            let mut p = LdlParser { p: Parser::new(src)? };
            let s = p.statement()?;
            p.p.expect_eof()?;
            Ok(s)
        };
        run().map_err(|e| e.locate(src))
    }

    #[test]
    fn access_path() {
        let s = parse_ldl("CREATE ACCESS PATH ap_no ON solid (solid_no)").unwrap();
        assert_eq!(
            s,
            LdlStatement::CreateAccessPath {
                name: "ap_no".into(),
                atom_type: "solid".into(),
                attrs: vec!["solid_no".into()],
            }
        );
    }

    #[test]
    fn multidim_access_path() {
        let s =
            parse_ldl("CREATE MULTIDIM ACCESS PATH g ON point (x_coord, y_coord, z_coord)")
                .unwrap();
        assert!(matches!(
            s,
            LdlStatement::CreateMultidimAccessPath { attrs, .. } if attrs.len() == 3
        ));
    }

    #[test]
    fn sort_order_and_partition() {
        assert!(matches!(
            parse_ldl("CREATE SORT ORDER so ON edge (length)").unwrap(),
            LdlStatement::CreateSortOrder { .. }
        ));
        assert!(matches!(
            parse_ldl("CREATE PARTITION p ON solid (solid_no, description)").unwrap(),
            LdlStatement::CreatePartition { attrs, .. } if attrs.len() == 2
        ));
    }

    #[test]
    fn atom_cluster_with_page_size() {
        let s = parse_ldl("CREATE ATOM_CLUSTER cl ON brep (faces, edges, points) PAGESIZE 1K")
            .unwrap();
        assert!(matches!(
            s,
            LdlStatement::CreateAtomCluster { page_size: Some(LdlPageSize::K1), member_attrs, .. }
                if member_attrs.len() == 3
        ));
        let s = parse_ldl("CREATE ATOM_CLUSTER cl ON brep (faces) PAGESIZE HALF").unwrap();
        assert!(matches!(
            s,
            LdlStatement::CreateAtomCluster { page_size: Some(LdlPageSize::Half), .. }
        ));
    }

    #[test]
    fn drop_set_reconcile() {
        assert_eq!(
            parse_ldl("DROP STRUCTURE ap_no").unwrap(),
            LdlStatement::DropStructure { name: "ap_no".into() }
        );
        assert_eq!(
            parse_ldl("SET UPDATE POLICY DEFERRED").unwrap(),
            LdlStatement::SetUpdatePolicy { deferred: true }
        );
        assert_eq!(
            parse_ldl("SET UPDATE POLICY IMMEDIATE").unwrap(),
            LdlStatement::SetUpdatePolicy { deferred: false }
        );
        assert_eq!(parse_ldl("RECONCILE").unwrap(), LdlStatement::Reconcile);
    }

    #[test]
    fn script_parses_multiple() {
        let script = "CREATE ACCESS PATH a ON t (x);\nCREATE SORT ORDER b ON t (y);\nRECONCILE";
        assert_eq!(parse_ldl_script(script).unwrap().len(), 3);
    }

    #[test]
    fn bad_page_size_rejected() {
        assert!(parse_ldl("CREATE ATOM_CLUSTER c ON t (a) PAGESIZE 3K").is_err());
    }
}
