//! Recursive-descent parser for MQL.
//!
//! The grammar is reconstructed from the paper's examples; every query of
//! Table 2.1 parses verbatim (including the `(* comments *)`), as the
//! tests at the bottom of this file demonstrate.

use super::ast::*;
use super::lexer::{lex, ParseError, Token, TokenKind};
use crate::schema::{MoleculeGraph, MoleculeNode};
use crate::value::Value;

/// Names of a statement's parameter slots, in slot order: `None` for a
/// positional `?`, `Some(name)` for `:name` (each distinct name owns one
/// slot no matter how often it occurs).
pub type ParamSlots = Vec<Option<String>>;

/// Parses one MQL statement.
pub fn parse_statement(src: &str) -> Result<Statement, ParseError> {
    Ok(parse_statement_params(src)?.0)
}

/// Parses one MQL statement together with its parameter-slot table
/// (prepared statements; `?` allocates slots in order of appearance,
/// `:name` unifies repeated occurrences of the same name).
pub fn parse_statement_params(src: &str) -> Result<(Statement, ParamSlots), ParseError> {
    let run = || -> Result<(Statement, ParamSlots), ParseError> {
        let mut p = Parser::new(src)?;
        let stmt = p.statement()?;
        p.expect_eof()?;
        Ok((stmt, p.params))
    };
    run().map_err(|e| e.locate(src))
}

/// A statement parsed with its literals lifted into parameter slots:
/// the statement a plan cache compiles once for every text that differs
/// from it only in those literals ([`parse_statement_lifted`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LiftedStatement {
    pub statement: Statement,
    /// Every slot, lifted literals and the text's own `?` / `:name`
    /// placeholders alike, in slot order.
    pub params: ParamSlots,
    /// One entry per literal token of the source (integer, real or
    /// string), in source order: the slot it was lifted into, or `None`
    /// where it stays in the statement verbatim.
    pub literal_slots: Vec<Option<u16>>,
}

/// Parses one MQL statement, lifting each literal that stands where the
/// parser also takes a parameter — a comparison operand or a DML value —
/// into a slot of its own. Three kinds of literal stay verbatim: one
/// inside a qualified projection (validation takes no parameter there),
/// one whose sign the parser folds (`-5`), and one in a position that
/// takes no parameter (`EXISTS_AT_LEAST (2)`, a recursion level).
pub fn parse_statement_lifted(src: &str) -> Result<LiftedStatement, ParseError> {
    let run = || -> Result<LiftedStatement, ParseError> {
        let mut p = Parser::new(src)?;
        p.lift = true;
        let statement = p.statement()?;
        p.expect_eof()?;
        let mut lifted = p.lifted.iter().copied().peekable();
        let literal_slots = p
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind.is_literal())
            .map(|(at, _)| lifted.next_if(|(pos, _)| *pos == at).map(|(_, slot)| slot))
            .collect();
        Ok(LiftedStatement { statement, params: p.params, literal_slots })
    };
    run().map_err(|e| e.locate(src))
}

pub(crate) struct Parser {
    pub tokens: Vec<Token>,
    pub pos: usize,
    /// Parameter slot table: `None` = positional `?`, `Some(name)` =
    /// named `:name` (repeated names share their slot).
    pub params: ParamSlots,
    /// Whether literals in parameter positions become slots
    /// ([`parse_statement_lifted`]).
    lift: bool,
    /// `(token index, slot)` of every literal lifted so far.
    lifted: Vec<(usize, u16)>,
}

impl Parser {
    pub(crate) fn new(src: &str) -> Result<Parser, ParseError> {
        let tokens = lex(src)?;
        Ok(Parser { tokens, pos: 0, params: Vec::new(), lift: false, lifted: Vec::new() })
    }

    pub(crate) fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    pub(crate) fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    pub(crate) fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    pub(crate) fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(crate) fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(ParseError::new(format!("expected '{kw}', found '{}'", self.peek()), self.offset()))
        }
    }

    pub(crate) fn eat(&mut self, k: &TokenKind) -> bool {
        if self.peek() == k {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(crate) fn expect(&mut self, k: TokenKind) -> Result<(), ParseError> {
        if self.eat(&k) {
            Ok(())
        } else {
            Err(ParseError::new(format!("expected '{k}', found '{}'", self.peek()), self.offset()))
        }
    }

    pub(crate) fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => {
                Err(ParseError::new(format!("expected identifier, found '{other}'"), self.offset()))
            }
        }
    }

    pub(crate) fn expect_eof(&mut self) -> Result<(), ParseError> {
        // Trailing semicolon is permitted.
        self.eat(&TokenKind::Semicolon);
        if self.peek() == &TokenKind::Eof {
            Ok(())
        } else {
            Err(ParseError::new(format!("unexpected trailing '{}'", self.peek()), self.offset()))
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.peek().is_kw("select") {
            Ok(Statement::Select(self.select()?))
        } else if self.peek().is_kw("insert") {
            Ok(Statement::Insert(self.insert()?))
        } else if self.peek().is_kw("delete") {
            Ok(Statement::Delete(self.delete()?))
        } else if self.peek().is_kw("modify") {
            Ok(Statement::Modify(self.modify()?))
        } else {
            Err(ParseError::new(
                format!("expected SELECT/INSERT/DELETE/MODIFY, found '{}'", self.peek()),
                self.offset(),
            ))
        }
    }

    // ---------------------------------------------------------------
    // SELECT
    // ---------------------------------------------------------------

    fn select(&mut self) -> Result<Query, ParseError> {
        self.expect_kw("select")?;
        let select = if self.peek().is_kw("all") && self.peek_at(1).is_kw("from") {
            self.bump();
            SelectList::All
        } else {
            let mut items = vec![self.select_item()?];
            while self.eat(&TokenKind::Comma) {
                items.push(self.select_item()?);
            }
            SelectList::Items(items)
        };
        self.expect_kw("from")?;
        let from = FromClause::Structure(self.from_structure()?);
        let predicate =
            if self.eat_kw("where") { Some(self.predicate()?) } else { None };
        Ok(Query { select, from, predicate })
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat(&TokenKind::LParen) {
            let mut items = vec![self.select_item()?];
            while self.eat(&TokenKind::Comma) {
                items.push(self.select_item()?);
            }
            self.expect(TokenKind::RParen)?;
            return Ok(SelectItem::Group(items));
        }
        let name = self.ident()?;
        if self.eat(&TokenKind::Assign) {
            // qualified projection: name := SELECT … — validation takes
            // no parameter here, so its literals are never lifted.
            let lift = std::mem::replace(&mut self.lift, false);
            let q = self.select();
            self.lift = lift;
            return Ok(SelectItem::Qualified { component: name, query: Box::new(q?) });
        }
        if self.eat(&TokenKind::Dot) {
            let attr = self.ident()?;
            return Ok(SelectItem::Attr(CompRef {
                component: Some(name),
                level: None,
                attr,
            }));
        }
        // Bare name: component or root attribute — validation decides.
        Ok(SelectItem::Component(name))
    }

    // ---------------------------------------------------------------
    // FROM structure expressions
    // ---------------------------------------------------------------

    /// Parses `a[.attr]-b (c, d)-…` chains with branches and the
    /// `(RECURSIVE)` marker.
    #[allow(clippy::wrong_self_convention)] // parses a FROM clause, not a conversion
    pub(crate) fn from_structure(&mut self) -> Result<MoleculeGraph, ParseError> {
        let root = self.structure_chain()?;
        Ok(MoleculeGraph::new(root))
    }

    fn structure_chain(&mut self) -> Result<MoleculeNode, ParseError> {
        let name = self.ident()?;
        let mut node = MoleculeNode::leaf(name);
        // Suffix: recursion marker or branch.
        if self.peek() == &TokenKind::LParen {
            if self.peek_at(1).is_kw("recursive") {
                self.bump(); // (
                self.bump(); // recursive
                self.expect(TokenKind::RParen)?;
                node.recursive = true;
            } else {
                self.bump(); // (
                let mut children = vec![self.structure_chain()?];
                while self.eat(&TokenKind::Comma) {
                    children.push(self.structure_chain()?);
                }
                self.expect(TokenKind::RParen)?;
                node.children = children;
                return Ok(node);
            }
        }
        // Via-attribute for the next component: `solid.sub - solid`.
        let mut via: Option<String> = None;
        if self.peek() == &TokenKind::Dot {
            self.bump();
            via = Some(self.ident()?);
        }
        if self.eat(&TokenKind::Minus) {
            let mut child = self.structure_chain()?;
            child.via_attr = via;
            node.children.push(child);
        } else if via.is_some() {
            return Err(ParseError::new(
                "dangling '.attr' without '-' continuation in FROM".to_string(),
                self.offset(),
            ));
        }
        Ok(node)
    }

    // ---------------------------------------------------------------
    // Predicates
    // ---------------------------------------------------------------

    pub(crate) fn predicate(&mut self) -> Result<Predicate, ParseError> {
        self.or_expr()
    }

    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn or_expr(&mut self) -> Result<Predicate, ParseError> {
        let mut terms = vec![self.and_expr()?];
        while self.eat_kw("or") {
            terms.push(self.and_expr()?);
        }
        // lint: allow(error-hygiene, pop after len == 1 check in the same expression)
        Ok(if terms.len() == 1 { terms.pop().unwrap() } else { Predicate::Or(terms) })
    }

    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn and_expr(&mut self) -> Result<Predicate, ParseError> {
        let mut terms = vec![self.not_expr()?];
        while self.eat_kw("and") {
            terms.push(self.not_expr()?);
        }
        // lint: allow(error-hygiene, pop after len == 1 check in the same expression)
        Ok(if terms.len() == 1 { terms.pop().unwrap() } else { Predicate::And(terms) })
    }

    fn not_expr(&mut self) -> Result<Predicate, ParseError> {
        if self.eat_kw("not") {
            return Ok(Predicate::Not(Box::new(self.not_expr()?)));
        }
        // Quantifiers.
        if self.peek().is_kw("exists_at_least") {
            self.bump();
            self.expect(TokenKind::LParen)?;
            let n = match self.bump() {
                TokenKind::Int(i) if i >= 0 => i as u32,
                other => {
                    return Err(ParseError::new(
                        format!("expected count, found '{other}'"),
                        self.offset(),
                    ))
                }
            };
            self.expect(TokenKind::RParen)?;
            let component = self.ident()?;
            self.expect(TokenKind::Colon)?;
            let inner = self.not_expr()?;
            return Ok(Predicate::ExistsAtLeast { n, component, inner: Box::new(inner) });
        }
        if self.peek().is_kw("for_all") || self.peek().is_kw("all") {
            // `ALL component: pred` — the ALL-quantifier.
            if self.peek_at(1).ident().is_some() && self.peek_at(2) == &TokenKind::Colon {
                self.bump();
                let component = self.ident()?;
                self.expect(TokenKind::Colon)?;
                let inner = self.not_expr()?;
                return Ok(Predicate::ForAll { component, inner: Box::new(inner) });
            }
        }
        // Parenthesised predicate (operands never start with '(').
        if self.peek() == &TokenKind::LParen {
            self.bump();
            let p = self.predicate()?;
            self.expect(TokenKind::RParen)?;
            return Ok(p);
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Predicate, ParseError> {
        let left = self.operand()?;
        let op = match self.bump() {
            TokenKind::Eq => CompareOp::Eq,
            TokenKind::Ne => CompareOp::Ne,
            TokenKind::Lt => CompareOp::Lt,
            TokenKind::Le => CompareOp::Le,
            TokenKind::Gt => CompareOp::Gt,
            TokenKind::Ge => CompareOp::Ge,
            other => {
                return Err(ParseError::new(
                    format!("expected comparison operator, found '{other}'"),
                    self.offset(),
                ))
            }
        };
        // `x = EMPTY` / `x <> EMPTY`
        if self.peek().is_kw("empty") {
            self.bump();
            let r = match left {
                Operand::Ref(r) => r,
                Operand::Literal(_) | Operand::Param(_) => {
                    return Err(ParseError::new(
                        "EMPTY test requires an attribute reference".to_string(),
                        self.offset(),
                    ))
                }
            };
            return Ok(match op {
                CompareOp::Eq => Predicate::IsEmpty(r),
                CompareOp::Ne => Predicate::NotEmpty(r),
                _ => {
                    return Err(ParseError::new(
                        "EMPTY supports only = and <>".to_string(),
                        self.offset(),
                    ))
                }
            });
        }
        let right = self.operand()?;
        Ok(Predicate::Compare { left, op, right })
    }

    /// Allocates (or reuses, for repeated `:name`s) a parameter slot.
    fn param_slot(&mut self, name: Option<String>) -> Result<u16, ParseError> {
        if let Some(n) = &name {
            if let Some(i) =
                self.params.iter().position(|p| p.as_deref() == Some(n.as_str()))
            {
                return Ok(i as u16);
            }
        }
        let i = self.params.len();
        if i > u16::MAX as usize {
            return Err(ParseError::new("too many parameters", self.offset()));
        }
        self.params.push(name);
        Ok(i as u16)
    }

    /// Parses a parameter placeholder if one starts here: `?` or `:name`
    /// (the colon form is only meaningful in value positions, where a bare
    /// colon is otherwise invalid).
    fn try_param(&mut self) -> Result<Option<u16>, ParseError> {
        match self.peek() {
            TokenKind::Question => {
                self.bump();
                Ok(Some(self.param_slot(None)?))
            }
            TokenKind::Colon => {
                self.bump();
                let name = self.ident()?;
                Ok(Some(self.param_slot(Some(name))?))
            }
            _ => Ok(None),
        }
    }

    /// A literal or a parameter placeholder (DML value positions).
    fn value_expr(&mut self) -> Result<ValueExpr, ParseError> {
        if let Some(slot) = self.try_param()? {
            return Ok(ValueExpr::Param(slot));
        }
        if let Some(slot) = self.try_lift()? {
            return Ok(ValueExpr::Param(slot));
        }
        Ok(ValueExpr::Lit(self.literal()?))
    }

    /// When lifting, turns an unsigned literal in a parameter position
    /// into a slot of its own.
    fn try_lift(&mut self) -> Result<Option<u16>, ParseError> {
        if !self.lift || !self.peek().is_literal() {
            return Ok(None);
        }
        let at = self.pos;
        self.bump();
        let slot = self.param_slot(None)?;
        self.lifted.push((at, slot));
        Ok(Some(slot))
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        if let Some(slot) = self.try_param()? {
            return Ok(Operand::Param(slot));
        }
        if let Some(slot) = self.try_lift()? {
            return Ok(Operand::Param(slot));
        }
        match self.peek().clone() {
            TokenKind::Int(_) | TokenKind::Real(_) | TokenKind::Str(_) | TokenKind::Minus => {
                Ok(Operand::Literal(self.literal()?))
            }
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("true") || name.eq_ignore_ascii_case("false") {
                    return Ok(Operand::Literal(self.literal()?));
                }
                self.bump();
                // `name (level).attr` | `name.attr` | `name`
                let mut level = None;
                if self.peek() == &TokenKind::LParen {
                    if let TokenKind::Int(l) = self.peek_at(1).clone() {
                        if self.peek_at(2) == &TokenKind::RParen {
                            self.bump();
                            self.bump();
                            self.bump();
                            level = Some(l as u32);
                        }
                    }
                }
                if self.eat(&TokenKind::Dot) {
                    let attr = self.ident()?;
                    Ok(Operand::Ref(CompRef { component: Some(name), level, attr }))
                } else if level.is_some() {
                    Err(ParseError::new(
                        "component level reference needs '.attr'".to_string(),
                        self.offset(),
                    ))
                } else {
                    Ok(Operand::Ref(CompRef { component: None, level: None, attr: name }))
                }
            }
            other => Err(ParseError::new(
                format!("expected operand, found '{other}'"),
                self.offset(),
            )),
        }
    }

    pub(crate) fn literal(&mut self) -> Result<Value, ParseError> {
        let neg = self.eat(&TokenKind::Minus);
        match self.bump() {
            TokenKind::Int(i) => Ok(Value::Int(if neg { -i } else { i })),
            TokenKind::Real(r) => Ok(Value::Real(if neg { -r } else { r })),
            TokenKind::Str(s) if !neg => Ok(Value::Str(s)),
            TokenKind::Ident(s) if !neg && s.eq_ignore_ascii_case("true") => {
                Ok(Value::Bool(true))
            }
            TokenKind::Ident(s) if !neg && s.eq_ignore_ascii_case("false") => {
                Ok(Value::Bool(false))
            }
            other => Err(ParseError::new(
                format!("expected literal, found '{other}'"),
                self.offset(),
            )),
        }
    }

    // ---------------------------------------------------------------
    // DML
    // ---------------------------------------------------------------

    fn insert(&mut self) -> Result<Insert, ParseError> {
        self.expect_kw("insert")?;
        let atom_type = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut assignments = Vec::new();
        loop {
            let attr = self.ident()?;
            self.expect(TokenKind::Colon)?;
            let v = self.value_expr()?;
            assignments.push((attr, v));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(Insert { atom_type, assignments })
    }

    fn delete(&mut self) -> Result<Delete, ParseError> {
        self.expect_kw("delete")?;
        let only_components = if self.eat_kw("only") {
            self.expect(TokenKind::LParen)?;
            let mut names = vec![self.ident()?];
            while self.eat(&TokenKind::Comma) {
                names.push(self.ident()?);
            }
            self.expect(TokenKind::RParen)?;
            Some(names)
        } else {
            None
        };
        self.expect_kw("from")?;
        let from = FromClause::Structure(self.from_structure()?);
        let predicate = if self.eat_kw("where") { Some(self.predicate()?) } else { None };
        Ok(Delete { from, predicate, only_components })
    }

    fn modify(&mut self) -> Result<Modify, ParseError> {
        self.expect_kw("modify")?;
        let from = FromClause::Structure(self.from_structure()?);
        self.expect_kw("set")?;
        let mut assignments = Vec::new();
        loop {
            let first = self.ident()?;
            let target = if self.eat(&TokenKind::Dot) {
                let attr = self.ident()?;
                CompRef { component: Some(first), level: None, attr }
            } else {
                CompRef { component: None, level: None, attr: first }
            };
            self.expect(TokenKind::Eq)?;
            let expr = if self.eat_kw("connect") {
                self.expect(TokenKind::LParen)?;
                let q = self.select()?;
                self.expect(TokenKind::RParen)?;
                SetExpr::Connect(Box::new(q))
            } else if self.eat_kw("disconnect") {
                self.expect(TokenKind::LParen)?;
                let q = self.select()?;
                self.expect(TokenKind::RParen)?;
                SetExpr::Disconnect(Box::new(q))
            } else {
                SetExpr::Value(self.value_expr()?)
            };
            assignments.push((target, expr));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let predicate = if self.eat_kw("where") { Some(self.predicate()?) } else { None };
        Ok(Modify { from, predicate, assignments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a FROM-clause structure expression on its own.
    fn parse_structure(src: &str) -> Result<MoleculeGraph, ParseError> {
        let run = || -> Result<MoleculeGraph, ParseError> {
            let mut p = Parser::new(src)?;
            let g = p.from_structure()?;
            p.expect_eof()?;
            Ok(g)
        };
        run().map_err(|e| e.locate(src))
    }

    /// Parses a SELECT query.
    fn parse_query(src: &str) -> Result<Query, ParseError> {
        match parse_statement(src)? {
            Statement::Select(q) => Ok(q),
            other => Err(ParseError::new(
                format!("expected a SELECT query, found {other:?}"),
                0,
            )
            .locate(src)),
        }
    }

    // -----------------------------------------------------------------
    // The four queries of Table 2.1, verbatim from the paper.
    // -----------------------------------------------------------------

    #[test]
    fn table_2_1a_vertical_network_access() {
        let q = parse_query(
            "SELECT ALL\nFROM brep-face-edge-point\nWHERE brep_no = 1713 (* qualification *)",
        )
        .unwrap();
        assert_eq!(q.select, SelectList::All);
        assert_eq!(
            q.from.graph().component_names(),
            vec!["brep", "face", "edge", "point"]
        );
        match q.predicate.unwrap() {
            Predicate::Compare { left: Operand::Ref(r), op: CompareOp::Eq, right } => {
                assert_eq!(r.attr, "brep_no");
                assert_eq!(right, Operand::Literal(Value::Int(1713)));
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn table_2_1b_recursive_access() {
        let q = parse_query(
            "SELECT ALL (* pre-defined molecule type *)\nFROM piece_list\nWHERE piece_list (0).solid_no = 4711 (* seed qualification *)",
        )
        .unwrap();
        assert_eq!(q.from.graph().component_names(), vec!["piece_list"]);
        match q.predicate.unwrap() {
            Predicate::Compare { left: Operand::Ref(r), .. } => {
                assert_eq!(r.component.as_deref(), Some("piece_list"));
                assert_eq!(r.level, Some(0));
                assert_eq!(r.attr, "solid_no");
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn table_2_1c_horizontal_access() {
        let q = parse_query(
            "SELECT solid_no, description (* unqualified projection *)\nFROM solid\nWHERE sub = EMPTY",
        )
        .unwrap();
        match &q.select {
            SelectList::Items(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0], SelectItem::Component("solid_no".into()));
            }
            other => panic!("unexpected select {other:?}"),
        }
        assert!(matches!(q.predicate.unwrap(), Predicate::IsEmpty(r) if r.attr == "sub"));
    }

    #[test]
    fn table_2_1d_miscellaneous_query() {
        let src = "SELECT edge, (point, (* unqualified projection p1 *)\n\
                    face := SELECT face_id, square_dim\n\
                    FROM face (* qualified projection q3, p2 *)\n\
                    WHERE square_dim > 1.9E4)\n\
                    FROM brep-edge (face, point)\n\
                    WHERE brep_no = 1713 (* qualification q1 *)\n\
                    AND\n\
                    EXISTS_AT_LEAST (2) edge: edge.length > 1.0E2\n\
                    (* quantified restriction q2 *)";
        let q = parse_query(src).unwrap();
        // SELECT list: edge, (point, face := …)
        let SelectList::Items(items) = &q.select else { panic!("items expected") };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0], SelectItem::Component("edge".into()));
        let SelectItem::Group(inner) = &items[1] else { panic!("group expected") };
        assert_eq!(inner[0], SelectItem::Component("point".into()));
        let SelectItem::Qualified { component, query } = &inner[1] else {
            panic!("qualified projection expected")
        };
        assert_eq!(component, "face");
        assert!(matches!(
            query.predicate.as_ref().unwrap(),
            Predicate::Compare { op: CompareOp::Gt, .. }
        ));
        // FROM: brep-edge (face, point)
        let g = q.from.graph();
        assert_eq!(g.root.component, "brep");
        assert_eq!(g.root.children[0].component, "edge");
        assert_eq!(g.root.children[0].children.len(), 2);
        // WHERE: conjunction with a quantifier.
        let Predicate::And(terms) = q.predicate.unwrap() else { panic!("AND expected") };
        assert!(matches!(
            &terms[1],
            Predicate::ExistsAtLeast { n: 2, component, .. } if component == "edge"
        ));
    }

    // -----------------------------------------------------------------
    // Structure expressions
    // -----------------------------------------------------------------

    #[test]
    fn recursive_structure_with_via() {
        let g = parse_structure("solid.sub - solid (recursive)").unwrap();
        assert_eq!(g.root.component, "solid");
        let child = &g.root.children[0];
        assert_eq!(child.component, "solid");
        assert_eq!(child.via_attr.as_deref(), Some("sub"));
        assert!(child.recursive);
        assert!(g.is_recursive());
    }

    #[test]
    fn dangling_via_rejected() {
        assert!(parse_structure("solid.sub").is_err());
    }

    #[test]
    fn nested_branching() {
        let g = parse_structure("a-b (c-d, e)").unwrap();
        let b = &g.root.children[0];
        assert_eq!(b.component, "b");
        assert_eq!(b.children.len(), 2);
        assert_eq!(b.children[0].component, "c");
        assert_eq!(b.children[0].children[0].component, "d");
        assert_eq!(b.children[1].component, "e");
    }

    // -----------------------------------------------------------------
    // Predicates
    // -----------------------------------------------------------------

    #[test]
    fn boolean_precedence_and_not() {
        let q =
            parse_query("SELECT ALL FROM s WHERE a = 1 OR b = 2 AND NOT c = 3").unwrap();
        let Predicate::Or(terms) = q.predicate.unwrap() else { panic!("OR at top") };
        assert_eq!(terms.len(), 2);
        assert!(matches!(&terms[1], Predicate::And(inner) if inner.len() == 2));
    }

    #[test]
    fn parenthesised_predicates() {
        let q = parse_query("SELECT ALL FROM s WHERE (a = 1 OR b = 2) AND c = 3").unwrap();
        let Predicate::And(terms) = q.predicate.unwrap() else { panic!("AND at top") };
        assert!(matches!(&terms[0], Predicate::Or(_)));
    }

    #[test]
    fn for_all_quantifier() {
        let q = parse_query("SELECT ALL FROM s-e WHERE ALL e: e.length > 0.5").unwrap();
        assert!(matches!(q.predicate.unwrap(), Predicate::ForAll { component, .. } if component == "e"));
    }

    #[test]
    fn negative_literals_and_strings() {
        let q = parse_query("SELECT ALL FROM s WHERE x = -5 AND name = 'cube'").unwrap();
        let Predicate::And(terms) = q.predicate.unwrap() else { panic!() };
        assert!(matches!(
            &terms[0],
            Predicate::Compare { right: Operand::Literal(Value::Int(-5)), .. }
        ));
        assert!(matches!(
            &terms[1],
            Predicate::Compare { right: Operand::Literal(Value::Str(s)), .. } if s == "cube"
        ));
    }

    // -----------------------------------------------------------------
    // DML
    // -----------------------------------------------------------------

    #[test]
    fn insert_statement() {
        let s = parse_statement("INSERT solid (solid_no: 4711, description: 'cube')").unwrap();
        let Statement::Insert(i) = s else { panic!() };
        assert_eq!(i.atom_type, "solid");
        assert_eq!(i.assignments[0], ("solid_no".into(), ValueExpr::Lit(Value::Int(4711))));
    }

    // -----------------------------------------------------------------
    // Parameter placeholders (prepared statements)
    // -----------------------------------------------------------------

    #[test]
    fn positional_parameters_allocate_slots_in_order() {
        let (s, slots) = parse_statement_params(
            "SELECT ALL FROM brep-face WHERE brep_no = ? AND face.square_dim > ?",
        )
        .unwrap();
        assert_eq!(slots, vec![None, None]);
        let Statement::Select(q) = s else { panic!() };
        let Predicate::And(terms) = q.predicate.unwrap() else { panic!() };
        assert!(matches!(
            &terms[0],
            Predicate::Compare { right: Operand::Param(0), .. }
        ));
        assert!(matches!(
            &terms[1],
            Predicate::Compare { right: Operand::Param(1), .. }
        ));
    }

    #[test]
    fn named_parameters_share_slots() {
        let (_, slots) = parse_statement_params(
            "SELECT ALL FROM s WHERE a = :v OR b = :v AND c = :w",
        )
        .unwrap();
        assert_eq!(slots, vec![Some("v".into()), Some("w".into())]);
    }

    #[test]
    fn parameters_in_dml_value_positions() {
        let (s, slots) =
            parse_statement_params("INSERT solid (solid_no: ?, description: :d)").unwrap();
        assert_eq!(slots.len(), 2);
        let Statement::Insert(i) = s else { panic!() };
        assert_eq!(i.assignments[0].1, ValueExpr::Param(0));
        assert_eq!(i.assignments[1].1, ValueExpr::Param(1));
        let (s, slots) =
            parse_statement_params("MODIFY solid SET description = ? WHERE solid_no = ?").unwrap();
        assert_eq!(slots.len(), 2);
        let Statement::Modify(m) = s else { panic!() };
        assert_eq!(m.assignments[0].1, SetExpr::Value(ValueExpr::Param(0)));
    }

    #[test]
    fn lifting_turns_parameter_position_literals_into_slots() {
        let l = parse_statement_lifted(
            "MODIFY solid SET description = 'x', sub = CONNECT (SELECT ALL FROM solid WHERE solid_no = 2) WHERE solid_no = -7 OR size > 1.5",
        )
        .unwrap();
        // 'x', 2 and 1.5 are lifted; the folded -7 stays.
        assert_eq!(l.literal_slots, vec![Some(0), Some(1), None, Some(2)]);
        assert_eq!(l.params, vec![None, None, None]);
        let Statement::Modify(m) = &l.statement else { panic!() };
        assert_eq!(m.assignments[0].1, SetExpr::Value(ValueExpr::Param(0)));
        let Some(Predicate::Or(terms)) = &m.predicate else { panic!() };
        assert!(matches!(
            &terms[0],
            Predicate::Compare { right: Operand::Literal(Value::Int(-7)), .. }
        ));
        assert!(matches!(&terms[1], Predicate::Compare { right: Operand::Param(2), .. }));
    }

    #[test]
    fn lifting_keeps_literals_where_no_parameter_goes() {
        let l = parse_statement_lifted(
            "SELECT edge, face := SELECT face_id FROM face WHERE square_dim > 1.9E4 FROM brep-edge-face WHERE brep_no = 1713 AND EXISTS_AT_LEAST (2) edge: edge.length > 1.0E2",
        )
        .unwrap();
        // Qualified projection, quantifier count: verbatim; the WHERE
        // comparisons (the quantifier body's too): lifted.
        assert_eq!(l.literal_slots, vec![None, Some(0), None, Some(1)]);
        let l = parse_statement_lifted(
            "SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = 4711",
        )
        .unwrap();
        assert_eq!(l.literal_slots, vec![None, Some(0)]);
        // The text's own placeholders share the slot numbering.
        let l = parse_statement_lifted("SELECT ALL FROM s WHERE a = ? AND b = 'v'").unwrap();
        assert_eq!((l.params.len(), l.literal_slots), (2, vec![Some(1)]));
    }

    #[test]
    fn parser_errors_carry_line_and_column() {
        let err = parse_query("SELECT ALL\nFROM s\nWHERE = 1").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn delete_statement_with_only() {
        let s =
            parse_statement("DELETE ONLY (edge, point) FROM brep-face-edge-point WHERE brep_no = 1")
                .unwrap();
        let Statement::Delete(d) = s else { panic!() };
        assert_eq!(d.only_components.unwrap(), vec!["edge".to_string(), "point".to_string()]);
        assert!(d.predicate.is_some());
    }

    #[test]
    fn modify_statement_with_connect() {
        let s = parse_statement(
            "MODIFY solid SET description = 'renamed', sub = CONNECT (SELECT ALL FROM solid WHERE solid_no = 2) WHERE solid_no = 1",
        )
        .unwrap();
        let Statement::Modify(m) = s else { panic!() };
        assert_eq!(m.assignments.len(), 2);
        assert!(matches!(m.assignments[1].1, SetExpr::Connect(_)));
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_query("SELECT ALL FROM s;").is_ok());
        assert!(parse_query("SELECT ALL FROM s extra").is_err());
    }
}
