//! MQL — the Molecule Query Language (Section 2.2, Table 2.1).
//!
//! "The syntax of MQL follows the examples of SQL \[X3H286\] and its
//! derivates \[PA86, RKB85]." The language offers molecule retrieval
//! (`SELECT`/`FROM`/`WHERE` with dynamic molecule construction in the
//! FROM clause, qualified projection, quantifiers and recursion) and
//! molecule/component manipulation (`INSERT`, `DELETE`, `MODIFY` with
//! connect/disconnect semantics).

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{
    CompRef, CompareOp, Delete, FromClause, Insert, Modify, Operand, Predicate, Query,
    SelectItem, SelectList, SetExpr, Statement, ValueExpr,
};
pub use lexer::{lex, unescape, ParseError, Token, TokenKind, Tokens};
pub use parser::{
    parse_statement, parse_statement_lifted, parse_statement_params, LiftedStatement, ParamSlots,
};
