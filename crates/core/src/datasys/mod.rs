//! The data system: the top kernel layer of Fig. 3.1.
//!
//! "The main task of the data system is to perform the complex mapping of
//! the molecule-oriented interface onto the atom-oriented interface of
//! the access system. This is done by translating the user-submitted MQL
//! statements into an executable form (in terms of access system calls),
//! while preserving their original meaning." (Section 3.1.)
//!
//! The modular decomposition mirrors the paper's description of the
//! "modular data system" \[Fr86\]:
//!
//! * [`validate`](validate()) — query validation & modification (molecule-type
//!   resolution, structure resolution, predicate pushdown), applied to a
//!   whole statement once when it is compiled
//!   ([`plan_statement`](validate::plan_statement));
//! * [`plan`] — the internal representation (processing plan with
//!   functional descriptors), shared by every execution;
//! * [`exec`] — molecule management: root access selection, vertical
//!   assembly, cluster management, recursion, residual qualification,
//!   (qualified) projection;
//! * [`dml`] — molecule/component insertion, deletion, modification with
//!   connect/disconnect semantics;
//! * [`molecule`] — the molecule-set result representation.

pub mod dml;
pub mod exec;
pub mod molecule;
pub mod plan;
pub mod validate;

pub use dml::DmlResult;
pub use exec::{execute, AssemblyPool};
pub use molecule::{MolAtom, Molecule, MoleculeSet, NodeInfo};
pub use plan::{NodeProjection, PlanShape, ResolvedQuery, StatementPlan};
pub use validate::validate;
