//! # prima-access — the Access System of the PRIMA kernel
//!
//! The middle layer of Fig. 3.1: an **atom-oriented interface** which —
//! like System R's RSS \[As76\] — "allows for retrieval and update of single
//! atoms" plus scan-based set access (Section 3.2 of the paper).
//!
//! Responsibilities implemented here:
//!
//! * **Logical addresses** (surrogates): generated on insert, released on
//!   delete; they implement `IDENTIFIER` and `REFERENCE` attributes
//!   ([`prima_mad::AtomId`], [`addressing`]).
//! * **System-enforced referential integrity**: updating a reference
//!   attribute implies implicit updates of the back-references in the
//!   referenced atoms ([`integrity`]).
//! * **Physical records**: variable-length byte strings in page
//!   containers; the atom↔record mapping is **n:m** because tuning
//!   structures replicate atoms ([`record_file`], [`addressing`]).
//! * **Tuning structures**, installed/dropped at any time via LDL and
//!   transparent at the MAD interface:
//!   [`partition`]s (vertical splits), [`sort_order`]s (redundant sorted
//!   record lists), [`btree`] and [`multidim`] access paths, and
//!   [`cluster`]s (atom clusters materialising molecules in page
//!   sequences, Fig. 3.2). One registry holds them all as [`Structure`]s
//!   and keeps them up to date through one maintenance path
//!   ([`structures`]).
//! * **Deferred update**: "during an update operation only one physical
//!   record is modified whereas all others are modified later"
//!   ([`deferred`]).
//! * **Scans** with a current position and NEXT/PRIOR navigation:
//!   atom-type scan, sort scan, access-path scan, atom-cluster-type scan
//!   and atom-cluster scan ([`scan`]).
//!
//! The facade tying these together is [`AccessSystem`]
//! ([`access_system`]: type stores, records, reads, writes and
//! back-references).

pub mod access_system;
pub mod addressing;
pub mod atom;
pub mod btree;
pub mod cluster;
pub mod deferred;
pub mod error;
pub mod integrity;
pub mod multidim;
pub mod partition;
pub mod record_file;
pub mod scan;
pub mod sort_order;
pub mod ssa;
pub mod structures;

pub use access_system::{AccessStats, AccessStatsSnapshot, AccessSystem, OnPreWrite, PreWrite, StructureId};
pub use structures::{Structure, UpdatePolicy};
pub use atom::{Atom, AtomRefs, Values};
pub use error::{AccessError, AccessResult};
pub use ssa::{CmpOp, Ssa};
