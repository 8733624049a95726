//! Scans: navigational set access with a current position.
//!
//! "Effective processing of data system operations critically depends on
//! the availability of powerful navigational capabilities. This includes
//! the notion of a 'position' in a set of atoms […] scans are introduced
//! as a concept to control a dynamically defined set of atoms, to hold a
//! current position in such a set, and to successively accept single
//! atoms (NEXT/PRIOR) for further processing." (Section 3.2.)
//!
//! One cursor, [`Scan`], serves the five scans of the paper and the
//! partition scan. The kind of scan is chosen when it opens, by its
//! constructor; from then on one NEXT/PRIOR steps over the scan's rows
//! under one simple search argument (SSA) and one optional projection
//! ([`Scan::project`]).
//!
//! | scan | constructor | rows | order | module |
//! |------|-------------|------|-------|--------|
//! | atom-type scan | [`Scan::atom_type`] | base records, one page at a time | system-defined (physical) | [`atom_type`] |
//! | partition scan | [`Scan::partition`] | partition copies, one page at a time | system-defined (physical) | [`atom_type`] |
//! | sort scan | [`Scan::sort`] | sort-order copies, B*-tree ids or an explicit sort | key order | [`sort`] |
//! | access-path scan | [`Scan::access_path`], [`Scan::multidim`] | B*-tree or grid-file ids | key order, per-key directions | [`access_path`] |
//! | atom-cluster-type scan | [`Scan::cluster_type`] | characteristic atom ids | system-defined | [`cluster`] |
//! | atom-cluster scan | [`Scan::cluster`] | one cluster's members | system-defined | [`cluster`] |
//!
//! A row is one of three things:
//!
//! * an atom id, read from the atom's primary record when the cursor
//!   steps onto it;
//! * a redundant copy (a sort-order or partition record), used unless
//!   deferred update has left it stale — then the primary record is read
//!   instead;
//! * an atom that is already decoded.
//!
//! An atom that has been deleted since the scan opened is skipped when
//! its primary record is read: it is no longer in base. (Without locks a
//! snapshot reader races such deletes; its read guard delivers the
//! atom's visible version from the version store.)
//!
//! ## Position rules
//!
//! The position is before the first row, on a row, or after the last
//! row. NEXT past the end leaves it after the last row; PRIOR past the
//! start leaves it before the first. A scan exhausted in one direction
//! stays exhausted in that direction and steps back from where it stands
//! in the other. PRIOR on a freshly opened scan starts from the end.

pub mod access_path;
pub mod atom_type;
pub mod cluster;
pub mod sort;

pub use sort::SortSource;

use crate::access_system::AccessSystem;
use crate::atom::Atom;
use crate::cluster::AtomClusterType;
use crate::error::{AccessError, AccessResult};
use crate::ssa::Ssa;
use crate::StructureId;
use atom_type::Paged;
use prima_mad::codec::encode_composite_key;
use prima_mad::value::{AtomId, Value};
use std::borrow::Cow;
use std::ops::Bound;
use std::sync::Arc;

/// One row of a scan's set.
enum Row {
    /// An atom id: the atom is read from its primary record.
    Id(AtomId),
    /// A copy of an atom held in a redundant structure, used unless it is
    /// stale.
    Copy(StructureId, Atom),
    /// An atom already decoded.
    Atom(Atom),
}

/// The cursor of every scan. See the module docs.
pub struct Scan<'a> {
    sys: &'a AccessSystem,
    ssa: Ssa,
    projection: Option<Vec<usize>>,
    /// The record file a paged scan loads its rows from; `None` when all
    /// rows were loaded at open.
    paged: Option<Paged>,
    /// Page numbers of the paged file, taken at open.
    pages: Vec<u32>,
    /// Index in `pages` of the page whose rows `rows` holds.
    page: usize,
    rows: Vec<Row>,
    /// The row last stepped on: -1 before the first, `rows.len()` after
    /// the last.
    pos: isize,
    fresh: bool,
    sort_source: Option<SortSource>,
    cluster: Option<Arc<AtomClusterType>>,
}

impl<'a> Scan<'a> {
    /// A scan over `rows`, all loaded at open.
    fn over(sys: &'a AccessSystem, ssa: Ssa, rows: Vec<Row>) -> Self {
        Scan {
            sys,
            ssa,
            projection: None,
            paged: None,
            pages: Vec::new(),
            page: 0,
            rows,
            pos: -1,
            fresh: true,
            sort_source: None,
            cluster: None,
        }
    }

    /// Delivers only the attributes `attrs` of each qualifying atom (the
    /// SSA still sees the whole row).
    pub fn project(mut self, attrs: Vec<usize>) -> Self {
        self.projection = Some(attrs);
        self
    }

    /// NEXT: moves to the next qualifying atom and returns it. (No
    /// `Iterator`: NEXT can fail, and it pairs with PRIOR.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> AccessResult<Option<Atom>> {
        self.step(true)
    }

    /// PRIOR: moves to the previous qualifying atom and returns it.
    pub fn prior(&mut self) -> AccessResult<Option<Atom>> {
        self.step(false)
    }

    /// Drains the remainder of the scan forward.
    pub fn collect_remaining(&mut self) -> AccessResult<Vec<Atom>> {
        let mut out = Vec::new();
        while let Some(atom) = self.next()? {
            out.push(atom);
        }
        Ok(out)
    }

    /// Number of rows loaded, before SSA filtering: for a scan that is
    /// not paged, every entry its structure holds in range.
    pub fn candidate_count(&self) -> usize {
        self.rows.len()
    }

    /// Which strategy serves a sort scan; `None` for other scans.
    pub fn sort_source(&self) -> Option<SortSource> {
        self.sort_source
    }

    fn step(&mut self, forward: bool) -> AccessResult<Option<Atom>> {
        if std::mem::take(&mut self.fresh) {
            let first = if forward { 0 } else { self.pages.len().saturating_sub(1) };
            self.enter(first, forward)?;
        }
        loop {
            let pos = self.pos + if forward { 1 } else { -1 };
            let Some(row) = usize::try_from(pos).ok().and_then(|i| self.rows.get(i)) else {
                // Off this page's rows: on to the neighbouring page, or
                // stand past the end.
                let page = if forward { self.page + 1 } else { self.page.wrapping_sub(1) };
                if page >= self.pages.len() {
                    self.pos = if forward { self.rows.len() as isize } else { -1 };
                    return Ok(None);
                }
                self.enter(page, forward)?;
                continue;
            };
            self.pos = pos;
            if let Some(atom) = self.resolve(row)? {
                if self.ssa.eval(&atom) {
                    return Ok(Some(match &self.projection {
                        Some(p) => atom.project(p),
                        None => atom.into_owned(),
                    }));
                }
            }
        }
    }

    /// Loads the rows of page `page` (a paged scan) and stands before its
    /// first row (`forward`) or after its last.
    fn enter(&mut self, page: usize, forward: bool) -> AccessResult<()> {
        if let (Some(paged), Some(&page_no)) = (&self.paged, self.pages.get(page)) {
            self.rows = paged.rows(self.sys, page_no)?;
        }
        self.page = page;
        self.pos = if forward { -1 } else { self.rows.len() as isize };
        Ok(())
    }

    /// The atom at `row`, or `None` when it has been deleted since the
    /// scan opened.
    fn resolve<'r>(&self, row: &'r Row) -> AccessResult<Option<Cow<'r, Atom>>> {
        let id = match row {
            Row::Atom(atom) => return Ok(Some(Cow::Borrowed(atom))),
            Row::Copy(s, copy) if !self.sys.deferred_stale(copy.id, *s) => {
                return Ok(Some(Cow::Borrowed(copy)))
            }
            Row::Copy(_, copy) => copy.id,
            Row::Id(id) => *id,
        };
        match self.sys.read_atom(id, None) {
            Ok(atom) => Ok(Some(Cow::Owned(atom))),
            Err(AccessError::NoSuchAtom(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// A start/stop condition over key values as a condition over their
/// memcomparable encoding.
fn encode_bound(bound: Bound<Vec<Value>>) -> Bound<Vec<u8>> {
    bound.map(|values| encode_composite_key(&values))
}
