//! One-shot MQL helpers over the session API.
//!
//! The kernel's query surface is [`prima::Session`] + [`QueryOptions`].
//! Tests and examples that genuinely want auto-commit one-shots use
//! these free functions instead: the convenience lives in the
//! application layer and routes through that surface, so the kernel
//! keeps a single query path.

use prima::datasys::DmlResult;
use prima::{MoleculeSet, Prima, PrimaError, PrimaResult, QueryOptions, StatementProfile};

/// One-shot `SELECT` with default options, materialised.
pub fn query(db: &Prima, mql: &str) -> PrimaResult<MoleculeSet> {
    Ok(db.session().query(mql, &QueryOptions::default())?.set)
}

/// One-shot `SELECT` on a profiled session, returning its profile as
/// well: the access choice is on the root-access span
/// ([`StatementProfile::access`]), the per-layer work in its counters.
pub fn query_profiled(db: &Prima, mql: &str) -> PrimaResult<(MoleculeSet, StatementProfile)> {
    let s = db.session();
    s.set_profiling(true);
    let set = s.query(mql, &QueryOptions::new())?.set;
    let profile = s.last_profile().ok_or_else(|| PrimaError::BadStatement(mql.into()))?;
    Ok((set, profile))
}

/// One-shot `SELECT` with molecule construction on `threads` workers.
pub fn query_parallel(db: &Prima, mql: &str, threads: usize) -> PrimaResult<MoleculeSet> {
    Ok(db.session().query(mql, &QueryOptions::new().threads(threads))?.set)
}

/// One manipulation statement in its own committed transaction.
pub fn execute(db: &Prima, mql: &str) -> PrimaResult<DmlResult> {
    let s = db.session();
    let r = s.execute(mql)?;
    s.commit()?;
    Ok(r)
}
