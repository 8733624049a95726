//! One-shot MQL helpers over the session API.
//!
//! The kernel's query surface is [`prima::Session`] + [`QueryOptions`].
//! Tests and examples that genuinely want auto-commit one-shots use
//! these free functions instead: the convenience lives in the
//! application layer and routes through that surface, so the kernel
//! keeps a single query path.

use prima::datasys::{DmlResult, ExecutionTrace};
use prima::{MoleculeSet, Prima, PrimaResult, QueryOptions};

/// One-shot `SELECT` with default options, materialised.
pub fn query(db: &Prima, mql: &str) -> PrimaResult<MoleculeSet> {
    Ok(db.session().query(mql, &QueryOptions::default())?.set)
}

/// One-shot `SELECT` returning the execution trace as well.
pub fn query_traced(db: &Prima, mql: &str) -> PrimaResult<(MoleculeSet, ExecutionTrace)> {
    let r = db.session().query(mql, &QueryOptions::new())?;
    Ok((r.set, r.trace))
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
