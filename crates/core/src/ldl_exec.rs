//! LDL execution: applying DBA tuning hints to the access system.
//!
//! "Such measures only serve to improve performance — they are controlled
//! by the access system and are not visible to the application
//! referencing the MAD interface" (Section 2.3): executing an LDL script
//! changes *which* storage structures exist, never query results.

use crate::error::{PrimaError, PrimaResult};
use prima_access::{AccessSystem, UpdatePolicy};
use prima_mad::ldl::{parse_ldl_script, LdlPageSize, LdlStatement};
use prima_mad::value::AtomTypeId;
use prima_storage::PageSize;

/// Executes an LDL script against an access system. Returns the number of
/// statements applied.
pub fn execute_ldl(sys: &AccessSystem, src: &str) -> PrimaResult<usize> {
    let stmts = parse_ldl_script(src)?;
    let n = stmts.len();
    for s in stmts {
        apply(sys, &s)?;
    }
    Ok(n)
}

/// Applies one LDL statement.
pub fn apply(sys: &AccessSystem, stmt: &LdlStatement) -> PrimaResult<()> {
    match stmt {
        LdlStatement::CreateAccessPath { name, atom_type, attrs } => {
            let (t, idxs) = resolve(sys, atom_type, attrs)?;
            sys.create_btree_index(name, t, idxs)?;
        }
        LdlStatement::CreateMultidimAccessPath { name, atom_type, attrs } => {
            let (t, idxs) = resolve(sys, atom_type, attrs)?;
            sys.create_grid_index(name, t, idxs)?;
        }
        LdlStatement::CreateSortOrder { name, atom_type, attrs } => {
            let (t, idxs) = resolve(sys, atom_type, attrs)?;
            sys.create_sort_order(name, t, idxs)?;
        }
        LdlStatement::CreatePartition { name, atom_type, attrs } => {
            let (t, idxs) = resolve(sys, atom_type, attrs)?;
            sys.create_partition(name, t, idxs)?;
        }
        LdlStatement::CreateAtomCluster { name, char_type, member_attrs, page_size } => {
            let (t, idxs) = resolve(sys, char_type, member_attrs)?;
            sys.create_cluster_type(name, t, idxs, convert_page_size(*page_size))?;
        }
        LdlStatement::DropStructure { name } => {
            sys.drop_structure(name)?;
        }
        LdlStatement::SetUpdatePolicy { deferred } => {
            sys.set_update_policy(if *deferred {
                UpdatePolicy::Deferred
            } else {
                UpdatePolicy::Immediate
            });
        }
        LdlStatement::Reconcile => {
            sys.reconcile()?;
        }
    }
    Ok(())
}

fn resolve(
    sys: &AccessSystem,
    type_name: &str,
    attrs: &[String],
) -> PrimaResult<(AtomTypeId, Vec<usize>)> {
    let at = sys
        .schema()
        .type_by_name(type_name)
        .ok_or_else(|| PrimaError::UnknownComponent(type_name.to_string()))?;
    let mut idxs = Vec::with_capacity(attrs.len());
    for a in attrs {
        idxs.push(at.attribute_index(a).ok_or_else(|| PrimaError::UnresolvedReference {
            reference: format!("{type_name}.{a}"),
            detail: "no such attribute".into(),
        })?);
    }
    Ok((at.id, idxs))
}

fn convert_page_size(p: Option<LdlPageSize>) -> PageSize {
    match p {
        None | Some(LdlPageSize::K1) => PageSize::K1,
        Some(LdlPageSize::Half) => PageSize::Half,
        Some(LdlPageSize::K2) => PageSize::K2,
        Some(LdlPageSize::K4) => PageSize::K4,
        Some(LdlPageSize::K8) => PageSize::K8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_access::Structure;
    use prima_mad::Schema;
    use prima_storage::{SimDisk, StorageSystem};
    use std::sync::Arc;

    fn sys() -> AccessSystem {
        let mut schema = Schema::new();
        prima_mad::ddl::load_script(
            &mut schema,
            "CREATE ATOM_TYPE t (id: IDENTIFIER, a: INTEGER, b: REAL,
                kids: SET_OF (REF_TO (k.parent)));
             CREATE ATOM_TYPE k (id: IDENTIFIER, parent: REF_TO (t.kids));",
        )
        .unwrap();
        let storage = Arc::new(StorageSystem::new(Arc::new(SimDisk::new()), 4 << 20));
        AccessSystem::new(storage, schema).unwrap()
    }

    #[test]
    fn all_statement_kinds_apply() {
        let s = sys();
        let n = execute_ldl(
            &s,
            "CREATE ACCESS PATH ap ON t (a);
             CREATE MULTIDIM ACCESS PATH g ON t (a, b);
             CREATE SORT ORDER so ON t (b);
             CREATE PARTITION p ON t (a);
             CREATE ATOM_CLUSTER c ON t (kids) PAGESIZE 4K;
             SET UPDATE POLICY IMMEDIATE;
             RECONCILE;
             DROP STRUCTURE ap",
        )
        .unwrap();
        assert_eq!(n, 8);
        assert!(s.structure("ap").is_none(), "dropped");
        assert!(matches!(s.structure("g"), Some(Structure::Grid(_))));
        assert!(matches!(s.structure("so"), Some(Structure::SortOrder(_))));
        assert!(matches!(s.structure("p"), Some(Structure::Partition(_))));
        assert!(matches!(s.structure("c"), Some(Structure::Cluster(_))));
        assert_eq!(s.update_policy(), UpdatePolicy::Immediate);
    }

    #[test]
    fn unknown_names_are_reported() {
        let s = sys();
        assert!(matches!(
            execute_ldl(&s, "CREATE ACCESS PATH x ON nosuch (a)"),
            Err(PrimaError::UnknownComponent(_))
        ));
        assert!(matches!(
            execute_ldl(&s, "CREATE ACCESS PATH x ON t (nosuch)"),
            Err(PrimaError::UnresolvedReference { .. })
        ));
        assert!(execute_ldl(&s, "CREATE ATOM_CLUSTER c ON t (a)").is_err(),
            "cluster member attrs must be references");
    }
}
