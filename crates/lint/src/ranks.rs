//! The canonical lock hierarchy — the single source of truth the
//! `// lockrank: <domain>.<n>` annotations refer to.
//!
//! A thread may acquire a lock only while every lock it already holds has
//! a rank **≤** the new lock's rank (equal ranks are peer groups whose
//! mutual safety is argued at the declaration site). The domain order is
//! the PRIMA Fig. 3.1 layer order, top of the kernel first:
//!
//! A *reader-striped* lock (`parking_lot::ShardedLock`) has one reader
//! lock per thread stripe: a read takes its thread's stripe, a write
//! every stripe in index order. Either is one acquisition of its rank.
//!
//! | domain      | base | Fig. 3.1 layer        | locks |
//! |-------------|------|-----------------------|-------|
//! | `api`       |  10  | MAD interface         | session txn slot (.0), last-profile slot (.1), plan cache (.2) |
//! | `txn`       |  20  | data system           | checkpoint gate (.0), active-txn table (.1) |
//! | `locktable` |  30  | data system           | lock table entries + wait queues (.0) |
//! | `mvcc`      |  40  | data system           | version store (.0), snapshot-registry slots, one per thread stripe (.1) |
//! | `access`    |  50  | access system         | structure directory, reader-striped (.0), registries (.1), tree roots (.2), grid files (.3) |
//! | `buffer`    |  60  | storage system        | shard latches / frame locks / record-file maps (.0), address + key maps, reader-striped (.1) |
//! | `walgroup`  |  70  | storage system (WAL)  | group-commit coordinator (.0) |
//! | `walio`     |  80  | storage system (WAL)  | device-append serialisation (.0), append buffer (.1) |
//! | `storage`   |  90  | storage system        | segment-id allocator (.0), segment catalog (.1) |
//! | `obs`       | 100  | (cross-cutting)       | slow log (.0), parallel queue/results (.1–.2), assembly-scratch pool (.3) |
//! | `device`    | 110  | devices               | block-device internals (exempt from the lock-across-I/O rule) |
//!
//! The runtime half of the checker lives in the vendored `parking_lot`
//! shim (`parking_lot::rank` + `Mutex::new_ranked`); a unit test below
//! parses that module and asserts the two tables agree.

/// `(domain annotation name, base rank)` in legal acquisition order.
pub const DOMAINS: &[(&str, u32)] = &[
    ("api", 10),
    ("txn", 20),
    ("locktable", 30),
    ("mvcc", 40),
    ("access", 50),
    ("buffer", 60),
    ("walgroup", 70),
    ("walio", 80),
    ("storage", 90),
    ("obs", 100),
    ("device", 110),
];

/// Base rank of the device domain — locks at or above it are the block
/// device's own internals and exempt from the lock-across-I/O rule.
pub const DEVICE_BASE: u32 = 110;

/// Gap between consecutive domain bases: a domain may define sub-ranks
/// `.0` through `.9`.
pub const DOMAIN_WIDTH: u32 = 10;

/// Resolves an annotation like `buffer.1` to its numeric rank.
pub fn resolve(spec: &str) -> Option<u32> {
    let (domain, sub) = spec.split_once('.')?;
    let sub: u32 = sub.parse().ok()?;
    if sub >= DOMAIN_WIDTH {
        return None;
    }
    let (_, base) = DOMAINS.iter().find(|(name, _)| *name == domain)?;
    Some(base + sub)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_maps_domain_dot_sub() {
        assert_eq!(resolve("api.0"), Some(10));
        assert_eq!(resolve("buffer.1"), Some(61));
        assert_eq!(resolve("device.4"), Some(114));
        assert_eq!(resolve("nosuch.0"), None);
        assert_eq!(resolve("buffer.12"), None);
        assert_eq!(resolve("buffer"), None);
    }

    #[test]
    fn domains_are_strictly_increasing_and_gapped() {
        for w in DOMAINS.windows(2) {
            assert!(
                w[0].1 + DOMAIN_WIDTH <= w[1].1,
                "domain {} (base {}) overlaps {} (base {})",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
        assert_eq!(DOMAINS.last().map(|d| d.1), Some(DEVICE_BASE));
    }

    /// The vendored parking_lot shim carries the runtime copy of this
    /// table (`pub mod rank`); parse its constants and assert agreement
    /// so the two halves of the checker cannot drift apart.
    #[test]
    fn shim_rank_module_matches() {
        let src = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../vendor/parking_lot/src/lib.rs"
        ))
        .expect("vendored parking_lot source");
        let mut found = Vec::new();
        for line in src.lines() {
            let line = line.trim();
            // e.g. `pub const WAL_GROUP: u32 = 70;`
            let Some(rest) = line.strip_prefix("pub const ") else { continue };
            let Some((name, value)) = rest.split_once(": u32 = ") else { continue };
            let Some(value) = value.strip_suffix(';') else { continue };
            let value: u32 = value.trim().parse().expect("rank constant value");
            // Shim constant names are SCREAMING_SNAKE; annotations are
            // lower-case with the underscore dropped (WAL_GROUP → walgroup).
            found.push((name.to_lowercase().replace('_', ""), value));
        }
        let expected: Vec<(String, u32)> =
            DOMAINS.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        assert_eq!(found, expected, "parking_lot::rank disagrees with prima-lint ranks");
    }
}
