//! The on-disk image of a small durable database, pinned byte for byte.
//!
//! Record placement and the record format are properties of the files a
//! database leaves behind, not only of what reads back: a change to the
//! record path that moves a record or re-encodes a value shows up here
//! even when every query still answers the same. The test loads a small
//! BREP mesh with an assembly hierarchy (fixed seed) on a durable
//! file-backed kernel, runs a few transactions that add, move and drop
//! references — back-reference partners rewritten inside a transaction,
//! a delete and a rollback — checkpoints, and compares a digest of every
//! file in the directory with the digests pinned below.
//!
//! A deliberate change to the on-disk image updates the table: run the
//! test, and copy the digests it reports.

use prima::{Prima, Value};
use prima_workloads::brep::{self, BrepConfig};
use std::path::Path;

/// `(file name, FNV-1a 64 of its bytes)` of the checkpointed directory.
const PINNED: &[(&str, u64)] = &[
    ("meta.bin", 0x9690_5e69_00c5_c3b2),
    ("seg000000.4096.blk", 0x99d3_e7b1_3f86_3dcb),
    ("seg000001.4096.blk", 0xc44f_bf27_4f24_21c0),
    ("seg000002.4096.blk", 0x3623_fc04_181e_49c6),
    ("seg000003.4096.blk", 0xfa5b_c6bd_1528_eb17),
    ("seg000004.4096.blk", 0xe61d_e6c2_29f8_40ec),
    ("wal.log", 0xe664_4403_d910_8650),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

fn digests(dir: &Path) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fnv1a(&std::fs::read(&path).unwrap()))
        })
        .collect();
    out.sort();
    out
}

fn load_and_checkpoint(dir: &Path) {
    let db = Prima::builder()
        .buffer_bytes(1 << 20)
        .path(dir)
        .unwrap()
        .build_with_ddl(brep::schema_ddl())
        .unwrap();
    let stats = brep::populate(&db, &BrepConfig::with_assembly(8, 2, 2)).unwrap();
    let s = &stats.solid_ids;
    let session = db.session();
    // Committed partners get new back-references, lose one, and an
    // unrelated attribute changes.
    session.begin().unwrap();
    let a = session
        .insert_atom_named(
            "solid",
            &[("solid_no", Value::Int(1000)), ("sub", Value::ref_set(vec![s[0], s[1]]))],
        )
        .unwrap();
    session.modify_atom_named(a, &[("sub", Value::ref_set(vec![s[1], s[2]]))]).unwrap();
    session.modify_atom_named(s[3], &[("description", Value::Str("renamed".into()))]).unwrap();
    session.commit().unwrap();
    // A delete disconnects its partners.
    session.begin().unwrap();
    session
        .insert_atom_named(
            "solid",
            &[("solid_no", Value::Int(1001)), ("sub", Value::ref_set(vec![s[4]]))],
        )
        .unwrap();
    session.delete_atom(a).unwrap();
    session.commit().unwrap();
    // A rollback restores its partners.
    session.begin().unwrap();
    session
        .insert_atom_named(
            "solid",
            &[("solid_no", Value::Int(1002)), ("sub", Value::ref_set(vec![s[5], s[6]]))],
        )
        .unwrap();
    session.rollback().unwrap();
    drop(session);
    db.checkpoint().unwrap();
}

#[test]
fn a_checkpointed_load_leaves_the_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("prima-disk-image-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    load_and_checkpoint(&dir);
    let got = digests(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, pinned, "the on-disk image changed; got:\n{got:#x?}");
}
