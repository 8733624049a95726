//! Crash-consistency fuzzing: randomized fault schedules against the
//! WAL / recovery path.
//!
//! Each schedule is one seed: it derives a `FaultSchedule` (crash point,
//! cache-survival odds, torn-write and log-bit-rot options — see
//! `prima_storage::fault_disk`) *and* the randomized Session workload
//! that runs against the faulty device. After the crash the database is
//! reopened from the persisted image and checked against the
//! committed-prefix oracle (`prima_workloads::crash`): every
//! acknowledged commit durable (or, exactly at the crash point, the one
//! in-flight commit), every loser gone, surrogate ids never reused.
//!
//! Knobs (also used by the CI `fuzz` job):
//!
//! * `PRIMA_FUZZ_SEEDS` — schedules per backend leg (default: 24 on
//!   SimDisk, a quarter of that on FileDisk);
//! * `PRIMA_FUZZ_OPS` — workload statements per schedule (default 60);
//! * `PRIMA_FUZZ_SEED_BASE` — first seed (default 0x9_1987);
//! * `PRIMA_FUZZ_WAITS` — schedules for the bounded-wait multi-session
//!   leg (blocking lock waits, timeouts and deadlock-victim episodes
//!   under the same crash schedules; default 6, `0` skips the leg);
//! * `PRIMA_FUZZ_MVCC` — schedules for the snapshot-reader leg (readers
//!   outside any transaction take the lock-free MVCC read path and must
//!   see exactly the last acknowledged commit without ever conflicting;
//!   default 6, `0` skips the leg);
//! * `PRIMA_FUZZ_GROUP` — schedules for the cross-session group-commit
//!   leg (2–4 sessions committing concurrently so one leader force
//!   covers several commits, and the schedule tears that shared batch;
//!   the committed-prefix oracle must hold per session; default 6, `0`
//!   skips the leg).
//!
//! Every failure panics with a `PRIMA_FUZZ_REPRO:` line naming the seed
//! that deterministically reproduces it in one command; the fuzz loops
//! below additionally collect and print all failing seeds before
//! failing the test.
//!
//! Each leg also counts the schedules that tore a log batch carrying page
//! deltas and those that crashed between a page's image and its delta,
//! and fails if either count is zero: the fuzz must keep exercising the
//! delta record.

use prima::{Prima, QueryOptions, Value};
use prima_storage::{BlockDevice, FileDisk, SimDisk, Wal};
use prima_workloads::crash::{
    run_crash_schedule, run_group_commit_schedule, run_multi_session_schedule,
    run_multi_session_schedule_mvcc, run_multi_session_schedule_waits, CrashReport, CRASH_DDL,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

struct TmpDir(std::path::PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        let d = std::env::temp_dir()
            .join(format!("prima-crashfuzz-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        TmpDir(d)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `count` schedules starting at `base`, each over a device from
/// `make_inner` through `runner` (the single- or multi-session workload),
/// collecting failures instead of stopping at the first.
fn fuzz_leg(
    leg: &str,
    base: u64,
    count: u64,
    ops: usize,
    runner: fn(Arc<dyn BlockDevice>, u64, usize) -> CrashReport,
    make_inner: impl Fn(u64) -> Arc<dyn BlockDevice>,
) {
    let mut failures: Vec<u64> = Vec::new();
    let mut bootstrap = 0usize;
    let mut in_flight = 0usize;
    let mut commits = 0usize;
    let mut tore_deltas = 0usize;
    let mut image_then_lost = 0usize;
    for i in 0..count {
        let seed = base.wrapping_add(i);
        let inner = make_inner(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner(inner, seed, ops)
        }));
        match outcome {
            Ok(r) => {
                bootstrap += r.bootstrap_crash as usize;
                in_flight += r.in_flight_won as usize;
                commits += r.acked_commits;
                tore_deltas += r.tore_delta_batch as usize;
                image_then_lost += r.image_then_lost_delta as usize;
            }
            Err(_) => {
                // The panic payload (with the PRIMA_FUZZ_REPRO line) has
                // already been printed by the default hook.
                eprintln!("FAILING SEED ({leg}): {seed}");
                failures.push(seed);
            }
        }
    }
    println!(
        "crash-fuzz [{leg}]: {count} schedules, {commits} acked commits, \
         {bootstrap} bootstrap crashes, {in_flight} in-flight commits survived, \
         {tore_deltas} tore a batch with page deltas, \
         {image_then_lost} crashed between a page image and its delta"
    );
    assert!(
        failures.is_empty(),
        "[{leg}] {} of {count} schedules violated the committed-prefix oracle; \
         failing seeds: {failures:?} \
         (replay one with PRIMA_FUZZ_SEED_BASE=<seed> PRIMA_FUZZ_SEEDS=1 \
         PRIMA_FUZZ_OPS={ops} cargo test --test crash_consistency)",
        failures.len()
    );
    // The fuzz must keep exercising the delta record: tearing it, and
    // separating it from the image it is based on.
    assert!(tore_deltas > 0, "[{leg}] no schedule tore a batch carrying page deltas");
    assert!(image_then_lost > 0, "[{leg}] no schedule crashed between a page image and its delta");
}

#[test]
fn fuzz_sim_disk_schedules_recover_to_committed_prefix() {
    let seeds = env_u64("PRIMA_FUZZ_SEEDS", 24);
    let ops = env_u64("PRIMA_FUZZ_OPS", 60) as usize;
    let base = env_u64("PRIMA_FUZZ_SEED_BASE", 0x9_1987);
    fuzz_leg("sim", base, seeds, ops, run_crash_schedule, |_| {
        Arc::new(SimDisk::new()) as Arc<dyn BlockDevice>
    });
}

#[test]
fn fuzz_file_disk_schedules_recover_to_committed_prefix() {
    let seeds = env_u64("PRIMA_FUZZ_SEEDS", 24).div_ceil(4);
    let ops = env_u64("PRIMA_FUZZ_OPS", 60) as usize;
    // Offset from the sim leg's base: the schedule and workload both
    // derive purely from the seed, so sharing seeds would replay the
    // sim leg's exact schedules instead of adding distinct ones.
    let base = env_u64("PRIMA_FUZZ_SEED_BASE", 0x9_1987).wrapping_add(1_000_000);
    let tmp = TmpDir::new("fileleg");
    let root = tmp.0.clone();
    fuzz_leg("file", base, seeds, ops, run_crash_schedule, move |seed| {
        let dir = root.join(format!("s{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(FileDisk::create(&dir).expect("tmpdir FileDisk")) as Arc<dyn BlockDevice>
    });
}

// ---------------------------------------------------------------------
// Multi-session legs: isolation under fault injection (ISSUE 5)
// ---------------------------------------------------------------------
//
// One writer session interleaved with 1–2 reader sessions under the same
// randomized crash schedules. The readers assert they never observe
// uncommitted or rolled-back state (they must see exactly the last
// acknowledged commit, or fail fast with a lock conflict while the
// writer is dirty); recovery is then checked against the same
// committed-prefix oracle as the single-session legs. Seed count knob:
// `PRIMA_FUZZ_MULTI_SEEDS` (defaults to half the single-session count).

#[test]
fn fuzz_multi_session_sim_disk_isolates_readers_and_recovers() {
    let seeds = env_u64("PRIMA_FUZZ_MULTI_SEEDS", env_u64("PRIMA_FUZZ_SEEDS", 24).div_ceil(2));
    let ops = env_u64("PRIMA_FUZZ_OPS", 60) as usize;
    let base = env_u64("PRIMA_FUZZ_SEED_BASE", 0x9_1987).wrapping_add(5_000_000);
    fuzz_leg("multi-sim", base, seeds, ops, run_multi_session_schedule, |_| {
        Arc::new(SimDisk::new()) as Arc<dyn BlockDevice>
    });
}

#[test]
fn fuzz_multi_session_file_disk_isolates_readers_and_recovers() {
    let seeds = env_u64(
        "PRIMA_FUZZ_MULTI_SEEDS",
        env_u64("PRIMA_FUZZ_SEEDS", 24).div_ceil(2),
    )
    .div_ceil(4);
    let ops = env_u64("PRIMA_FUZZ_OPS", 60) as usize;
    let base = env_u64("PRIMA_FUZZ_SEED_BASE", 0x9_1987).wrapping_add(6_000_000);
    let tmp = TmpDir::new("multifileleg");
    let root = tmp.0.clone();
    fuzz_leg("multi-file", base, seeds, ops, run_multi_session_schedule, move |seed| {
        let dir = root.join(format!("s{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(FileDisk::create(&dir).expect("tmpdir FileDisk")) as Arc<dyn BlockDevice>
    });
}

// ---------------------------------------------------------------------
// Bounded-wait leg: blocking waits and deadlock victims under crashes
// ---------------------------------------------------------------------
//
// Same schedules and oracles as the multi-session legs, but the lock
// table runs in bounded-wait mode, so every conflict parks and times out
// instead of failing fast, and a slice of each schedule races two
// contender threads through the S→IX upgrade-deadlock shape: the table
// must victimize at most one of them, every contender error must be
// retryable, and the recovered state must still match the committed
// prefix. `PRIMA_FUZZ_WAITS` sets the seed count (0 skips the leg).

#[test]
fn fuzz_multi_session_waits_resolves_deadlocks_and_recovers() {
    let seeds = env_u64("PRIMA_FUZZ_WAITS", 6);
    let ops = env_u64("PRIMA_FUZZ_OPS", 60) as usize;
    let base = env_u64("PRIMA_FUZZ_SEED_BASE", 0x9_1987).wrapping_add(7_000_000);
    fuzz_leg("multi-sim-waits", base, seeds, ops, run_multi_session_schedule_waits, |_| {
        Arc::new(SimDisk::new()) as Arc<dyn BlockDevice>
    });
}

// ---------------------------------------------------------------------
// Snapshot-reader leg: the MVCC read path under fault injection
// ---------------------------------------------------------------------
//
// Same writer workload and crash schedules, but the readers stay outside
// any transaction so every query runs lock-free against a version-store
// snapshot. The isolation oracle inverts: reader queries must *succeed*
// even while the writer is dirty, must equal the last acknowledged
// commit exactly, and must generate zero lock-table traffic (checked via
// the `acquisitions` counter). The committed-prefix oracle after
// recovery is unchanged — the version store is volatile and must leave
// no trace in durable state. `PRIMA_FUZZ_MVCC` sets the seed count (0
// skips the leg).

#[test]
fn fuzz_multi_session_mvcc_snapshot_readers_never_conflict_and_recover() {
    let seeds = env_u64("PRIMA_FUZZ_MVCC", 6);
    let ops = env_u64("PRIMA_FUZZ_OPS", 60) as usize;
    let base = env_u64("PRIMA_FUZZ_SEED_BASE", 0x9_1987).wrapping_add(8_000_000);
    fuzz_leg("multi-sim-mvcc", base, seeds, ops, run_multi_session_schedule_mvcc, |_| {
        Arc::new(SimDisk::new()) as Arc<dyn BlockDevice>
    });
}

// ---------------------------------------------------------------------
// Group-commit leg: concurrent committers sharing forces under crashes
// ---------------------------------------------------------------------
//
// The write-side group-commit coordinator lets one leader's force carry
// several sessions' commit records, so a torn force now tears a *shared*
// batch. This leg runs 2–4 committer threads over disjoint key ranges,
// each committing every 1–2 statements (maximal commit overlap), under
// the same randomized crash schedules. Oracle, per committer: the
// recovered rows in its range equal its last acknowledged commit or its
// single in-flight one — an ack must imply the covering force completed
// for every session it covered. `PRIMA_FUZZ_GROUP` sets the seed count
// (0 skips the leg).

#[test]
fn fuzz_group_commit_concurrent_committers_recover_to_committed_prefix() {
    let seeds = env_u64("PRIMA_FUZZ_GROUP", 6);
    let ops = env_u64("PRIMA_FUZZ_OPS", 60) as usize;
    let base = env_u64("PRIMA_FUZZ_SEED_BASE", 0x9_1987).wrapping_add(9_000_000);
    fuzz_leg("group-sim", base, seeds, ops, run_group_commit_schedule, |_| {
        Arc::new(SimDisk::new()) as Arc<dyn BlockDevice>
    });
}

// ---------------------------------------------------------------------
// Targeted WAL-tail corruption: the CRC path
// ---------------------------------------------------------------------

fn names_by_no(db: &Prima) -> BTreeMap<i64, String> {
    let set = db
        .session()
        .query("SELECT ALL FROM part", &QueryOptions::default())
        .unwrap()
        .set;
    set.molecules
        .iter()
        .map(|m| {
            let v = &m.root.atom.values;
            let no = match &v[1] {
                Value::Int(n) => *n,
                other => panic!("part_no should be Int, got {other:?}"),
            };
            let name = match &v[2] {
                Value::Str(s) => s.clone(),
                other => panic!("name should be Str, got {other:?}"),
            };
            (no, name)
        })
        .collect()
}

/// Model snapshots at each commit plus the log-byte watermark after
/// each commit (index 0 = bootstrap).
type CommitHistory = (Vec<BTreeMap<i64, String>>, Vec<usize>);

/// Builds the deterministic multi-commit history on a fresh `SimDisk`
/// and returns the device, the per-commit model snapshots and the log
/// byte watermark after each commit. Nothing is flushed after the
/// bootstrap checkpoint, so the recovered state is decided purely by how
/// much of the log replay survives.
fn corruption_fixture() -> (Arc<dyn BlockDevice>, CommitHistory) {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = Prima::builder()
        .buffer_bytes(1 << 20)
        .device(Arc::clone(&device))
        .durable()
        .build_with_ddl(CRASH_DDL)
        .unwrap();
    let mut snapshots: Vec<BTreeMap<i64, String>> = vec![BTreeMap::new()];
    let mut watermarks: Vec<usize> = vec![device.wal_contents().unwrap().len()];
    let s = db.session();
    let mut model = BTreeMap::new();
    for c in 0..6i64 {
        // Each commit inserts two parts, modifies one survivor and
        // deletes an old one — a few records of every kind per batch.
        for k in 0..2 {
            let no = c * 10 + k;
            s.execute(&format!("INSERT part (part_no: {no}, name: 'c{c}k{k}')")).unwrap();
            model.insert(no, format!("c{c}k{k}"));
        }
        if c > 0 {
            let no = (c - 1) * 10;
            s.execute(&format!("MODIFY part SET name = 'touched{c}' WHERE part_no = {no}"))
                .unwrap();
            model.insert(no, format!("touched{c}"));
            let gone = (c - 1) * 10 + 1;
            s.execute(&format!("DELETE FROM part WHERE part_no = {gone}")).unwrap();
            model.remove(&gone);
        }
        s.commit().unwrap();
        snapshots.push(model.clone());
        watermarks.push(device.wal_contents().unwrap().len());
    }
    // Crash: no destructor flushes anything (the kernel has no Drop
    // hooks), so dropping is a kill as far as the device is concerned.
    drop(s);
    drop(db);
    (device, (snapshots, watermarks))
}

#[test]
fn bit_flips_in_the_log_stop_replay_at_the_corruption_with_prefix_intact() {
    // Probe offsets all over the log: inside the first batch, in the
    // middle of a batch, just before a commit record, just after one.
    let (_, (_, wm)) = corruption_fixture();
    let probes: Vec<usize> = vec![
        wm[0] + 9,            // first record of batch 1
        wm[1] - 3,            // inside commit record of batch 1
        (wm[2] + wm[3]) / 2,  // middle of batch 3
        wm[4] + 1,            // header of batch 5's first record
        wm[5] - 40,           // late in batch 5, before its commit
    ];
    for offset in probes {
        let (device, (snapshots, watermarks)) = corruption_fixture();
        let mut log = device.wal_contents().unwrap();
        assert!(offset < log.len(), "probe {offset} outside log of {} bytes", log.len());
        log[offset] ^= 0x10;
        device.wal_reset().unwrap();
        device.wal_append(&log).unwrap();

        // Replay must stop exactly at the first record touching the
        // corrupted byte — never error out, never skip past it.
        let records = Wal::replay(&device).unwrap();
        // watermarks[0] is the bootstrap checkpoint marker, not a commit.
        let expect_commits = watermarks.iter().skip(1).filter(|&&w| w <= offset).count();
        let seen_commits = records
            .iter()
            .filter(|r| matches!(r, prima_storage::WalRecord::TxnCommit { .. }))
            .count();
        assert_eq!(
            seen_commits, expect_commits,
            "offset {offset}: replay should surface exactly the commits \
             whose batches end at or before the corruption"
        );

        // Recovery lands on the committed prefix defined by the
        // corruption point, and the database stays fully usable.
        let db = Prima::open_device(device).unwrap();
        assert_eq!(
            names_by_no(&db),
            snapshots[expect_commits],
            "offset {offset}: recovered state must be the committed prefix"
        );
        let s = db.session();
        s.execute("INSERT part (part_no: 7777, name: 'alive')").unwrap();
        s.commit().unwrap();
        assert_eq!(names_by_no(&db).get(&7777).map(String::as_str), Some("alive"));
    }
}

#[test]
fn truncated_log_tail_recovers_the_untruncated_prefix() {
    // Chop the log mid-record at several points: replay treats the tail
    // as torn (the classic crash shape) and recovery still lands on a
    // commit boundary.
    for cut_back in [1usize, 7, 19] {
        let (device, (snapshots, watermarks)) = corruption_fixture();
        let mut log = device.wal_contents().unwrap();
        let cut = log.len() - cut_back;
        log.truncate(cut);
        device.wal_reset().unwrap();
        device.wal_append(&log).unwrap();
        let db = Prima::open_device(device).unwrap();
        let expect_commits = watermarks.iter().skip(1).filter(|&&w| w <= cut).count();
        assert_eq!(
            names_by_no(&db),
            snapshots[expect_commits],
            "cutting {cut_back} bytes off the tail must lose only the last batch"
        );
    }
}
