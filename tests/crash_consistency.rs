//! Crash-consistency fuzzing: randomized fault schedules against the
//! WAL / recovery path.
//!
//! Each schedule is one seed: it derives a `FaultSchedule` (crash point,
//! cache-survival odds, torn-write and log-bit-rot options — see
//! `prima_storage::fault_disk`) *and* the randomized Session workload
//! that runs against the faulty device. One runner,
//! `prima_workloads::crash::run_schedule`, builds the kernel, runs a
//! [`Leg`]'s workload, crashes, reopens the database from the persisted
//! image and checks the committed-prefix oracle: every acknowledged
//! commit durable (or, exactly at the crash point, the one in-flight
//! commit), every loser gone, surrogate ids never reused, metrics
//! coherent. The legs' own isolation oracles are in its module docs.
//!
//! | test | [`Leg`] | device | seed offset | schedules |
//! |---|---|---|---|---|
//! | `fuzz_sim_disk_…` | `Single` | SimDisk | 0 | `PRIMA_FUZZ_SEEDS` (24) |
//! | `fuzz_file_disk_…` | `Single` | FileDisk | 1 000 000 | a quarter of `PRIMA_FUZZ_SEEDS` |
//! | `fuzz_multi_session_sim_disk_…` | `Readers` | SimDisk | 5 000 000 | `PRIMA_FUZZ_MULTI_SEEDS` (half of `PRIMA_FUZZ_SEEDS`) |
//! | `fuzz_multi_session_file_disk_…` | `Readers` | FileDisk | 6 000 000 | a quarter of `PRIMA_FUZZ_MULTI_SEEDS` |
//! | `fuzz_multi_session_waits_…` | `ReadersWithWaits` | SimDisk | 7 000 000 | `PRIMA_FUZZ_WAITS` (6) |
//! | `fuzz_multi_session_mvcc_…` | `SnapshotReaders` | SimDisk | 8 000 000 | `PRIMA_FUZZ_MVCC` (6) |
//! | `fuzz_group_commit_…` | `GroupCommit` | SimDisk | 9 000 000 | `PRIMA_FUZZ_GROUP` (6) |
//!
//! Knobs (also used by the CI `fuzz` job): the schedule counts above;
//! `PRIMA_FUZZ_OPS` — workload statements per schedule (default 60);
//! `PRIMA_FUZZ_SEED_BASE` — first seed (default 0x9_1987), to which
//! each test adds its seed offset, so no two tests replay each other's
//! schedules.
//!
//! Every failing schedule prints a `FAILING SEED` line and a
//! `PRIMA_FUZZ_REPRO:` line — the command that replays exactly that
//! schedule: the failing test alone (`--exact`), its schedule count at
//! one and the seed base that maps back to the failing seed, e.g.
//!
//! ```text
//! PRIMA_FUZZ_REPRO: PRIMA_FUZZ_SEED_BASE=596362 PRIMA_FUZZ_WAITS=1 PRIMA_FUZZ_OPS=60 cargo test --test crash_consistency fuzz_multi_session_waits_resolves_deadlocks_and_recovers -- --exact --nocapture
//! ```
//!
//! The test fails after the whole leg ran, listing every such line.
//!
//! Each test also counts the schedules that tore a log batch carrying
//! page deltas and those that crashed between a page's image and its
//! delta, and fails if either count is zero: the fuzz must keep
//! exercising the delta record. A replay of one schedule checks only its
//! oracle.

use prima::{Prima, QueryOptions, Value};
use prima_storage::{BlockDevice, FileDisk, SimDisk, Wal};
use prima_workloads::crash::{run_schedule, Leg, CRASH_DDL};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

fn env(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
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

/// One fuzz test: a leg over `SimDisk` or `FileDisk`, and the name of
/// the `#[test]` that runs it.
#[derive(Debug, Clone, Copy)]
struct Target {
    leg: Leg,
    file: bool,
    test: &'static str,
}

const SINGLE_SIM: Target = Target {
    leg: Leg::Single,
    file: false,
    test: "fuzz_sim_disk_schedules_recover_to_committed_prefix",
};
const SINGLE_FILE: Target = Target {
    leg: Leg::Single,
    file: true,
    test: "fuzz_file_disk_schedules_recover_to_committed_prefix",
};
const READERS_SIM: Target = Target {
    leg: Leg::Readers,
    file: false,
    test: "fuzz_multi_session_sim_disk_isolates_readers_and_recovers",
};
const READERS_FILE: Target = Target {
    leg: Leg::Readers,
    file: true,
    test: "fuzz_multi_session_file_disk_isolates_readers_and_recovers",
};
const WAITS: Target = Target {
    leg: Leg::ReadersWithWaits,
    file: false,
    test: "fuzz_multi_session_waits_resolves_deadlocks_and_recovers",
};
const SNAPSHOT: Target = Target {
    leg: Leg::SnapshotReaders,
    file: false,
    test: "fuzz_multi_session_mvcc_snapshot_readers_never_conflict_and_recover",
};
const GROUP: Target = Target {
    leg: Leg::GroupCommit,
    file: false,
    test: "fuzz_group_commit_concurrent_committers_recover_to_committed_prefix",
};
const TARGETS: [Target; 7] =
    [SINGLE_SIM, SINGLE_FILE, READERS_SIM, READERS_FILE, WAITS, SNAPSHOT, GROUP];

impl Target {
    /// What this test adds to `PRIMA_FUZZ_SEED_BASE`.
    fn seed_offset(self) -> u64 {
        self.leg.seed_offset() + if self.file { 1_000_000 } else { 0 }
    }

    /// `(first seed, schedule count)`, with the knobs read through `var`
    /// (the process environment when fuzzing).
    fn seeds(self, var: impl Fn(&str) -> Option<u64>) -> (u64, u64) {
        let get = |name: &str, default: u64| var(name).unwrap_or(default);
        let default = match self.leg {
            Leg::Single => 24,
            Leg::Readers => get("PRIMA_FUZZ_SEEDS", 24).div_ceil(2),
            Leg::ReadersWithWaits | Leg::SnapshotReaders | Leg::GroupCommit => 6,
        };
        let count = get(self.leg.seeds_var(), default);
        let base = get("PRIMA_FUZZ_SEED_BASE", 0x9_1987).wrapping_add(self.seed_offset());
        // A FileDisk schedule is slower: a quarter of the count.
        (base, if self.file { count.div_ceil(4) } else { count })
    }

    /// The command that replays exactly `seed` (module docs).
    fn repro(self, seed: u64, ops: usize) -> String {
        format!(
            "PRIMA_FUZZ_REPRO: PRIMA_FUZZ_SEED_BASE={} {}=1 PRIMA_FUZZ_OPS={ops} \
             cargo test --test crash_consistency {} -- --exact --nocapture",
            seed.wrapping_sub(self.seed_offset()),
            self.leg.seeds_var(),
            self.test
        )
    }
}

/// Runs `target`'s schedules, collecting failures instead of stopping at
/// the first.
fn fuzz(target: Target) {
    // libtest runs each test on a thread named after it.
    if let Some(name) = std::thread::current().name().filter(|n| *n != "main") {
        assert_eq!(name, target.test, "the target table names another test");
    }
    let label =
        format!("{:?} over {}", target.leg, if target.file { "FileDisk" } else { "SimDisk" });
    let (base, count) = target.seeds(env);
    let ops = env("PRIMA_FUZZ_OPS").unwrap_or(60) as usize;
    let tmp = target.file.then(|| TmpDir::new(target.test));
    let mut failures: Vec<String> = Vec::new();
    let mut bootstrap = 0usize;
    let mut in_flight = 0usize;
    let mut commits = 0usize;
    let mut tore_deltas = 0usize;
    let mut image_then_lost = 0usize;
    for seed in (0..count).map(|i| base.wrapping_add(i)) {
        let inner: Arc<dyn BlockDevice> = match &tmp {
            Some(tmp) => {
                let dir = tmp.0.join(format!("s{seed}"));
                let _ = std::fs::remove_dir_all(&dir);
                Arc::new(FileDisk::create(&dir).expect("tmpdir FileDisk"))
            }
            None => Arc::new(SimDisk::new()),
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_schedule(target.leg, inner, seed, ops)
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
                // The default hook has already printed the violation.
                let repro = target.repro(seed, ops);
                eprintln!("FAILING SEED ({label}): {seed}\n{repro}");
                failures.push(repro);
            }
        }
    }
    println!(
        "crash-fuzz [{label}]: {count} schedules, {commits} acked commits, \
         {bootstrap} bootstrap crashes, {in_flight} in-flight commits survived, \
         {tore_deltas} tore a batch with page deltas, \
         {image_then_lost} crashed between a page image and its delta"
    );
    assert!(
        failures.is_empty(),
        "[{label}] {} of {count} schedules violated the oracle; replay each with\n{}",
        failures.len(),
        failures.join("\n")
    );
    // The fuzz must keep exercising the delta record: tearing it, and
    // separating it from the image it is based on.
    if count > 1 {
        assert!(tore_deltas > 0, "[{label}] no schedule tore a batch carrying page deltas");
        assert!(
            image_then_lost > 0,
            "[{label}] no schedule crashed between a page image and its delta"
        );
    }
}

#[test]
fn fuzz_sim_disk_schedules_recover_to_committed_prefix() {
    fuzz(SINGLE_SIM);
}

#[test]
fn fuzz_file_disk_schedules_recover_to_committed_prefix() {
    fuzz(SINGLE_FILE);
}

#[test]
fn fuzz_multi_session_sim_disk_isolates_readers_and_recovers() {
    fuzz(READERS_SIM);
}

#[test]
fn fuzz_multi_session_file_disk_isolates_readers_and_recovers() {
    fuzz(READERS_FILE);
}

#[test]
fn fuzz_multi_session_waits_resolves_deadlocks_and_recovers() {
    fuzz(WAITS);
}

#[test]
fn fuzz_multi_session_mvcc_snapshot_readers_never_conflict_and_recover() {
    fuzz(SNAPSHOT);
}

#[test]
fn fuzz_group_commit_concurrent_committers_recover_to_committed_prefix() {
    fuzz(GROUP);
}

#[test]
fn repro_line_replays_exactly_the_failing_schedule() {
    for leg in Leg::ALL {
        assert!(TARGETS.iter().any(|t| t.leg == leg), "{leg:?} has no fuzz test");
    }
    for target in TARGETS {
        let seed = target.seeds(|_| None).0 + 3;
        let line = target.repro(seed, 60);
        // The environment the line sets, as the shell passes it.
        let vars: HashMap<&str, u64> = line
            .split_whitespace()
            .filter_map(|w| w.split_once('='))
            .map(|(k, v)| (k, v.parse().expect("numeric knob")))
            .collect();
        assert_eq!(target.seeds(|name| vars.get(name).copied()), (seed, 1), "{line}");
        let (command, args) = line.split_once(" -- ").expect("test arguments");
        assert_eq!(command.rsplit(' ').next(), Some(target.test), "{line}");
        assert_eq!(args, "--exact --nocapture");
        assert_eq!(TARGETS.iter().filter(|t| t.test == target.test).count(), 1);
    }
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
