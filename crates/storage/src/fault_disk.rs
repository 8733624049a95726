//! Fault-injecting block device for crash-consistency testing.
//!
//! [`FaultDisk`] wraps any inner [`BlockDevice`] (a [`crate::SimDisk`] or
//! a [`crate::FileDisk`]) and models what a real storage medium does to a
//! process that dies at the wrong moment. The central idea is the split
//! between two images of the device:
//!
//! * the **acknowledged image** — everything the kernel has successfully
//!   written and will read back while it keeps running; block writes land
//!   in an in-memory overlay (the "drive cache") and are served from
//!   there;
//! * the **persisted image** — what actually survives a crash. Only a
//!   completed barrier moves data from the overlay to the inner device:
//!   [`BlockDevice::sync`] flushes every cached block,
//!   [`BlockDevice::wal_append`] and [`BlockDevice::write_meta`] are
//!   synchronous in the real backends and therefore persist on return.
//!
//! A deterministic, seed-replayable [`FaultSchedule`] decides *when* the
//! crash happens and *how much* of the in-flight and cached state makes
//! it to the persisted image:
//!
//! * **crash points** — after the Nth mutating device operation, during
//!   the Nth WAL force, during the Nth fsync, or manually
//!   ([`FaultDisk::crash_now`]);
//! * **torn writes** — the in-flight operation persists a *prefix*: the
//!   first bytes of a single block (merged over the old contents, like a
//!   partial sector write), or the first bytes of a WAL group append (the
//!   classic torn log tail);
//! * **partial fsync** — at the crash, each cached-but-unsynced block
//!   independently survives or vanishes (the cache drained in arbitrary
//!   order), and one cached block may itself be torn;
//! * **log bit-rot** — optional bit flips inside the torn WAL fragment,
//!   exercising the replay CRC path without touching acknowledged
//!   records.
//!
//! Once the crash fires, every subsequent call errors (the medium is
//! gone); the harness reopens the database from
//! [`FaultDisk::persisted_device`], which is exactly the inner device —
//! holding exactly what a real medium would after the kill.
//!
//! Every random decision is drawn from one splitmix64 stream seeded by
//! [`FaultSchedule::seed`], so a failing schedule replays bit-identically
//! from its seed alone.

use crate::disk::{BlockAddr, BlockDevice};
use crate::error::{StorageError, StorageResult};
use crate::stats::IoStats;
use parking_lot::{rank, Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// When the scheduled crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// During the Nth mutating device operation (1-based; write, sync,
    /// meta, WAL append/reset all count).
    AfterOps(u64),
    /// During the Nth WAL group append — "during the 3rd WAL force".
    OnWalForce(u32),
    /// During the Nth fsync barrier.
    OnSync(u32),
    /// Never fires on its own; the harness calls [`FaultDisk::crash_now`]
    /// when the workload is done.
    Manual,
}

/// One deterministic fault scenario. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    /// Seed of the decision stream; a schedule is fully reproducible
    /// from it (plus the workload's own determinism).
    pub seed: u64,
    /// When the crash fires.
    pub crash: CrashPoint,
    /// Percent chance (0–100) that each cached-but-unsynced block
    /// survives the crash.
    pub persist_pct: u8,
    /// Whether the in-flight operation persists a torn prefix instead of
    /// nothing.
    pub torn_in_flight: bool,
    /// Whether bits inside the torn WAL fragment are flipped (CRC path).
    pub rot_torn_tail: bool,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultSchedule {
    /// Derives a randomized schedule from a seed: crash-point kind and
    /// position, cache-survival probability and tearing/bit-rot options
    /// all come from the seed's splitmix64 stream.
    pub fn from_seed(seed: u64) -> FaultSchedule {
        let mut s = seed ^ 0x5eed_5eed_5eed_5eed;
        let crash = match splitmix(&mut s) % 10 {
            // Most schedules crash on an op count: that lands on every
            // kind of device operation with workload-dependent timing.
            0..=5 => CrashPoint::AfterOps(1 + splitmix(&mut s) % 90),
            6..=7 => CrashPoint::OnWalForce(1 + (splitmix(&mut s) % 16) as u32),
            8 => CrashPoint::OnSync(1 + (splitmix(&mut s) % 5) as u32),
            _ => CrashPoint::Manual,
        };
        FaultSchedule {
            seed,
            crash,
            persist_pct: (splitmix(&mut s) % 101) as u8,
            torn_in_flight: !splitmix(&mut s).is_multiple_of(4),
            rot_torn_tail: splitmix(&mut s).is_multiple_of(3),
        }
    }

    /// A schedule that never crashes by itself ([`CrashPoint::Manual`]);
    /// the harness decides when to pull the plug.
    // lint: allow(dead-surface, fault injection that the contention and recovery suites schedule by hand)
    pub fn manual(seed: u64) -> FaultSchedule {
        FaultSchedule {
            seed,
            crash: CrashPoint::Manual,
            persist_pct: 50,
            torn_in_flight: true,
            rot_torn_tail: false,
        }
    }
}

/// What kind of mutating operation is in flight (crash-point matching).
#[derive(Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Write,
    Sync,
    Meta,
    WalAppend,
    WalReset,
}

struct FaultState {
    rng: u64,
    ops: u64,
    forces: u32,
    syncs: u32,
    crashed: bool,
    /// Crash point armed after construction ([`FaultDisk::arm`]);
    /// overrides the schedule's.
    armed: Option<CrashPoint>,
    /// Remaining WAL appends to fail with a *transient* error (no
    /// crash) — an ENOSPC-style hiccup the medium survives.
    fail_appends: u32,
    /// The drive cache: acknowledged block writes that no completed
    /// barrier has persisted yet. BTreeMap for deterministic drain order.
    cache: BTreeMap<BlockAddr, Vec<u8>>,
    /// The WAL batch whose append the crash interrupted, if it did.
    torn_wal: Option<Vec<u8>>,
}

/// Controls for parking callers *inside* [`BlockDevice::wal_append`] —
/// a slow-device model for tests that need to observe what the rest of
/// the kernel does while a log force is in flight.
struct StallGate {
    hold: bool,
    stalled: usize,
}

impl FaultState {
    fn roll(&mut self) -> u64 {
        splitmix(&mut self.rng)
    }

    fn pct(&mut self, pct: u8) -> bool {
        self.roll() % 100 < pct as u64
    }
}

/// Fault-injection wrapper around an inner [`BlockDevice`]. See module
/// docs for the fault model and [`FaultSchedule`] for the knobs.
pub struct FaultDisk {
    inner: Arc<dyn BlockDevice>,
    schedule: FaultSchedule,
    // lockrank: device.0 — fault-injection state (schedule, persisted
    // images); outermost of the wrapper's locks.
    state: Mutex<FaultState>,
    // lockrank: device.1 — stall gate parking I/O threads.
    gate: Mutex<StallGate>,
    gate_cv: Condvar,
}

impl std::fmt::Debug for FaultDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultDisk").field("schedule", &self.schedule).finish_non_exhaustive()
    }
}

fn crashed_err() -> StorageError {
    StorageError::DeviceError("fault-disk: device crashed (scheduled fault)".into())
}

impl FaultDisk {
    /// Wraps `inner` under `schedule`. The inner device must be empty or
    /// freshly created: the wrapper assumes every block it has not cached
    /// is already persisted.
    pub fn new(inner: Arc<dyn BlockDevice>, schedule: FaultSchedule) -> Arc<FaultDisk> {
        let rng = schedule.seed ^ 0xfau64.rotate_left(32);
        Arc::new(FaultDisk {
            inner,
            schedule,
            state: Mutex::new_ranked(FaultState {
                rng,
                ops: 0,
                forces: 0,
                syncs: 0,
                crashed: false,
                armed: None,
                fail_appends: 0,
                cache: BTreeMap::new(),
                torn_wal: None,
            }, rank::DEVICE),
            gate: Mutex::new_ranked(StallGate { hold: false, stalled: 0 }, rank::DEVICE + 1),
            gate_cv: Condvar::new(),
        })
    }

    /// Parks every subsequent [`BlockDevice::wal_append`] caller at the
    /// top of the call (before any fault bookkeeping) until
    /// [`FaultDisk::release_wal_appends`] — a stalled fsync. Counters
    /// and [`FaultDisk::crash_now`] stay reachable while callers park.
    // lint: allow(dead-surface, fault injection that the contention suite stalls group commit with)
    pub fn hold_wal_appends(&self) {
        self.gate.lock().hold = true;
    }

    /// Releases callers parked by [`FaultDisk::hold_wal_appends`].
    // lint: allow(dead-surface, fault injection that the contention suite stalls group commit with)
    pub fn release_wal_appends(&self) {
        self.gate.lock().hold = false;
        self.gate_cv.notify_all();
    }

    /// How many threads are currently parked inside `wal_append` —
    /// lets a test wait until a force is provably in flight.
    // lint: allow(dead-surface, fault injection that the contention suite stalls group commit with)
    pub fn stalled_wal_appends(&self) -> usize {
        self.gate.lock().stalled
    }

    /// Fails the next `n` WAL appends with a transient device error
    /// *without* crashing the medium — exercises the WAL's poison path
    /// (the log tail is suspect, later truncation heals it) in a world
    /// where the device keeps living.
    #[cfg(test)]
    pub fn fail_wal_appends(&self, n: u32) {
        self.state.lock().fail_appends = n;
    }

    /// The schedule this device runs.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Whether the scheduled crash has fired.
    pub fn has_crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Mutating device operations counted so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// WAL group appends (device-level forces) counted so far.
    pub fn wal_forces(&self) -> u32 {
        self.state.lock().forces
    }

    /// Re-arms the crash point mid-run, overriding the schedule — for
    /// targeted tests that let a setup phase complete undisturbed and
    /// then crash a *specific* later operation ("the next WAL force is
    /// the one carrying this commit").
    pub fn arm(&self, crash: CrashPoint) {
        self.state.lock().armed = Some(crash);
    }

    /// The WAL batch whose append the crash interrupted (whatever prefix
    /// of it persisted), if the crash hit a WAL append — crash tests
    /// decode it to see which records a schedule tore.
    pub fn torn_wal_batch(&self) -> Option<Vec<u8>> {
        self.state.lock().torn_wal.clone()
    }

    /// The persisted image: the inner device, which after the crash holds
    /// exactly what a real medium would. Reopen the database from this.
    pub fn persisted_device(&self) -> Arc<dyn BlockDevice> {
        Arc::clone(&self.inner)
    }

    /// Pulls the plug now (no in-flight operation): the cache drains
    /// partially per the schedule and every later call errors. Idempotent.
    pub fn crash_now(&self) {
        let mut st = self.state.lock();
        if !st.crashed {
            self.apply_crash(&mut st);
        }
    }

    /// Counts one mutating op and decides whether the scheduled crash
    /// fires *during* it. Returns `Err` if the device is already dead.
    fn note_op(&self, st: &mut FaultState, kind: OpKind) -> StorageResult<bool> {
        if st.crashed {
            return Err(crashed_err());
        }
        st.ops += 1;
        if kind == OpKind::WalAppend {
            st.forces += 1;
        }
        if kind == OpKind::Sync {
            st.syncs += 1;
        }
        Ok(match st.armed.unwrap_or(self.schedule.crash) {
            CrashPoint::AfterOps(n) => st.ops == n,
            CrashPoint::OnWalForce(n) => kind == OpKind::WalAppend && st.forces == n,
            CrashPoint::OnSync(n) => kind == OpKind::Sync && st.syncs == n,
            CrashPoint::Manual => false,
        })
    }

    /// The crash itself: each cached block survives with `persist_pct`
    /// probability (one surviving block may additionally be torn), the
    /// rest is lost, and the device is dead from here on.
    fn apply_crash(&self, st: &mut FaultState) {
        st.crashed = true;
        let cache = std::mem::take(&mut st.cache);
        let mut tear_budget = if self.schedule.torn_in_flight { 1usize } else { 0 };
        for (addr, bytes) in cache {
            if !st.pct(self.schedule.persist_pct) {
                continue; // this block never left the drive cache
            }
            if tear_budget > 0 && st.pct(25) {
                tear_budget -= 1;
                let cut = (st.roll() as usize) % (bytes.len() + 1);
                self.persist_torn_block(addr, &bytes, cut);
            } else {
                let _ = self.inner.write_block(addr, &bytes);
            }
        }
    }

    /// Persists `new[..cut]` merged over the block's old persisted
    /// contents — a partial sector write.
    fn persist_torn_block(&self, addr: BlockAddr, new: &[u8], cut: usize) {
        let mut merged = vec![0u8; new.len()];
        // Old persisted content as the base; a never-written block reads
        // zero, which is exactly what the medium would hold.
        if self.inner.read_block(addr, &mut merged).is_err() {
            merged.fill(0);
        }
        merged[..cut].copy_from_slice(&new[..cut]);
        let _ = self.inner.write_block(addr, &merged);
    }

    /// Crash during a single-block write: optionally persist a torn
    /// prefix of the in-flight block, then drain the cache partially.
    fn crash_during_write(&self, st: &mut FaultState, addr: BlockAddr, buf: &[u8]) {
        // The in-flight write supersedes any cached version of the block.
        st.cache.remove(&addr);
        if self.schedule.torn_in_flight {
            let cut = (st.roll() as usize) % (buf.len() + 1);
            self.persist_torn_block(addr, buf, cut);
        }
        self.apply_crash(st);
    }
}

impl BlockDevice for FaultDisk {
    fn create_file(&self, file: u32, block_len: usize) -> StorageResult<()> {
        let mut st = self.state.lock();
        if st.crashed {
            return Err(crashed_err());
        }
        // File creation passes straight through: the bootstrap checkpoint
        // syncs it before any workload runs, and modelling a lost create
        // would only ever produce "segment file missing" noise.
        st.cache.retain(|a, _| a.file != file);
        self.inner.create_file(file, block_len)
    }

    fn block_len(&self, file: u32) -> StorageResult<usize> {
        if self.state.lock().crashed {
            return Err(crashed_err());
        }
        self.inner.block_len(file)
    }

    fn read_block(&self, addr: BlockAddr, buf: &mut [u8]) -> StorageResult<()> {
        let st = self.state.lock();
        if st.crashed {
            return Err(crashed_err());
        }
        // The acknowledged image: cache first, then the persisted image.
        if let Some(bytes) = st.cache.get(&addr) {
            buf.copy_from_slice(bytes);
            return Ok(());
        }
        self.inner.read_block(addr, buf)
    }

    fn write_block(&self, addr: BlockAddr, buf: &[u8]) -> StorageResult<()> {
        let mut st = self.state.lock();
        if self.note_op(&mut st, OpKind::Write)? {
            self.crash_during_write(&mut st, addr, buf);
            return Err(crashed_err());
        }
        st.cache.insert(addr, buf.to_vec());
        Ok(())
    }

    fn read_chained(&self, addr: BlockAddr, count: u32, buf: &mut [u8]) -> StorageResult<()> {
        let st = self.state.lock();
        if st.crashed {
            return Err(crashed_err());
        }
        self.inner.read_chained(addr, count, buf)?;
        // Patch acknowledged-but-unsynced blocks over the persisted run.
        let block_len = buf.len() / count as usize;
        for i in 0..count {
            let a = BlockAddr::new(addr.file, addr.block + i);
            if let Some(bytes) = st.cache.get(&a) {
                buf[i as usize * block_len..(i as usize + 1) * block_len]
                    .copy_from_slice(bytes);
            }
        }
        Ok(())
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }

    fn sync(&self) -> StorageResult<()> {
        let mut st = self.state.lock();
        if self.note_op(&mut st, OpKind::Sync)? {
            // Crash mid-fsync: the cache drained only partially.
            self.apply_crash(&mut st);
            return Err(crashed_err());
        }
        // A completed fsync is honest: everything acknowledged is now
        // persisted. Each block leaves the cache only after its inner
        // write succeeded — a genuine inner-device error (the FileDisk
        // leg hitting ENOSPC, say) must not silently drop the rest of
        // the acknowledged image.
        while let Some((&addr, bytes)) = st.cache.iter().next() {
            let bytes = bytes.clone();
            self.inner.write_block(addr, &bytes)?;
            st.cache.remove(&addr);
        }
        self.inner.sync()
    }

    fn write_meta(&self, bytes: &[u8]) -> StorageResult<()> {
        let mut st = self.state.lock();
        if self.note_op(&mut st, OpKind::Meta)? {
            // The meta blob is replaced atomically (write-temp + rename):
            // at a crash either the old or the complete new blob survives.
            if st.pct(50) {
                let _ = self.inner.write_meta(bytes);
            }
            self.apply_crash(&mut st);
            return Err(crashed_err());
        }
        self.inner.write_meta(bytes)
    }

    fn read_meta(&self) -> StorageResult<Option<Vec<u8>>> {
        if self.state.lock().crashed {
            return Err(crashed_err());
        }
        self.inner.read_meta()
    }

    fn wal_append(&self, bytes: &[u8]) -> StorageResult<()> {
        // Stall gate first, *before* the state lock, so a parked caller
        // models a slow device without blocking crash_now / arm / the
        // counters other threads read.
        {
            let mut g = self.gate.lock();
            if g.hold {
                g.stalled += 1;
                while g.hold {
                    self.gate_cv.wait(&mut g);
                }
                g.stalled -= 1;
            }
        }
        let mut st = self.state.lock();
        if st.crashed {
            return Err(crashed_err());
        }
        if st.fail_appends > 0 {
            st.fail_appends -= 1;
            st.ops += 1;
            st.forces += 1; // an attempted force, like note_op counts
            return Err(StorageError::DeviceError(
                "fault-disk: injected transient wal_append failure".into(),
            ));
        }
        if self.note_op(&mut st, OpKind::WalAppend)? {
            // Torn group append: a prefix of the batch reaches the log
            // area, optionally with bit rot inside the fragment. Replay
            // must stop at the damage — everything in this batch belongs
            // to work that was never acknowledged.
            st.torn_wal = Some(bytes.to_vec());
            if self.schedule.torn_in_flight && !bytes.is_empty() {
                let cut = (st.roll() as usize) % (bytes.len() + 1);
                let mut frag = bytes[..cut].to_vec();
                if self.schedule.rot_torn_tail && !frag.is_empty() {
                    let flips = 1 + (st.roll() as usize) % 4;
                    for _ in 0..flips {
                        let pos = (st.roll() as usize) % frag.len();
                        let bit = (st.roll() % 8) as u32;
                        frag[pos] ^= 1u8 << bit;
                    }
                }
                if !frag.is_empty() {
                    let _ = self.inner.wal_append(&frag);
                }
            }
            self.apply_crash(&mut st);
            return Err(crashed_err());
        }
        // A completed append is durable: the real backends fsync inside.
        self.inner.wal_append(bytes)
    }

    fn wal_contents(&self) -> StorageResult<Vec<u8>> {
        if self.state.lock().crashed {
            return Err(crashed_err());
        }
        self.inner.wal_contents()
    }

    fn wal_reset(&self) -> StorageResult<()> {
        let mut st = self.state.lock();
        if self.note_op(&mut st, OpKind::WalReset)? {
            // Truncation either happened or it did not.
            if st.pct(50) {
                let _ = self.inner.wal_reset();
            }
            self.apply_crash(&mut st);
            return Err(crashed_err());
        }
        self.inner.wal_reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimDisk;

    fn inner() -> Arc<dyn BlockDevice> {
        let d = Arc::new(SimDisk::new());
        d.create_file(0, 512).unwrap();
        d
    }

    #[test]
    fn acknowledged_writes_are_readable_but_not_persisted_until_sync() {
        let dev = inner();
        let fault = FaultDisk::new(Arc::clone(&dev), FaultSchedule::manual(1));
        fault.write_block(BlockAddr::new(0, 0), &[7u8; 512]).unwrap();
        // Acknowledged image sees the write...
        let mut buf = [0u8; 512];
        fault.read_block(BlockAddr::new(0, 0), &mut buf).unwrap();
        assert_eq!(buf, [7u8; 512]);
        // ...the persisted image does not.
        dev.read_block(BlockAddr::new(0, 0), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 512]);
        // A completed fsync persists it.
        fault.sync().unwrap();
        dev.read_block(BlockAddr::new(0, 0), &mut buf).unwrap();
        assert_eq!(buf, [7u8; 512]);
    }

    #[test]
    fn crash_loses_unsynced_cache_and_kills_the_device() {
        let dev = inner();
        let mut sched = FaultSchedule::manual(2);
        sched.persist_pct = 0;
        let fault = FaultDisk::new(Arc::clone(&dev), sched);
        fault.write_block(BlockAddr::new(0, 3), &[9u8; 512]).unwrap();
        fault.crash_now();
        assert!(fault.has_crashed());
        let mut buf = [1u8; 512];
        assert!(fault.read_block(BlockAddr::new(0, 3), &mut buf).is_err());
        assert!(fault.write_block(BlockAddr::new(0, 3), &[2u8; 512]).is_err());
        dev.read_block(BlockAddr::new(0, 3), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "unsynced write must vanish");
    }

    #[test]
    fn crash_point_counts_wal_forces_and_tears_the_batch() {
        let dev = inner();
        let sched = FaultSchedule {
            seed: 3,
            crash: CrashPoint::OnWalForce(2),
            persist_pct: 100,
            torn_in_flight: true,
            rot_torn_tail: false,
        };
        let fault = FaultDisk::new(Arc::clone(&dev), sched);
        fault.wal_append(&[1u8; 64]).unwrap();
        let err = fault.wal_append(&[2u8; 64]);
        assert!(err.is_err(), "second force is the crash point");
        assert!(fault.has_crashed());
        let log = dev.wal_contents().unwrap();
        assert!(log.len() >= 64, "first append fully persisted");
        assert!(log.len() < 128, "second append at most a torn prefix");
        assert!(log[..64].iter().all(|&b| b == 1));
        assert_eq!(fault.torn_wal_batch(), Some(vec![2u8; 64]), "the interrupted batch");
    }

    #[test]
    fn schedules_are_reproducible_from_their_seed() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let a = FaultSchedule::from_seed(seed);
            let b = FaultSchedule::from_seed(seed);
            assert_eq!(a.crash, b.crash);
            assert_eq!(a.persist_pct, b.persist_pct);
            assert_eq!(a.torn_in_flight, b.torn_in_flight);
            assert_eq!(a.rot_torn_tail, b.rot_torn_tail);
        }
    }

    #[test]
    fn partial_fsync_drains_a_seed_chosen_subset() {
        let dev = inner();
        let sched = FaultSchedule {
            seed: 77,
            crash: CrashPoint::OnSync(1),
            persist_pct: 50,
            torn_in_flight: false,
            rot_torn_tail: false,
        };
        let fault = FaultDisk::new(Arc::clone(&dev), sched);
        for b in 0..32u32 {
            fault.write_block(BlockAddr::new(0, b), &[b as u8 + 1; 512]).unwrap();
        }
        assert!(fault.sync().is_err(), "first sync is the crash point");
        let mut survived = 0;
        let mut buf = [0u8; 512];
        for b in 0..32u32 {
            dev.read_block(BlockAddr::new(0, b), &mut buf).unwrap();
            if buf.iter().any(|&x| x != 0) {
                survived += 1;
            }
        }
        assert!(
            survived > 0 && survived < 32,
            "a strict subset should persist, got {survived}/32"
        );
    }
}
