//! Simulated block device ("files and blocks" level of Fig. 3.1).
//!
//! The paper's storage system sits on the file manager of the INCAS
//! operating system \[Ne87\], which supports exactly the block sizes
//! 1/2, 1, 2, 4 and 8 KByte and offers a *cluster mechanism* enabling
//! optimal transfer of whole page sequences, e.g. by chained I/O.
//!
//! [`SimDisk`] substitutes for that 1987 hardware/OS stack: an in-memory
//! store of fixed-size blocks per file, with
//!
//! * full I/O accounting ([`crate::IoStats`]): block reads/writes, bytes,
//!   *seeks* (non-contiguous transfers), chained-run statistics, and
//! * a cost model translating each transfer into simulated service time
//!   (seek + rotational + per-byte transfer), so benchmarks can report a
//!   device-time axis that rewards contiguity exactly the way a disk arm
//!   does — the property the paper's clustering design banks on.

use crate::error::{StorageError, StorageResult};
use crate::stats::IoStats;
use parking_lot::{rank, Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Address of one block within one file of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockAddr {
    /// File number (each segment maps 1:1 onto a file).
    pub file: u32,
    /// Block number within the file.
    pub block: u32,
}

impl BlockAddr {
    pub fn new(file: u32, block: u32) -> Self {
        BlockAddr { file, block }
    }
}

// The cost model of the simulated device approximates a late-1980s disk
// (the paper's era). Absolute values do not matter for the reproduction —
// only that contiguous multi-block transfer is much cheaper than
// scattered single-block access, which is the ratio the model preserves.

/// Cost of moving the arm to a non-adjacent block: 16 ms.
const SEEK_NS: u64 = 16_000_000;
/// Average rotational latency paid once per transfer start: 8 ms.
const ROTATION_NS: u64 = 8_000_000;
/// Transfer cost per byte: ~1 MB/s.
const PER_BYTE_NS: u64 = 1_000;

/// Service time of a transfer of `blocks` contiguous blocks of
/// `block_len` bytes each; `seek` says whether the arm had to move.
fn transfer_ns(seek: bool, blocks: u64, block_len: u64) -> u64 {
    let positioning = if seek { SEEK_NS } else { 0 } + ROTATION_NS;
    positioning + blocks * block_len * PER_BYTE_NS
}

/// Abstract block device: what the PRIMA storage system requires of the
/// underlying file manager.
///
/// Files have a fixed block length chosen at creation (one of the five
/// supported sizes, enforced by the segment layer, not here). Blocks are
/// sparse: reading a never-written block yields zeroes, like a fresh file.
pub trait BlockDevice: Send + Sync {
    /// Creates file `file` with the given block length in bytes.
    /// Re-creating an existing file truncates it. Fallible: a real
    /// backend can hit ENOSPC / EMFILE / permissions here.
    fn create_file(&self, file: u32, block_len: usize) -> StorageResult<()>;

    /// Block length of `file`.
    fn block_len(&self, file: u32) -> StorageResult<usize>;

    /// Reads one block into `buf` (`buf.len()` must equal the block length),
    /// overwriting every byte of it: a never-written block reads as
    /// zeroes. The buffer reads into recycled page blocks, which still hold
    /// the previous page's bytes.
    fn read_block(&self, addr: BlockAddr, buf: &mut [u8]) -> StorageResult<()>;

    /// Writes one block from `buf` (`buf.len()` must equal the block length).
    fn write_block(&self, addr: BlockAddr, buf: &[u8]) -> StorageResult<()>;

    /// Chained I/O: reads `count` blocks starting at `addr` in one run.
    /// `buf.len()` must equal `count * block_len`; like
    /// [`BlockDevice::read_block`] it overwrites every byte of `buf`. This
    /// is the cluster mechanism of \[Ne87\] the paper relies on for page
    /// sequences: one positioning operation, then streaming transfer.
    fn read_chained(&self, addr: BlockAddr, count: u32, buf: &mut [u8]) -> StorageResult<()>;

    /// Shared I/O statistics of this device.
    fn stats(&self) -> Arc<IoStats>;

    // -- durability hooks --------------------------------------------------
    //
    // A durable device additionally offers a metadata blob (the checkpoint
    // snapshot), an append-only log area (the WAL's backing store) and a
    // `sync` barrier. The defaults make a device *volatile*: every hook
    // errors, so a kernel configured for durability fails fast rather than
    // silently losing data. [`SimDisk`] implements them in memory (its Arc
    // plays the role of the surviving medium in crash tests); `FileDisk`
    // implements them over real files.

    /// Makes all previous writes durable (fsync-equivalent).
    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }

    /// Atomically replaces the device's metadata blob (checkpoint
    /// snapshot).
    fn write_meta(&self, _bytes: &[u8]) -> StorageResult<()> {
        Err(StorageError::DeviceError("device has no durable metadata area".into()))
    }

    /// Reads the metadata blob, `None` if never written.
    fn read_meta(&self) -> StorageResult<Option<Vec<u8>>> {
        Err(StorageError::DeviceError("device has no durable metadata area".into()))
    }

    /// Durably appends one already-encoded batch to the log area (called
    /// by [`crate::wal::Wal::force`] — one call per group commit).
    fn wal_append(&self, _bytes: &[u8]) -> StorageResult<()> {
        Err(StorageError::DeviceError("device has no log area".into()))
    }

    /// The entire log-area contents (recovery replay).
    fn wal_contents(&self) -> StorageResult<Vec<u8>> {
        Err(StorageError::DeviceError("device has no log area".into()))
    }

    /// Truncates the log area to empty (checkpoint).
    fn wal_reset(&self) -> StorageResult<()> {
        Err(StorageError::DeviceError("device has no log area".into()))
    }
}

/// The I/O accounting every block device shares, so the benchmark axes
/// stay comparable across backends: one arm — the classical
/// single-spindle assumption of the era — whose position decides whether
/// a transfer seeks, and the statistics the transfer lands in, its
/// simulated service time priced by [`transfer_ns`].
pub(crate) struct Accounting {
    /// Where a transfer must start not to seek: file in the high half,
    /// the block after the last one transferred in the low half;
    /// [`NO_ARM`] after a log append. One swap per transfer, no lock.
    arm: AtomicU64,
    pub(crate) stats: Arc<IoStats>,
}

impl Accounting {
    pub(crate) fn new() -> Self {
        Accounting { arm: AtomicU64::new(NO_ARM), stats: IoStats::new_shared() }
    }

    /// Accounts a transfer of `blocks` contiguous blocks from `addr` on:
    /// it seeks unless it starts right after the previous one.
    pub(crate) fn transfer(
        &self,
        addr: BlockAddr,
        blocks: u64,
        block_len: usize,
        write: bool,
        chained: bool,
    ) {
        let next = arm_at(addr.file, addr.block.wrapping_add(blocks as u32));
        let seek = self.arm.swap(next, Ordering::Relaxed) != arm_at(addr.file, addr.block);
        let s = &self.stats;
        if seek {
            s.seeks.add(1);
        }
        let bytes = blocks * block_len as u64;
        if write {
            s.block_writes.add(blocks);
            s.bytes_written.add(bytes);
        } else {
            s.block_reads.add(blocks);
            s.bytes_read.add(bytes);
        }
        if chained {
            s.chained_runs.add(1);
            s.chained_blocks.add(blocks);
        }
        s.sim_time_ns.add(transfer_ns(seek, blocks, block_len as u64));
    }

    /// Accounts one WAL group append as a single sequential transfer to
    /// the log area: one positioning operation, then streaming bytes — N
    /// records per force pay one seek, not N, which is what makes group
    /// commit visible on the device-time axis. The arm moves to the log
    /// area, so the next data transfer seeks.
    pub(crate) fn log_append(&self, len: usize) {
        let s = &self.stats;
        s.seeks.add(1);
        s.wal_forces.add(1);
        s.wal_bytes.add(len as u64);
        s.bytes_written.add(len as u64);
        s.sim_time_ns.add(transfer_ns(true, 1, len as u64));
        self.arm.store(NO_ARM, Ordering::Relaxed);
    }
}

/// The arm position "at the log area": no data transfer starts there.
const NO_ARM: u64 = u64::MAX;

/// The arm position just before `block` of `file`.
fn arm_at(file: u32, block: u32) -> u64 {
    (u64::from(file) << 32) | u64::from(block)
}

/// File state inside the simulator.
#[derive(Debug)]
struct SimFile {
    block_len: usize,
    /// Sparse block store; `None` entries read as zeroes.
    blocks: Vec<Option<Box<[u8]>>>,
}

/// In-memory simulated disk. See module docs.
///
/// Files are individually locked so concurrent readers (parallel DUs) do
/// not serialise on one global mutex — the real device property being
/// modelled is arm movement (cost model), not a software lock.
pub struct SimDisk {
    // lockrank: device.0 — file directory (outer); per-file locks nest
    // inside it.
    files: RwLock<Vec<Option<RwLock<SimFile>>>>,
    io: Accounting,
    /// Durable metadata blob (checkpoint snapshot) — in-memory stand-in.
    // lockrank: device.3
    meta: Mutex<Option<Vec<u8>>>,
    /// Log area: only what was explicitly appended (i.e. *forced*) lives
    /// here, so dropping a kernel without forcing models a crash exactly.
    // lockrank: device.4
    wal: Mutex<Vec<u8>>,
}

impl std::fmt::Debug for SimDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDisk").finish_non_exhaustive()
    }
}

impl SimDisk {
    /// A device with the default 1987-style cost model.
    pub fn new() -> Self {
        SimDisk {
            files: RwLock::new_ranked(Vec::new(), rank::DEVICE),
            io: Accounting::new(),
            meta: Mutex::new_ranked(None, rank::DEVICE + 3),
            wal: Mutex::new_ranked(Vec::new(), rank::DEVICE + 4),
        }
    }

    /// Runs `op` on `file`'s lock under the directory's read guard.
    fn with_handle<R>(
        &self,
        file: u32,
        op: impl FnOnce(&RwLock<SimFile>) -> StorageResult<R>,
    ) -> StorageResult<R> {
        let files = self.files.read();
        let handle = files.get(file as usize).and_then(Option::as_ref);
        op(handle.ok_or(StorageError::UnknownSegment(file))?)
    }

    fn with_file<R>(
        &self,
        file: u32,
        f: impl FnOnce(&mut SimFile) -> StorageResult<R>,
    ) -> StorageResult<R> {
        self.with_handle(file, |handle| f(&mut handle.write()))
    }

    fn with_file_read<R>(
        &self,
        file: u32,
        f: impl FnOnce(&SimFile) -> StorageResult<R>,
    ) -> StorageResult<R> {
        self.with_handle(file, |handle| f(&handle.read()))
    }
}

impl Default for SimDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockDevice for SimDisk {
    fn create_file(&self, file: u32, block_len: usize) -> StorageResult<()> {
        let mut files = self.files.write();
        if files.len() <= file as usize {
            files.resize_with(file as usize + 1, || None);
        }
        // lockrank: device.1 — per-file content lock, inside the directory.
        files[file as usize] =
            Some(RwLock::new_ranked(SimFile { block_len, blocks: Vec::new() }, rank::DEVICE + 1));
        Ok(())
    }

    fn block_len(&self, file: u32) -> StorageResult<usize> {
        self.with_file_read(file, |f| Ok(f.block_len))
    }

    fn read_block(&self, addr: BlockAddr, buf: &mut [u8]) -> StorageResult<()> {
        self.with_file_read(addr.file, |f| {
            debug_assert_eq!(buf.len(), f.block_len, "buffer must match block length");
            match f.blocks.get(addr.block as usize).and_then(|b| b.as_deref()) {
                Some(data) => buf.copy_from_slice(data),
                None => buf.fill(0),
            }
            Ok(())
        })?;
        self.io.transfer(addr, 1, buf.len(), false, false);
        Ok(())
    }

    fn write_block(&self, addr: BlockAddr, buf: &[u8]) -> StorageResult<()> {
        self.with_file(addr.file, |f| {
            debug_assert_eq!(buf.len(), f.block_len, "buffer must match block length");
            let idx = addr.block as usize;
            if f.blocks.len() <= idx {
                f.blocks.resize_with(idx + 1, || None);
            }
            f.blocks[idx] = Some(buf.to_vec().into_boxed_slice());
            Ok(())
        })?;
        self.io.transfer(addr, 1, buf.len(), true, false);
        Ok(())
    }

    fn read_chained(&self, addr: BlockAddr, count: u32, buf: &mut [u8]) -> StorageResult<()> {
        let block_len = self.with_file_read(addr.file, |f| {
            debug_assert_eq!(buf.len(), count as usize * f.block_len);
            for i in 0..count {
                let idx = (addr.block + i) as usize;
                let dst = &mut buf[i as usize * f.block_len..(i as usize + 1) * f.block_len];
                match f.blocks.get(idx).and_then(|b| b.as_deref()) {
                    Some(data) => dst.copy_from_slice(data),
                    None => dst.fill(0),
                }
            }
            Ok(f.block_len)
        })?;
        self.io.transfer(addr, count as u64, block_len, false, true);
        Ok(())
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.io.stats)
    }

    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }

    fn write_meta(&self, bytes: &[u8]) -> StorageResult<()> {
        *self.meta.lock() = Some(bytes.to_vec());
        Ok(())
    }

    fn read_meta(&self) -> StorageResult<Option<Vec<u8>>> {
        Ok(self.meta.lock().clone())
    }

    fn wal_append(&self, bytes: &[u8]) -> StorageResult<()> {
        self.wal.lock().extend_from_slice(bytes);
        self.io.log_append(bytes.len());
        Ok(())
    }

    fn wal_contents(&self) -> StorageResult<Vec<u8>> {
        Ok(self.wal.lock().clone())
    }

    fn wal_reset(&self) -> StorageResult<()> {
        self.wal.lock().clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_what_was_written() {
        let d = SimDisk::new();
        d.create_file(0, 512).unwrap();
        let data = vec![0xabu8; 512];
        d.write_block(BlockAddr::new(0, 3), &data).unwrap();
        let mut out = vec![0u8; 512];
        d.read_block(BlockAddr::new(0, 3), &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let d = SimDisk::new();
        d.create_file(1, 1024).unwrap();
        let mut out = vec![0xffu8; 1024];
        d.read_block(BlockAddr::new(1, 100), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn unknown_file_errors() {
        let d = SimDisk::new();
        let mut out = vec![0u8; 512];
        assert!(matches!(
            d.read_block(BlockAddr::new(9, 0), &mut out),
            Err(StorageError::UnknownSegment(9))
        ));
    }

    #[test]
    fn chained_io_round_trips_and_counts_one_run() {
        let d = SimDisk::new();
        d.create_file(0, 512).unwrap();
        let mut data = vec![0u8; 4 * 512];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        for (i, block) in data.chunks(512).enumerate() {
            d.write_block(BlockAddr::new(0, 10 + i as u32), block).unwrap();
        }
        let mut out = vec![0u8; 4 * 512];
        d.read_chained(BlockAddr::new(0, 10), 4, &mut out).unwrap();
        assert_eq!(out, data);
        let s = d.stats().snapshot();
        assert_eq!(s.chained_runs, 1);
        assert_eq!(s.chained_blocks, 4);
        assert_eq!(s.block_reads, 4);
        assert_eq!(s.block_writes, 4);
    }

    #[test]
    fn sequential_access_avoids_seeks() {
        let d = SimDisk::new();
        d.create_file(0, 512).unwrap();
        let buf = vec![0u8; 512];
        for b in 0..10 {
            d.write_block(BlockAddr::new(0, b), &buf).unwrap();
        }
        // first transfer seeks, the other nine are contiguous
        assert_eq!(d.stats().snapshot().seeks, 1);
        let mut r = vec![0u8; 512];
        // jump back to block 0: one more seek, then sequential
        for b in 0..10 {
            d.read_block(BlockAddr::new(0, b), &mut r).unwrap();
        }
        assert_eq!(d.stats().snapshot().seeks, 2);
    }

    #[test]
    fn scattered_access_pays_seeks() {
        let d = SimDisk::new();
        d.create_file(0, 512).unwrap();
        let mut r = vec![0u8; 512];
        for b in [5u32, 50, 7, 99, 2] {
            d.read_block(BlockAddr::new(0, b), &mut r).unwrap();
        }
        assert_eq!(d.stats().snapshot().seeks, 5);
    }

    #[test]
    fn cost_model_rewards_contiguity() {
        let chained = transfer_ns(true, 8, 1024);
        let scattered: u64 = (0..8).map(|_| transfer_ns(true, 1, 1024)).sum();
        assert!(chained < scattered / 3, "chained {chained} vs scattered {scattered}");
    }

    /// What a device must return for blocks `0..want.len()` of file 0,
    /// whatever `buf` held before: every read fills its buffer with 0xA5
    /// first, the way a recycled page block still holds another page.
    fn assert_reads_overwrite(dev: &dyn BlockDevice, want: &[[u8; 512]], what: &str) {
        const STALE: u8 = 0xA5;
        for (block, want) in (0u32..).zip(want) {
            let mut buf = [STALE; 512];
            dev.read_block(BlockAddr::new(0, block), &mut buf).unwrap();
            assert_eq!(&buf, want, "{what}: read_block of block {block}");
        }
        let mut buf = vec![STALE; want.len() * 512];
        dev.read_chained(BlockAddr::new(0, 0), want.len() as u32, &mut buf).unwrap();
        assert_eq!(buf, want.concat(), "{what}: read_chained");
    }

    #[test]
    fn reads_overwrite_every_byte_of_the_buffer() {
        let zero = [0u8; 512];
        // SimDisk: a written block, and a never-written one.
        let sim = SimDisk::new();
        sim.create_file(0, 512).unwrap();
        sim.write_block(BlockAddr::new(0, 0), &[7; 512]).unwrap();
        assert_reads_overwrite(&sim, &[[7; 512], zero], "SimDisk");

        // FileDisk: a written block, and blocks past the end of the file.
        let dir = std::env::temp_dir().join(format!("prima-read-contract-{}", std::process::id()));
        let file = crate::FileDisk::create(&dir).unwrap();
        file.create_file(0, 512).unwrap();
        file.write_block(BlockAddr::new(0, 0), &[7; 512]).unwrap();
        assert_reads_overwrite(&file, &[[7; 512], zero, zero], "FileDisk");
        drop(file);
        let _ = std::fs::remove_dir_all(&dir);

        // FaultDisk: a persisted block, a cache hit, and a block on
        // neither.
        let inner = Arc::new(SimDisk::new());
        inner.create_file(0, 512).unwrap();
        let fault = crate::FaultDisk::new(inner, crate::FaultSchedule::manual(1));
        fault.write_block(BlockAddr::new(0, 0), &[7; 512]).unwrap();
        fault.sync().unwrap();
        fault.write_block(BlockAddr::new(0, 1), &[9; 512]).unwrap();
        assert_reads_overwrite(&*fault, &[[7; 512], [9; 512], zero], "FaultDisk");
    }

    #[test]
    fn recreate_truncates() {
        let d = SimDisk::new();
        d.create_file(0, 512).unwrap();
        d.write_block(BlockAddr::new(0, 0), &[1u8; 512]).unwrap();
        d.create_file(0, 512).unwrap();
        let mut out = [0xffu8; 512];
        d.read_block(BlockAddr::new(0, 0), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }
}
