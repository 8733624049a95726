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
//! * a [`CostModel`] translating each transfer into simulated service time
//!   (seek + rotational + per-byte transfer), so benchmarks can report a
//!   device-time axis that rewards contiguity exactly the way a disk arm
//!   does — the property the paper's clustering design banks on.

use crate::error::{StorageError, StorageResult};
use crate::stats::IoStats;
use parking_lot::{rank, Mutex, RwLock};
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

/// Cost model for the simulated device.
///
/// Defaults approximate a late-1980s disk (the paper's era): 16 ms average
/// seek, 8 ms rotational delay, ~1 MB/s transfer. Absolute values do not
/// matter for the reproduction — only that contiguous multi-block transfer
/// is much cheaper than scattered single-block access, which is the ratio
/// the cost model preserves.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost of moving the arm to a non-adjacent block (ns).
    pub seek_ns: u64,
    /// Average rotational latency paid once per transfer start (ns).
    pub rotation_ns: u64,
    /// Transfer cost per byte (ns).
    pub per_byte_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seek_ns: 16_000_000,
            rotation_ns: 8_000_000,
            per_byte_ns: 1_000, // 1 MB/s
        }
    }
}

impl CostModel {
    /// Service time of a transfer of `blocks` contiguous blocks of
    /// `block_len` bytes each; `seek` says whether the arm had to move.
    pub fn transfer_ns(&self, seek: bool, blocks: u64, block_len: u64) -> u64 {
        let positioning = if seek { self.seek_ns } else { 0 } + self.rotation_ns;
        positioning + blocks * block_len * self.per_byte_ns
    }
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

    /// Reads one block into `buf` (`buf.len()` must equal the block length).
    fn read_block(&self, addr: BlockAddr, buf: &mut [u8]) -> StorageResult<()>;

    /// Writes one block from `buf` (`buf.len()` must equal the block length).
    fn write_block(&self, addr: BlockAddr, buf: &[u8]) -> StorageResult<()>;

    /// Chained I/O: reads `count` blocks starting at `addr` in one run.
    /// `buf.len()` must equal `count * block_len`. This is the cluster
    /// mechanism of \[Ne87\] the paper relies on for page sequences: one
    /// positioning operation, then streaming transfer.
    fn read_chained(&self, addr: BlockAddr, count: u32, buf: &mut [u8]) -> StorageResult<()>;

    /// Chained write of `count` contiguous blocks.
    fn write_chained(&self, addr: BlockAddr, count: u32, buf: &[u8]) -> StorageResult<()>;

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
/// a transfer seeks, the cost model that prices the transfer, and the
/// statistics it lands in.
pub(crate) struct Accounting {
    /// Position after the last transfer; `None` after a log append.
    // lockrank: device.2 — arm position; leaf.
    arm: Mutex<Option<BlockAddr>>,
    pub(crate) cost: CostModel,
    pub(crate) stats: Arc<IoStats>,
}

impl Accounting {
    pub(crate) fn new() -> Self {
        Accounting {
            arm: Mutex::new_ranked(None, rank::DEVICE + 2),
            cost: CostModel::default(),
            stats: IoStats::new_shared(),
        }
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
        let seek = {
            let mut arm = self.arm.lock();
            let seek =
                arm.is_none_or(|prev| prev.file != addr.file || prev.block + 1 != addr.block);
            *arm = Some(BlockAddr::new(addr.file, addr.block + blocks as u32 - 1));
            seek
        };
        let s = &self.stats;
        if seek {
            s.add(&s.seeks, 1);
        }
        let bytes = blocks * block_len as u64;
        if write {
            s.add(&s.block_writes, blocks);
            s.add(&s.bytes_written, bytes);
        } else {
            s.add(&s.block_reads, blocks);
            s.add(&s.bytes_read, bytes);
        }
        if chained {
            s.add(&s.chained_runs, 1);
            s.add(&s.chained_blocks, blocks);
        }
        s.add(&s.sim_time_ns, self.cost.transfer_ns(seek, blocks, block_len as u64));
    }

    /// Accounts one WAL group append as a single sequential transfer to
    /// the log area: one positioning operation, then streaming bytes — N
    /// records per force pay one seek, not N, which is what makes group
    /// commit visible on the device-time axis. The arm moves to the log
    /// area, so the next data transfer seeks.
    pub(crate) fn log_append(&self, len: usize) {
        let s = &self.stats;
        s.add(&s.seeks, 1);
        s.add(&s.wal_forces, 1);
        s.add(&s.wal_bytes, len as u64);
        s.add(&s.bytes_written, len as u64);
        s.add(&s.sim_time_ns, self.cost.transfer_ns(true, 1, len as u64));
        *self.arm.lock() = None;
    }
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
    files: RwLock<Vec<Option<Arc<RwLock<SimFile>>>>>,
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
        f.debug_struct("SimDisk").field("cost", &self.io.cost).finish_non_exhaustive()
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

    fn file(&self, file: u32) -> StorageResult<Arc<RwLock<SimFile>>> {
        self.files
            .read()
            .get(file as usize)
            .and_then(std::clone::Clone::clone)
            .ok_or(StorageError::UnknownSegment(file))
    }

    fn with_file<R>(
        &self,
        file: u32,
        f: impl FnOnce(&mut SimFile) -> StorageResult<R>,
    ) -> StorageResult<R> {
        let handle = self.file(file)?;
        let mut guard = handle.write();
        f(&mut guard)
    }

    fn with_file_read<R>(
        &self,
        file: u32,
        f: impl FnOnce(&SimFile) -> StorageResult<R>,
    ) -> StorageResult<R> {
        let handle = self.file(file)?;
        let guard = handle.read();
        f(&guard)
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
            Some(Arc::new(RwLock::new_ranked(SimFile { block_len, blocks: Vec::new() }, rank::DEVICE + 1)));
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

    fn write_chained(&self, addr: BlockAddr, count: u32, buf: &[u8]) -> StorageResult<()> {
        let block_len = self.with_file(addr.file, |f| {
            debug_assert_eq!(buf.len(), count as usize * f.block_len);
            let end = (addr.block + count) as usize;
            if f.blocks.len() < end {
                f.blocks.resize_with(end, || None);
            }
            for i in 0..count as usize {
                let src = &buf[i * f.block_len..(i + 1) * f.block_len];
                f.blocks[addr.block as usize + i] = Some(src.to_vec().into_boxed_slice());
            }
            Ok(f.block_len)
        })?;
        self.io.transfer(addr, count as u64, block_len, true, true);
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
        d.write_chained(BlockAddr::new(0, 10), 4, &data).unwrap();
        let mut out = vec![0u8; 4 * 512];
        d.read_chained(BlockAddr::new(0, 10), 4, &mut out).unwrap();
        assert_eq!(out, data);
        let s = d.stats().snapshot();
        assert_eq!(s.chained_runs, 2);
        assert_eq!(s.chained_blocks, 8);
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
        let m = CostModel::default();
        let chained = m.transfer_ns(true, 8, 1024);
        let scattered: u64 = (0..8).map(|_| m.transfer_ns(true, 1, 1024)).sum();
        assert!(chained < scattered / 3, "chained {chained} vs scattered {scattered}");
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
