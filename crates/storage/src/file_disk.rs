//! A real file-backed block device.
//!
//! [`FileDisk`] implements [`BlockDevice`] over one directory of ordinary
//! files — the "life beyond the process" half of the durability subsystem.
//! Each segment file maps 1:1 onto `segNNNNNN.<block_len>.blk` (the block
//! length rides in the name so [`FileDisk::open`] can re-register files
//! without any catalog), chained I/O is a single contiguous
//! `pread`/`pwrite` at `block * block_len`, and [`BlockDevice::sync`]
//! fsyncs every file plus the directory.
//!
//! The durability hooks live beside the block files:
//!
//! * `meta.bin` — the checkpoint metadata blob, replaced atomically via a
//!   write-to-temp + rename + dir-fsync dance;
//! * `wal.log` — the append-only log area; [`BlockDevice::wal_append`]
//!   appends and fsyncs in one call, so one group-commit force is exactly
//!   one synchronous log write.
//!
//! I/O statistics come from the accounting [`crate::disk::SimDisk`] uses
//! (seeks are modelled positionally over block addresses; real devices
//! reorder, but the *relative* contiguity signal is what benchmarks
//! compare), so a workload can be replayed against either backend and
//! report the same axes.

use crate::disk::{Accounting, BlockAddr, BlockDevice};
use crate::error::{StorageError, StorageResult};
use crate::stats::IoStats;
use parking_lot::{rank, Mutex, RwLock};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct DiskFile {
    file: File,
    block_len: usize,
    path: PathBuf,
}

/// File-backed block device rooted at one directory. See module docs.
pub struct FileDisk {
    dir: PathBuf,
    // lockrank: device.0 — file directory; guards are released before
    // block I/O (the Arc<DiskFile> is cloned out).
    files: RwLock<HashMap<u32, Arc<DiskFile>>>,
    // lockrank: device.1 — log-file handle; held across the OS write by
    // design (this lock *is* the device-side append serialisation).
    wal: Mutex<File>,
    io: Accounting,
}

impl std::fmt::Debug for FileDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileDisk").field("dir", &self.dir).finish_non_exhaustive()
    }
}

impl Drop for FileDisk {
    fn drop(&mut self) {
        // Release the directory lock if it is still ours. (A crash skips
        // this; the next opener detects the dead pid and takes over.)
        let lock_path = self.dir.join("LOCK");
        if let Ok(contents) = fs::read_to_string(&lock_path) {
            if contents.trim().parse::<u32>() == Ok(std::process::id()) {
                let _ = fs::remove_file(&lock_path);
            }
        }
    }
}

fn io_err(ctx: &str, e: std::io::Error) -> StorageError {
    StorageError::DeviceError(format!("{ctx}: {e}"))
}

fn seg_file_name(file: u32, block_len: usize) -> String {
    format!("seg{file:06}.{block_len}.blk")
}

/// Whether the process holding a lock is still alive. On Linux this
/// probes `/proc/<pid>`; elsewhere liveness cannot be checked without
/// libc, so every foreign pid is conservatively treated as alive (a
/// crashed owner's lock then needs manual removal — safe, not silent
/// corruption).
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// Single-opener guard: a `LOCK` file carrying the owning pid, created
/// atomically (`O_EXCL`) so two racing openers cannot both win. A lock
/// whose pid is dead is stale and is taken over — crash recovery must
/// not be blocked by the crashed owner's leftover. A lock held by *this*
/// process is also taken over: that is the kill-point harness (and any
/// embedder) reopening its own "crashed" instance; true same-process
/// double-opens are out of scope.
fn acquire_dir_lock(dir: &Path) -> StorageResult<()> {
    let lock_path = dir.join("LOCK");
    let my_pid = std::process::id();
    for _ in 0..3 {
        match OpenOptions::new().write(true).create_new(true).open(&lock_path) {
            Ok(mut f) => {
                f.write_all(format!("{my_pid}\n").as_bytes())
                    .map_err(|e| io_err("write LOCK", e))?;
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = fs::read_to_string(&lock_path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                match holder {
                    Some(pid) if pid != my_pid && pid_alive(pid) => {
                        return Err(StorageError::DeviceError(format!(
                            "database at {} is locked by running process {pid}",
                            dir.display()
                        )));
                    }
                    // Stale (dead pid / unreadable) or our own: remove
                    // and retry the atomic create — a concurrent taker
                    // may win the race, in which case the next iteration
                    // sees *its* live pid and errors out.
                    _ => {
                        let _ = fs::remove_file(&lock_path);
                    }
                }
            }
            Err(e) => return Err(io_err("create LOCK", e)),
        }
    }
    Err(StorageError::DeviceError(format!(
        "could not acquire LOCK at {} (contended)",
        dir.display()
    )))
}

/// Parses `segNNNNNN.<block_len>.blk` back into `(file, block_len)`.
fn parse_seg_name(name: &str) -> Option<(u32, usize)> {
    let rest = name.strip_prefix("seg")?.strip_suffix(".blk")?;
    let (num, len) = rest.split_once('.')?;
    Some((num.parse().ok()?, len.parse().ok()?))
}

impl FileDisk {
    /// Creates (or reuses) the directory and opens an empty device: any
    /// pre-existing segment files are **removed** (fresh database). Use
    /// [`FileDisk::open`] to attach to an existing database directory.
    pub fn create(dir: impl AsRef<Path>) -> StorageResult<FileDisk> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", e))?;
        // Lock before clearing: never destroy a database another live
        // process has open.
        acquire_dir_lock(&dir)?;
        for entry in fs::read_dir(&dir).map_err(|e| io_err("scan dir", e))? {
            let entry = entry.map_err(|e| io_err("scan dir", e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if parse_seg_name(&name).is_some() || name == "meta.bin" || name == "wal.log" {
                fs::remove_file(entry.path()).map_err(|e| io_err("clear dir", e))?;
            }
        }
        Self::attach(dir)
    }

    /// Opens an existing database directory, re-registering every segment
    /// file found there (block lengths are encoded in the file names).
    pub fn open(dir: impl AsRef<Path>) -> StorageResult<FileDisk> {
        let dir = dir.as_ref().to_path_buf();
        if !dir.is_dir() {
            return Err(StorageError::DeviceError(format!(
                "no database directory at {}",
                dir.display()
            )));
        }
        acquire_dir_lock(&dir)?;
        let disk = Self::attach(dir)?;
        let entries: Vec<_> = fs::read_dir(&disk.dir)
            .map_err(|e| io_err("scan dir", e))?
            .collect::<Result<_, _>>()
            .map_err(|e| io_err("scan dir", e))?;
        let mut files = disk.files.write();
        for entry in entries {
            if let Some((file, block_len)) = parse_seg_name(&entry.file_name().to_string_lossy())
            {
                let f = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(entry.path())
                    .map_err(|e| io_err("open segment file", e))?;
                files.insert(
                    file,
                    Arc::new(DiskFile { file: f, block_len, path: entry.path() }),
                );
            }
        }
        drop(files);
        Ok(disk)
    }

    fn attach(dir: PathBuf) -> StorageResult<FileDisk> {
        let wal = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join("wal.log"))
            .map_err(|e| io_err("open wal.log", e))?;
        Ok(FileDisk {
            dir,
            files: RwLock::new_ranked(HashMap::new(), rank::DEVICE),
            wal: Mutex::new_ranked(wal, rank::DEVICE + 1),
            io: Accounting::new(),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file(&self, file: u32) -> StorageResult<Arc<DiskFile>> {
        self.files.read().get(&file).cloned().ok_or(StorageError::UnknownSegment(file))
    }

    fn read_at(&self, f: &DiskFile, addr: BlockAddr, count: u32, buf: &mut [u8]) -> StorageResult<()> {
        debug_assert_eq!(buf.len(), count as usize * f.block_len);
        let offset = addr.block as u64 * f.block_len as u64;
        // Short reads past EOF yield zeroes, like a sparse file.
        let mut read = 0usize;
        while read < buf.len() {
            match f.file.read_at(&mut buf[read..], offset + read as u64) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {} // EINTR: retry
                Err(e) => return Err(io_err("pread", e)),
            }
        }
        buf[read..].fill(0);
        Ok(())
    }

    fn sync_dir(&self) -> StorageResult<()> {
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("fsync dir", e))
    }
}

impl BlockDevice for FileDisk {
    fn create_file(&self, file: u32, block_len: usize) -> StorageResult<()> {
        let mut files = self.files.write();
        // Re-creation truncates; a leftover file under the same id with a
        // different block length is replaced.
        if let Some(old) = files.remove(&file) {
            let _ = fs::remove_file(&old.path);
        }
        let path = self.dir.join(seg_file_name(file, block_len));
        let f = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create segment file", e))?;
        files.insert(file, Arc::new(DiskFile { file: f, block_len, path }));
        Ok(())
    }

    fn block_len(&self, file: u32) -> StorageResult<usize> {
        Ok(self.file(file)?.block_len)
    }

    fn read_block(&self, addr: BlockAddr, buf: &mut [u8]) -> StorageResult<()> {
        let f = self.file(addr.file)?;
        self.read_at(&f, addr, 1, buf)?;
        self.io.transfer(addr, 1, f.block_len, false, false);
        Ok(())
    }

    fn write_block(&self, addr: BlockAddr, buf: &[u8]) -> StorageResult<()> {
        let f = self.file(addr.file)?;
        debug_assert_eq!(buf.len(), f.block_len);
        f.file
            .write_all_at(buf, addr.block as u64 * f.block_len as u64)
            .map_err(|e| io_err("pwrite", e))?;
        self.io.transfer(addr, 1, f.block_len, true, false);
        Ok(())
    }

    fn read_chained(&self, addr: BlockAddr, count: u32, buf: &mut [u8]) -> StorageResult<()> {
        let f = self.file(addr.file)?;
        self.read_at(&f, addr, count, buf)?;
        self.io.transfer(addr, count as u64, f.block_len, false, true);
        Ok(())
    }

    fn write_chained(&self, addr: BlockAddr, count: u32, buf: &[u8]) -> StorageResult<()> {
        let f = self.file(addr.file)?;
        debug_assert_eq!(buf.len(), count as usize * f.block_len);
        f.file
            .write_all_at(buf, addr.block as u64 * f.block_len as u64)
            .map_err(|e| io_err("pwrite chained", e))?;
        self.io.transfer(addr, count as u64, f.block_len, true, true);
        Ok(())
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.io.stats)
    }

    fn sync(&self) -> StorageResult<()> {
        let files: Vec<Arc<DiskFile>> = self.files.read().values().cloned().collect();
        for f in files {
            f.file.sync_data().map_err(|e| io_err("fsync segment", e))?;
        }
        self.wal.lock().sync_data().map_err(|e| io_err("fsync wal", e))?;
        self.sync_dir()
    }

    fn write_meta(&self, bytes: &[u8]) -> StorageResult<()> {
        let tmp = self.dir.join("meta.tmp");
        let target = self.dir.join("meta.bin");
        let mut f = File::create(&tmp).map_err(|e| io_err("create meta.tmp", e))?;
        f.write_all(bytes).map_err(|e| io_err("write meta", e))?;
        f.sync_all().map_err(|e| io_err("fsync meta", e))?;
        fs::rename(&tmp, &target).map_err(|e| io_err("rename meta", e))?;
        self.sync_dir()
    }

    fn read_meta(&self) -> StorageResult<Option<Vec<u8>>> {
        match fs::read(self.dir.join("meta.bin")) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read meta", e)),
        }
    }

    fn wal_append(&self, bytes: &[u8]) -> StorageResult<()> {
        let mut wal = self.wal.lock();
        wal.write_all(bytes).map_err(|e| io_err("wal append", e))?;
        wal.sync_data().map_err(|e| io_err("wal fsync", e))?;
        self.io.log_append(bytes.len());
        Ok(())
    }

    fn wal_contents(&self) -> StorageResult<Vec<u8>> {
        fs::read(self.dir.join("wal.log")).map_err(|e| io_err("read wal", e))
    }

    fn wal_reset(&self) -> StorageResult<()> {
        let wal = self.wal.lock();
        // The handle is append-mode: after set_len(0) the next append
        // lands at offset 0 again.
        wal.set_len(0).map_err(|e| io_err("reset wal", e))?;
        wal.sync_data().map_err(|e| io_err("fsync wal", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TmpDir(PathBuf);

    impl TmpDir {
        fn new(tag: &str) -> TmpDir {
            let d = std::env::temp_dir().join(format!(
                "prima-filedisk-{tag}-{}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&d);
            TmpDir(d)
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn blocks_round_trip_across_reopen() {
        let tmp = TmpDir::new("roundtrip");
        {
            let d = FileDisk::create(&tmp.0).unwrap();
            d.create_file(0, 512).unwrap();
            d.create_file(3, 4096).unwrap();
            d.write_block(BlockAddr::new(0, 2), &[0xaa; 512]).unwrap();
            let chained: Vec<u8> = (0..2 * 4096).map(|i| (i % 251) as u8).collect();
            d.write_chained(BlockAddr::new(3, 5), 2, &chained).unwrap();
            d.sync().unwrap();
        }
        let d = FileDisk::open(&tmp.0).unwrap();
        assert_eq!(d.block_len(0).unwrap(), 512);
        assert_eq!(d.block_len(3).unwrap(), 4096);
        let mut buf = vec![0u8; 512];
        d.read_block(BlockAddr::new(0, 2), &mut buf).unwrap();
        assert_eq!(buf, vec![0xaa; 512]);
        let mut buf = vec![0u8; 2 * 4096];
        d.read_chained(BlockAddr::new(3, 5), 2, &mut buf).unwrap();
        assert_eq!(buf[0], 0);
        assert_eq!(buf[1], 1);
        // Unwritten blocks read as zeroes (sparse semantics).
        let mut buf = vec![0xffu8; 512];
        d.read_block(BlockAddr::new(0, 100), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn meta_and_wal_areas_survive_reopen() {
        let tmp = TmpDir::new("metawal");
        {
            let d = FileDisk::create(&tmp.0).unwrap();
            d.write_meta(b"checkpoint snapshot").unwrap();
            d.wal_append(b"rec1").unwrap();
            d.wal_append(b"rec2").unwrap();
        }
        let d = FileDisk::open(&tmp.0).unwrap();
        assert_eq!(d.read_meta().unwrap().unwrap(), b"checkpoint snapshot");
        assert_eq!(d.wal_contents().unwrap(), b"rec1rec2");
        d.wal_reset().unwrap();
        assert!(d.wal_contents().unwrap().is_empty());
        let s = d.stats().snapshot();
        assert_eq!(s.wal_forces, 0, "stats are per-instance");
    }

    #[test]
    fn create_clears_previous_database() {
        let tmp = TmpDir::new("clear");
        {
            let d = FileDisk::create(&tmp.0).unwrap();
            d.create_file(0, 512).unwrap();
            d.write_block(BlockAddr::new(0, 0), &[1u8; 512]).unwrap();
            d.write_meta(b"old").unwrap();
        }
        let d = FileDisk::create(&tmp.0).unwrap();
        assert!(d.read_meta().unwrap().is_none());
        assert!(matches!(d.block_len(0), Err(StorageError::UnknownSegment(0))));
    }

    #[test]
    fn lock_file_blocks_foreign_live_pid_but_yields_to_dead_or_own() {
        let tmp = TmpDir::new("lock");
        let d = FileDisk::create(&tmp.0).unwrap();
        // A live foreign pid (pid 1 always exists) blocks open and create.
        fs::write(tmp.0.join("LOCK"), "1\n").unwrap();
        assert!(FileDisk::open(&tmp.0).is_err());
        assert!(FileDisk::create(&tmp.0).is_err());
        // A dead pid is a stale lock from a crash: taken over.
        fs::write(tmp.0.join("LOCK"), format!("{}\n", u32::MAX - 1)).unwrap();
        let reopened = FileDisk::open(&tmp.0).unwrap();
        drop(reopened);
        // Our own pid (the kill-point harness pattern) is also taken over.
        std::mem::forget(FileDisk::open(&tmp.0).unwrap());
        assert!(FileDisk::open(&tmp.0).is_ok());
        drop(d);
    }

    #[test]
    fn wal_append_accounts_one_sequential_transfer() {
        let tmp = TmpDir::new("walacct");
        let d = FileDisk::create(&tmp.0).unwrap();
        d.wal_append(&[0u8; 4096]).unwrap();
        let s = d.stats().snapshot();
        assert_eq!(s.wal_forces, 1);
        assert_eq!(s.wal_bytes, 4096);
        assert_eq!(s.seeks, 1);
        assert!(s.sim_time_ns > 0);
    }
}
