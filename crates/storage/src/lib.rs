//! # prima-storage — the Storage System of the PRIMA kernel
//!
//! This crate implements the lowest layer of the PRIMA architecture
//! (Fig. 3.1 of the paper): the *storage system*, which maps **segments**,
//! **pages** and **page sequences** onto **files** and **blocks** of a
//! (simulated) disk.
//!
//! Key properties taken from Section 3.3 of the paper:
//!
//! * Segments are divided into pages of equal size, but — in contrast to
//!   conventional systems — the page size of each segment can be chosen
//!   among **1/2, 1, 2, 4 or 8 KByte** ([`PageSize`]). These are exactly the
//!   block sizes the underlying file manager supports, so the page↔block
//!   mapping is trivial.
//! * A single database **buffer** holds pages of *different* sizes. The
//!   well-known LRU algorithm is altered so that one pool can handle mixed
//!   page sizes ([`buffer::BufferManager`]); the paper rejects a static
//!   partition into one pool per size as too inflexible when reference
//!   patterns change.
//! * **Page sequences** treat an arbitrary number of pages as a whole: one
//!   header page plus component pages, supported by a cluster mechanism of
//!   the file manager enabling optimal (chained) I/O ([`page_seq`]).
//!
//! The disk can be simulated ([`disk::SimDisk`]) or real
//! ([`file_disk::FileDisk`]): the paper ran on 1987 hardware via the INCAS
//! file manager \[Ne87\]; what its performance claims depend on are *I/O
//! counts, block sizes and contiguity*, all of which both backends measure
//! faithfully.
//!
//! ## Durability: where WAL and checkpoint sit in Fig. 3.1
//!
//! The paper's Fig. 3.1 layering ends at "files and blocks of the
//! (INCAS) file manager" and defers crash recovery to a later report.
//! The durability subsystem slots into that picture without moving any
//! interface:
//!
//! ```text
//!   access system            physical records          (prima-access)
//!   ─────────────────────── pages / page sequences ───────────────────
//!   storage system           segments · buffer · WAL   (this crate)
//!       │  fix/unfix          │ update-unfix appends a page image or delta
//!       │  flush/evict        │ force-before-store (WAL-before-data)
//!       │  checkpoint()       │ flush + catalog snapshot + log truncate
//!   ─────────────────────── blocks · log area · meta blob ────────────
//!   file manager             [`BlockDevice`]: SimDisk | FileDisk
//! ```
//!
//! * The **log** ([`wal::Wal`]) is an append-only companion to the block
//!   files: LSN-stamped records (physical redo — a page's first change
//!   since the last checkpoint as a full image, every later one as a
//!   byte-range delta on the page's header LSN — plus transaction
//!   brackets and logical-undo payloads from the layer above),
//!   group-appended and forced on commit. [`Wal::commit`] is the
//!   commit durability point and implements **cross-session group
//!   commit**: a committer appends its `TxnCommit` record and either
//!   *leads* — performs one device force covering every in-flight
//!   committer's records, lingering up to
//!   [`wal::GROUP_COMMIT_MAX_WAIT`] for commits already en route
//!   (capped at [`wal::GROUP_COMMIT_MAX_BATCH`]) — or *follows*, parked
//!   on a condvar until the published `flushed_lsn` covers its commit
//!   LSN. Either way `commit` returns `Ok` only after a device append
//!   covering the caller's record returned `Ok`, so N concurrent
//!   committers share one fsync instead of paying N; a lone committer
//!   never lingers and pays exactly one force. The device append itself
//!   happens *outside* the group-buffer mutex (a dedicated I/O lock
//!   keeps file order = LSN order), so sessions keep appending while a
//!   force is in flight. A failed force poisons the log — every later
//!   append and force fails fast until a checkpoint truncation heals it
//!   — because appending past a possibly-durable torn fragment would
//!   put records where replay can never see them.
//! * The **buffer** keeps a `recovery_lsn` per frame and enforces
//!   write-ahead on every flush and eviction (steal policy, no-force:
//!   commit forces only the log, never data pages).
//! * **Checkpoint** ([`segment::StorageSystem::checkpoint`]) flushes all
//!   dirty pages, snapshots the segment directory plus the caller's
//!   catalog into the device's metadata blob, and truncates the log —
//!   bounding restart work to the log tail.
//! * **Restart** is orchestrated one layer up (`Prima::open`): restore
//!   the directory from the snapshot, redo the log tail
//!   ([`segment::StorageSystem::redo`]: each page rebuilt from its image
//!   plus deltas and written once), rebuild access-layer state by
//!   scanning, then roll back losers with the logged undo payloads.
//!   Every page changed since the checkpoint has a full image in the
//!   log, so a data page torn on the device is rebuilt without a
//!   double-write buffer.
//!
//! ## Fault model: acknowledged vs persisted image
//!
//! The durability claims above are *tested*, not asserted, against
//! [`fault_disk::FaultDisk`] — a [`BlockDevice`] wrapper around either
//! backend that distinguishes
//!
//! * the **acknowledged image** (what the kernel wrote and reads back
//!   while running: block writes sit in a modelled drive cache) from
//! * the **persisted image** (what survives a crash). Only a completed
//!   `sync` drains the cached block writes to the inner device;
//!   `wal_append` and `write_meta` are synchronous in the real backends
//!   and persist *their own payload* on return, nothing else.
//!
//! A seed-replayable [`fault_disk::FaultSchedule`] picks the crash point
//! (op count, Nth WAL force, Nth fsync) and the damage: at the crash,
//! each cached block independently survives or vanishes, the in-flight
//! operation persists a *prefix* (torn-write granularity: leading bytes
//! of a single block merged over the old contents, leading bytes of a
//! WAL group append), and the torn
//! log fragment may additionally suffer bit rot (the replay-CRC path).
//! Completed barriers are honest — a lying fsync is unrecoverable for
//! any WAL scheme and is out of scope. The crash-consistency harness
//! (`tests/crash_consistency.rs`, `prima_workloads::crash`) drives
//! randomized transaction workloads over this wrapper and checks the
//! recovered database against a committed-prefix oracle.

pub mod buffer;
pub mod bytes;
pub mod disk;
pub mod error;
pub mod fault_disk;
pub mod file_disk;
pub mod hash;
pub mod page;
pub mod page_seq;
pub mod probe;
pub mod segment;
pub mod stats;
pub mod wal;

pub use buffer::{BufferManager, BufferStats, BufferStatsSnapshot, PageGuard};
pub use disk::{BlockAddr, BlockDevice, SimDisk};
pub use error::{StorageError, StorageResult};
pub use fault_disk::{CrashPoint, FaultDisk, FaultSchedule};
pub use file_disk::FileDisk;
pub use hash::{IdBuildHasher, IdHasher};
pub use page::{Page, PageId, PageSize, PageType, PAGE_HEADER_LEN};
pub use page_seq::{PageSeqHandle, PageSequence};
pub use segment::{Segment, SegmentId, SegmentMeta, StorageSystem};
pub use stats::{IoSnapshot, IoStats};
pub use wal::{Lsn, Wal, WalPayload, WalRecord};
