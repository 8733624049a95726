//! Error type shared by all storage-system components.

use std::fmt;

/// Result alias used throughout the storage system.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the storage system.
///
/// The storage system is the lowest layer of PRIMA; higher layers wrap this
/// in their own error types rather than exposing page-level detail at the
/// MAD interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A segment id was used that has not been created.
    UnknownSegment(u32),
    /// A page number lies outside the allocated extent of its segment.
    PageOutOfRange { segment: u32, page: u32 },
    /// The page was freed (or never allocated) in its segment.
    PageNotAllocated { segment: u32, page: u32 },
    /// The buffer pool is too small to hold the requested page together
    /// with all currently fixed pages.
    BufferExhausted { needed: usize, unfixable: usize },
    /// A page was requested with a fix already outstanding in a conflicting
    /// mode (the single-user kernel never upgrades in place).
    FixConflict(PageRefDesc),
    /// A page's stored checksum does not match its contents — the simulated
    /// disk never corrupts data, so this indicates a bug in page handling.
    ChecksumMismatch(PageRefDesc),
    /// The page header's type tag differs from what the caller expected.
    WrongPageType { expected: &'static str, found: u8 },
    /// A page-sequence operation referenced a page that is not part of the
    /// sequence.
    NotInSequence { header: PageRefDesc, page: u32 },
    /// A page sequence grew beyond what its header page can index.
    SequenceFull { header: PageRefDesc, capacity: usize },
    /// Data longer than the page payload was written to a single page.
    PayloadTooLarge { len: usize, max: usize },
    /// Block-device level failure (simulated device is infallible in normal
    /// operation; this fires on address arithmetic bugs or fault injection).
    DeviceError(String),
    /// Redo met a page delta that neither applies to the rebuilt page
    /// (its LSN is not the delta's base) nor is already contained in it
    /// (its LSN is below the delta's): a record the page depends on is
    /// missing from the log.
    RedoBaseMismatch { page: PageRefDesc, lsn: u64, base_lsn: u64, page_lsn: u64 },
    /// A page delta was appended on a base other than the LSN of the
    /// page's last logged record: the change was made on a stale image
    /// of the page. Checked at the append in builds that check lock
    /// ranks (`parking_lot::RANK_CHECKS`).
    StaleDeltaBase { page: PageRefDesc, base_lsn: u64, logged_lsn: u64 },
}

/// A plain (segment, page) pair for error reporting, avoiding a dependency
/// cycle with the `page` module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRefDesc {
    pub segment: u32,
    pub page: u32,
}

impl fmt::Display for PageRefDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.segment, self.page)
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownSegment(s) => write!(f, "unknown segment {s}"),
            StorageError::PageOutOfRange { segment, page } => {
                write!(f, "page {segment}:{page} out of range")
            }
            StorageError::PageNotAllocated { segment, page } => {
                write!(f, "page {segment}:{page} not allocated")
            }
            StorageError::BufferExhausted { needed, unfixable } => write!(
                f,
                "buffer exhausted: need {needed} bytes but only {unfixable} bytes evictable"
            ),
            StorageError::FixConflict(p) => write!(f, "conflicting fix on page {p}"),
            StorageError::ChecksumMismatch(p) => write!(f, "checksum mismatch on page {p}"),
            StorageError::WrongPageType { expected, found } => {
                write!(f, "wrong page type: expected {expected}, found tag {found}")
            }
            StorageError::NotInSequence { header, page } => {
                write!(f, "page {page} is not part of sequence headed by {header}")
            }
            StorageError::SequenceFull { header, capacity } => {
                write!(f, "page sequence {header} full (capacity {capacity} pages)")
            }
            StorageError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds page capacity {max}")
            }
            StorageError::DeviceError(msg) => write!(f, "device error: {msg}"),
            StorageError::RedoBaseMismatch { page, lsn, base_lsn, page_lsn } => write!(
                f,
                "redo: delta {lsn} on page {page} is based on LSN {base_lsn}, \
                 but the page is at LSN {page_lsn}"
            ),
            StorageError::StaleDeltaBase { page, base_lsn, logged_lsn } => write!(
                f,
                "wal: a delta on page {page} is based on LSN {base_lsn}, but the page's \
                 last logged record is LSN {logged_lsn}: a change made on a stale frame"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = StorageError::PageOutOfRange { segment: 3, page: 9 };
        assert_eq!(e.to_string(), "page 3:9 out of range");
        let e = StorageError::BufferExhausted { needed: 8192, unfixable: 512 };
        assert!(e.to_string().contains("8192"));
        assert!(e.to_string().contains("512"));
        let e = StorageError::NotInSequence {
            header: PageRefDesc { segment: 1, page: 2 },
            page: 7,
        };
        assert_eq!(e.to_string(), "page 7 is not part of sequence headed by 1:2");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StorageError>();
    }
}
