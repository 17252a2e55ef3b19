//! The durable checkpoint journal: an append-only write-ahead log of
//! length-prefixed, CRC32-framed records.
//!
//! A campaign that can be killed at any instant needs its checkpoints
//! on disk, and it needs the on-disk state to survive the kill landing
//! *mid-write*: a torn record, a truncated tail, a bit flip from a bad
//! sector. The journal's contract is exactly the classic WAL one:
//!
//! * **Appends are framed.** Every record is `[u32 len][u32 crc][payload]`
//!   (both integers little-endian, CRC-32/IEEE over the payload), written
//!   in one `write_all` and fsynced before `append` returns.
//! * **A fresh journal costs no fsync.** [`Journal::open_or_create`]
//!   writes the 8-byte header of a missing or empty file in place and
//!   does not sync it: the header carries no data, and the first
//!   `append` fsyncs the same file, header included. A file shorter
//!   than the header whose bytes are a prefix of it (a header torn
//!   before the first append) reads as fresh too; any other header is
//!   a typed error. Neither path syncs the directory, so a crash can
//!   also lose the file's name, which likewise reads as fresh.
//! * **Replacement is atomic.** [`Journal::create`] and
//!   [`Journal::compact`] replace existing content, so they write a
//!   temp file in the same directory, fsync it, and `rename` it over
//!   the final path: no reader ever observes a half-replaced journal.
//! * **Recovery is prefix-valid.** [`Journal::recover`] scans frames
//!   until the first one that fails its length or CRC check and returns
//!   every record before it plus a typed [`Tail`] describing what
//!   stopped the scan. A torn tail is *normal* (the kill landed
//!   mid-append); re-opening for append truncates it away. A corrupt
//!   header is a typed [`JournalError`] — never a panic, never a
//!   silently partial record.
//!
//! The journal stores opaque byte payloads; the campaign-level record
//! schema lives in [`crate::supervisor`].

use crate::framing::{append_frame, decode_frames};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// The frame codec itself (CRC table, header layout, insanity guard)
/// lives in [`crate::framing`], shared with the wire protocol; these
/// re-exports keep the journal's historical API surface.
pub use crate::framing::{crc32, FRAME_HEADER};

/// Magic prefix of every journal file: `FTWAL`, a format version
/// byte, and two reserved zero bytes. Bumping the version byte
/// invalidates old files explicitly instead of misparsing them.
pub const MAGIC: [u8; 8] = *b"FTWAL\x01\x00\x00";

/// Records larger than this are refused at append time and treated as
/// corruption at recovery time (the shared
/// [`crate::framing::MAX_FRAME_BYTES`] guard).
pub const MAX_RECORD_BYTES: usize = crate::framing::MAX_FRAME_BYTES;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why the journal could not be read or written.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure (open, read, write, fsync, rename).
    Io {
        /// What the journal was doing when the I/O failed.
        context: String,
        source: std::io::Error,
    },
    /// The file exists but does not start with [`MAGIC`] — either it
    /// is not a journal or its format version is unsupported.
    BadHeader { path: PathBuf, found: Vec<u8> },
    /// An append was asked to write a record above [`MAX_RECORD_BYTES`].
    RecordTooLarge { bytes: usize },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { context, source } => write!(f, "journal io ({context}): {source}"),
            JournalError::BadHeader { path, found } => write!(
                f,
                "journal {}: bad header {found:02x?} (expected FTWAL v1 magic)",
                path.display()
            ),
            JournalError::RecordTooLarge { bytes } => {
                write!(
                    f,
                    "journal record of {bytes} bytes exceeds {MAX_RECORD_BYTES}"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(context: &str, source: std::io::Error) -> JournalError {
    JournalError::Io {
        context: context.to_string(),
        source,
    }
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// What stopped the recovery scan at the end of the valid prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tail {
    /// The file ends exactly on a frame boundary.
    Clean,
    /// The frame at `offset` is incomplete or fails its checks; the
    /// bytes from `offset` on are discarded on the next append-open.
    Torn {
        /// Byte offset of the first invalid frame.
        offset: u64,
        /// Human-readable reason (short header, length overrun, CRC
        /// mismatch).
        reason: TornReason,
    },
}

/// The specific check the first invalid frame failed — the shared
/// [`crate::framing::FrameError`], under the name the recovery
/// contract has always used.
pub use crate::framing::FrameError as TornReason;

/// The result of scanning a journal: every valid record, in append
/// order, plus where (and why) the scan stopped.
#[derive(Debug)]
pub struct Recovery {
    /// Payloads of every valid record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (header + whole frames). The
    /// append-open truncates the file to this length.
    pub valid_len: u64,
    /// What ended the scan.
    pub tail: Tail,
}

// ---------------------------------------------------------------------
// The journal itself
// ---------------------------------------------------------------------

/// An open, append-only journal file.
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Records currently in the file (valid prefix at open + appends).
    len_records: usize,
}

impl Journal {
    /// Creates a fresh journal at `path` (atomically: temp file +
    /// rename), replacing any existing file.
    pub fn create(path: &Path) -> Result<Journal, JournalError> {
        write_atomic(path, &MAGIC)?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err("open after create", e))?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            len_records: 0,
        })
    }

    /// Scans the journal at `path` without opening it for writes: the
    /// valid record prefix plus the tail state. A missing file is an
    /// `Io` error (callers that want create-if-missing use
    /// [`Journal::open_or_create`]).
    pub fn recover(path: &Path) -> Result<Recovery, JournalError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err("read for recovery", e))?;
        scan(path, &bytes)
    }

    /// Opens the journal for appending, creating it if missing and
    /// truncating any torn tail found by recovery. Returns the open
    /// journal plus the records that survived.
    ///
    /// A file shorter than [`MAGIC`] whose bytes are a prefix of it
    /// (missing, empty, or a header torn before the first append) is a
    /// fresh journal: its header is rewritten in place, unsynced, since
    /// the first [`Journal::append`] fsyncs it with the first record.
    /// Any other header is [`JournalError::BadHeader`].
    pub fn open_or_create(path: &Path) -> Result<(Journal, Recovery), JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| io_err("open for append", e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read for recovery", e))?;
        let recovery = if bytes.len() < MAGIC.len() && MAGIC.starts_with(&bytes) {
            file.set_len(0)
                .map_err(|e| io_err("truncate torn header", e))?;
            file.write_all(&MAGIC)
                .map_err(|e| io_err("write header", e))?;
            Recovery {
                records: Vec::new(),
                valid_len: MAGIC.len() as u64,
                tail: Tail::Clean,
            }
        } else {
            let recovery = scan(path, &bytes)?;
            if matches!(recovery.tail, Tail::Torn { .. }) {
                // Repair: drop the torn tail so the next frame starts on
                // a valid boundary. set_len is the standard WAL repair —
                // the prefix it keeps was fsynced record by record.
                file.set_len(recovery.valid_len)
                    .map_err(|e| io_err("truncate torn tail", e))?;
                file.sync_all().map_err(|e| io_err("sync repair", e))?;
            }
            recovery
        };
        let journal = Journal {
            path: path.to_path_buf(),
            file,
            len_records: recovery.records.len(),
        };
        Ok((journal, recovery))
    }

    /// Appends one record and fsyncs. The frame is written in a single
    /// `write_all`, so a kill during the call leaves either nothing or
    /// a torn tail that the next recovery discards — never a frame
    /// that passes its CRC with partial payload.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        if payload.len() > MAX_RECORD_BYTES {
            return Err(JournalError::RecordTooLarge {
                bytes: payload.len(),
            });
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        append_frame(&mut frame, payload);
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append record", e))?;
        self.file.sync_all().map_err(|e| io_err("sync record", e))?;
        self.len_records += 1;
        Ok(())
    }

    /// Records currently in the file.
    pub fn record_count(&self) -> usize {
        self.len_records
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rewrites the journal to contain exactly `keep` (atomically:
    /// temp file + rename), dropping every other record. A supervisor
    /// compacts after completion so the file holds one terminal record
    /// instead of the whole checkpoint history.
    pub fn compact(&mut self, keep: &[&[u8]]) -> Result<(), JournalError> {
        let mut bytes = Vec::from(MAGIC);
        for payload in keep {
            if payload.len() > MAX_RECORD_BYTES {
                return Err(JournalError::RecordTooLarge {
                    bytes: payload.len(),
                });
            }
            append_frame(&mut bytes, payload);
        }
        write_atomic(&self.path, &bytes)?;
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err("reopen after compact", e))?;
        self.len_records = keep.len();
        Ok(())
    }
}

/// Writes `bytes` to `path` via a temp file in the same directory and
/// an atomic rename, fsyncing the file before the rename so the new
/// content is durable when the name flips.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), JournalError> {
    let tmp = path.with_extension("wal-tmp");
    {
        let mut f = File::create(&tmp).map_err(|e| io_err("create temp", e))?;
        f.write_all(bytes).map_err(|e| io_err("write temp", e))?;
        f.sync_all().map_err(|e| io_err("sync temp", e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename temp", e))?;
    Ok(())
}

/// The recovery scanner: header gate, then the shared frame decoder's
/// longest valid prefix; the valid length is the header plus the frames
/// it consumed.
fn scan(path: &Path, bytes: &[u8]) -> Result<Recovery, JournalError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(JournalError::BadHeader {
            path: path.to_path_buf(),
            found: bytes[..bytes.len().min(MAGIC.len())].to_vec(),
        });
    }
    let (payloads, stop) = decode_frames(&bytes[MAGIC.len()..]);
    let consumed: usize = payloads.iter().map(|p| FRAME_HEADER + p.len()).sum();
    let valid_len = (MAGIC.len() + consumed) as u64;
    Ok(Recovery {
        records: payloads.into_iter().map(<[u8]>::to_vec).collect(),
        valid_len,
        tail: match stop {
            None => Tail::Clean,
            Some(reason) => Tail::Torn {
                offset: valid_len,
                reason,
            },
        },
    })
}

/// Test-support: a unique temp path under the OS temp dir. Uniqueness
/// comes from the process id plus a process-wide counter (no clock, no
/// global RNG — deterministic under any test ordering).
pub fn temp_journal_path(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ft-journal-{}-{label}-{n}.wal", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempPath(PathBuf);
    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
    fn tmp(label: &str) -> TempPath {
        TempPath(temp_journal_path(label))
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard check vector of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_preserves_records_in_order() {
        let p = tmp("roundtrip");
        let mut j = Journal::create(&p.0).unwrap();
        let payloads: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![], vec![0xFF; 1000]];
        for r in &payloads {
            j.append(r).unwrap();
        }
        assert_eq!(j.record_count(), 3);
        let rec = Journal::recover(&p.0).unwrap();
        assert_eq!(rec.records, payloads);
        assert_eq!(rec.tail, Tail::Clean);
    }

    #[test]
    fn truncated_tail_recovers_the_valid_prefix() {
        let p = tmp("trunc");
        let mut j = Journal::create(&p.0).unwrap();
        j.append(b"first").unwrap();
        j.append(b"second-record").unwrap();
        let full = std::fs::read(&p.0).unwrap();
        // Chop mid-way through the second frame.
        std::fs::write(&p.0, &full[..full.len() - 5]).unwrap();
        let rec = Journal::recover(&p.0).unwrap();
        assert_eq!(rec.records, vec![b"first".to_vec()]);
        assert!(matches!(
            rec.tail,
            Tail::Torn {
                reason: TornReason::LengthOverrun,
                ..
            }
        ));
    }

    #[test]
    fn bit_flip_in_payload_stops_at_the_previous_record() {
        let p = tmp("flip");
        let mut j = Journal::create(&p.0).unwrap();
        j.append(b"good").unwrap();
        j.append(b"to-be-corrupted").unwrap();
        let mut bytes = std::fs::read(&p.0).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x10;
        std::fs::write(&p.0, &bytes).unwrap();
        let rec = Journal::recover(&p.0).unwrap();
        assert_eq!(rec.records, vec![b"good".to_vec()]);
        assert!(matches!(
            rec.tail,
            Tail::Torn {
                reason: TornReason::CrcMismatch,
                ..
            }
        ));
    }

    #[test]
    fn open_or_create_repairs_the_torn_tail_and_appends_cleanly() {
        let p = tmp("repair");
        let mut j = Journal::create(&p.0).unwrap();
        j.append(b"keep-me").unwrap();
        let full = std::fs::read(&p.0).unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&[1, 2, 3]); // garbage tail
        std::fs::write(&p.0, &torn).unwrap();
        let (mut j, rec) = Journal::open_or_create(&p.0).unwrap();
        assert_eq!(rec.records, vec![b"keep-me".to_vec()]);
        assert_eq!(j.record_count(), 1);
        j.append(b"after-repair").unwrap();
        let rec = Journal::recover(&p.0).unwrap();
        assert_eq!(
            rec.records,
            vec![b"keep-me".to_vec(), b"after-repair".to_vec()]
        );
        assert_eq!(rec.tail, Tail::Clean);
    }

    #[test]
    fn bad_magic_is_a_typed_error_not_a_panic() {
        let p = tmp("magic");
        std::fs::write(&p.0, b"not a journal at all").unwrap();
        let err = Journal::recover(&p.0).unwrap_err();
        assert!(matches!(err, JournalError::BadHeader { .. }), "{err}");
        assert!(err.to_string().contains("header"));
        // Short files too.
        std::fs::write(&p.0, b"FT").unwrap();
        assert!(Journal::recover(&p.0).is_err());
    }

    #[test]
    fn a_missing_file_or_torn_header_opens_as_a_fresh_journal() {
        // A missing file, and every proper prefix of the header (the
        // empty file included): what a crash before the first append
        // can leave behind.
        let left_behind = std::iter::once(None).chain((0..MAGIC.len()).map(Some));
        for cut in left_behind {
            let p = tmp("torn-header");
            if let Some(cut) = cut {
                std::fs::write(&p.0, &MAGIC[..cut]).unwrap();
            }
            let (mut j, rec) = Journal::open_or_create(&p.0).unwrap();
            assert!(rec.records.is_empty(), "cut {cut:?}");
            assert_eq!(rec.valid_len, MAGIC.len() as u64, "cut {cut:?}");
            assert_eq!(rec.tail, Tail::Clean, "cut {cut:?}");
            assert_eq!(std::fs::read(&p.0).unwrap(), MAGIC, "cut {cut:?}");
            j.append(b"first").unwrap();
            drop(j);
            let (j, rec) = Journal::open_or_create(&p.0).unwrap();
            assert_eq!(rec.records, vec![b"first".to_vec()], "cut {cut:?}");
            assert_eq!(rec.tail, Tail::Clean, "cut {cut:?}");
            assert_eq!(j.record_count(), 1, "cut {cut:?}");
        }
    }

    #[test]
    fn a_foreign_header_is_refused_by_open_or_create() {
        for found in [&[0u8; 8][..], b"not a journal"] {
            let p = tmp("foreign");
            std::fs::write(&p.0, found).unwrap();
            let err = Journal::open_or_create(&p.0).err().expect("refused");
            assert!(matches!(err, JournalError::BadHeader { .. }), "{err}");
            // The refused file is left as it was.
            assert_eq!(std::fs::read(&p.0).unwrap(), found);
        }
    }

    #[test]
    fn insane_length_field_is_a_torn_tail_not_an_allocation() {
        let p = tmp("insane");
        let mut j = Journal::create(&p.0).unwrap();
        j.append(b"ok").unwrap();
        let mut bytes = std::fs::read(&p.0).unwrap();
        // Append a frame header claiming a multi-GiB record.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&p.0, &bytes).unwrap();
        let rec = Journal::recover(&p.0).unwrap();
        assert_eq!(rec.records, vec![b"ok".to_vec()]);
        assert!(matches!(
            rec.tail,
            Tail::Torn {
                reason: TornReason::LengthInsane,
                ..
            }
        ));
    }

    #[test]
    fn compact_keeps_exactly_the_requested_records() {
        let p = tmp("compact");
        let mut j = Journal::create(&p.0).unwrap();
        for r in [b"a".as_slice(), b"bb", b"ccc"] {
            j.append(r).unwrap();
        }
        j.compact(&[b"ccc"]).unwrap();
        assert_eq!(j.record_count(), 1);
        let rec = Journal::recover(&p.0).unwrap();
        assert_eq!(rec.records, vec![b"ccc".to_vec()]);
        // Appends continue after compaction.
        j.append(b"dddd").unwrap();
        assert_eq!(Journal::recover(&p.0).unwrap().records.len(), 2);
    }

    #[test]
    fn oversized_append_is_refused() {
        let p = tmp("oversize");
        let mut j = Journal::create(&p.0).unwrap();
        let err = j.append(&vec![0u8; MAX_RECORD_BYTES + 1]).unwrap_err();
        assert!(matches!(err, JournalError::RecordTooLarge { .. }));
    }
}
