//! Sharded, durable persistence of session event logs.
//!
//! The fleet scheduler produces one `p2auth.events.v1` log per session
//! (see [`crate::events`]). This module appends those logs to N shard
//! files so a busy serve region never funnels every worker through one
//! file lock, and any single session can later be pulled back out for
//! a bit-identical local repro (`p2auth replay --from-shard`).
//!
//! **Sharding.** A session is routed by the splitmix64 finalizer of its
//! user id ([`shard_of`]) — the *same* function the server's profile
//! store uses, so the shard that holds a user's profile also holds that
//! user's session logs and a hot user shows up as exactly one hot
//! shard in both places.
//!
//! **Record framing.** Each shard file starts with a fixed header
//! (magic, format version, shard index, shard count) followed by
//! length-prefixed records: `len: u32 LE | crc: u32 LE | payload`,
//! where `crc` is the IEEE CRC-32 of the payload. Payloads are opaque
//! bytes here; the fleet writes canonical [`crate::EventLog`]
//! encodings.
//!
//! **Durability model.** Appends are buffered per shard and written
//! through in batches ([`ShardedEventStore::flush_every`] records);
//! there is deliberately no fsync on the hot path. A crash can
//! therefore tear the *tail* of a shard — and nothing else, because
//! appends never rewrite earlier bytes. The reader is built around
//! that failure model: a torn final record is silently dropped (and
//! reported via [`ShardRead::torn_bytes`]), while a CRC mismatch
//! *before* the tail is real corruption and fails loudly. Shards are
//! fully independent: one corrupt shard never prevents reading the
//! others.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic bytes opening every shard file.
pub const SHARD_MAGIC: &[u8; 8] = b"P2SHARD\0";

/// Format version written into the header.
pub const SHARD_VERSION: u32 = 1;

/// Header length in bytes: magic + version + shard index + shard count.
pub const HEADER_LEN: usize = 8 + 4 + 4 + 4;

/// IEEE CRC-32 (the ubiquitous reflected 0xEDB88320 polynomial),
/// computed bitwise. The workspace's one CRC: P2SHARD records and the
/// device link's frames and envelopes all use it.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// Feeds `bytes` into a running CRC-32 register, for a digest over a
/// byte stream: start from `0xFFFF_FFFF` and invert the final register,
/// so one update over all the bytes equals [`crc32`].
#[must_use]
pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    crc
}

/// `key → shard index`: the splitmix64 finalizer, reduced mod
/// `shard_count` (clamped to ≥ 1). This is the profile store's shard
/// function — the two must never drift apart, so the server's store
/// delegates here and a cross-crate test pins the distribution.
#[must_use]
pub fn shard_of(key: u64, shard_count: usize) -> usize {
    let n = shard_count.max(1) as u64;
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    usize::try_from(z % n).unwrap_or(0)
}

/// File name of shard `idx` inside a store directory.
#[must_use]
pub fn shard_file_name(idx: usize) -> String {
    format!("events-{idx:03}.shard")
}

/// File name of the store-level manifest written by
/// [`ShardedEventStore::write_manifest`].
pub const STORE_MANIFEST: &str = "store.manifest.json";

/// Schema tag of the store-level manifest.
pub const STORE_MANIFEST_SCHEMA: &str = "p2auth.store-manifest.v1";

/// FNV-1a 64 digest of a whole file's bytes (the store manifest's
/// per-shard integrity pin).
fn fnv64_file(path: &Path) -> std::io::Result<u64> {
    let bytes = fs::read(path)?;
    let mut d = crate::events::Fnv64::new();
    d.update_bytes(&bytes);
    Ok(d.finish())
}

/// One shard's buffered writer state.
#[derive(Debug)]
struct ShardWriter {
    file: fs::File,
    buf: Vec<u8>,
    pending: usize,
}

/// Append-only sharded store of framed event-log records.
///
/// Thread-safe: each shard has its own lock, so workers writing to
/// different shards never contend.
#[derive(Debug)]
pub struct ShardedEventStore {
    dir: PathBuf,
    flush_every: usize,
    shards: Vec<Mutex<ShardWriter>>,
    appended: AtomicU64,
}

impl ShardedEventStore {
    /// Creates `dir` (and parents) and truncates/initializes one file
    /// per shard, each stamped with the header. `flush_every` is the
    /// per-shard record count between write-throughs (clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// Any filesystem error creating the directory or shard files.
    pub fn create(dir: &Path, shard_count: usize, flush_every: usize) -> std::io::Result<Self> {
        let shard_count = shard_count.max(1);
        fs::create_dir_all(dir)?;
        let mut shards = Vec::with_capacity(shard_count);
        for idx in 0..shard_count {
            let mut file = fs::File::create(dir.join(shard_file_name(idx)))?;
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(SHARD_MAGIC);
            header.extend_from_slice(&SHARD_VERSION.to_le_bytes());
            header.extend_from_slice(&u32::try_from(idx).unwrap_or(u32::MAX).to_le_bytes());
            header.extend_from_slice(&u32::try_from(shard_count).unwrap_or(u32::MAX).to_le_bytes());
            file.write_all(&header)?;
            shards.push(Mutex::new(ShardWriter {
                file,
                buf: Vec::new(),
                pending: 0,
            }));
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            flush_every: flush_every.max(1),
            shards,
            appended: AtomicU64::new(0),
        })
    }

    /// Re-opens an existing store directory for appending — the warm
    /// restart path. Every `events-*.shard` file is header-validated
    /// (magic + version) and opened in append mode, so records written
    /// before the restart are preserved and new appends land after
    /// them. The shard count is taken from the on-disk headers.
    ///
    /// A torn tail left by a crash is *not* repaired here: appends
    /// after it produce records the reader will also treat as part of
    /// the tear. Callers that recovered a torn store should truncate
    /// the tear first (see [`read_shard_file`]'s `torn_bytes`) — or
    /// accept losing the final record per shard, which is the
    /// documented crash contract.
    ///
    /// # Errors
    ///
    /// Filesystem errors, a directory with no shard files, or a shard
    /// file whose header does not validate.
    pub fn open_append(dir: &Path, flush_every: usize) -> std::io::Result<Self> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("events-") && n.ends_with(".shard"))
            })
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(bad(format!("{}: no shard files to re-open", dir.display())));
        }
        let mut shards = Vec::with_capacity(paths.len());
        for (idx, path) in paths.iter().enumerate() {
            let head = fs::read(path)?;
            if head.len() < HEADER_LEN || &head[..8] != SHARD_MAGIC {
                return Err(bad(format!("{}: not a shard file", path.display())));
            }
            let version = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
            if version != SHARD_VERSION {
                return Err(bad(format!(
                    "{}: unsupported shard version {version}",
                    path.display()
                )));
            }
            if path.file_name().and_then(|n| n.to_str()) != Some(&shard_file_name(idx)) {
                return Err(bad(format!(
                    "{}: shard files are not contiguous (expected {})",
                    path.display(),
                    shard_file_name(idx)
                )));
            }
            let file = fs::OpenOptions::new().append(true).open(path)?;
            shards.push(Mutex::new(ShardWriter {
                file,
                buf: Vec::new(),
                pending: 0,
            }));
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            flush_every: flush_every.max(1),
            shards,
            appended: AtomicU64::new(0),
        })
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shards (fixed at creation).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Records between per-shard write-throughs.
    #[must_use]
    pub fn flush_every(&self) -> usize {
        self.flush_every
    }

    /// Total records appended so far (buffered or written).
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Appends one framed record to the shard of `key`. The record is
    /// buffered; every [`Self::flush_every`] records the shard's buffer
    /// is written through (no fsync — see the module docs for the
    /// crash model).
    ///
    /// # Errors
    ///
    /// Filesystem errors from the batched write-through.
    pub fn append(&self, key: u64, payload: &[u8]) -> std::io::Result<()> {
        let shard = shard_of(key, self.shards.len());
        let mut w = self.shards[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let len = u32::try_from(payload.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "record exceeds u32 length",
            )
        })?;
        w.buf.extend_from_slice(&len.to_le_bytes());
        w.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        w.buf.extend_from_slice(payload);
        w.pending += 1;
        self.appended.fetch_add(1, Ordering::Relaxed);
        if w.pending >= self.flush_every {
            let buf = std::mem::take(&mut w.buf);
            w.pending = 0;
            w.file.write_all(&buf)?;
        }
        Ok(())
    }

    /// Writes every shard's buffered records through to its file.
    ///
    /// # Errors
    ///
    /// The first filesystem error encountered (remaining shards are
    /// still attempted).
    pub fn flush(&self) -> std::io::Result<()> {
        let mut first_err = None;
        for shard in &self.shards {
            let mut w = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if !w.buf.is_empty() {
                let buf = std::mem::take(&mut w.buf);
                w.pending = 0;
                if let Err(e) = w.file.write_all(&buf).and_then(|()| w.file.flush()) {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Simulates power loss: every shard's *buffered* (not yet
    /// written-through) records are discarded, and the drop-time flush
    /// is suppressed. Records already written through survive; buffered
    /// ones are gone — exactly the store's documented crash model. Used
    /// by the chaos harness's kill-restart cycles.
    pub fn abandon(self) {
        for shard in &self.shards {
            let mut w = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            w.buf.clear();
            w.pending = 0;
        }
        // Drop now flushes empty buffers: a no-op.
    }

    /// Seals the store with a manifest (`store.manifest.json`) listing
    /// every shard file with its FNV-64 content digest, so a later
    /// [`read_store_dir_verified`] can detect a missing or silently
    /// rewritten shard. Flushes first — the digests pin the bytes a
    /// reader will actually see.
    ///
    /// # Errors
    ///
    /// Filesystem errors from the flush, the digest reads, or the
    /// manifest write.
    pub fn write_manifest(&self) -> std::io::Result<()> {
        self.flush()?;
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"");
        out.push_str(STORE_MANIFEST_SCHEMA);
        out.push_str("\",\n  \"shards\": [\n");
        for idx in 0..self.shards.len() {
            let name = shard_file_name(idx);
            let digest = fnv64_file(&self.dir.join(&name))?;
            if idx > 0 {
                out.push_str(",\n");
            }
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!("    {{ \"file\": \"{name}\", \"fnv64\": \"{digest}\" }}"),
            );
        }
        out.push_str("\n  ]\n}\n");
        fs::write(self.dir.join(STORE_MANIFEST), out)
    }
}

impl Drop for ShardedEventStore {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// One shard file, read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRead {
    /// Shard index from the header.
    pub shard_idx: u32,
    /// Shard count from the header.
    pub shard_count: u32,
    /// Every intact record's payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of a torn tail record that were dropped (0 for a cleanly
    /// closed shard).
    pub torn_bytes: usize,
}

/// Failure reading a shard file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Filesystem error (message includes the path).
    Io(String),
    /// The file is not a shard file (bad magic/version) or too short
    /// to hold a header.
    Header(String),
    /// A record *before* the tail failed its CRC — real corruption,
    /// not a crash-torn tail.
    Corrupt {
        /// Zero-based index of the corrupt record.
        record: usize,
        /// Human-readable detail.
        detail: String,
    },
    /// The store manifest disagrees with a shard file: the file is
    /// missing, or its FNV-64 content digest does not match the sealed
    /// value. Scoped to one shard — siblings still load.
    Manifest {
        /// Shard file name the manifest entry refers to.
        file: String,
        /// What disagreed.
        detail: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "shard i/o error: {e}"),
            PersistError::Header(e) => write!(f, "bad shard header: {e}"),
            PersistError::Corrupt { record, detail } => {
                write!(f, "shard corrupt at record {record}: {detail}")
            }
            PersistError::Manifest { file, detail } => {
                write!(f, "manifest mismatch for {file}: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Reads one shard file back, dropping a crash-torn tail record and
/// failing loudly on mid-file corruption (see the module docs for the
/// policy).
///
/// # Errors
///
/// [`PersistError::Io`] / [`PersistError::Header`] /
/// [`PersistError::Corrupt`] as described above.
pub fn read_shard_file(path: &Path) -> Result<ShardRead, PersistError> {
    let data = fs::read(path).map_err(|e| PersistError::Io(format!("{}: {e}", path.display())))?;
    if data.len() < HEADER_LEN {
        return Err(PersistError::Header(format!(
            "{}: {} bytes is shorter than the {HEADER_LEN}-byte header",
            path.display(),
            data.len()
        )));
    }
    if &data[..8] != SHARD_MAGIC {
        return Err(PersistError::Header(format!(
            "{}: bad magic {:02x?}",
            path.display(),
            &data[..8]
        )));
    }
    let u32_at =
        |off: usize| u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]);
    let version = u32_at(8);
    if version != SHARD_VERSION {
        return Err(PersistError::Header(format!(
            "{}: unsupported version {version}",
            path.display()
        )));
    }
    let shard_idx = u32_at(12);
    let shard_count = u32_at(16);

    let mut records = Vec::new();
    let mut off = HEADER_LEN;
    let mut torn_bytes = 0_usize;
    while off < data.len() {
        let rem = data.len() - off;
        if rem < 8 {
            torn_bytes = rem;
            break;
        }
        let len = u32_at(off) as usize;
        let crc = u32_at(off + 4);
        if rem - 8 < len {
            torn_bytes = rem;
            break;
        }
        let payload = &data[off + 8..off + 8 + len];
        if crc32(payload) != crc {
            if off + 8 + len == data.len() {
                // A full-length final record with a bad CRC is a batch
                // write that died mid-flight: torn tail, not corruption.
                torn_bytes = rem;
                break;
            }
            return Err(PersistError::Corrupt {
                record: records.len(),
                detail: format!(
                    "crc mismatch (stored {crc:#010x}, computed {:#010x})",
                    crc32(payload)
                ),
            });
        }
        records.push(payload.to_vec());
        off += 8 + len;
    }
    Ok(ShardRead {
        shard_idx,
        shard_count,
        records,
        torn_bytes,
    })
}

/// Reads every `events-*.shard` file under `dir`, each independently:
/// a corrupt shard yields its own `Err` entry and never prevents the
/// other shards from being read. Results are sorted by file name.
///
/// # Errors
///
/// [`PersistError::Io`] only when the directory itself cannot be
/// listed; per-shard failures are carried in the entries.
#[allow(clippy::type_complexity)]
pub fn read_store_dir(
    dir: &Path,
) -> Result<Vec<(PathBuf, Result<ShardRead, PersistError>)>, PersistError> {
    let entries =
        fs::read_dir(dir).map_err(|e| PersistError::Io(format!("{}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("events-") && n.ends_with(".shard"))
        })
        .collect();
    paths.sort();
    Ok(paths
        .into_iter()
        .map(|p| {
            let read = read_shard_file(&p);
            (p, read)
        })
        .collect())
}

/// [`read_store_dir`] against the sealed manifest
/// (`store.manifest.json`): every shard the manifest lists is checked
/// for presence and FNV-64 content digest *before* being read. A
/// missing file or a digest mismatch yields a typed
/// [`PersistError::Manifest`] entry for that shard only — siblings
/// still load, the same blast-radius rule as mid-file corruption.
///
/// # Errors
///
/// [`PersistError::Io`] when the manifest cannot be read and
/// [`PersistError::Header`] when it does not parse or carries the
/// wrong schema; per-shard failures are carried in the entries.
#[allow(clippy::type_complexity)]
pub fn read_store_dir_verified(
    dir: &Path,
) -> Result<Vec<(PathBuf, Result<ShardRead, PersistError>)>, PersistError> {
    let manifest_path = dir.join(STORE_MANIFEST);
    let text = fs::read_to_string(&manifest_path)
        .map_err(|e| PersistError::Io(format!("{}: {e}", manifest_path.display())))?;
    let doc = crate::json::parse(&text)
        .map_err(|e| PersistError::Header(format!("{}: {e}", manifest_path.display())))?;
    let schema = doc.get("schema").and_then(crate::json::JsonValue::as_str);
    if schema != Some(STORE_MANIFEST_SCHEMA) {
        return Err(PersistError::Header(format!(
            "{}: schema {schema:?} (expected {STORE_MANIFEST_SCHEMA:?})",
            manifest_path.display()
        )));
    }
    let shards = doc
        .get("shards")
        .and_then(crate::json::JsonValue::as_array)
        .ok_or_else(|| {
            PersistError::Header(format!("{}: no \"shards\" array", manifest_path.display()))
        })?;
    let mut out = Vec::with_capacity(shards.len());
    for entry in shards {
        let (Some(file), Some(digest)) = (
            entry.get("file").and_then(crate::json::JsonValue::as_str),
            entry
                .get("fnv64")
                .and_then(crate::json::JsonValue::as_str)
                .and_then(|s| s.parse::<u64>().ok()),
        ) else {
            return Err(PersistError::Header(format!(
                "{}: malformed shard entry",
                manifest_path.display()
            )));
        };
        let path = dir.join(file);
        let read = if !path.exists() {
            Err(PersistError::Manifest {
                file: file.to_string(),
                detail: "listed in the manifest but missing on disk".to_string(),
            })
        } else {
            match fnv64_file(&path) {
                Err(e) => Err(PersistError::Io(format!("{}: {e}", path.display()))),
                Ok(actual) if actual != digest => Err(PersistError::Manifest {
                    file: file.to_string(),
                    detail: format!("fnv64 {actual} does not match sealed {digest}"),
                }),
                Ok(_) => read_shard_file(&path),
            }
        };
        out.push((path, read));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("p2auth_persist_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A streamed digest equals the one-shot CRC.
        let streamed = crc32_update(crc32_update(0xFFFF_FFFF, b"1234"), b"56789");
        assert_eq!(!streamed, 0xCBF4_3926);
    }

    #[test]
    fn shard_of_is_stable_and_spreads() {
        for key in 0..1000_u64 {
            let s = shard_of(key, 16);
            assert!(s < 16);
            assert_eq!(s, shard_of(key, 16));
        }
        let mut hit = [false; 16];
        for key in 0..64_u64 {
            hit[shard_of(key, 16)] = true;
        }
        assert!(hit.iter().filter(|&&h| h).count() >= 12);
        assert_eq!(shard_of(7, 0), 0, "zero shards clamps to one");
    }

    #[test]
    fn write_read_round_trip_across_shards() {
        let dir = tmp_dir("round_trip");
        let store = ShardedEventStore::create(&dir, 4, 2).unwrap();
        for key in 0..20_u64 {
            store
                .append(key, format!("payload-{key}").as_bytes())
                .unwrap();
        }
        store.flush().unwrap();
        assert_eq!(store.appended(), 20);

        let mut seen = 0;
        for (path, read) in read_store_dir(&dir).unwrap() {
            let read = read.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(read.shard_count, 4);
            assert_eq!(read.torn_bytes, 0);
            for payload in &read.records {
                let text = std::str::from_utf8(payload).unwrap();
                let key: u64 = text.strip_prefix("payload-").unwrap().parse().unwrap();
                assert_eq!(shard_of(key, 4), read.shard_idx as usize);
                seen += 1;
            }
        }
        assert_eq!(seen, 20, "every record comes back from exactly one shard");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_earlier_records_survive() {
        let dir = tmp_dir("torn_tail");
        let store = ShardedEventStore::create(&dir, 1, 1).unwrap();
        store.append(0, b"first-record").unwrap();
        store.append(0, b"second-record").unwrap();
        store.flush().unwrap();
        drop(store);

        let path = dir.join(shard_file_name(0));
        let full = fs::read(&path).unwrap();
        // Truncate mid-way through the second record's payload.
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        let read = read_shard_file(&path).unwrap();
        assert_eq!(read.records, vec![b"first-record".to_vec()]);
        assert!(read.torn_bytes > 0, "the torn tail must be reported");

        // Truncating into the 8-byte frame header is also just a tear.
        fs::write(&path, &full[..HEADER_LEN + 3]).unwrap();
        let read = read_shard_file(&path).unwrap();
        assert!(read.records.is_empty());
        assert_eq!(read.torn_bytes, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_fails_loudly() {
        let dir = tmp_dir("corrupt");
        let store = ShardedEventStore::create(&dir, 1, 1).unwrap();
        store.append(0, b"aaaaaaaa").unwrap();
        store.append(0, b"bbbbbbbb").unwrap();
        store.flush().unwrap();
        drop(store);

        let path = dir.join(shard_file_name(0));
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte of the FIRST record (not the tail).
        bytes[HEADER_LEN + 8] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        match read_shard_file(&path) {
            Err(PersistError::Corrupt { record: 0, .. }) => {}
            other => panic!("expected corruption at record 0, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_append_preserves_and_extends() {
        let dir = tmp_dir("open_append");
        let store = ShardedEventStore::create(&dir, 2, 1).unwrap();
        store.append(0, b"before-restart").unwrap();
        store.append(1, b"also-before").unwrap();
        store.flush().unwrap();
        drop(store);

        let reopened = ShardedEventStore::open_append(&dir, 1).unwrap();
        assert_eq!(reopened.shard_count(), 2);
        reopened.append(0, b"after-restart").unwrap();
        reopened.flush().unwrap();
        drop(reopened);

        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for (_, read) in read_store_dir(&dir).unwrap() {
            payloads.extend(read.unwrap().records);
        }
        payloads.sort();
        assert_eq!(
            payloads,
            vec![
                b"after-restart".to_vec(),
                b"also-before".to_vec(),
                b"before-restart".to_vec()
            ],
            "records from before the restart survive, new ones append"
        );
        // An empty directory is not silently treated as a store.
        let empty = tmp_dir("open_append_empty");
        fs::create_dir_all(&empty).unwrap();
        assert!(ShardedEventStore::open_append(&empty, 1).is_err());
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&empty);
    }

    #[test]
    fn abandon_drops_buffered_records_keeps_flushed() {
        let dir = tmp_dir("abandon");
        let store = ShardedEventStore::create(&dir, 1, 100).unwrap();
        store.append(0, b"flushed").unwrap();
        store.flush().unwrap();
        store.append(0, b"buffered-only").unwrap();
        store.abandon();
        let read = read_shard_file(&dir.join(shard_file_name(0))).unwrap();
        assert_eq!(read.records, vec![b"flushed".to_vec()]);
        assert_eq!(read.torn_bytes, 0, "abandon loses whole records, not bytes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trip_verifies_clean_store() {
        let dir = tmp_dir("manifest_ok");
        let store = ShardedEventStore::create(&dir, 3, 1).unwrap();
        for key in 0..9_u64 {
            store.append(key, format!("r{key}").as_bytes()).unwrap();
        }
        store.write_manifest().unwrap();
        drop(store);
        let entries = read_store_dir_verified(&dir).unwrap();
        assert_eq!(entries.len(), 3);
        assert!(entries.iter().all(|(_, r)| r.is_ok()));
        let total: usize = entries
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().records.len())
            .sum();
        assert_eq!(total, 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_missing_shard_is_typed_and_scoped() {
        let dir = tmp_dir("manifest_missing");
        let store = ShardedEventStore::create(&dir, 3, 1).unwrap();
        for key in 0..9_u64 {
            store.append(key, format!("r{key}").as_bytes()).unwrap();
        }
        store.write_manifest().unwrap();
        drop(store);
        fs::remove_file(dir.join(shard_file_name(1))).unwrap();
        let entries = read_store_dir_verified(&dir).unwrap();
        assert_eq!(entries.len(), 3, "the missing shard still has an entry");
        match &entries[1].1 {
            Err(PersistError::Manifest { file, .. }) => {
                assert_eq!(file, &shard_file_name(1));
            }
            other => panic!("expected a manifest error, got {other:?}"),
        }
        assert!(entries[0].1.is_ok(), "siblings still load");
        assert!(entries[2].1.is_ok(), "siblings still load");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_digest_mismatch_is_typed_and_scoped() {
        let dir = tmp_dir("manifest_digest");
        let store = ShardedEventStore::create(&dir, 2, 1).unwrap();
        store.append(0, b"sealed-payload").unwrap();
        store.append(1, b"other-shard").unwrap();
        store.write_manifest().unwrap();
        drop(store);
        // Rewrite one byte of shard 0 *with a valid CRC re-frame* not
        // required: any byte change breaks the file digest, which is
        // the point — the manifest catches rewrites CRC framing alone
        // would accept (e.g. a whole-record replacement).
        let p0 = dir.join(shard_file_name(0));
        let mut bytes = fs::read(&p0).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&p0, &bytes).unwrap();
        let entries = read_store_dir_verified(&dir).unwrap();
        assert!(
            matches!(&entries[0].1, Err(PersistError::Manifest { file, .. }) if file == &shard_file_name(0)),
            "digest mismatch must be a typed manifest error: {:?}",
            entries[0].1
        );
        assert!(entries[1].1.is_ok(), "the untouched sibling still loads");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_or_garbage_manifest_is_loud() {
        let dir = tmp_dir("manifest_absent");
        let store = ShardedEventStore::create(&dir, 1, 1).unwrap();
        drop(store);
        assert!(matches!(
            read_store_dir_verified(&dir),
            Err(PersistError::Io(_))
        ));
        fs::write(dir.join(STORE_MANIFEST), b"not json").unwrap();
        assert!(matches!(
            read_store_dir_verified(&dir),
            Err(PersistError::Header(_))
        ));
        fs::write(
            dir.join(STORE_MANIFEST),
            b"{\"schema\":\"p2auth.store-manifest.v9\",\"shards\":[]}",
        )
        .unwrap();
        assert!(matches!(
            read_store_dir_verified(&dir),
            Err(PersistError::Header(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_a_header_error() {
        let dir = tmp_dir("magic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(shard_file_name(0));
        fs::write(&path, b"NOTASHARDFILE-------").unwrap();
        assert!(matches!(
            read_shard_file(&path),
            Err(PersistError::Header(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
