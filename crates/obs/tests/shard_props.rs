//! Hostile input for the P2SHARD reader: a shard file is bytes from
//! disk, so a truncated, byte-flipped or garbage-extended file must
//! never panic [`read_shard_file`], and whatever it returns `Ok` must
//! be a prefix of the records written, with the dropped bytes counted
//! in `torn_bytes`.

use std::fs;
use std::path::PathBuf;

use p2auth_obs::persist::{
    read_shard_file, shard_file_name, PersistError, ShardRead, ShardedEventStore, HEADER_LEN,
};
use p2auth_rng::prop::prelude::*;

/// Frame overhead per record: `len u32` + `crc u32`.
const FRAME: usize = 8;

fn arb_records() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..10)
}

fn case_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("p2auth_shard_props_{tag}_{}", std::process::id()))
}

/// Writes `records` through a one-shard store and returns the shard
/// file's bytes.
fn written(tag: &str, records: &[Vec<u8>]) -> Vec<u8> {
    let dir = case_dir(tag);
    fs::remove_dir_all(&dir).ok();
    let store = ShardedEventStore::create(&dir, 1, 4).expect("create store");
    for (k, r) in records.iter().enumerate() {
        store.append(k as u64, r).expect("append");
    }
    store.flush().expect("flush");
    drop(store);
    fs::read(dir.join(shard_file_name(0))).expect("read shard")
}

/// Reads `bytes` back as a shard file, then removes the case's store.
fn read_back(tag: &str, bytes: &[u8]) -> Result<ShardRead, PersistError> {
    let dir = case_dir(tag);
    let path = dir.join("hostile.shard");
    fs::write(&path, bytes).expect("write hostile shard");
    let read = read_shard_file(&path);
    fs::remove_dir_all(&dir).ok();
    read
}

/// An `Ok` read is a prefix of `records`, and a read that lost any
/// record reports torn bytes.
fn check_prefix(read: &ShardRead, records: &[Vec<u8>]) -> Result<(), TestCaseError> {
    let n = read.records.len();
    prop_assert!(
        n <= records.len(),
        "{n} records read, {} written",
        records.len()
    );
    prop_assert_eq!(&read.records[..], &records[..n]);
    if n < records.len() {
        prop_assert!(
            read.torn_bytes > 0,
            "lost records without reporting torn bytes"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncated_shard_reads_its_whole_records(
        records in arb_records(),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = written("truncate", &records);
        let cut = cut.index(bytes.len() + 1);
        let read = read_back("truncate", &bytes[..cut]);
        if cut < HEADER_LEN {
            prop_assert!(matches!(read, Err(PersistError::Header(_))), "{read:?}");
            return Ok(());
        }
        let read = read.expect("a truncation past the header reads");
        // Exactly the records that end at or before the cut survive,
        // and every byte after the last of them is reported torn. So a
        // cut inside a record always reports torn bytes, but a cut on
        // a record boundary reads as a clean, shorter shard: the format
        // has no record count, and only the store manifest
        // (`read_store_dir_verified`) catches that case.
        let mut whole = 0;
        let mut end = HEADER_LEN;
        while whole < records.len() && end + FRAME + records[whole].len() <= cut {
            end += FRAME + records[whole].len();
            whole += 1;
        }
        prop_assert_eq!(&read.records[..], &records[..whole]);
        prop_assert_eq!(read.torn_bytes, cut - end);
    }

    #[test]
    fn flipped_byte_never_yields_foreign_records(
        records in arb_records(),
        at in any::<prop::sample::Index>(),
        mask in 1_u8..=255,
    ) {
        let mut bytes = written("flip", &records);
        let at = at.index(bytes.len());
        bytes[at] ^= mask;
        if let Ok(read) = read_back("flip", &bytes) {
            check_prefix(&read, &records)?;
        }
    }

    #[test]
    fn appended_garbage_reads_as_a_torn_tail(
        records in arb_records(),
        garbage in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut bytes = written("garbage", &records);
        bytes.extend_from_slice(&garbage);
        if let Ok(read) = read_back("garbage", &bytes) {
            check_prefix(&read, &records)?;
            prop_assert_eq!(read.records.len(), records.len());
            prop_assert_eq!(read.torn_bytes, garbage.len());
        }
    }
}
