//! Durability contract of the sharded event-log store: a crash that
//! tears the tail of one shard file loses at most the unflushed tail
//! of *that* shard — every fully-framed record before it, and every
//! other shard, reads back byte-identical. Corruption is the same
//! story: one rotten shard never poisons its neighbours.

use std::fs;
use std::path::{Path, PathBuf};

use p2auth_obs::persist::{self, shard_of, PersistError, ShardedEventStore, HEADER_LEN};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "p2auth_persist_shards_{tag}_{}",
        std::process::id()
    ));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Deterministic payload for key `k`, long enough to span the torn
/// cut points the tests make.
fn payload(k: u64) -> Vec<u8> {
    format!("record-{k}:{}", "x".repeat(40 + (k as usize % 13))).into_bytes()
}

fn write_store(dir: &Path, shards: usize, keys: &[u64]) {
    let store = ShardedEventStore::create(dir, shards, 4).expect("create store");
    for &k in keys {
        store.append(k, &payload(k)).expect("append");
    }
    store.flush().expect("flush");
}

/// Read every record back, grouped by shard index.
fn read_all(dir: &Path) -> Vec<(PathBuf, Result<persist::ShardRead, PersistError>)> {
    persist::read_store_dir(dir).expect("list store dir")
}

#[test]
fn crash_truncation_loses_only_the_torn_tail_of_one_shard() {
    let dir = scratch_dir("truncate");
    let keys: Vec<u64> = (0..40).collect();
    write_store(&dir, 4, &keys);

    // Pick the busiest shard and cut its file mid-record — the moment
    // a crash would leave behind.
    let victim = read_all(&dir)
        .into_iter()
        .map(|(p, r)| (p, r.expect("clean store reads")))
        .max_by_key(|(_, r)| r.records.len())
        .expect("non-empty store");
    let victim_path = victim.0.clone();
    let full_len = fs::metadata(&victim_path).expect("stat").len();
    fs::File::options()
        .write(true)
        .open(&victim_path)
        .expect("open")
        .set_len(full_len - 7)
        .expect("truncate");

    let mut total = 0_usize;
    for (path, read) in read_all(&dir) {
        let read = read.expect("truncation must degrade, not error");
        if path == victim_path {
            assert_eq!(
                read.records.len(),
                victim.1.records.len() - 1,
                "exactly the torn final record is dropped"
            );
            assert!(read.torn_bytes > 0, "torn bytes must be reported");
        } else {
            assert_eq!(read.torn_bytes, 0);
        }
        // Every surviving record is byte-identical to what was written.
        for rec in &read.records {
            let text = std::str::from_utf8(rec).expect("utf8");
            let k: u64 = text
                .strip_prefix("record-")
                .and_then(|t| t.split(':').next())
                .and_then(|n| n.parse().ok())
                .expect("well-formed payload");
            assert_eq!(rec, &payload(k), "payload for key {k} corrupted");
            assert_eq!(
                read.shard_idx as usize,
                shard_of(k, 4),
                "record in wrong shard"
            );
        }
        total += read.records.len();
    }
    assert_eq!(total, keys.len() - 1);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_in_one_shard_never_poisons_the_others() {
    let dir = scratch_dir("isolate");
    let keys: Vec<u64> = (0..40).collect();
    write_store(&dir, 4, &keys);

    // Rot a byte in the middle of the first record of one shard (not
    // the tail, so the torn-tail policy can't rescue it).
    let (victim_path, victim_read) = read_all(&dir)
        .into_iter()
        .map(|(p, r)| (p, r.expect("clean store reads")))
        .find(|(_, r)| r.records.len() >= 2)
        .expect("a shard with at least two records");
    let mut bytes = fs::read(&victim_path).expect("read shard");
    bytes[HEADER_LEN + 8 + 3] ^= 0xFF;
    fs::write(&victim_path, &bytes).expect("write corrupted shard");

    let mut clean_shards = 0;
    let mut poisoned = 0;
    for (path, read) in read_all(&dir) {
        if path == victim_path {
            match read {
                Err(PersistError::Corrupt { record, .. }) => {
                    assert_eq!(record, 0, "first record is the corrupted one");
                    poisoned += 1;
                }
                other => panic!("corrupted shard must report Corrupt, got {other:?}"),
            }
        } else {
            let read = read.expect("sibling shards unaffected");
            assert_eq!(read.torn_bytes, 0);
            clean_shards += 1;
        }
    }
    assert_eq!(poisoned, 1);
    assert_eq!(clean_shards, 3);
    assert!(victim_read.records.len() >= 2);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_routing_matches_the_store_layout() {
    let dir = scratch_dir("routing");
    let keys: Vec<u64> = (100..140).collect();
    write_store(&dir, 8, &keys);
    for (_, read) in read_all(&dir) {
        let read = read.expect("clean store reads");
        assert_eq!(read.shard_count, 8);
        for rec in &read.records {
            let text = std::str::from_utf8(rec).expect("utf8");
            let k: u64 = text
                .strip_prefix("record-")
                .and_then(|t| t.split(':').next())
                .and_then(|n| n.parse().ok())
                .expect("well-formed payload");
            assert_eq!(
                read.shard_idx as usize,
                shard_of(k, 8),
                "key {k} persisted outside its shard"
            );
        }
    }
    fs::remove_dir_all(&dir).ok();
}
