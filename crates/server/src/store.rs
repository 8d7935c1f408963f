//! Sharded in-memory profile store.
//!
//! One entry per enrolled user id, each wrapping a
//! [`p2auth_core::ProfileArena`]: the profile's constant tables are
//! folded **once at insert** and every session for that user shares the
//! same `Arc` — the arena's read-only concurrency contract (pinned by
//! compile-time `Send + Sync` assertions in `p2auth-core::arena`) is
//! what makes handing `&arena` to any worker sound.
//!
//! Sharding splits the key space over independent `RwLock`s so profile
//! lookups from N workers don't serialize on one lock. The shard of a
//! key is a pure function of the key, so there is no cross-shard
//! coordination and no global lock order to get wrong.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use p2auth_core::{P2Auth, ProfileArena, UserProfile};

/// One interned profile: built once, shared read-only by every session
/// authenticating this user.
#[derive(Debug)]
pub struct StoredProfile {
    /// The user's folded constant tables.
    pub arena: ProfileArena,
}

/// A sharded `user_id → Arc<StoredProfile>` map.
#[derive(Debug)]
pub struct ShardedProfileStore {
    shards: Vec<RwLock<HashMap<u64, Arc<StoredProfile>>>>,
}

impl ShardedProfileStore {
    /// An empty store with `shard_count` shards (clamped to ≥ 1).
    #[must_use]
    pub fn new(shard_count: usize) -> Self {
        let n = shard_count.max(1);
        Self {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    /// `user_id → shard index`: the shared splitmix64 finalizer
    /// ([`p2auth_obs::persist::shard_of`]), so adjacent ids spread
    /// across shards instead of clustering in one — and so the event
    /// persistence layer routes a user's session logs to the same
    /// shard index that holds their profile.
    fn shard_of(&self, user_id: u64) -> usize {
        p2auth_obs::persist::shard_of(user_id, self.shards.len())
    }

    fn shard(&self, user_id: u64) -> &RwLock<HashMap<u64, Arc<StoredProfile>>> {
        &self.shards[self.shard_of(user_id)]
    }

    /// Folds `profile` into an arena and interns it under `user_id`,
    /// replacing any previous entry (re-enrollment).
    pub fn insert(&self, system: &P2Auth, user_id: u64, profile: &UserProfile) {
        self.insert_arena(user_id, system.arena(profile));
    }

    /// Interns an already-built arena under `user_id`.
    pub fn insert_arena(&self, user_id: u64, arena: ProfileArena) {
        let entry = Arc::new(StoredProfile { arena });
        let mut shard = self
            .shard(user_id)
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.insert(user_id, entry);
        drop(shard);
        p2auth_obs::gauge!("server.store.profiles").set(self.len() as f64);
    }

    /// The interned profile for `user_id`, if enrolled. Cloning the
    /// `Arc` is the whole cost — the arena itself is never copied.
    #[must_use]
    pub fn get(&self, user_id: u64) -> Option<Arc<StoredProfile>> {
        self.shard(user_id)
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&user_id)
            .cloned()
    }

    /// Total enrolled profiles across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum()
    }

    /// Whether no profile is enrolled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards (fixed at construction).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Resident bytes of all interned arenas (constant tables only).
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .values()
                    .map(|e| e.arena.bytes())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Store-level tests that need a real profile live in the
    // integration suites; here the shard math is pinned standalone.
    #[test]
    fn shard_of_is_stable_and_in_range() {
        let store = ShardedProfileStore::new(16);
        for id in 0..1000_u64 {
            let s = store.shard_of(id);
            assert!(s < 16);
            assert_eq!(s, store.shard_of(id), "shard must be a pure function");
        }
    }

    #[test]
    fn adjacent_ids_spread_across_shards() {
        let store = ShardedProfileStore::new(16);
        let mut hit = [false; 16];
        for id in 0..64_u64 {
            hit[store.shard_of(id)] = true;
        }
        let used = hit.iter().filter(|&&h| h).count();
        assert!(
            used >= 12,
            "64 adjacent ids landed in only {used}/16 shards"
        );
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let store = ShardedProfileStore::new(0);
        assert_eq!(store.shard_count(), 1);
        assert!(store.is_empty());
        assert_eq!(store.get(42).map(|_| ()), None);
    }
}
