//! The blockchain state (datastore): a versioned key-value store.
//!
//! Every committed write stamps its key with the [`Version`] (block
//! height, transaction index) that produced it. XOV validation (§2.3.3)
//! compares the versions read at endorsement time against current
//! versions at validation time; this store provides both operations.
//!
//! Deletes commit a **tombstone**: the key keeps its deleting version
//! but no value. Without tombstones a deleted key would read as
//! `Version::GENESIS` again — indistinguishable from never-written — and
//! MVCC validation would silently miss the conflict when a transaction
//! endorsed against the live value validates after the delete. The
//! Merkle state commitment ([`crate::proof::state_root`]) excludes
//! tombstones, so the root stops committing to dead keys.

use fxhash::FxHashMap;
use pbc_types::{KeyId, StateKey, Value};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// The version a key's current value was written at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Version {
    /// Block height of the writing transaction.
    pub height: u64,
    /// Index of the writing transaction within its block.
    pub tx_index: u32,
}

impl Version {
    /// The version of keys that were never written.
    pub const GENESIS: Version = Version { height: 0, tx_index: 0 };

    /// Creates a version.
    pub fn new(height: u64, tx_index: u32) -> Version {
        Version { height, tx_index }
    }
}

/// A buffered write: `Some(value)` puts the key, `None` deletes it
/// (committing a tombstone version).
pub type WriteOp = (KeyId, Option<Value>);

/// A versioned key-value store.
///
/// Keyed by interned [`KeyId`] with the deterministic Fx hasher:
/// `get`/`put` sit on the validation hot path (XOV re-checks every
/// read-set key), where a lookup now hashes one `u32`. Every method
/// that names a key takes a [`StateKey`]: an id, or a string at the API
/// edge (a string read looks the id up; a string write interns it).
/// Nothing here outputs ids in id order: the digests sort by key string.
///
/// The store also carries the Merkle proof cache used by
/// [`crate::proof`]: the sorted entry list and built tree are expensive
/// (`O(n log n)`) and were previously rebuilt on *every* `state_root` /
/// `prove_key` call. The cache is keyed by a generation counter bumped
/// on every mutation, so one build is shared across a whole audit's
/// proof batch and invalidated by the next write.
#[derive(Debug, Default)]
pub struct StateStore {
    /// `Some(value)` = live key, `None` = tombstone. Both carry the
    /// version of the write that produced them.
    current: FxHashMap<KeyId, (Option<Value>, Version)>,
    /// Number of live (non-tombstone) entries.
    live: usize,
    writes_applied: u64,
    /// Bumped on every mutation; keys the proof cache.
    generation: u64,
    /// Lazily built Merkle proof cache (see [`crate::proof`]). A
    /// `Mutex` rather than `RefCell` keeps the store `Sync` for the
    /// scoped-thread parallel executors in `pbc-arch`.
    cache: Mutex<Option<Arc<crate::proof::ProofCache>>>,
}

impl Clone for StateStore {
    fn clone(&self) -> Self {
        StateStore {
            current: self.current.clone(),
            live: self.live,
            writes_applied: self.writes_applied,
            generation: self.generation,
            // The cache is an immutable snapshot keyed by generation:
            // sharing the Arc is safe and keeps clones cheap.
            cache: Mutex::new(self.cache.lock().unwrap().clone()),
        }
    }
}

impl StateStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry<K: StateKey + ?Sized>(&self, key: &K) -> Option<&(Option<Value>, Version)> {
        self.current.get(&key.find_id()?)
    }

    /// Reads a key's current value. Tombstoned keys read as absent.
    pub fn get<K: StateKey + ?Sized>(&self, key: &K) -> Option<&Value> {
        self.entry(key).and_then(|(v, _)| v.as_ref())
    }

    /// Reads a key's current value and version. Never-written keys read
    /// as `(None, Version::GENESIS)` — the convention XOV validation
    /// uses for keys that didn't exist at endorsement time. *Deleted*
    /// keys read as `(None, tombstone_version)`: the delete is a write,
    /// and validation must see its version to detect stale reads.
    pub fn get_versioned<K: StateKey + ?Sized>(&self, key: &K) -> (Option<&Value>, Version) {
        match self.entry(key) {
            Some((v, ver)) => (v.as_ref(), *ver),
            None => (None, Version::GENESIS),
        }
    }

    /// Current version of a key (GENESIS if never written; a tombstone
    /// reports the deleting write's version).
    pub fn version<K: StateKey + ?Sized>(&self, key: &K) -> Version {
        self.entry(key).map_or(Version::GENESIS, |(_, v)| *v)
    }

    fn insert_entry(&mut self, key: KeyId, value: Option<Value>, version: Version) {
        let incoming_live = value.is_some();
        let was_live = matches!(self.current.insert(key, (value, version)), Some((Some(_), _)));
        match (was_live, incoming_live) {
            (false, true) => self.live += 1,
            (true, false) => self.live -= 1,
            _ => {}
        }
        self.writes_applied += 1;
        self.generation += 1;
    }

    /// Writes a key at a version.
    pub fn put(&mut self, key: impl StateKey, value: Value, version: Version) {
        self.insert_entry(key.to_id(), Some(value), version);
    }

    /// Deletes a key at a version, leaving a tombstone. Deleting a
    /// never-written key still records the tombstone: the delete is a
    /// write event later readers must conflict with.
    pub fn delete(&mut self, key: impl StateKey, version: Version) {
        self.insert_entry(key.to_id(), None, version);
    }

    /// Applies a whole put-only write set at a version, reserving
    /// capacity for the new keys up front instead of growing the table
    /// write by write.
    pub fn apply(&mut self, writes: &[(impl StateKey, Value)], version: Version) {
        self.current.reserve(writes.len());
        for (k, v) in writes {
            self.put(k, v.clone(), version);
        }
    }

    /// Applies a buffered write set ([`WriteOp`]s: puts *and* deletes)
    /// at a version.
    pub fn apply_writes(&mut self, writes: &[WriteOp], version: Version) {
        self.current.reserve(writes.len());
        for (k, v) in writes {
            self.insert_entry(*k, v.clone(), version);
        }
    }

    /// Pre-sizes the store for at least `additional` more keys. Bulk
    /// loaders (genesis population, replay) call this once instead of
    /// paying incremental rehashes.
    pub fn reserve(&mut self, additional: usize) {
        self.current.reserve(additional);
    }

    /// Number of live (non-tombstoned) keys.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live key is present.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of tombstoned keys.
    pub fn tombstones(&self) -> usize {
        self.current.len() - self.live
    }

    /// Total writes applied over the store's lifetime (deletes count).
    pub fn writes_applied(&self) -> u64 {
        self.writes_applied
    }

    /// Mutation counter: bumped by every put/delete. Snapshots (and the
    /// proof cache) with equal generations are byte-identical.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Iterates over live `(key, value, version)` entries in arbitrary
    /// order. Tombstones are skipped.
    pub fn iter(&self) -> impl Iterator<Item = (KeyId, &Value, Version)> {
        self.current.iter().filter_map(|(k, (v, ver))| v.as_ref().map(|v| (*k, v, *ver)))
    }

    /// Iterates over *all* entries including tombstones, as
    /// `(key, Option<&value>, version)`, in arbitrary order.
    pub fn iter_all(&self) -> impl Iterator<Item = (KeyId, Option<&Value>, Version)> {
        self.current.iter().map(|(k, (v, ver))| (*k, v.as_ref(), *ver))
    }

    pub(crate) fn cache_slot(&self) -> &Mutex<Option<Arc<crate::proof::ProofCache>>> {
        &self.cache
    }

    /// A deterministic digest of the full state (sorted by key), for
    /// cross-replica consistency checks in tests and examples. Includes
    /// tombstones and versions: replicas must agree on deletes too.
    pub fn state_digest(&self) -> pbc_crypto::Hash {
        let mut entries: Vec<(&str, &(Option<Value>, Version))> =
            self.current.iter().map(|(k, e)| (k.as_str(), e)).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut enc = pbc_types::encode::Encoder::new();
        for (k, (v, ver)) in entries {
            enc.str(k);
            match v {
                Some(v) => enc.u32(1).bytes(v),
                None => enc.u32(0),
            };
            enc.u64(ver.height).u32(ver.tx_index);
        }
        pbc_crypto::sha256(enc.as_slice())
    }

    /// A deterministic digest of the live key/value contents only — no
    /// versions, no tombstones. This is the digest the differential
    /// auditor compares across execution paths: different pipelines
    /// legitimately stamp different versions for the same serializable
    /// outcome, but the *values* must match the sequential reference.
    pub fn value_digest(&self) -> pbc_crypto::Hash {
        let mut entries: Vec<(&str, &Value)> =
            self.iter().map(|(k, v, _)| (k.as_str(), v)).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut enc = pbc_types::encode::Encoder::new();
        for (k, v) in entries {
            enc.str(k).bytes(v);
        }
        pbc_crypto::sha256(enc.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn b(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn get_put_roundtrip() {
        let mut s = StateStore::new();
        s.put("a", b("1"), Version::new(1, 0));
        assert_eq!(s.get("a"), Some(&b("1")));
        assert_eq!(s.version("a"), Version::new(1, 0));
    }

    #[test]
    fn missing_key_reads_genesis_version() {
        let s = StateStore::new();
        let (v, ver) = s.get_versioned("nope");
        assert!(v.is_none());
        assert_eq!(ver, Version::GENESIS);
    }

    #[test]
    fn overwrite_bumps_version() {
        let mut s = StateStore::new();
        s.put("a", b("1"), Version::new(1, 0));
        s.put("a", b("2"), Version::new(2, 3));
        assert_eq!(s.get("a"), Some(&b("2")));
        assert_eq!(s.version("a"), Version::new(2, 3));
        assert_eq!(s.len(), 1);
        assert_eq!(s.writes_applied(), 2);
    }

    #[test]
    fn apply_write_set() {
        let mut s = StateStore::new();
        s.apply(&[("x", b("1")), ("y", b("2"))], Version::new(5, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.version("y"), Version::new(5, 1));
    }

    #[test]
    fn delete_leaves_versioned_tombstone() {
        let mut s = StateStore::new();
        s.put("a", b("1"), Version::new(1, 0));
        s.delete("a", Version::new(2, 4));
        // The value is gone…
        assert_eq!(s.get("a"), None);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.tombstones(), 1);
        // …but the delete's version is visible: this is what lets XOV
        // validation flag a read of the deleted key as stale.
        let (v, ver) = s.get_versioned("a");
        assert!(v.is_none());
        assert_eq!(ver, Version::new(2, 4));
        assert_eq!(s.version("a"), Version::new(2, 4));
    }

    #[test]
    fn delete_of_never_written_key_still_tombstones() {
        let mut s = StateStore::new();
        s.delete("ghost", Version::new(3, 0));
        assert_eq!(s.version("ghost"), Version::new(3, 0));
        assert_eq!(s.tombstones(), 1);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn rewrite_after_delete_revives_key() {
        let mut s = StateStore::new();
        s.put("a", b("1"), Version::new(1, 0));
        s.delete("a", Version::new(2, 0));
        s.put("a", b("2"), Version::new(3, 0));
        assert_eq!(s.get("a"), Some(&b("2")));
        assert_eq!(s.len(), 1);
        assert_eq!(s.tombstones(), 0);
        assert_eq!(s.writes_applied(), 3);
    }

    #[test]
    fn apply_writes_mixes_puts_and_deletes() {
        let mut s = StateStore::new();
        s.put("x", b("1"), Version::new(1, 0));
        s.apply_writes(
            &[(KeyId::intern("x"), None), (KeyId::intern("y"), Some(b("2")))],
            Version::new(2, 0),
        );
        assert_eq!(s.get("x"), None);
        assert_eq!(s.get("y"), Some(&b("2")));
        assert_eq!(s.len(), 1);
        assert_eq!(s.tombstones(), 1);
    }

    #[test]
    fn iter_skips_tombstones_iter_all_keeps_them() {
        let mut s = StateStore::new();
        s.put("a", b("1"), Version::new(1, 0));
        s.put("d", b("2"), Version::new(1, 1));
        s.delete("d", Version::new(2, 0));
        let live: Vec<&str> = s.iter().map(|(k, _, _)| k.as_str()).collect();
        assert_eq!(live, vec!["a"]);
        assert_eq!(s.iter_all().count(), 2);
    }

    #[test]
    fn digest_is_order_insensitive_but_content_sensitive() {
        let mut s1 = StateStore::new();
        s1.put("a", b("1"), Version::new(1, 0));
        s1.put("b", b("2"), Version::new(1, 1));
        let mut s2 = StateStore::new();
        s2.put("b", b("2"), Version::new(1, 1));
        s2.put("a", b("1"), Version::new(1, 0));
        assert_eq!(s1.state_digest(), s2.state_digest());

        let mut s3 = s1.clone();
        s3.put("a", b("9"), Version::new(2, 0));
        assert_ne!(s1.state_digest(), s3.state_digest());
    }

    #[test]
    fn state_digest_sees_tombstones_value_digest_does_not() {
        let mut with_tombstone = StateStore::new();
        with_tombstone.put("a", b("1"), Version::new(1, 0));
        with_tombstone.put("d", b("2"), Version::new(1, 1));
        with_tombstone.delete("d", Version::new(2, 0));

        let mut never_had = StateStore::new();
        never_had.put("a", b("1"), Version::new(1, 0));

        // Replicas must agree on deletes: a tombstone is part of the
        // replicated state…
        assert_ne!(with_tombstone.state_digest(), never_had.state_digest());
        // …but the *observable values* are identical, which is what the
        // differential auditor compares.
        assert_eq!(with_tombstone.value_digest(), never_had.value_digest());
    }

    #[test]
    fn value_digest_ignores_versions() {
        let mut a = StateStore::new();
        a.put("k", b("v"), Version::new(1, 0));
        let mut b2 = StateStore::new();
        b2.put("k", b("v"), Version::new(7, 3));
        assert_ne!(a.state_digest(), b2.state_digest());
        assert_eq!(a.value_digest(), b2.value_digest());
    }

    #[test]
    fn generation_tracks_every_mutation() {
        let mut s = StateStore::new();
        assert_eq!(s.generation(), 0);
        s.put("a", b("1"), Version::new(1, 0));
        s.delete("a", Version::new(2, 0));
        assert_eq!(s.generation(), 2);
        let c = s.clone();
        assert_eq!(c.generation(), 2);
    }

    #[test]
    fn version_ordering() {
        assert!(Version::new(1, 5) < Version::new(2, 0));
        assert!(Version::new(2, 0) < Version::new(2, 1));
    }
}
