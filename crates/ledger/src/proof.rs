//! Merkle state commitments and key-value inclusion proofs.
//!
//! The paper's verifiability story (§2.3.2) extends to *light* verifiers:
//! an auditor holding only a 32-byte state commitment can check a claimed
//! key-value pair against it. [`state_root`] commits to a state store as
//! a Merkle tree over its sorted live `(key, value)` entries — tombstones
//! are excluded, so the root stops committing to dead keys the moment
//! they are deleted. [`prove_key`] and [`verify_key`] produce and check
//! inclusion proofs; [`prove_absent`] and [`verify_absent`] prove a key
//! is *not* in the state via sorted-neighbour adjacency (sound because
//! [`MerkleProof`] verification now pins exact leaf indices). Full nodes
//! publish the root (e.g. in a block header); clients verify responses
//! without replaying the chain.
//!
//! Building the sorted entry list and its tree is `O(n log n)`; it used
//! to be repeated by every `state_root`/`prove_key` call. The build is
//! now cached on the [`StateStore`] itself (keyed by its mutation
//! generation) and shared across a whole proof batch — see
//! [`ProofBatch`], which an auditor holds while proving many keys
//! against one snapshot.

use crate::state::StateStore;
use pbc_crypto::merkle::{verify_inclusion, MerkleProof, MerkleTree};
use pbc_crypto::Hash;
use pbc_types::encode::Encoder;
use pbc_types::{Key, Value};
use std::sync::Arc;

fn entry_bytes(key: &str, value: &Value) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.str(key).bytes(value);
    enc.finish()
}

/// One built proof tree: the sorted live entries of a state snapshot
/// plus the Merkle tree over them. Immutable once built; cached on the
/// [`StateStore`] keyed by its mutation generation.
#[derive(Debug)]
pub struct ProofCache {
    generation: u64,
    /// Live entries sorted by key; leaf `i` commits to `entries[i]`.
    entries: Vec<(&'static str, Value)>,
    tree: MerkleTree,
}

impl ProofCache {
    fn build(state: &StateStore) -> ProofCache {
        let mut entries: Vec<(&'static str, Value)> =
            state.iter().map(|(k, v, _)| (k.as_str(), v.clone())).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let leaves: Vec<Vec<u8>> = entries.iter().map(|(k, v)| entry_bytes(k, v)).collect();
        let tree = MerkleTree::build(&leaves);
        ProofCache { generation: state.generation(), entries, tree }
    }
}

/// Returns the current proof cache for `state`, building it only when
/// the cached one is missing or stale (the store mutated since).
fn cached(state: &StateStore) -> Arc<ProofCache> {
    let mut slot = state.cache_slot().lock().unwrap();
    if let Some(c) = slot.as_ref() {
        if c.generation == state.generation() {
            return Arc::clone(c);
        }
    }
    let built = Arc::new(ProofCache::build(state));
    *slot = Some(Arc::clone(&built));
    built
}

/// The Merkle commitment to a state store (sorted-live-entry tree root).
pub fn state_root(state: &StateStore) -> Hash {
    cached(state).tree.root()
}

/// A verifiable claim that `key = value` under some state root.
#[derive(Clone, Debug)]
pub struct StateProof {
    /// The claimed key.
    pub key: Key,
    /// The claimed value.
    pub value: Value,
    /// Merkle inclusion path.
    pub proof: MerkleProof,
}

/// A verifiable claim that `key` is absent from the state.
///
/// Soundness rests on the sorted leaf order plus exact index
/// verification: the two bracketing proofs pin *adjacent* leaves whose
/// keys straddle the absent key, so no leaf in between can hold it. At
/// the edges one side is missing and the surviving proof must sit at
/// index `0` (resp. `leaves - 1`).
#[derive(Clone, Debug)]
pub struct AbsenceProof {
    /// The key claimed absent.
    pub key: Key,
    /// Proof of the greatest present key `< key`, if any.
    pub left: Option<StateProof>,
    /// Proof of the smallest present key `> key`, if any.
    pub right: Option<StateProof>,
}

/// A shared snapshot for proving many keys against one state build.
///
/// `state_root`/`prove_key` already reuse the store's cache between
/// calls, but each call re-locks and re-checks it; an auditor proving a
/// whole sample holds a `ProofBatch` instead and pays for the build
/// exactly once, even across concurrent readers.
#[derive(Clone, Debug)]
pub struct ProofBatch {
    inner: Arc<ProofCache>,
}

impl ProofBatch {
    /// Snapshots the proof tree for `state` (building it if stale).
    pub fn new(state: &StateStore) -> ProofBatch {
        ProofBatch { inner: cached(state) }
    }

    /// The state root this batch proves against.
    pub fn root(&self) -> Hash {
        self.inner.tree.root()
    }

    /// Number of live entries committed by the root.
    pub fn len(&self) -> usize {
        self.inner.entries.len()
    }

    /// True when the committed state has no live entries.
    pub fn is_empty(&self) -> bool {
        self.inner.entries.is_empty()
    }

    /// The generation of the state snapshot this batch was built from.
    pub fn generation(&self) -> u64 {
        self.inner.generation
    }

    /// True if both batches share one physical tree build (the cache
    /// did its job).
    pub fn shares_build(&self, other: &ProofBatch) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn prove_index(&self, index: usize) -> Option<StateProof> {
        let proof = self.inner.tree.prove(index)?;
        let (key, value) = &self.inner.entries[index];
        Some(StateProof { key: key.to_string(), value: value.clone(), proof })
    }

    /// Proves the current value of `key`, or `None` if absent.
    pub fn prove_key(&self, key: &str) -> Option<StateProof> {
        let index = self.inner.entries.binary_search_by(|(k, _)| (*k).cmp(key)).ok()?;
        self.prove_index(index)
    }

    /// Proves that `key` is absent (never written or tombstoned), or
    /// `None` if the key is in fact present.
    pub fn prove_absent(&self, key: &str) -> Option<AbsenceProof> {
        let entries = &self.inner.entries;
        let idx = match entries.binary_search_by(|(k, _)| (*k).cmp(key)) {
            Ok(_) => return None, // present: absence is not provable
            Err(i) => i,
        };
        let left = idx.checked_sub(1).and_then(|i| self.prove_index(i));
        let right = (idx < entries.len()).then(|| self.prove_index(idx)).flatten();
        Some(AbsenceProof { key: key.to_string(), left, right })
    }
}

/// Proves the current value of `key`, or `None` if absent.
pub fn prove_key(state: &StateStore, key: &str) -> Option<StateProof> {
    ProofBatch::new(state).prove_key(key)
}

/// Proves that `key` is absent from the state, or `None` if present.
pub fn prove_absent(state: &StateStore, key: &str) -> Option<AbsenceProof> {
    ProofBatch::new(state).prove_absent(key)
}

/// Verifies a state proof against a root (the light-client check).
pub fn verify_key(root: &Hash, proof: &StateProof) -> bool {
    verify_inclusion(root, &entry_bytes(&proof.key, &proof.value), &proof.proof)
}

/// Verifies an absence proof against a root.
pub fn verify_absent(root: &Hash, proof: &AbsenceProof) -> bool {
    // Both bracketing proofs must verify individually…
    for side in [&proof.left, &proof.right].into_iter().flatten() {
        if !verify_key(root, side) {
            return false;
        }
    }
    match (&proof.left, &proof.right) {
        // …and pin adjacent leaves straddling the key.
        (Some(l), Some(r)) => {
            l.proof.leaves == r.proof.leaves
                && l.proof.index + 1 == r.proof.index
                && l.key.as_str() < proof.key.as_str()
                && proof.key.as_str() < r.key.as_str()
        }
        // Key below the smallest committed leaf.
        (None, Some(r)) => r.proof.index == 0 && proof.key.as_str() < r.key.as_str(),
        // Key above the greatest committed leaf.
        (Some(l), None) => {
            l.proof.index + 1 == l.proof.leaves && l.key.as_str() < proof.key.as_str()
        }
        // Empty state commits to nothing: only the empty root works.
        (None, None) => *root == Hash::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Version;
    use pbc_types::tx::balance_value;

    fn sample_state(n: usize) -> StateStore {
        let mut s = StateStore::new();
        for i in 0..n {
            s.put(format!("key{i:03}"), balance_value(i as u64 * 10), Version::new(1, i as u32));
        }
        s
    }

    #[test]
    fn prove_verify_roundtrip_all_keys() {
        let state = sample_state(17);
        let root = state_root(&state);
        for i in 0..17 {
            let key = format!("key{i:03}");
            let proof = prove_key(&state, &key).unwrap();
            assert!(verify_key(&root, &proof), "{key}");
            assert_eq!(proof.value, balance_value(i as u64 * 10));
        }
    }

    #[test]
    fn missing_key_has_no_proof() {
        let state = sample_state(4);
        assert!(prove_key(&state, "ghost").is_none());
    }

    #[test]
    fn tampered_value_rejected() {
        let state = sample_state(8);
        let root = state_root(&state);
        let mut proof = prove_key(&state, "key003").unwrap();
        proof.value = balance_value(999_999);
        assert!(!verify_key(&root, &proof));
        // The middle key of trees with and without promoted odd nodes.
        for n in [1usize, 3, 17, 33] {
            let state = sample_state(n);
            let mut proof = prove_key(&state, &format!("key{:03}", n / 2)).unwrap();
            assert!(verify_key(&state_root(&state), &proof), "n={n}");
            proof.value = balance_value(123_456);
            assert!(!verify_key(&state_root(&state), &proof), "n={n}");
        }
    }

    #[test]
    fn proof_against_stale_root_rejected() {
        let mut state = sample_state(8);
        let old_root = state_root(&state);
        state.put("key003", balance_value(777), Version::new(2, 0));
        let fresh_proof = prove_key(&state, "key003").unwrap();
        assert!(!verify_key(&old_root, &fresh_proof), "state moved on; old root must reject");
        let new_root = state_root(&state);
        assert!(verify_key(&new_root, &fresh_proof));
    }

    #[test]
    fn root_tracks_state_changes() {
        let mut state = sample_state(4);
        let r1 = state_root(&state);
        state.put("key000", balance_value(1), Version::new(2, 0));
        let r2 = state_root(&state);
        assert_ne!(r1, r2);
    }

    #[test]
    fn empty_state_root_is_zero() {
        assert_eq!(state_root(&StateStore::new()), Hash::ZERO);
        // The empty root commits to nothing, so no proof verifies under it.
        let proof = prove_key(&sample_state(1), "key000").unwrap();
        assert!(!verify_key(&Hash::ZERO, &proof));
    }

    #[test]
    fn cross_key_splice_rejected() {
        // A proof for key A cannot be replayed claiming key B.
        let state = sample_state(8);
        let root = state_root(&state);
        let mut proof = prove_key(&state, "key002").unwrap();
        proof.key = "key005".into();
        // Keep key005's real value: the leaf bytes differ either way.
        proof.value = balance_value(50);
        assert!(!verify_key(&root, &proof));
    }

    #[test]
    fn root_stops_committing_to_deleted_keys() {
        let mut state = sample_state(8);
        state.delete("key003", Version::new(2, 0));
        // The root equals that of a state which never held the key…
        let mut without = StateStore::new();
        for i in 0..8 {
            if i == 3 {
                continue;
            }
            without.put(format!("key{i:03}"), balance_value(i * 10), Version::new(1, i as u32));
        }
        assert_eq!(state_root(&state), state_root(&without));
        // …and the deleted key is no longer provable, but its absence is.
        assert!(prove_key(&state, "key003").is_none());
        let absent = prove_absent(&state, "key003").unwrap();
        assert!(verify_absent(&state_root(&state), &absent));
    }

    #[test]
    fn proof_batch_shares_one_build() {
        let mut state = sample_state(16);
        let a = ProofBatch::new(&state);
        let b = ProofBatch::new(&state);
        assert!(a.shares_build(&b), "same generation must reuse the cached tree");
        assert_eq!(a.root(), state_root(&state));
        // A clone shares the snapshot's cache too.
        let cloned = state.clone();
        assert!(ProofBatch::new(&cloned).shares_build(&a));
        // Any write invalidates: the next batch is a fresh build.
        state.put("key000", balance_value(1), Version::new(2, 0));
        let c = ProofBatch::new(&state);
        assert!(!c.shares_build(&a));
        assert_ne!(c.root(), a.root());
    }

    #[test]
    fn absence_proofs_verify_between_below_and_above() {
        let state = sample_state(9);
        let root = state_root(&state);
        // Between two keys.
        let mid = prove_absent(&state, "key003x").unwrap();
        assert!(verify_absent(&root, &mid));
        // Below the smallest.
        let below = prove_absent(&state, "aaa").unwrap();
        assert!(below.left.is_none());
        assert!(verify_absent(&root, &below));
        // Above the greatest.
        let above = prove_absent(&state, "zzz").unwrap();
        assert!(above.right.is_none());
        assert!(verify_absent(&root, &above));
        // Present keys have no absence proof.
        assert!(prove_absent(&state, "key004").is_none());
        // Empty state: everything is absent.
        let empty = StateStore::new();
        let p = prove_absent(&empty, "anything").unwrap();
        assert!(verify_absent(&Hash::ZERO, &p));
    }

    #[test]
    fn lying_absence_proofs_rejected() {
        let state = sample_state(9);
        let root = state_root(&state);
        // Claim a *present* key absent by bracketing with non-adjacent
        // neighbours: key004 is present; use proofs of key003/key005.
        let batch = ProofBatch::new(&state);
        let forged = AbsenceProof {
            key: "key004".into(),
            left: batch.prove_key("key003"),
            right: batch.prove_key("key005"),
        };
        assert!(!verify_absent(&root, &forged), "non-adjacent bracket must be rejected");
        // Claim below-smallest with a proof that is not leaf 0.
        let forged_edge =
            AbsenceProof { key: "aaa".into(), left: None, right: batch.prove_key("key004") };
        assert!(!verify_absent(&root, &forged_edge));
        // An honest absence proof does not transfer to a key outside its
        // bracket.
        let mut moved = prove_absent(&state, "key003x").unwrap();
        moved.key = "key007x".into();
        assert!(!verify_absent(&root, &moved));
    }
}
