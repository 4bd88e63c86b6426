//! Binary Merkle trees with inclusion proofs.
//!
//! Used for block transaction roots and for the hash-on-ledger evidence of
//! private data collections (§2.3.1). Leaves are domain-separated from
//! interior nodes (prefix byte `0x00` vs `0x01`) to rule out
//! second-preimage tree-splicing attacks. Odd nodes are promoted (Bitcoin
//! duplicates them instead; promotion avoids the duplicate-leaf ambiguity).

use crate::hash::Hash;
use crate::sha256::{sha256_concat, sha256_multi};
use serde::{Deserialize, Serialize};

/// Hashes a leaf with domain separation.
pub fn leaf_hash(data: &[u8]) -> Hash {
    sha256_concat(&[&[0x00], data])
}

/// Hashes an interior node with domain separation.
pub fn node_hash(left: &Hash, right: &Hash) -> Hash {
    sha256_concat(&[&[0x01], &left.0, &right.0])
}

/// The 65-byte preimage of an interior node: `0x01 ‖ left ‖ right`.
fn node_preimage(left: &Hash, right: &Hash) -> [u8; 65] {
    let mut buf = [0u8; 65];
    buf[0] = 0x01;
    buf[1..33].copy_from_slice(&left.0);
    buf[33..].copy_from_slice(&right.0);
    buf
}

/// Computes one interior level from `prev`: adjacent pairs hashed with
/// [`node_hash`], a trailing odd node promoted unchanged. Scalar on
/// purpose: one 65-byte node costs less through the scalar compressor
/// than per lane through `sha256_multi`, and a block root over 8–128
/// memoised leaves is faster this way too (EXPERIMENTS.md E23).
fn hash_level(prev: &[Hash]) -> Vec<Hash> {
    let mut next: Vec<Hash> = prev.chunks_exact(2).map(|p| node_hash(&p[0], &p[1])).collect();
    if prev.len() % 2 == 1 {
        // Odd node: promote unchanged.
        next.push(prev[prev.len() - 1]);
    }
    next
}

/// A Merkle tree over a list of byte-string leaves.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// levels\[0\] = leaf hashes, last level = [root]. Empty tree has no levels.
    levels: Vec<Vec<Hash>>,
}

/// One step of an inclusion proof: the sibling hash and which side it is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProofStep {
    /// Sibling is on the left: parent = H(sibling ‖ current).
    Left(Hash),
    /// Sibling is on the right: parent = H(current ‖ sibling).
    Right(Hash),
}

/// Inclusion proof for a leaf.
///
/// Carries the total leaf count of the tree it was produced from:
/// with odd nodes *promoted* (not duplicated), the Left/Right step
/// sequence alone does not pin the leaf position — a promoted node
/// contributes no step — so verification replays the exact level
/// geometry from `(index, leaves)` and rejects proofs whose claimed
/// index is inconsistent with the path shape.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleProof {
    /// Index of the proved leaf.
    pub index: usize,
    /// Total number of leaves in the tree the proof was built from.
    pub leaves: usize,
    /// Sibling path from leaf level to the root.
    pub path: Vec<ProofStep>,
}

impl MerkleTree {
    /// Builds a tree over `leaves` (each hashed with [`leaf_hash`]).
    pub fn build<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        let hashes: Vec<Hash> = leaves.iter().map(|l| leaf_hash(l.as_ref())).collect();
        Self::from_leaf_hashes(hashes)
    }

    /// Builds a tree over already-hashed leaves.
    pub fn from_leaf_hashes(hashes: Vec<Hash>) -> Self {
        if hashes.is_empty() {
            return MerkleTree { levels: vec![] };
        }
        let mut levels = vec![hashes];
        while levels.last().unwrap().len() > 1 {
            let next = hash_level(levels.last().unwrap());
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Root of the tree. The empty tree's root is `Hash::ZERO`.
    pub fn root(&self) -> Hash {
        self.levels.last().and_then(|l| l.first()).copied().unwrap_or(Hash::ZERO)
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, |l| l.len())
    }

    /// True when the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produces an inclusion proof for leaf `index`, or `None` if out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut path = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = if idx.is_multiple_of(2) { idx + 1 } else { idx - 1 };
            if sibling < level.len() {
                if idx.is_multiple_of(2) {
                    path.push(ProofStep::Right(level[sibling]));
                } else {
                    path.push(ProofStep::Left(level[sibling]));
                }
            }
            // Promoted odd nodes contribute no step.
            idx /= 2;
        }
        Some(MerkleProof { index, leaves: self.len(), path })
    }
}

/// Verifies that `leaf_data` is included under `root` via `proof`.
pub fn verify_inclusion(root: &Hash, leaf_data: &[u8], proof: &MerkleProof) -> bool {
    verify_inclusion_hash(root, leaf_hash(leaf_data), proof)
}

/// Verifies inclusion of an already-hashed leaf.
///
/// The claimed `proof.index` is checked against the path structure, not
/// merely ignored: verification walks the level sizes of a tree with
/// `proof.leaves` leaves and demands, at every level, exactly the step
/// kind that position dictates — `Right` sibling for a left child,
/// `Left` sibling for a right child, *no* step where the node is a
/// promoted odd tail. An index-lying proof therefore fails even when
/// its hash path folds to the correct root.
pub fn verify_inclusion_hash(root: &Hash, leaf: Hash, proof: &MerkleProof) -> bool {
    if proof.index >= proof.leaves {
        return false;
    }
    let mut cur = leaf;
    let mut idx = proof.index;
    let mut size = proof.leaves;
    let mut steps = proof.path.iter();
    while size > 1 {
        if !idx.is_multiple_of(2) {
            // Right child: the sibling must be on the left.
            match steps.next() {
                Some(ProofStep::Left(sib)) => cur = node_hash(sib, &cur),
                _ => return false,
            }
        } else if idx + 1 < size {
            // Left child with a real sibling on the right.
            match steps.next() {
                Some(ProofStep::Right(sib)) => cur = node_hash(&cur, sib),
                _ => return false,
            }
        }
        // else: promoted odd tail — consumes no step.
        idx /= 2;
        size = size.div_ceil(2);
    }
    steps.next().is_none() && cur == *root
}

/// In-flight state of one proof inside [`verify_inclusion_hash_batch`].
struct ProofWalk<'a> {
    cur: Hash,
    idx: usize,
    size: usize,
    steps: std::slice::Iter<'a, ProofStep>,
}

impl ProofWalk<'_> {
    /// Advances through promoted-odd levels (which consume no step) and
    /// returns the next interior-node preimage to hash, `Ok(None)` when
    /// the walk reached the root, or `Err(())` on a structural mismatch.
    fn next_job(&mut self) -> Result<Option<[u8; 65]>, ()> {
        while self.size > 1 {
            if !self.idx.is_multiple_of(2) {
                return match self.steps.next() {
                    Some(ProofStep::Left(sib)) => Ok(Some(node_preimage(sib, &self.cur))),
                    _ => Err(()),
                };
            } else if self.idx + 1 < self.size {
                return match self.steps.next() {
                    Some(ProofStep::Right(sib)) => Ok(Some(node_preimage(&self.cur, sib))),
                    _ => Err(()),
                };
            }
            // Promoted odd tail: no hash at this level.
            self.idx /= 2;
            self.size = self.size.div_ceil(2);
        }
        Ok(None)
    }

    /// Consumes the hash produced for the job returned by [`Self::next_job`].
    fn absorb(&mut self, parent: Hash) {
        self.cur = parent;
        self.idx /= 2;
        self.size = self.size.div_ceil(2);
    }
}

/// Verifies many already-hashed leaves against one `root`, folding the
/// proofs' interior-node hashes through the lane-interleaved SHA-256
/// kernel — lanes run *across proofs*, so the 65-byte node preimages of
/// up to 8 proofs share one compression scan per tree level.
///
/// Returns `true` iff **every** `(leaf, proof)` pair verifies, with
/// exactly the acceptance set of [`verify_inclusion_hash`] applied to
/// each pair. Callers who need to name the failing entry re-check
/// scalar-wise on `false` (the batch is the fast path; failure is the
/// rare one).
pub fn verify_inclusion_hash_batch(root: &Hash, items: &[(Hash, &MerkleProof)]) -> bool {
    let mut walks: Vec<ProofWalk<'_>> = Vec::with_capacity(items.len());
    for (leaf, proof) in items {
        if proof.index >= proof.leaves {
            return false;
        }
        walks.push(ProofWalk {
            cur: *leaf,
            idx: proof.index,
            size: proof.leaves,
            steps: proof.path.iter(),
        });
    }
    // Round-robin: every round gathers one pending interior hash per
    // still-walking proof and runs them through the wide kernel.
    let mut active: Vec<usize> = (0..walks.len()).collect();
    while !active.is_empty() {
        let mut jobs: Vec<(usize, [u8; 65])> = Vec::with_capacity(active.len());
        let mut still = Vec::with_capacity(active.len());
        for &w in &active {
            match walks[w].next_job() {
                Err(()) => return false,
                Ok(None) => {
                    let walk = &mut walks[w];
                    if walk.steps.next().is_some() || walk.cur != *root {
                        return false;
                    }
                }
                Ok(Some(buf)) => {
                    jobs.push((w, buf));
                    still.push(w);
                }
            }
        }
        let mut i = 0;
        while i + 8 <= jobs.len() {
            let refs: [&[u8]; 8] = std::array::from_fn(|k| jobs[i + k].1.as_slice());
            for (k, h) in sha256_multi(&refs).into_iter().enumerate() {
                walks[jobs[i + k].0].absorb(h);
            }
            i += 8;
        }
        if i + 4 <= jobs.len() {
            let refs: [&[u8]; 4] = std::array::from_fn(|k| jobs[i + k].1.as_slice());
            for (k, h) in sha256_multi(&refs).into_iter().enumerate() {
                walks[jobs[i + k].0].absorb(h);
            }
            i += 4;
        }
        while i < jobs.len() {
            let h = sha256_concat(&[jobs[i].1.as_slice()]);
            walks[jobs[i].0].absorb(h);
            i += 1;
        }
        active = still;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("tx-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_root_is_zero() {
        let t = MerkleTree::build::<Vec<u8>>(&[]);
        assert_eq!(t.root(), Hash::ZERO);
        assert!(t.is_empty());
        assert!(t.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = MerkleTree::build(&[b"only".to_vec()]);
        assert_eq!(t.root(), leaf_hash(b"only"));
        let p = t.prove(0).unwrap();
        assert!(p.path.is_empty());
        assert!(verify_inclusion(&t.root(), b"only", &p));
    }

    #[test]
    fn all_proofs_verify_for_many_sizes() {
        for n in 1..=33 {
            let ls = leaves(n);
            let t = MerkleTree::build(&ls);
            for (i, l) in ls.iter().enumerate() {
                let p = t.prove(i).unwrap();
                assert!(verify_inclusion(&t.root(), l, &p), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let ls = leaves(8);
        let t = MerkleTree::build(&ls);
        let p = t.prove(3).unwrap();
        assert!(!verify_inclusion(&t.root(), b"tx-4", &p));
    }

    #[test]
    fn proof_for_other_tree_fails() {
        let t1 = MerkleTree::build(&leaves(8));
        let t2 = MerkleTree::build(&leaves(9));
        let p = t1.prove(2).unwrap();
        assert!(!verify_inclusion(&t2.root(), b"tx-2", &p));
    }

    #[test]
    fn order_matters() {
        let mut ls = leaves(4);
        let t1 = MerkleTree::build(&ls);
        ls.swap(0, 1);
        let t2 = MerkleTree::build(&ls);
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    fn index_lying_proof_rejected() {
        // With promotion, the sibling path alone does not pin the leaf
        // position; the structural index check must reject every claimed
        // index other than the true one — exhaustively, for every tree
        // size we use elsewhere, including out-of-range lies.
        for n in 2..=33 {
            let ls = leaves(n);
            let t = MerkleTree::build(&ls);
            for (i, leaf) in ls.iter().enumerate() {
                let honest = t.prove(i).unwrap();
                assert_eq!(honest.leaves, n);
                for lie in 0..n + 2 {
                    if lie == i {
                        continue;
                    }
                    let mut p = honest.clone();
                    p.index = lie;
                    assert!(
                        !verify_inclusion(&t.root(), leaf, &p),
                        "n={n}: proof for leaf {i} accepted with lying index {lie}"
                    );
                }
            }
        }
    }

    #[test]
    fn leaf_count_lying_proof_rejected() {
        let ls = leaves(8);
        let t = MerkleTree::build(&ls);
        let mut p = t.prove(3).unwrap();
        p.leaves = 16;
        assert!(!verify_inclusion(&t.root(), &ls[3], &p), "inflated leaf count");
        p.leaves = 3;
        assert!(!verify_inclusion(&t.root(), &ls[3], &p), "index beyond claimed leaf count");
    }

    #[test]
    fn truncated_and_padded_paths_rejected() {
        let ls = leaves(8);
        let t = MerkleTree::build(&ls);
        let mut padded = t.prove(2).unwrap();
        let extra = padded.path[0];
        padded.path.push(extra);
        assert!(!verify_inclusion(&t.root(), &ls[2], &padded));
        let mut truncated = t.prove(2).unwrap();
        truncated.path.pop();
        assert!(!verify_inclusion(&t.root(), &ls[2], &truncated));
    }

    #[test]
    fn batched_levels_match_scalar_reference() {
        // The level builder must agree with a plain pairwise fold at
        // every size, odd-node promotion at one and at several levels
        // included.
        fn scalar_root(mut level: Vec<Hash>) -> Hash {
            while level.len() > 1 {
                let mut next = Vec::new();
                let mut i = 0;
                while i < level.len() {
                    if i + 1 < level.len() {
                        next.push(node_hash(&level[i], &level[i + 1]));
                    } else {
                        next.push(level[i]);
                    }
                    i += 2;
                }
                level = next;
            }
            level.first().copied().unwrap_or(Hash::ZERO)
        }
        for n in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 64, 100, 257] {
            let ls = leaves(n);
            let t = MerkleTree::build(&ls);
            let reference = scalar_root(ls.iter().map(|l| leaf_hash(l)).collect());
            assert_eq!(t.root(), reference, "n={n}");
        }
    }

    #[test]
    fn batched_proof_verification_matches_scalar() {
        // Lanes run across proofs: sizes around the 8/4/scalar splits,
        // plus promotion-heavy odd trees, must all agree with the
        // per-proof verifier.
        for n in [1usize, 2, 3, 5, 8, 9, 13, 16, 17, 33] {
            let ls = leaves(n);
            let t = MerkleTree::build(&ls);
            let proofs: Vec<MerkleProof> = (0..n).map(|i| t.prove(i).unwrap()).collect();
            let items: Vec<(Hash, &MerkleProof)> =
                ls.iter().zip(&proofs).map(|(l, p)| (leaf_hash(l), p)).collect();
            assert!(verify_inclusion_hash_batch(&t.root(), &items), "n={n}");
        }
        // Empty batch is vacuously true.
        assert!(verify_inclusion_hash_batch(&Hash::ZERO, &[]));
    }

    #[test]
    fn batched_proof_verification_rejects_any_bad_entry() {
        let ls = leaves(16);
        let t = MerkleTree::build(&ls);
        let proofs: Vec<MerkleProof> = (0..16).map(|i| t.prove(i).unwrap()).collect();
        let good: Vec<(Hash, &MerkleProof)> =
            ls.iter().zip(&proofs).map(|(l, p)| (leaf_hash(l), p)).collect();
        // Wrong leaf hash at one position poisons the batch.
        let mut wrong_leaf = good.clone();
        wrong_leaf[7].0 = leaf_hash(b"not-tx-7");
        assert!(!verify_inclusion_hash_batch(&t.root(), &wrong_leaf));
        // Lying index, truncated path, and out-of-range index all reject,
        // exactly as the scalar verifier would.
        let mut lying = proofs[3].clone();
        lying.index = 4;
        let mut batch = good.clone();
        batch[3].1 = &lying;
        assert!(!verify_inclusion_hash_batch(&t.root(), &batch));
        let mut truncated = proofs[5].clone();
        truncated.path.pop();
        let mut batch = good.clone();
        batch[5].1 = &truncated;
        assert!(!verify_inclusion_hash_batch(&t.root(), &batch));
        let mut oob = proofs[0].clone();
        oob.index = 99;
        let mut batch = good;
        batch[0].1 = &oob;
        assert!(!verify_inclusion_hash_batch(&t.root(), &batch));
    }

    #[test]
    fn batched_verification_agrees_with_scalar_on_mixed_sizes() {
        // Proofs from *different* trees against one root: only those
        // from the matching tree survive scalar verification, so the
        // batch must reject; the all-matching subset must pass.
        let ls8 = leaves(8);
        let ls9 = leaves(9);
        let t8 = MerkleTree::build(&ls8);
        let t9 = MerkleTree::build(&ls9);
        let p8: Vec<MerkleProof> = (0..8).map(|i| t8.prove(i).unwrap()).collect();
        let foreign = t9.prove(2).unwrap();
        let mut items: Vec<(Hash, &MerkleProof)> =
            ls8.iter().zip(&p8).map(|(l, p)| (leaf_hash(l), p)).collect();
        assert!(verify_inclusion_hash_batch(&t8.root(), &items));
        items[2] = (leaf_hash(&ls9[2]), &foreign);
        assert!(!verify_inclusion_hash_batch(&t8.root(), &items));
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A leaf equal to 0x01 || h1 || h2 must not collide with the
        // interior node H(h1, h2).
        let h1 = leaf_hash(b"a");
        let h2 = leaf_hash(b"b");
        let mut fake = vec![0x01];
        fake.extend_from_slice(&h1.0);
        fake.extend_from_slice(&h2.0);
        assert_ne!(leaf_hash(&fake), node_hash(&h1, &h2));
    }
}
