//! Binary Merkle trees with inclusion proofs.
//!
//! Used for block transaction roots and for the hash-on-ledger evidence of
//! private data collections (§2.3.1). Leaves are domain-separated from
//! interior nodes (prefix byte `0x00` vs `0x01`) to rule out
//! second-preimage tree-splicing attacks. Odd nodes are promoted (Bitcoin
//! duplicates them instead; promotion avoids the duplicate-leaf ambiguity).

use crate::hash::Hash;
use crate::sha256::sha256_concat;
use serde::{Deserialize, Serialize};

/// Hashes a leaf with domain separation.
pub fn leaf_hash(data: &[u8]) -> Hash {
    sha256_concat(&[&[0x00], data])
}

/// Hashes an interior node with domain separation.
pub fn node_hash(left: &Hash, right: &Hash) -> Hash {
    sha256_concat(&[&[0x01], &left.0, &right.0])
}

/// Computes one interior level from `prev`: adjacent pairs hashed with
/// [`node_hash`], a trailing odd node promoted unchanged.
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
        // A proof over zero leaves proves nothing, even against the empty root.
        let nothing = MerkleProof { index: 0, leaves: 0, path: vec![] };
        assert!(!verify_inclusion_hash(&Hash::ZERO, Hash::ZERO, &nothing));
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
        let t16 = MerkleTree::build(&leaves(16));
        let p = t16.prove(7).unwrap();
        assert!(!verify_inclusion_hash(&t16.root(), leaf_hash(b"not-tx-7"), &p));
    }

    #[test]
    fn proof_for_other_tree_fails() {
        let t1 = MerkleTree::build(&leaves(8));
        let t2 = MerkleTree::build(&leaves(9));
        let p = t1.prove(2).unwrap();
        assert!(!verify_inclusion(&t2.root(), b"tx-2", &p));
        let foreign = t2.prove(2).unwrap();
        assert!(!verify_inclusion_hash(&t1.root(), leaf_hash(b"tx-2"), &foreign));
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
        let t = MerkleTree::build(&leaves(16));
        let mut far = t.prove(0).unwrap();
        far.index = 99;
        assert!(!verify_inclusion_hash(&t.root(), leaf_hash(b"tx-0"), &far));
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
        let t16 = MerkleTree::build(&leaves(16));
        let leaf = leaf_hash(b"tx-5");
        let mut extra = t16.prove(5).unwrap();
        extra.path.push(extra.path[0]);
        assert!(!verify_inclusion_hash(&t16.root(), leaf, &extra));
        let mut short = t16.prove(5).unwrap();
        short.path.pop();
        assert!(!verify_inclusion_hash(&t16.root(), leaf, &short));
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
