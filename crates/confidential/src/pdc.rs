//! Private data collections (PDC, §2.3.1) — cryptographic
//! confidentiality *within* a Fabric channel.
//!
//! A collection names the subset of a channel's enterprises allowed to
//! see certain data. Private writes go to a side database replicated only
//! on authorized peers; what lands on the shared channel ledger is a
//! **hash** of the private write set — evidence every channel member can
//! verify (and use to check read-write conflicts) without learning the
//! data. Disclosure works by revealing `(key, value, salt)` against the
//! on-ledger hash.

use crate::cost::CoordCounters;
use pbc_crypto::merkle::{verify_inclusion, MerkleProof, MerkleTree};
use pbc_crypto::Hash;
use pbc_ledger::{ChainLedger, StateStore, Version};
use pbc_types::encode::Encoder;
use pbc_types::{ClientId, EnterpriseId, Key, Op, Transaction, TxId, Value};
use std::collections::BTreeMap;

/// PDC errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PdcError {
    /// No such collection.
    UnknownCollection(String),
    /// The enterprise is not authorized for the collection.
    NotAuthorized {
        /// Requesting enterprise.
        enterprise: EnterpriseId,
        /// Target collection.
        collection: String,
    },
    /// A collection with this name already exists.
    DuplicateCollection(String),
}

impl std::fmt::Display for PdcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PdcError::UnknownCollection(c) => write!(f, "unknown collection {c}"),
            PdcError::NotAuthorized { enterprise, collection } => {
                write!(f, "{enterprise} not authorized for collection {collection}")
            }
            PdcError::DuplicateCollection(c) => write!(f, "collection {c} already exists"),
        }
    }
}

impl std::error::Error for PdcError {}

/// One private write, salted so the on-ledger hash doesn't leak
/// low-entropy values by dictionary attack.
fn leaf_bytes(key: &str, value: &Value, salt: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.str(key).bytes(value).u64(salt);
    enc.finish()
}

/// The evidence recorded on the channel ledger for one private write set:
/// the Merkle root over its salted `(key, value)` leaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrivateEvidence {
    /// The collection written.
    pub collection: String,
    /// Merkle root over the write set.
    pub root: Hash,
    /// Number of writes (public knowledge).
    pub writes: usize,
}

/// A disclosure of one private write, checkable against the ledger.
#[derive(Clone, Debug)]
pub struct Disclosure {
    /// The written key.
    pub key: Key,
    /// The written value.
    pub value: Value,
    /// The salt used in the leaf.
    pub salt: u64,
    /// Merkle inclusion proof against the evidence root.
    pub proof: MerkleProof,
}

struct Collection {
    members: Vec<EnterpriseId>,
    /// Private side database per authorized member.
    replicas: BTreeMap<EnterpriseId, StateStore>,
    next_version: u64,
}

/// A channel with private data collections.
pub struct PdcChannel {
    /// The shared channel ledger: holds public txs and private evidence.
    pub ledger: ChainLedger,
    /// The shared public state.
    pub public_state: StateStore,
    collections: BTreeMap<String, Collection>,
    /// Evidence recorded so far, in ledger order.
    pub evidence: Vec<PrivateEvidence>,
    /// Coordination accounting for E6.
    pub counters: CoordCounters,
    salt_seq: u64,
}

impl Default for PdcChannel {
    fn default() -> Self {
        Self::new()
    }
}

impl PdcChannel {
    /// A fresh channel with no collections.
    pub fn new() -> Self {
        PdcChannel {
            ledger: ChainLedger::new(),
            public_state: StateStore::new(),
            collections: BTreeMap::new(),
            evidence: Vec::new(),
            counters: CoordCounters::default(),
            salt_seq: 0,
        }
    }

    /// Defines a collection over a subset of the channel's enterprises.
    pub fn define_collection(
        &mut self,
        name: &str,
        members: Vec<EnterpriseId>,
    ) -> Result<(), PdcError> {
        if self.collections.contains_key(name) {
            return Err(PdcError::DuplicateCollection(name.to_string()));
        }
        let replicas = members.iter().map(|&m| (m, StateStore::new())).collect();
        self.collections
            .insert(name.to_string(), Collection { members, replicas, next_version: 1 });
        Ok(())
    }

    /// Submits a *public* transaction: ordinary channel processing.
    pub fn submit_public(&mut self, tx: Transaction) {
        self.counters.channel_rounds += 1;
        let height = self.ledger.height().next();
        let mut state_version = 0u32;
        let block = pbc_types::Block::build(
            height,
            self.ledger.head_hash(),
            pbc_types::NodeId(0),
            height.0,
            vec![tx.clone()],
        );
        self.ledger.append(block).expect("sequential build");
        let r = pbc_ledger::execute(&tx, &self.public_state);
        if r.is_success() {
            for (k, v) in &r.write_set {
                let ver = Version::new(height.0, state_version);
                match v {
                    Some(v) => self.public_state.put(*k, v.clone(), ver),
                    None => self.public_state.delete(*k, ver),
                }
                state_version += 1;
            }
        }
    }

    /// Submits a *private* transaction to a collection: the write set is
    /// applied to authorized replicas only; a salted Merkle root goes on
    /// the shared ledger as evidence. Returns the evidence index and the
    /// salts (held by authorized members for later disclosure).
    pub fn submit_private(
        &mut self,
        collection: &str,
        writes: Vec<(Key, Value)>,
    ) -> Result<(usize, Vec<u64>), PdcError> {
        if !self.collections.contains_key(collection) {
            return Err(PdcError::UnknownCollection(collection.to_string()));
        }
        self.counters.channel_rounds += 1;
        self.counters.evidence_hashes += 1;
        // Salt each write; build the evidence tree.
        let salts: Vec<u64> = writes
            .iter()
            .map(|_| {
                self.salt_seq += 1;
                // Derive an unpredictable salt from a hash chain.
                pbc_crypto::sha256(&self.salt_seq.to_be_bytes()).prefix_u64()
            })
            .collect();
        let leaves: Vec<Vec<u8>> =
            writes.iter().zip(&salts).map(|((k, v), &s)| leaf_bytes(k, v, s)).collect();
        let tree = MerkleTree::build(&leaves);
        let root = tree.root();

        // Evidence transaction on the shared ledger (hash only).
        let evidence_tx = Transaction::new(
            TxId(self.salt_seq),
            ClientId(0),
            vec![Op::Put {
                key: format!("pdc-evidence/{collection}/{}", self.evidence.len()),
                value: Value::copy_from_slice(&root.0),
            }],
        );
        self.submit_public(evidence_tx);
        self.evidence.push(PrivateEvidence {
            collection: collection.to_string(),
            root,
            writes: writes.len(),
        });

        // Apply the private writes on authorized replicas.
        let coll = self.collections.get_mut(collection).expect("checked above");
        let version = Version::new(coll.next_version, 0);
        coll.next_version += 1;
        for replica in coll.replicas.values_mut() {
            replica.apply(&writes, version);
        }
        Ok((self.evidence.len() - 1, salts))
    }

    /// Authorized read from a collection replica.
    pub fn read_private(
        &self,
        e: EnterpriseId,
        collection: &str,
        key: &str,
    ) -> Result<Option<&Value>, PdcError> {
        let coll = self
            .collections
            .get(collection)
            .ok_or_else(|| PdcError::UnknownCollection(collection.to_string()))?;
        if !coll.members.contains(&e) {
            return Err(PdcError::NotAuthorized {
                enterprise: e,
                collection: collection.to_string(),
            });
        }
        Ok(coll.replicas[&e].get(key))
    }

    /// Builds a disclosure for write `index` of evidence entry
    /// `evidence_idx` (done by an authorized member who holds the data
    /// and salts).
    pub fn disclose(
        &self,
        evidence_idx: usize,
        writes: &[(Key, Value)],
        salts: &[u64],
        index: usize,
    ) -> Option<Disclosure> {
        let leaves: Vec<Vec<u8>> =
            writes.iter().zip(salts).map(|((k, v), &s)| leaf_bytes(k, v, s)).collect();
        let tree = MerkleTree::build(&leaves);
        if tree.root() != self.evidence.get(evidence_idx)?.root {
            return None;
        }
        let proof = tree.prove(index)?;
        let (key, value) = writes[index].clone();
        Some(Disclosure { key, value, salt: salts[index], proof })
    }

    /// Verifies a disclosure against the on-ledger evidence — what an
    /// *unauthorized* channel member can do (state validation without the
    /// data).
    pub fn verify_disclosure(&self, evidence_idx: usize, d: &Disclosure) -> bool {
        let Some(ev) = self.evidence.get(evidence_idx) else {
            return false;
        };
        verify_inclusion(&ev.root, &leaf_bytes(&d.key, &d.value, d.salt), &d.proof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::tx::balance_value;

    fn e(i: u32) -> EnterpriseId {
        EnterpriseId(i)
    }

    fn channel_with_collection() -> PdcChannel {
        let mut ch = PdcChannel::new();
        // Channel has e0, e1, e2; collection only e0, e1.
        ch.define_collection("deal", vec![e(0), e(1)]).unwrap();
        ch
    }

    #[test]
    fn private_data_visible_only_to_authorized() {
        let mut ch = channel_with_collection();
        let writes = vec![("price".to_string(), balance_value(99))];
        ch.submit_private("deal", writes).unwrap();
        assert!(ch.read_private(e(0), "deal", "price").unwrap().is_some());
        assert!(ch.read_private(e(1), "deal", "price").unwrap().is_some());
        assert!(matches!(
            ch.read_private(e(2), "deal", "price"),
            Err(PdcError::NotAuthorized { .. })
        ));
    }

    #[test]
    fn hash_evidence_lands_on_shared_ledger() {
        let mut ch = channel_with_collection();
        ch.submit_private("deal", vec![("price".to_string(), balance_value(99))]).unwrap();
        // The ledger grew and the evidence key is publicly visible.
        assert_eq!(ch.ledger.len(), 2);
        assert!(ch.public_state.get("pdc-evidence/deal/0").is_some());
        // The public value is the 32-byte root, not the data.
        let stored = ch.public_state.get("pdc-evidence/deal/0").unwrap();
        assert_eq!(stored.len(), 32);
    }

    #[test]
    fn evidence_does_not_leak_value() {
        let mut ch = channel_with_collection();
        let value = balance_value(12345);
        ch.submit_private("deal", vec![("price".to_string(), value.clone())]).unwrap();
        let root = ch.evidence[0].root;
        // Unsalted hash of the (key, value) pair ≠ evidence root: a
        // dictionary attacker cannot confirm guesses without the salt.
        let guess = pbc_crypto::sha256(&leaf_bytes("price", &value, 0));
        assert_ne!(root, guess);
    }

    #[test]
    fn disclosure_roundtrip() {
        let mut ch = channel_with_collection();
        let writes =
            vec![("price".to_string(), balance_value(99)), ("qty".to_string(), balance_value(7))];
        let (idx, salts) = ch.submit_private("deal", writes.clone()).unwrap();
        let d = ch.disclose(idx, &writes, &salts, 1).unwrap();
        assert!(ch.verify_disclosure(idx, &d));
        assert_eq!(d.key, "qty");
    }

    #[test]
    fn forged_disclosure_rejected() {
        let mut ch = channel_with_collection();
        let writes = vec![("price".to_string(), balance_value(99))];
        let (idx, salts) = ch.submit_private("deal", writes.clone()).unwrap();
        let mut d = ch.disclose(idx, &writes, &salts, 0).unwrap();
        d.value = balance_value(1); // lie about the committed value
        assert!(!ch.verify_disclosure(idx, &d));
    }

    #[test]
    fn disclosure_against_wrong_evidence_fails() {
        let mut ch = channel_with_collection();
        let w1 = vec![("a".to_string(), balance_value(1))];
        let w2 = vec![("b".to_string(), balance_value(2))];
        let (i1, s1) = ch.submit_private("deal", w1.clone()).unwrap();
        let (i2, _) = ch.submit_private("deal", w2).unwrap();
        let d = ch.disclose(i1, &w1, &s1, 0).unwrap();
        assert!(ch.verify_disclosure(i1, &d));
        assert!(!ch.verify_disclosure(i2, &d));
    }

    #[test]
    fn multiple_collections_isolated() {
        let mut ch = channel_with_collection();
        ch.define_collection("other", vec![e(1), e(2)]).unwrap();
        ch.submit_private("deal", vec![("k".to_string(), balance_value(1))]).unwrap();
        // e2 is authorized for "other" but not "deal".
        assert!(ch.read_private(e(2), "deal", "k").is_err());
        assert_eq!(ch.read_private(e(2), "other", "k").unwrap(), None);
        // e1 is in both; sees "deal" data, "other" is empty.
        assert!(ch.read_private(e(1), "deal", "k").unwrap().is_some());
    }

    #[test]
    fn duplicate_collection_rejected() {
        let mut ch = channel_with_collection();
        assert_eq!(
            ch.define_collection("deal", vec![e(0)]).unwrap_err(),
            PdcError::DuplicateCollection("deal".into())
        );
    }

    #[test]
    fn counters_track_hash_overhead() {
        let mut ch = channel_with_collection();
        ch.submit_private("deal", vec![("k".to_string(), balance_value(1))]).unwrap();
        ch.submit_public(Transaction::new(
            TxId(99),
            ClientId(0),
            vec![Op::Put { key: "pub".into(), value: balance_value(5) }],
        ));
        assert_eq!(ch.counters.evidence_hashes, 1);
        assert_eq!(ch.counters.channel_rounds, 3); // private → evidence block + public
    }
}
