//! Fabric endorsement policies (§2.3.3).
//!
//! In Hyperledger Fabric "transactions of different enterprises are first
//! executed in parallel by executor nodes (i.e., endorsers) of each
//! enterprise", and a transaction is only valid if enough organizations'
//! endorsers produced **matching** signed results (the endorsement
//! policy, e.g. 2-of-3 orgs). Because execution happens *first*, XOV
//! "supports non-deterministic execution of transactions … by executing
//! transactions first and detecting any inconsistencies early on" — a
//! faulty or non-deterministic endorser shows up as a result mismatch at
//! endorsement time, long before commit.
//!
//! [`EndorsingPipeline`] wraps the XOV flow with this step: each
//! transaction is executed by every endorsing org (one of which can be
//! configured Byzantine for tests), results are signed with the org's
//! key and checked against the policy; only policy-satisfying
//! transactions proceed to ordering and validation.
//!
//! Execution is a pure function of the transaction and the state, and
//! every simulated org endorses against the same state, so the pipeline
//! executes and digests the honest result once per transaction; each
//! org still signs with its own key. The verifier digests each
//! *distinct* result once — equal results have equal digests — and
//! still checks every signature against a digest it computed itself.

use crate::pipeline::{seal_block, BlockOutcome, BlockSeal, ExecutionPipeline};
use pbc_crypto::schnorr_sig::{verify_batch, BatchItem, SchnorrSignature, SigningKey};
use pbc_crypto::sig::{KeyDirectory, Signature};
use pbc_ledger::{ExecResult, StateStore, Version};
use pbc_txn::validate::{validate_read_set, ValidationVerdict};
use pbc_types::{BlockBody, EnterpriseId, Transaction};

/// A k-of-n endorsement policy over organizations.
#[derive(Clone, Debug)]
pub struct EndorsementPolicy {
    /// Organizations whose endorsers execute transactions.
    pub orgs: Vec<EnterpriseId>,
    /// How many distinct orgs of `orgs` must endorse matching results.
    pub required: usize,
}

impl EndorsementPolicy {
    /// `required`-of-`orgs`; `orgs` must be distinct.
    pub fn new(orgs: Vec<EnterpriseId>, required: usize) -> Self {
        assert!(required >= 1 && required <= orgs.len(), "k-of-n needs 1 ≤ k ≤ n");
        for (i, org) in orgs.iter().enumerate() {
            assert!(
                !orgs[..i].contains(org),
                "k-of-n needs n distinct orgs, {org:?} is listed twice"
            );
        }
        EndorsementPolicy { orgs, required }
    }
}

/// Which signature scheme the endorsing orgs use.
///
/// The MAC directory is the paper's default for a closed membership;
/// the Schnorr mode swaps in public-key endorsements whose verification
/// goes through the batched [`verify_batch`] kernel — one weighted
/// multi-exponentiation per *block* instead of one group equation per
/// endorsement (§2.3.3's endorsement-validation cost).
enum EndorserKeys {
    /// Keyed-hash signatures against the trusted directory.
    Hmac(KeyDirectory),
    /// Schnorr key pairs, indexed by org id.
    Schnorr(Vec<SigningKey>),
}

/// An endorsement signature under either scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EndorseSig {
    /// Keyed-hash signature (directory-verified).
    Hmac(Signature),
    /// Schnorr signature (public-key, batch-verifiable).
    Schnorr(SchnorrSignature),
}

/// One org's signed endorsement of an execution result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Endorsement {
    /// The endorsing organization.
    pub org: EnterpriseId,
    /// The simulated execution result.
    pub result: ExecResult,
    /// Signature over the result digest with the org's key.
    pub signature: EndorseSig,
}

/// Digest of an execution result (what endorsers sign and what must
/// match across orgs).
fn result_digest(r: &ExecResult) -> pbc_crypto::Hash {
    let mut enc = pbc_types::encode::Encoder::new();
    enc.u64(r.tx_id.0);
    enc.u32(r.is_success() as u32);
    for (k, v) in &r.read_set {
        enc.str(k.as_str()).u64(v.height).u32(v.tx_index);
    }
    for (k, v) in &r.write_set {
        enc.str(k.as_str());
        match v {
            Some(v) => enc.u32(1).bytes(v),
            None => enc.u32(0),
        };
    }
    pbc_crypto::sha256(enc.as_slice())
}

/// The verifier's digest of each endorsed result, in endorsement order.
/// Equal results have equal digests, so each distinct result is digested
/// once and its digest reused for the endorsements that repeat it.
fn result_digests(endorsements: &[Endorsement]) -> Vec<pbc_crypto::Hash> {
    let mut digests: Vec<pbc_crypto::Hash> = Vec::with_capacity(endorsements.len());
    for (i, e) in endorsements.iter().enumerate() {
        let digest = match endorsements[..i].iter().position(|p| p.result == e.result) {
            Some(j) => digests[j],
            None => result_digest(&e.result),
        };
        digests.push(digest);
    }
    digests
}

/// Why a transaction failed endorsement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EndorseError {
    /// Fewer than `required` policy orgs endorsed matching results.
    PolicyNotSatisfied {
        /// Distinct policy orgs in the largest agreeing set.
        matching: usize,
        /// Endorsements required.
        required: usize,
    },
    /// An endorsement carried an invalid signature.
    BadSignature(EnterpriseId),
}

/// An XOV pipeline with endorsement-policy checking in front.
pub struct EndorsingPipeline {
    policy: EndorsementPolicy,
    keys: EndorserKeys,
    state: StateStore,
    ledger: pbc_ledger::ChainLedger,
    /// Orgs whose endorsers lie (corrupt their write sets) — test/fault
    /// injection hook.
    pub byzantine_orgs: Vec<EnterpriseId>,
    /// Transactions rejected at endorsement time (observability).
    pub endorsement_rejections: u64,
}

impl EndorsingPipeline {
    /// Creates a pipeline; org keys are derived from `seed` via the
    /// trusted directory.
    pub fn new(policy: EndorsementPolicy, seed: u64, state: StateStore) -> Self {
        let max_org = policy.orgs.iter().map(|o| o.0 as u64).max().unwrap_or(0);
        let directory = KeyDirectory::with_signers(seed, max_org + 1);
        Self::with_keys(policy, EndorserKeys::Hmac(directory), state)
    }

    /// Creates a pipeline whose orgs endorse with Schnorr signatures
    /// (derived deterministically from `seed`), verified through the
    /// batched multi-scalar kernel — one weighted check per block.
    pub fn new_schnorr(policy: EndorsementPolicy, seed: u64, state: StateStore) -> Self {
        let max_org = policy.orgs.iter().map(|o| o.0 as u64).max().unwrap_or(0);
        let keys = (0..=max_org).map(|id| SigningKey::derive(seed, id)).collect();
        Self::with_keys(policy, EndorserKeys::Schnorr(keys), state)
    }

    fn with_keys(policy: EndorsementPolicy, keys: EndorserKeys, state: StateStore) -> Self {
        EndorsingPipeline {
            policy,
            keys,
            state,
            ledger: pbc_ledger::ChainLedger::new(),
            byzantine_orgs: Vec::new(),
            endorsement_rejections: 0,
        }
    }

    /// Simulates endorsement of `tx` by every org in the policy.
    ///
    /// The honest result is executed and digested once; a Byzantine org
    /// corrupts its own copy and digests that. Every org signs its
    /// digest with its own key.
    pub fn endorse(&self, tx: &Transaction) -> Vec<Endorsement> {
        let honest = pbc_ledger::execute(tx, &self.state);
        let honest_digest = result_digest(&honest);
        self.policy
            .orgs
            .iter()
            .map(|&org| {
                let (result, digest) = if self.byzantine_orgs.contains(&org) {
                    // A lying endorser corrupts the proposed writes
                    // (deletes included: a resurrected value is just as
                    // much a lie as a corrupted one).
                    let mut lie = honest.clone();
                    for (_, v) in lie.write_set.iter_mut() {
                        *v = Some(pbc_types::Value::from_static(b"corrupted"));
                    }
                    let digest = result_digest(&lie);
                    (lie, digest)
                } else {
                    (honest.clone(), honest_digest)
                };
                let signature = match &self.keys {
                    EndorserKeys::Hmac(directory) => {
                        let key = directory.key(org.0 as u64).expect("org registered");
                        EndorseSig::Hmac(key.sign(&digest.0))
                    }
                    EndorserKeys::Schnorr(keys) => {
                        // Derandomized nonce: endorsements stay
                        // deterministic inside the simulator.
                        EndorseSig::Schnorr(keys[org.0 as usize].sign_deterministic(&digest.0))
                    }
                };
                Endorsement { org, result, signature }
            })
            .collect()
    }

    /// Verifies every endorsement signature; `Err` names the first org
    /// (in endorsement order) whose signature failed. `Ok` carries the
    /// digest of each endorsed result, in endorsement order, as computed
    /// *here* from the result the endorsement carries — the one digest
    /// the verifying side takes, and the only one it may trust.
    ///
    /// The Schnorr mode checks the whole set with one batched
    /// [`verify_batch`] call and maps its pinpointed culprit indices
    /// back to orgs; the HMAC mode verifies against the directory
    /// entry-wise.
    pub fn verify_signatures(
        &self,
        endorsements: &[Endorsement],
    ) -> Result<Vec<pbc_crypto::Hash>, EndorseError> {
        let digests = result_digests(endorsements);
        match &self.keys {
            EndorserKeys::Hmac(directory) => {
                for (e, digest) in endorsements.iter().zip(&digests) {
                    let ok = match &e.signature {
                        EndorseSig::Hmac(sig) => directory.verify(e.org.0 as u64, &digest.0, sig),
                        EndorseSig::Schnorr(_) => false,
                    };
                    if !ok {
                        return Err(EndorseError::BadSignature(e.org));
                    }
                }
            }
            EndorserKeys::Schnorr(keys) => {
                let mut items = Vec::with_capacity(endorsements.len());
                for (e, digest) in endorsements.iter().zip(&digests) {
                    let sig = match &e.signature {
                        EndorseSig::Schnorr(sig) => *sig,
                        EndorseSig::Hmac(_) => return Err(EndorseError::BadSignature(e.org)),
                    };
                    let key =
                        keys.get(e.org.0 as usize).ok_or(EndorseError::BadSignature(e.org))?.public;
                    items.push(BatchItem { key, msg: &digest.0, sig });
                }
                verify_batch(&items)
                    .map_err(|bad| EndorseError::BadSignature(endorsements[bad[0]].org))?;
            }
        }
        Ok(digests)
    }

    /// Checks the policy: signature-valid endorsements with identical
    /// result digests from at least `required` distinct policy orgs.
    /// Returns the agreed result.
    pub fn check_policy(&self, endorsements: &[Endorsement]) -> Result<ExecResult, EndorseError> {
        let digests = self.verify_signatures(endorsements)?;
        self.check_matching(endorsements, &digests).cloned()
    }

    /// The digest-agreement half of the policy: at least `required`
    /// policy orgs endorsing one result digest. `digests` are the
    /// verifier's own, one per endorsement
    /// ([`EndorsingPipeline::verify_signatures`]). An org counts once
    /// however often it endorses, and an org outside the policy not at
    /// all. The largest agreeing set wins, the earliest endorsed among
    /// equals.
    fn check_matching<'a>(
        &self,
        endorsements: &'a [Endorsement],
        digests: &[pbc_crypto::Hash],
    ) -> Result<&'a ExecResult, EndorseError> {
        let (mut matching, mut agreed) = (0, 0);
        for (i, digest) in digests.iter().enumerate() {
            // A digest is counted where it first occurs.
            if !digests[..i].contains(digest) {
                let endorsed = |org: &EnterpriseId| {
                    endorsements.iter().zip(digests).any(|(e, d)| e.org == *org && d == digest)
                };
                let count = self.policy.orgs.iter().filter(|org| endorsed(org)).count();
                if count > matching {
                    (matching, agreed) = (count, i);
                }
            }
        }
        if matching < self.policy.required {
            return Err(EndorseError::PolicyNotSatisfied {
                matching,
                required: self.policy.required,
            });
        }
        Ok(&endorsements[agreed].result)
    }

    /// Signature validity per transaction for a whole block of
    /// endorsement sets: the verifier's result digests of a transaction
    /// whose signatures all hold, `None` for one with a bad signature.
    /// The Schnorr mode flattens every endorsement of every transaction
    /// into one [`verify_batch`] call; a transaction is bad iff the
    /// batch pinpoints one of *its* endorsements.
    fn verify_block_signatures(
        &self,
        per_tx: &[Vec<Endorsement>],
    ) -> Vec<Option<Vec<pbc_crypto::Hash>>> {
        match &self.keys {
            EndorserKeys::Hmac(_) => {
                per_tx.iter().map(|e| self.verify_signatures(e).ok()).collect()
            }
            EndorserKeys::Schnorr(keys) => {
                // Digests first, so the batch items can borrow their
                // bytes; `owner[i]` is the transaction item `i` belongs to.
                let digests: Vec<Vec<pbc_crypto::Hash>> =
                    per_tx.iter().map(|endorsements| result_digests(endorsements)).collect();
                let mut ok = vec![true; per_tx.len()];
                let mut owner: Vec<usize> = Vec::new();
                let mut items = Vec::new();
                for (t, endorsements) in per_tx.iter().enumerate() {
                    for (e, digest) in endorsements.iter().zip(&digests[t]) {
                        match (&e.signature, keys.get(e.org.0 as usize)) {
                            (EndorseSig::Schnorr(sig), Some(key)) => {
                                owner.push(t);
                                items.push(BatchItem {
                                    key: key.public,
                                    msg: &digest.0,
                                    sig: *sig,
                                });
                            }
                            // Unknown org or wrong scheme: structurally
                            // invalid, fail the tx without batching it.
                            _ => ok[t] = false,
                        }
                    }
                }
                if let Err(bad) = verify_batch(&items) {
                    for idx in bad {
                        ok[owner[idx]] = false;
                    }
                }
                digests.into_iter().zip(ok).map(|(d, ok)| ok.then_some(d)).collect()
            }
        }
    }
}

impl ExecutionPipeline for EndorsingPipeline {
    fn process_block_sealed(&mut self, txs: BlockBody, seal: BlockSeal) -> BlockOutcome {
        // Execute/endorse phase with policy checking. In the Schnorr
        // mode every endorsement of every transaction joins ONE batched
        // signature check — the whole block's verification cost is a
        // single weighted multi-exponentiation (plus pinpointing only
        // when something actually fails).
        let per_tx: Vec<Vec<Endorsement>> = txs.iter().map(|tx| self.endorse(tx)).collect();
        let verified = self.verify_block_signatures(&per_tx);
        let mut endorsed: Vec<Option<&ExecResult>> = Vec::with_capacity(txs.len());
        for (endorsements, digests) in per_tx.iter().zip(verified) {
            let agreed = digests.and_then(|d| self.check_matching(endorsements, &d).ok());
            self.endorsement_rejections += u64::from(agreed.is_none());
            endorsed.push(agreed);
        }
        // Order + validate (plain Fabric semantics).
        let (height, txs) = seal_block(&mut self.ledger, seal, txs);
        let mut outcome = BlockOutcome { sequential_steps: 1, ..Default::default() };
        for (i, (tx, result)) in txs.iter().zip(endorsed).enumerate() {
            match result {
                Some(r) if validate_read_set(r, &self.state) == ValidationVerdict::Valid => {
                    self.state.apply_writes(&r.write_set, Version::new(height, i as u32));
                    outcome.committed.push(tx.id);
                }
                Some(r) => outcome.record_exec_abort(r),
                None => outcome.aborted.push(tx.id),
            }
        }
        outcome
    }

    fn state(&self) -> &StateStore {
        &self.state
    }

    fn ledger(&self) -> &pbc_ledger::ChainLedger {
        &self.ledger
    }

    fn name(&self) -> &'static str {
        "XOV+endorsement"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::tx::{balance_of, balance_value};
    use pbc_types::{ClientId, Op, TxId};

    fn orgs(n: u32) -> Vec<EnterpriseId> {
        (0..n).map(EnterpriseId).collect()
    }

    fn seeded() -> StateStore {
        let mut s = StateStore::new();
        s.put("a", balance_value(100), Version::new(0, 0));
        s.put("b", balance_value(0), Version::new(0, 1));
        s
    }

    fn transfer(id: u64, amount: u64) -> Transaction {
        Transaction::new(
            TxId(id),
            ClientId(0),
            vec![Op::Transfer { from: "a".into(), to: "b".into(), amount }],
        )
    }

    /// What endorsers sign, pinned: a result with reads, a put and a
    /// delete, so every branch of the encoding is covered.
    #[test]
    fn result_digest_is_pinned() {
        let t = Transaction::new(
            TxId(7),
            ClientId(0),
            vec![
                Op::Get { key: "ghost".into() },
                Op::Transfer { from: "a".into(), to: "b".into(), amount: 30 },
                Op::Delete { key: "c".into() },
            ],
        );
        let r = pbc_ledger::execute(&t, &seeded());
        assert!(r.is_success());
        assert_eq!(
            result_digest(&r).to_hex(),
            "f8c1d9c9f04084af10a7b1e3f0d443de6f22c80565e8273cc632d4a68ac4326a"
        );
    }

    #[test]
    fn honest_endorsers_satisfy_policy() {
        let p = EndorsingPipeline::new(EndorsementPolicy::new(orgs(3), 2), 9, seeded());
        let endorsements = p.endorse(&transfer(1, 10));
        assert_eq!(endorsements.len(), 3);
        let agreed = p.check_policy(&endorsements).unwrap();
        assert!(agreed.is_success());
    }

    #[test]
    fn one_lying_endorser_tolerated_by_2_of_3() {
        let mut p = EndorsingPipeline::new(EndorsementPolicy::new(orgs(3), 2), 9, seeded());
        p.byzantine_orgs.push(EnterpriseId(2));
        let endorsements = p.endorse(&transfer(1, 10));
        // Two honest matching endorsements satisfy the policy; the lie is
        // out-voted and its writes never reach the state.
        let agreed = p.check_policy(&endorsements).unwrap();
        assert!(agreed.write_set.iter().all(|(_, v)| v.as_deref() != Some(b"corrupted".as_ref())));
    }

    #[test]
    fn lying_majority_fails_policy() {
        let mut p = EndorsingPipeline::new(EndorsementPolicy::new(orgs(3), 3), 9, seeded());
        p.byzantine_orgs.push(EnterpriseId(2));
        // 3-of-3 policy: the mismatch kills endorsement.
        let endorsements = p.endorse(&transfer(1, 10));
        assert!(matches!(
            p.check_policy(&endorsements),
            Err(EndorseError::PolicyNotSatisfied { matching: 2, required: 3 })
        ));
    }

    #[test]
    fn forged_signature_rejected() {
        let p = EndorsingPipeline::new(EndorsementPolicy::new(orgs(2), 1), 9, seeded());
        let mut endorsements = p.endorse(&transfer(1, 10));
        // Claim org 1's endorsement came from org 0.
        endorsements[1].org = EnterpriseId(0);
        assert!(matches!(
            p.check_policy(&endorsements),
            Err(EndorseError::BadSignature(EnterpriseId(0)))
        ));
    }

    /// The verifier signs off on the result it is handed, not on the one
    /// that was signed: a result changed after signing fails its
    /// signature, under either scheme, whatever its endorser computed.
    #[test]
    fn result_mutated_after_signing_rejected() {
        let policy = || EndorsementPolicy::new(orgs(3), 2);
        for p in [
            EndorsingPipeline::new(policy(), 9, seeded()),
            EndorsingPipeline::new_schnorr(policy(), 9, seeded()),
        ] {
            let mut endorsements = p.endorse(&transfer(1, 10));
            let honest = p.verify_signatures(&endorsements).expect("untouched endorsements verify");
            assert!(honest.iter().all(|d| *d == honest[0]), "honest orgs agree");
            endorsements[1].result.write_set[0].1 = Some(balance_value(1_000_000));
            assert_eq!(
                p.check_policy(&endorsements),
                Err(EndorseError::BadSignature(EnterpriseId(1)))
            );
            assert_eq!(p.verify_block_signatures(&[endorsements]), vec![None]);
        }
    }

    #[test]
    fn equal_sized_agreeing_sets_resolve_to_the_earliest_endorsed() {
        // 1-of-2 with one liar: two sets of one. The pick must not depend
        // on hash-map iteration order.
        let mut p = EndorsingPipeline::new(EndorsementPolicy::new(orgs(2), 1), 9, seeded());
        p.byzantine_orgs.push(EnterpriseId(0));
        let endorsements = p.endorse(&transfer(1, 10));
        for _ in 0..8 {
            assert_eq!(p.check_policy(&endorsements).unwrap(), endorsements[0].result);
        }
    }

    #[test]
    fn full_pipeline_commits_and_counts_rejections() {
        let mut p = EndorsingPipeline::new(EndorsementPolicy::new(orgs(3), 3), 9, seeded());
        let out1 = p.process_block(vec![transfer(1, 10)]);
        assert_eq!(out1.committed.len(), 1);
        assert_eq!(balance_of(p.state().get("b")), 10);
        // A Byzantine org breaks unanimity: everything is rejected early.
        p.byzantine_orgs.push(EnterpriseId(1));
        let out2 = p.process_block(vec![transfer(2, 10)]);
        assert_eq!(out2.aborted.len(), 1);
        assert_eq!(p.endorsement_rejections, 1);
        assert_eq!(balance_of(p.state().get("b")), 10, "no corrupted writes applied");
        p.ledger().verify().unwrap();
    }

    #[test]
    fn nondeterminism_detected_early() {
        // The XOV claim: inconsistent execution surfaces at endorsement,
        // not at commit. A 2-of-2 policy with one corrupted org rejects
        // before ordering; state and rejection counters prove it.
        let mut p = EndorsingPipeline::new(EndorsementPolicy::new(orgs(2), 2), 9, seeded());
        p.byzantine_orgs.push(EnterpriseId(0));
        let out = p.process_block(vec![transfer(1, 10)]);
        assert!(out.committed.is_empty());
        assert_eq!(p.endorsement_rejections, 1);
    }

    #[test]
    #[should_panic(expected = "k-of-n")]
    fn zero_of_n_policy_rejected() {
        EndorsementPolicy::new(orgs(3), 0);
    }

    #[test]
    #[should_panic(expected = "distinct orgs")]
    fn policy_listing_an_org_twice_rejected() {
        EndorsementPolicy::new(vec![EnterpriseId(0), EnterpriseId(0), EnterpriseId(1)], 2);
    }

    fn pipeline(schnorr: bool, policy: EndorsementPolicy, state: StateStore) -> EndorsingPipeline {
        if schnorr {
            EndorsingPipeline::new_schnorr(policy, 9, state)
        } else {
            EndorsingPipeline::new(policy, 9, state)
        }
    }

    /// A k-of-n policy counts orgs, not endorsements: one org's valid
    /// endorsement sent twice is one vote, and an org outside the policy
    /// is none, even though it holds a valid key (keys are derived for
    /// every id up to the highest policy org).
    #[test]
    fn policy_counts_each_policy_org_once() {
        for schnorr in [false, true] {
            let p = pipeline(schnorr, EndorsementPolicy::new(orgs(3), 2), seeded());
            let e = p.endorse(&transfer(1, 10));
            let one_vote = Err(EndorseError::PolicyNotSatisfied { matching: 1, required: 2 });
            assert_eq!(p.check_policy(&[e[0].clone(), e[0].clone()]).map(|_| ()), one_vote);
            assert!(p.check_policy(&[e[0].clone(), e[1].clone()]).is_ok());

            let gapped_orgs = vec![EnterpriseId(0), EnterpriseId(2)];
            let gapped = pipeline(schnorr, EndorsementPolicy::new(gapped_orgs, 2), seeded());
            assert_eq!(gapped.check_policy(&[e[0].clone(), e[1].clone()]).map(|_| ()), one_vote);
            assert!(gapped.check_policy(&[e[0].clone(), e[2].clone()]).is_ok());
        }
    }

    /// Deduplicating digests never deduplicates a signature check: with
    /// three endorsements of one result, a bad signature at any position
    /// is rejected and blamed on its org, under either scheme, per
    /// transaction and per block.
    #[test]
    fn bad_signature_among_equal_results_rejected() {
        for schnorr in [false, true] {
            let p = pipeline(schnorr, EndorsementPolicy::new(orgs(3), 2), seeded());
            for bad in 0..3 {
                let mut e = p.endorse(&transfer(1, 10));
                assert!(e.iter().all(|x| x.result == e[0].result), "honest orgs agree");
                match &mut e[bad].signature {
                    EndorseSig::Hmac(sig) => sig.0 .0[31] ^= 1,
                    EndorseSig::Schnorr(sig) => sig.s = sig.s.add(pbc_crypto::group::Scalar::ONE),
                }
                let culprit = EnterpriseId(bad as u32);
                assert_eq!(p.check_policy(&e), Err(EndorseError::BadSignature(culprit)));
                assert_eq!(p.verify_block_signatures(&[e]), vec![None]);
            }
        }
    }

    /// The per-org endorsing code the shared-execution path replaced:
    /// every org executes, corrupts if Byzantine, digests and signs.
    fn endorse_per_org(p: &EndorsingPipeline, tx: &Transaction) -> Vec<Endorsement> {
        p.policy
            .orgs
            .iter()
            .map(|&org| {
                let mut result = pbc_ledger::execute(tx, &p.state);
                if p.byzantine_orgs.contains(&org) {
                    for (_, v) in result.write_set.iter_mut() {
                        *v = Some(pbc_types::Value::from_static(b"corrupted"));
                    }
                }
                let digest = result_digest(&result);
                let signature = match &p.keys {
                    EndorserKeys::Hmac(directory) => {
                        EndorseSig::Hmac(directory.key(org.0 as u64).unwrap().sign(&digest.0))
                    }
                    EndorserKeys::Schnorr(keys) => {
                        EndorseSig::Schnorr(keys[org.0 as usize].sign_deterministic(&digest.0))
                    }
                };
                Endorsement { org, result, signature }
            })
            .collect()
    }

    /// A payment block over four accounts of 100: transfers (some
    /// overdrawn, so aborted with an empty write set), deletes and
    /// increments.
    fn payment(id: u64, (kind, from, to, amount): (u8, u8, u8, u64)) -> Transaction {
        let account = |i: u8| format!("acct{}", i % 4);
        let op = match kind % 3 {
            0 => Op::Transfer { from: account(from), to: account(to), amount },
            1 => Op::Delete { key: account(from) },
            _ => Op::Incr { key: account(to), delta: amount as i64 - 75 },
        };
        Transaction::new(TxId(id), ClientId(0), vec![op])
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Executing and digesting once changes no byte: over random
        /// payment blocks, policies, Byzantine subsets and both schemes,
        /// `endorse` equals the per-org reference endorsement for
        /// endorsement, and the verifier's digests equal one digest per
        /// endorsement, per transaction and per block.
        #[test]
        fn shared_execution_matches_per_org_endorsing(
            n in 1..=4u32,
            k in 0..4usize,
            byzantine in proptest::prelude::any::<u8>(),
            schnorr in proptest::prelude::any::<bool>(),
            block in proptest::collection::vec(
                (0..3u8, 0..4u8, 0..4u8, 0..150u64),
                1..=8,
            ),
        ) {
            let mut state = StateStore::new();
            for i in 0..4u32 {
                state.put(format!("acct{i}"), balance_value(100), Version::new(0, i));
            }
            let policy = EndorsementPolicy::new(orgs(n), 1 + k % n as usize);
            let mut p = pipeline(schnorr, policy, state);
            p.byzantine_orgs = (0..n).filter(|o| byzantine >> o & 1 == 1).map(EnterpriseId).collect();
            let txs: Vec<Transaction> =
                block.into_iter().enumerate().map(|(i, op)| payment(i as u64, op)).collect();
            let per_tx: Vec<Vec<Endorsement>> = txs.iter().map(|tx| p.endorse(tx)).collect();
            let mut expected = Vec::new();
            for (tx, endorsements) in txs.iter().zip(&per_tx) {
                proptest::prop_assert_eq!(endorsements, &endorse_per_org(&p, tx));
                let digests: Vec<pbc_crypto::Hash> =
                    endorsements.iter().map(|e| result_digest(&e.result)).collect();
                proptest::prop_assert_eq!(p.verify_signatures(endorsements), Ok(digests.clone()));
                expected.push(Some(digests));
            }
            proptest::prop_assert_eq!(p.verify_block_signatures(&per_tx), expected);
        }
    }

    /// `n` disjoint account pairs so multi-tx blocks carry no read-write
    /// conflicts (XOV would otherwise abort all but the first).
    fn seeded_pairs(n: usize) -> StateStore {
        let mut s = StateStore::new();
        for i in 0..n {
            s.put(format!("src{i}"), balance_value(100), Version::new(0, 2 * i as u32));
            s.put(format!("dst{i}"), balance_value(0), Version::new(0, 2 * i as u32 + 1));
        }
        s
    }

    fn pair_transfer(i: u64, amount: u64) -> Transaction {
        Transaction::new(
            TxId(i),
            ClientId(0),
            vec![Op::Transfer { from: format!("src{i}"), to: format!("dst{i}"), amount }],
        )
    }

    #[test]
    fn schnorr_endorsers_satisfy_policy_and_commit() {
        let mut p =
            EndorsingPipeline::new_schnorr(EndorsementPolicy::new(orgs(3), 2), 0x5C40, seeded());
        let endorsements = p.endorse(&transfer(1, 10));
        assert!(p.check_policy(&endorsements).unwrap().is_success());
        // Endorsing is deterministic: re-signing yields identical bytes
        // (simulator runs must replay bit-for-bit).
        let again = p.endorse(&transfer(1, 10));
        for (a, b) in endorsements.iter().zip(&again) {
            match (&a.signature, &b.signature) {
                (EndorseSig::Schnorr(x), EndorseSig::Schnorr(y)) => assert_eq!(x, y),
                _ => panic!("schnorr pipeline must produce schnorr signatures"),
            }
        }
        let out = p.process_block(vec![transfer(1, 10)]);
        assert_eq!(out.committed.len(), 1);
        assert_eq!(balance_of(p.state().get("b")), 10);
        p.ledger().verify().unwrap();
    }

    #[test]
    fn schnorr_forged_signature_pinpointed_to_its_org() {
        let p =
            EndorsingPipeline::new_schnorr(EndorsementPolicy::new(orgs(3), 2), 0x5C40, seeded());
        let mut endorsements = p.endorse(&transfer(1, 10));
        // Tamper org 1's signature: the batched check must blame exactly
        // that org, matching what per-signature verification would say.
        if let EndorseSig::Schnorr(sig) = &mut endorsements[1].signature {
            sig.s = sig.s.add(pbc_crypto::group::Scalar::ONE);
        } else {
            panic!("expected schnorr signature");
        }
        assert_eq!(p.check_policy(&endorsements), Err(EndorseError::BadSignature(EnterpriseId(1))));
        // Claiming another org's endorsement as one's own also fails:
        // the digest is re-signed under the wrong public key.
        let mut swapped = p.endorse(&transfer(1, 10));
        swapped[2].org = EnterpriseId(0);
        assert_eq!(p.check_policy(&swapped), Err(EndorseError::BadSignature(EnterpriseId(0))));
    }

    #[test]
    fn schnorr_batch_agrees_with_per_signature_verify() {
        use pbc_crypto::schnorr_sig::SigningKey;
        let p =
            EndorsingPipeline::new_schnorr(EndorsementPolicy::new(orgs(4), 2), 0x5C41, seeded());
        let mut endorsements = p.endorse(&transfer(7, 3));
        if let EndorseSig::Schnorr(sig) = &mut endorsements[2].signature {
            sig.s = sig.s.add(pbc_crypto::group::Scalar::ONE);
        }
        // Scalar reference: verify each endorsement independently with
        // the same derived keys the pipeline holds.
        let scalar_verdicts: Vec<bool> = endorsements
            .iter()
            .map(|e| {
                let key = SigningKey::derive(0x5C41, e.org.0 as u64).public;
                let digest = result_digest(&e.result);
                match &e.signature {
                    EndorseSig::Schnorr(sig) => key.verify(&digest.0, sig),
                    EndorseSig::Hmac(_) => false,
                }
            })
            .collect();
        assert_eq!(scalar_verdicts, vec![true, true, false, true]);
        assert_eq!(
            p.verify_signatures(&endorsements),
            Err(EndorseError::BadSignature(EnterpriseId(2)))
        );
    }

    #[test]
    fn schnorr_block_batches_across_transactions() {
        // A lying org under a tolerant policy: the block-level batch
        // verifies all endorsements of all transactions in one weighted
        // check, and the policy still commits every transaction.
        let mut p = EndorsingPipeline::new_schnorr(
            EndorsementPolicy::new(orgs(3), 2),
            0x5C42,
            seeded_pairs(6),
        );
        p.byzantine_orgs.push(EnterpriseId(1));
        let txs: Vec<Transaction> = (0..6).map(|i| pair_transfer(i, 5)).collect();
        let out = p.process_block(txs);
        assert_eq!(out.committed.len(), 6, "2-of-3 outvotes the liar in every tx");
        assert_eq!(p.endorsement_rejections, 0);
        for i in 0..6 {
            assert_eq!(balance_of(p.state().get(&format!("dst{i}"))), 5);
        }
        // Unanimity policy: the same liar now kills every transaction at
        // endorsement time, counted per transaction.
        let mut strict = EndorsingPipeline::new_schnorr(
            EndorsementPolicy::new(orgs(3), 3),
            0x5C42,
            seeded_pairs(4),
        );
        strict.byzantine_orgs.push(EnterpriseId(1));
        let out = strict.process_block((0..4).map(|i| pair_transfer(i, 5)).collect());
        assert_eq!(out.aborted.len(), 4);
        assert_eq!(strict.endorsement_rejections, 4);
    }
}
