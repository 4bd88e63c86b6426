//! Attested append-only memory (A2M) / USIG — the trusted-hardware
//! primitive of Chun et al. \[21\] and Veronese et al. \[59\] that AHL
//! (§2.3.4) uses to shrink its committees.
//!
//! Each node owns a [`Usig`] ("unique sequential identifier generator"):
//! a tamper-evident module holding a secret MAC key and a strictly
//! monotonic counter. `attest(digest)` binds the digest to the *next*
//! counter value; because the module never reuses or rewinds the counter
//! and the host cannot forge MACs, a Byzantine node **cannot send two
//! different messages claiming the same position** — equivocation, the
//! attack that forces `3f+1` replicas in classic BFT, becomes detectable.
//! That is exactly the paper's claim: with attested memory, `2f+1` nodes
//! tolerate `f` Byzantine faults (see [`crate::minbft`], experiment E10).
//!
//! In this simulation the trusted boundary is the Rust module boundary:
//! protocol actors (including Byzantine test actors) can only obtain
//! attestations through [`Usig::attest`], which they cannot rewind.

use fxhash::{FxHashMap, FxHashSet};
use pbc_crypto::hmac::HmacKey;
use pbc_crypto::Hash;

/// A counter-bound MAC over a message digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attestation {
    /// The attesting node.
    pub node: usize,
    /// The (strictly monotonic) counter value assigned to this message.
    pub counter: u64,
    /// The attested message digest.
    pub digest: u64,
    /// MAC over `(node, counter, digest)` under the module's key.
    pub mac: Hash,
}

fn mac_input(node: usize, counter: u64, digest: u64) -> [u8; 24] {
    let mut buf = [0u8; 24];
    buf[..8].copy_from_slice(&(node as u64).to_be_bytes());
    buf[8..16].copy_from_slice(&counter.to_be_bytes());
    buf[16..24].copy_from_slice(&digest.to_be_bytes());
    buf
}

fn module_key(seed: u64, node: usize) -> [u8; 32] {
    let mut input = [0u8; 16];
    input[..8].copy_from_slice(&seed.to_be_bytes());
    input[8..].copy_from_slice(&(node as u64).to_be_bytes());
    pbc_crypto::sha256(&input).0
}

/// The per-node trusted module: key + monotonic counter.
///
/// The host can request attestations but can never rewind the counter or
/// extract the key (its `Debug` output shows none of it).
#[derive(Debug)]
pub struct Usig {
    key: HmacKey,
    counter: u64,
    node: usize,
}

impl Usig {
    /// Provisions a module for `node` (trusted setup with shared `seed`).
    pub fn new(seed: u64, node: usize) -> Self {
        Usig { key: HmacKey::new(&module_key(seed, node)), counter: 0, node }
    }

    /// Re-provisions the module after a host crash: the counter lives in
    /// the module's tamper-proof non-volatile memory, so it resumes from
    /// where it was — **never** from zero. (A rewound counter would let a
    /// recovered primary re-attest old positions, which is exactly the
    /// equivocation the hardware exists to prevent.)
    pub fn resume(seed: u64, node: usize, counter: u64) -> Self {
        Usig { key: HmacKey::new(&module_key(seed, node)), counter, node }
    }

    /// Attests `digest` with the next counter value.
    pub fn attest(&mut self, digest: u64) -> Attestation {
        self.counter += 1;
        let mac = self.key.mac(&mac_input(self.node, self.counter, digest));
        Attestation { node: self.node, counter: self.counter, digest, mac }
    }

    /// The last counter value issued.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// The node this module is provisioned for.
    pub fn node(&self) -> usize {
        self.node
    }
}

/// Verifier-side registry: knows every module's key (trusted setup) and
/// tracks used counters per node to reject replays/equivocation.
#[derive(Clone, Debug, Default)]
pub struct A2mVerifier {
    keys: FxHashMap<usize, HmacKey>,
    used: FxHashMap<usize, FxHashSet<u64>>,
}

impl A2mVerifier {
    /// Builds a verifier for nodes `0..n` provisioned with `seed`.
    pub fn new(seed: u64, n: usize) -> Self {
        let keys = (0..n).map(|i| (i, HmacKey::new(&module_key(seed, i)))).collect();
        A2mVerifier { keys, used: FxHashMap::default() }
    }

    /// Verifies the MAC only (no freshness tracking).
    pub fn mac_valid(&self, att: &Attestation) -> bool {
        match self.keys.get(&att.node) {
            Some(key) => key.mac(&mac_input(att.node, att.counter, att.digest)) == att.mac,
            None => false,
        }
    }

    /// Verifies the MAC *and* that this counter was never accepted from
    /// this node before (equivocation/replay rejection). Marks the
    /// counter used on success.
    pub fn verify_fresh(&mut self, att: &Attestation) -> bool {
        if !self.mac_valid(att) {
            return false;
        }
        self.used.entry(att.node).or_default().insert(att.counter)
    }

    /// Every `(node, counter)` pair accepted so far, sorted — the part
    /// of the verifier's state that must survive a crash (a forgotten
    /// counter set would re-admit replayed attestations).
    pub fn used_counters(&self) -> Vec<(usize, Vec<u64>)> {
        let mut out: Vec<(usize, Vec<u64>)> = self
            .used
            .iter()
            .map(|(node, set)| {
                let mut counters: Vec<u64> = set.iter().copied().collect();
                counters.sort_unstable();
                (*node, counters)
            })
            .collect();
        out.sort_unstable_by_key(|(node, _)| *node);
        out
    }

    /// Marks a counter as already accepted without a MAC check — used
    /// when rebuilding a verifier from persisted state (the counters
    /// were verified before they were written).
    pub fn mark_used(&mut self, node: usize, counter: u64) {
        self.used.entry(node).or_default().insert(counter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attest_verify_roundtrip() {
        let mut usig = Usig::new(9, 2);
        let mut v = A2mVerifier::new(9, 4);
        let att = usig.attest(0xAB);
        assert!(v.verify_fresh(&att));
    }

    #[test]
    fn counters_strictly_increase() {
        let mut usig = Usig::new(9, 0);
        let a1 = usig.attest(1);
        let a2 = usig.attest(2);
        assert_eq!(a1.counter, 1);
        assert_eq!(a2.counter, 2);
    }

    #[test]
    fn resume_continues_counter_monotonically() {
        let mut usig = Usig::new(9, 1);
        let a = usig.attest(5);
        // Host crashes; the module's NVRAM keeps the counter.
        let mut resumed = Usig::resume(9, 1, usig.counter());
        let b = resumed.attest(6);
        assert_eq!(b.counter, a.counter + 1, "no rewind across crash");
        let mut v = A2mVerifier::new(9, 4);
        assert!(v.verify_fresh(&a));
        assert!(v.verify_fresh(&b), "resumed module still produces valid MACs");
    }

    #[test]
    fn replay_rejected() {
        let mut usig = Usig::new(9, 0);
        let mut v = A2mVerifier::new(9, 4);
        let att = usig.attest(7);
        assert!(v.verify_fresh(&att));
        assert!(!v.verify_fresh(&att), "same counter twice must fail");
    }

    #[test]
    fn forged_mac_rejected() {
        let mut usig = Usig::new(9, 0);
        let v = A2mVerifier::new(9, 4);
        let mut att = usig.attest(7);
        att.digest = 8; // host tampers with the digest after attestation
        assert!(!v.mac_valid(&att));
    }

    #[test]
    fn equivocation_requires_counter_reuse_which_fails() {
        // A Byzantine host wanting to claim two messages at position 1
        // must forge the second attestation (it can only get counter 2
        // from the module).
        let mut usig = Usig::new(9, 0);
        let mut v = A2mVerifier::new(9, 4);
        let real = usig.attest(100);
        assert!(v.verify_fresh(&real));
        // Forgery attempt: same counter, different digest, stolen MAC.
        let forged = Attestation { digest: 200, ..real };
        assert!(!v.verify_fresh(&forged), "MAC check must fail");
        // Honest path: the module only hands out counter 2.
        let next = usig.attest(200);
        assert_eq!(next.counter, 2);
    }

    #[test]
    fn wrong_node_key_rejected() {
        let mut usig = Usig::new(9, 0);
        let v = A2mVerifier::new(9, 4);
        let mut att = usig.attest(7);
        att.node = 1; // claim another node's identity
        assert!(!v.mac_valid(&att));
    }

    #[test]
    fn used_counters_roundtrip_through_mark_used() {
        let mut usig0 = Usig::new(9, 0);
        let mut usig1 = Usig::new(9, 1);
        let mut v = A2mVerifier::new(9, 4);
        let a = usig0.attest(1);
        let b = usig0.attest(2);
        let c = usig1.attest(3);
        assert!(v.verify_fresh(&a) && v.verify_fresh(&b) && v.verify_fresh(&c));
        // Persist the counter sets, rebuild a fresh verifier, replay them.
        let mut rebuilt = A2mVerifier::new(9, 4);
        for (node, counters) in v.used_counters() {
            for counter in counters {
                rebuilt.mark_used(node, counter);
            }
        }
        assert!(!rebuilt.verify_fresh(&a), "replay must still be rejected after restore");
        assert!(!rebuilt.verify_fresh(&c));
        let fresh = usig0.attest(4);
        assert!(rebuilt.verify_fresh(&fresh), "new attestations still verify");
    }

    /// One attestation's MAC, pinned: the module keys its MAC once, and
    /// that changes no byte of what it attests.
    #[test]
    fn attestation_mac_is_pinned() {
        let att = Usig::new(9, 2).attest(0xAB);
        assert_eq!(
            att.mac.to_hex(),
            "cc6124735c4c81dcff70ba8b2eef9327c277b1514687191d77de863ec0d77cc9"
        );
    }

    /// Neither the module nor the verifier prints a key, as bytes or as hex.
    #[test]
    fn debug_output_reveals_no_key() {
        let mut usig = Usig::new(9, 2);
        usig.attest(1);
        let mut verifier = A2mVerifier::new(9, 4);
        verifier.mark_used(2, 1);
        let printed = [format!("{usig:?}"), format!("{verifier:?}")];
        for node in 0..4 {
            let key = module_key(9, node);
            let hex: String = key.iter().map(|b| format!("{b:02x}")).collect();
            for text in &printed {
                assert!(!text.contains(&format!("{key:?}")), "key bytes printed: {text}");
                assert!(!text.contains(&hex), "key hex printed: {text}");
            }
        }
    }

    #[test]
    fn unknown_node_rejected() {
        let mut usig = Usig::new(9, 10);
        let v = A2mVerifier::new(9, 4); // only nodes 0..4
        let att = usig.attest(7);
        assert!(!v.mac_valid(&att));
    }
}
