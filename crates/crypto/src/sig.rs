//! Keyed-hash signatures with a trusted key directory.
//!
//! Permissioned blockchains run among *a priori known, identified* nodes
//! (§2.2 of the paper). We exploit that to replace public-key signatures
//! with MAC-style keyed-hash signatures verified against a trusted
//! [`KeyDirectory`] — the documented Ed25519 substitution from
//! `DESIGN.md` §3. The adversary in our simulations is a Byzantine node
//! that does not know other nodes' secrets, so unforgeability of honest
//! nodes' messages is preserved.

use crate::hash::Hash;
use crate::hmac::HmacKey;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Opaque identity of a signer in the directory (node, client, or
/// authority). Workspace crates map their typed ids onto this.
pub type SignerId = u64;

/// A signing key: 32 secret bytes, keyed for HMAC once, when it is made.
#[derive(Clone)]
pub struct SecretKey(HmacKey);

impl SecretKey {
    /// Derives a secret key deterministically from a seed and signer id.
    ///
    /// Deterministic derivation keeps whole-network setups reproducible
    /// across simulation runs.
    pub fn derive(seed: u64, id: SignerId) -> SecretKey {
        let mut input = [0u8; 16];
        input[..8].copy_from_slice(&seed.to_be_bytes());
        input[8..].copy_from_slice(&id.to_be_bytes());
        SecretKey(HmacKey::new(&crate::sha256(&input).0))
    }

    /// Signs a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature(self.0.mac(msg))
    }
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(..)")
    }
}

/// A signature over a message: `HMAC-SHA256(secret, msg)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Signature(pub Hash);

/// Trusted directory mapping signer ids to their secrets.
///
/// Every verifier holds a reference to the directory — the permissioned
/// analogue of a PKI whose certificates were distributed at network
/// setup. Verification recomputes the MAC.
#[derive(Clone, Debug, Default)]
pub struct KeyDirectory {
    keys: HashMap<SignerId, SecretKey>,
}

impl KeyDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a directory for signers `0..n` with keys derived from `seed`.
    pub fn with_signers(seed: u64, n: u64) -> Self {
        let mut dir = Self::new();
        for id in 0..n {
            dir.register(id, SecretKey::derive(seed, id));
        }
        dir
    }

    /// Registers (or replaces) a signer's key.
    pub fn register(&mut self, id: SignerId, key: SecretKey) {
        self.keys.insert(id, key);
    }

    /// Looks up a signer's key.
    pub fn key(&self, id: SignerId) -> Option<&SecretKey> {
        self.keys.get(&id)
    }

    /// Verifies that `sig` is a valid signature by `id` over `msg`.
    pub fn verify(&self, id: SignerId, msg: &[u8], sig: &Signature) -> bool {
        match self.keys.get(&id) {
            Some(k) => k.sign(msg) == *sig,
            None => false,
        }
    }

    /// Number of registered signers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no signers are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let dir = KeyDirectory::with_signers(7, 4);
        let sig = dir.key(2).unwrap().sign(b"block 9");
        assert!(dir.verify(2, b"block 9", &sig));
    }

    #[test]
    fn wrong_signer_rejected() {
        let dir = KeyDirectory::with_signers(7, 4);
        let sig = dir.key(2).unwrap().sign(b"block 9");
        assert!(!dir.verify(3, b"block 9", &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let dir = KeyDirectory::with_signers(7, 4);
        let sig = dir.key(2).unwrap().sign(b"block 9");
        assert!(!dir.verify(2, b"block 10", &sig));
    }

    #[test]
    fn unknown_signer_rejected() {
        let dir = KeyDirectory::with_signers(7, 4);
        let rogue = SecretKey::derive(999, 17);
        let sig = rogue.sign(b"m");
        assert!(!dir.verify(17, b"m", &sig));
    }

    /// A signature is RFC 2104 HMAC-SHA256 under the derived key bytes:
    /// keying once at derivation changes no signature.
    #[test]
    fn signature_is_the_hmac_of_the_derived_key() {
        let mut input = [0u8; 16];
        input[..8].copy_from_slice(&7u64.to_be_bytes());
        input[8..].copy_from_slice(&2u64.to_be_bytes());
        let bytes = crate::sha256(&input).0;
        let sig = SecretKey::derive(7, 2).sign(b"block 9");
        assert_eq!(sig.0, crate::hmac::hmac_sha256(&bytes, b"block 9"));
    }

    #[test]
    fn derivation_is_deterministic_and_distinct() {
        let sign = |seed, id| SecretKey::derive(seed, id).sign(b"m");
        assert_eq!(sign(1, 2), sign(1, 2));
        assert_ne!(sign(1, 2), sign(1, 3));
        assert_ne!(sign(1, 2), sign(2, 2));
    }
}
