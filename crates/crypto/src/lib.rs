//! Cryptographic substrate for the permissioned-blockchain workspace.
//!
//! Everything here is implemented from scratch (no external crypto crates),
//! per the reproduction rules laid out in the repository `DESIGN.md`:
//!
//! * [`sha256`](mod@sha256) — SHA-256 per FIPS 180-4, tested against official vectors.
//! * [`hash`] — the 32-byte [`hash::Hash`] digest type used across the
//!   workspace for block hashes, Merkle roots and transcript hashing.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), the basis of node signatures.
//! * [`sig`] — keyed-hash signatures with a trusted key directory. In a
//!   permissioned network identities are known a priori, so authenticity
//!   reduces to MAC verification against the directory (a documented
//!   substitution for Ed25519; see `DESIGN.md` §3).
//! * [`merkle`] — binary Merkle trees with inclusion proofs.
//! * [`field`] — 64-bit modular arithmetic (mulmod/powmod/invmod) and a
//!   deterministic Miller–Rabin primality test.
//! * [`group`] — a Schnorr group: the order-`q` subgroup of
//!   `Z_p^*` for the 61-bit safe prime `p = 2q + 1`.
//! * [`pedersen`] — Pedersen commitments `g^m · h^r` in that group.
//! * [`schnorr`] — Σ-protocols (Fiat–Shamir non-interactive): proofs of
//!   knowledge of discrete logs and commitment openings.
//! * [`range`] — bit-decomposition range proofs built from OR-composed
//!   Σ-protocols, used by the Quorum-style private asset transfer.
//! * [`schnorr_sig`] — Schnorr digital signatures: the public-key
//!   alternative to [`sig`] when verifiers must hold no secrets.
//! * [`token`] — VOPRF-style blind tokens (Privacy-Pass construction),
//!   used by the Separ verifiability technique.
//!
//! # Security scope
//!
//! The Schnorr group is deliberately small (61-bit modulus) so that the
//! *structure* of zero-knowledge verification — commitment, challenge,
//! response, proof sizes, prover/verifier work per transaction — is
//! faithful while remaining laptop-friendly. Discrete logs in this group
//! are feasible for a determined attacker; this library reproduces the
//! systems of a published tutorial for benchmarking and must not be used
//! to protect real data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
pub mod group;
pub mod hash;
pub mod hmac;
pub mod merkle;
pub mod pedersen;
pub mod range;
pub mod schnorr;
pub mod schnorr_sig;
pub mod sha256;
pub mod sig;
pub mod token;

pub use hash::Hash;
pub use sha256::sha256;
