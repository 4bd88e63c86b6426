//! HMAC-SHA256 per RFC 2104.
//!
//! [`HmacKey`] absorbs the key's two pad blocks once, when it is built,
//! and starts every MAC from those midstates (RFC 2104 §4): a MAC over a
//! short message then costs two SHA-256 compressions instead of four.
//! [`hmac_sha256`] is the one-shot form of the same code path.

use crate::hash::Hash;
use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// An HMAC-SHA256 key, kept as the inner and outer hash states after
/// each has absorbed its pad block (`key ⊕ ipad`, `key ⊕ opad`).
///
/// Its `Debug` output is redacted: the midstates are as good as the key.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Keys a MAC; keys longer than the block size are hashed first.
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&crate::sha256(key).0);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK];
        let mut opad = [0x5cu8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// Computes `HMAC-SHA256(key, msg)`.
    pub fn mac(&self, msg: &[u8]) -> Hash {
        let mut inner = self.inner.clone();
        inner.update(msg);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize().0);
        outer.finalize()
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacKey(..)")
    }
}

/// Computes `HMAC-SHA256(key, msg)`; keying and MAC in one call.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Hash {
    HmacKey::new(key).mac(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// RFC 2104 written out in one pass, pads absorbed per call: the
    /// reference [`HmacKey`] must agree with.
    fn reference_hmac(key: &[u8], msg: &[u8]) -> Hash {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&crate::sha256(key).0);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let ipad: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        let opad: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        let inner = crate::sha256(&[ipad, msg.to_vec()].concat());
        crate::sha256(&[opad, inner.0.to_vec()].concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Keys of every length class (empty, short, one block, longer
        /// than a block) and messages across several blocks; one key
        /// reused for two messages, so a MAC must not disturb its key.
        #[test]
        fn keyed_mac_matches_one_pass_rfc2104(
            key in proptest::collection::vec(any::<u8>(), 0..=200),
            msg in proptest::collection::vec(any::<u8>(), 0..=300),
            other in proptest::collection::vec(any::<u8>(), 0..=80),
        ) {
            let keyed = HmacKey::new(&key);
            prop_assert_eq!(keyed.mac(&msg), reference_hmac(&key, &msg));
            prop_assert_eq!(keyed.mac(&other), reference_hmac(&key, &other));
            prop_assert_eq!(keyed.mac(&msg), hmac_sha256(&key, &msg));
        }
    }

    #[test]
    fn debug_output_is_redacted() {
        assert_eq!(format!("{:?}", HmacKey::new(&[0x42; 32])), "HmacKey(..)");
    }

    // RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            out.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            out.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let out = hmac_sha256(&key, &msg);
        assert_eq!(
            out.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let out = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            out.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (1..=25).collect();
        let out = hmac_sha256(&key, &[0xcdu8; 50]);
        assert_eq!(
            out.to_hex(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case5_truncated() {
        let out = hmac_sha256(&[0x0cu8; 20], b"Test With Truncation");
        assert_eq!(&out.to_hex()[..32], "a3b6167473100ee06e0c796c2955552b");
    }

    #[test]
    fn rfc4231_case7_long_key_and_data() {
        let key = [0xaau8; 131];
        let out = hmac_sha256(
            &key,
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm.",
        );
        assert_eq!(
            out.to_hex(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn different_keys_give_different_macs() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }
}
