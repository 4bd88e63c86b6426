//! CRC32 (IEEE 802.3 polynomial), table-driven.
//!
//! The workspace is offline and dependency-free, so the checksum is
//! implemented here rather than pulled in. CRC32 is the classic
//! storage-integrity check: cheap, and a single flipped bit anywhere in
//! a record changes the value — exactly the bit-rot detector the
//! segment store needs. (It is *not* cryptographic; tamper-evidence is
//! the ledger's Merkle commitments, not the store's job.)

/// Reflected CRC32 with the IEEE polynomial `0xEDB88320`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// [`crc32`] of the concatenation of `parts`, without building it.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut crc = !0u32;
    for part in parts {
        for &b in *part {
            let idx = ((crc ^ b as u32) & 0xFF) as usize;
            crc = (crc >> 8) ^ TABLE[idx];
        }
    }
    !crc
}

/// The 256-entry lookup table, computed at compile time.
static TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn parts_checksum_as_their_concatenation() {
        assert_eq!(crc32_parts(&[b"1234", b"", b"56789"]), crc32(b"123456789"));
        assert_eq!(crc32_parts(&[]), crc32(b""));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0xABu8; 64];
        let base = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
