//! Length-prefixed wire frames and the version/genesis handshake.
//!
//! The framing layer every byte of the deployment mode crosses:
//! `[u32 BE length][body]`, where the length is validated **before any
//! allocation** — a zero length is [`WireError::ZeroFrame`], a length
//! above the configured cap is [`WireError::Oversized`] — so a
//! malicious or corrupt peer cannot make a node allocate 4 GiB by
//! sending four bytes (the `p2p.rs` lesson every production gateway
//! re-learns). Every malformation surfaces as a typed [`WireError`];
//! nothing in this module panics on input bytes.
//!
//! A connection opens with a [`Hello`] exchange: magic, wire version,
//! the cluster's genesis digest, and the sender's node id. Mismatched
//! genesis digests mean "different cluster / different run seed" and
//! the connection is refused — the guard that keeps a stale process
//! from a previous test run out of a fresh cluster.
//!
//! Transfers go through `pbc-store`'s audited [`write_full`] /
//! [`read_full`] helpers: a socket `read`/`write` may legally move any
//! prefix of the buffer, and framing breaks permanently the first time
//! a caller assumes otherwise.

use pbc_store::{read_full, write_full};
use std::io;

/// First bytes of every handshake: "PBCN".
pub const WIRE_MAGIC: u32 = 0x5042_434E;

/// Wire protocol version. Bump on any frame- or handshake-layout
/// change; peers refuse mismatched versions at handshake time.
pub const WIRE_VERSION: u32 = 1;

/// The node id clients present in their [`Hello`]. Client-submitted
/// requests are delivered to actors as coming from node 0, matching
/// the simulator's convention (`submit` injects from node 0).
pub const CLIENT_NODE: u32 = u32::MAX;

/// Default frame-size cap: 1 MiB, far above any message this workspace
/// produces, far below anything that could hurt.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Everything that can go wrong between two sockets speaking this
/// protocol. Malformed input from a peer is a value of this type,
/// never a panic.
#[derive(Debug)]
pub enum WireError {
    /// A frame declared a zero-length body (nothing encodes to zero
    /// bytes; an empty frame is a protocol violation, not a message).
    ZeroFrame,
    /// A frame declared a body larger than the configured cap —
    /// detected from the 4-byte header, before allocating.
    Oversized {
        /// Declared body length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The stream ended mid-frame (EOF inside a header or body).
    Truncated,
    /// Handshake opened with bytes that are not [`WIRE_MAGIC`] — the
    /// peer is not speaking this protocol at all.
    BadMagic(u32),
    /// Right magic, wrong [`WIRE_VERSION`].
    BadVersion(u32),
    /// The peer belongs to a different cluster (or a different seed's
    /// run): its genesis digest does not match ours.
    GenesisMismatch {
        /// Our cluster digest.
        ours: u64,
        /// The digest the peer presented.
        theirs: u64,
    },
    /// A frame body that failed to decode as a message or handshake
    /// (bad tag, truncated fields, or trailing bytes).
    Malformed,
    /// An underlying socket error.
    Io(io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::ZeroFrame => write!(f, "zero-length frame"),
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap of {max}")
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::BadMagic(m) => write!(f, "bad handshake magic 0x{m:08x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::GenesisMismatch { ours, theirs } => {
                write!(f, "genesis mismatch: ours {ours:#x}, peer {theirs:#x}")
            }
            WireError::Malformed => write!(f, "malformed frame body"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

/// Validates a frame header and returns the body length. This is the
/// *only* path from header bytes to an allocation size, and it rejects
/// zero and oversized lengths first — callers allocate only after this
/// returns `Ok`.
pub fn frame_len(header: [u8; 4], max: usize) -> Result<usize, WireError> {
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 {
        return Err(WireError::ZeroFrame);
    }
    if len > max {
        return Err(WireError::Oversized { len, max });
    }
    Ok(len)
}

/// Encodes `body` as one frame (header + body). The same zero/cap
/// validation applies on the way out: a frame we would refuse to read
/// is a frame we refuse to write.
pub fn frame(body: &[u8], max: usize) -> Result<Vec<u8>, WireError> {
    if body.is_empty() {
        return Err(WireError::ZeroFrame);
    }
    if body.len() > max {
        return Err(WireError::Oversized { len: body.len(), max });
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
    Ok(out)
}

/// Writes `body` as one frame via [`write_full`].
pub fn write_frame<W: io::Write>(w: &mut W, body: &[u8], max: usize) -> Result<(), WireError> {
    let framed = frame(body, max)?;
    write_full(w, &framed)?;
    Ok(())
}

/// Reads one frame, blocking until it is complete (or the stream ends:
/// [`WireError::Truncated`]). The body is allocated only after
/// [`frame_len`] accepts the header.
pub fn read_frame<R: io::Read>(r: &mut R, max: usize) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; 4];
    read_full(r, &mut header)?;
    let len = frame_len(header, max)?;
    let mut body = vec![0u8; len];
    read_full(r, &mut body)?;
    Ok(body)
}

/// The handshake message opening every connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Digest identifying the cluster (protocol, size, run seed).
    pub genesis: u64,
    /// The sender's node index, or [`CLIENT_NODE`] for a client.
    pub node: u32,
}

impl Hello {
    /// Encodes the handshake: magic, version, genesis, node.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20);
        out.extend_from_slice(&WIRE_MAGIC.to_be_bytes());
        out.extend_from_slice(&WIRE_VERSION.to_be_bytes());
        out.extend_from_slice(&self.genesis.to_be_bytes());
        out.extend_from_slice(&self.node.to_be_bytes());
        out
    }

    /// Decodes and validates a handshake body. Checks, in order: exact
    /// length, magic, version. Genesis is *returned*, not checked here
    /// — the caller owns the comparison (and the
    /// [`WireError::GenesisMismatch`] it produces), because only the
    /// caller knows which cluster it belongs to.
    pub fn decode(bytes: &[u8]) -> Result<Hello, WireError> {
        if bytes.len() != 20 {
            return Err(WireError::Malformed);
        }
        let word = |i: usize| u32::from_be_bytes(bytes[i..i + 4].try_into().expect("len checked"));
        let magic = word(0);
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = word(4);
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let genesis = u64::from_be_bytes(bytes[8..16].try_into().expect("len checked"));
        Ok(Hello { genesis, node: word(16) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let body = b"three-phase commit".to_vec();
        let framed = frame(&body, DEFAULT_MAX_FRAME).unwrap();
        let mut r = &framed[..];
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), body);
        assert!(r.is_empty());
    }

    #[test]
    fn zero_and_oversized_rejected_from_header_alone() {
        assert!(matches!(frame_len([0, 0, 0, 0], 64), Err(WireError::ZeroFrame)));
        // u32::MAX declared length against a small cap: rejected before
        // any body allocation could happen.
        assert!(matches!(
            frame_len([0xFF, 0xFF, 0xFF, 0xFF], 64),
            Err(WireError::Oversized { len: 0xFFFF_FFFF, max: 64 })
        ));
        assert!(matches!(frame(&[], 64), Err(WireError::ZeroFrame)));
        assert!(matches!(frame(&[0u8; 65], 64), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn truncated_stream_is_typed_not_a_panic() {
        let framed = frame(b"payload", DEFAULT_MAX_FRAME).unwrap();
        for cut in 0..framed.len() {
            let mut r = &framed[..cut];
            assert!(matches!(read_frame(&mut r, DEFAULT_MAX_FRAME), Err(WireError::Truncated)));
        }
    }

    #[test]
    fn frames_survive_short_transfers() {
        // The frame path composed with the store's short-transfer fault
        // adapters: 1–3 byte slivers with injected interrupts on both
        // sides, and the frame still reassembles exactly.
        let body: Vec<u8> = (0..200u8).collect();
        for seed in 0..4 {
            let mut sink = pbc_store::ShortWriter::new(Vec::new(), seed);
            write_frame(&mut sink, &body, DEFAULT_MAX_FRAME).unwrap();
            let wire = sink.into_inner();
            let mut src = pbc_store::ShortReader::new(&wire[..], seed.wrapping_add(17));
            assert_eq!(read_frame(&mut src, DEFAULT_MAX_FRAME).unwrap(), body, "seed {seed}");
        }
    }

    #[test]
    fn hello_roundtrip_and_rejections() {
        let h = Hello { genesis: 0xFEED_FACE_CAFE_F00D, node: 3 };
        assert_eq!(Hello::decode(&h.encode()).unwrap(), h);

        let mut bad = h.encode();
        bad[0] ^= 0xFF;
        assert!(matches!(Hello::decode(&bad), Err(WireError::BadMagic(_))));

        let mut bad = h.encode();
        bad[7] = 99;
        assert!(matches!(Hello::decode(&bad), Err(WireError::BadVersion(99))));

        assert!(matches!(Hello::decode(&h.encode()[..19]), Err(WireError::Malformed)));
        let mut long = h.encode();
        long.push(0);
        assert!(matches!(Hello::decode(&long), Err(WireError::Malformed)));
    }
}
