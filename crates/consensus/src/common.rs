//! Shared consensus vocabulary: payloads, decided logs, quorum math and
//! the voter sets counted against it, and the view-change core of the
//! primary-backup replicas.

pub(crate) mod view_change;

use pbc_sim::{NodeIdx, SimTime};
use pbc_types::encode::{Decoder, Encoder};

/// What a consensus protocol agrees on.
///
/// Protocol proposals carry the full payload; votes carry only
/// `digest_u64()`. Benches use `u64` payloads; the architecture crates
/// decide on serialized blocks.
///
/// `Send` is a supertrait because the TCP runtime
/// ([`crate::ordering::run_real`]) runs each replica, and the messages
/// it sends, on threads of its own; every payload in this workspace is
/// plain owned data.
pub trait Payload: Clone + PartialEq + std::fmt::Debug + Send {
    /// A collision-resistant-enough digest for vote messages.
    fn digest_u64(&self) -> u64;

    /// Approximate serialized size for byte accounting.
    fn wire_size(&self) -> usize {
        256
    }

    /// A *conflicting* payload (different digest) an equivocating
    /// proposer could substitute, or `None` if this payload type cannot
    /// fabricate one. Drives [`pbc_sim::Message::equivocate`] for
    /// proposal messages, letting the generic [`pbc_sim::Adversary`]
    /// fork proposals without protocol knowledge.
    fn forked(&self) -> Option<Self> {
        None
    }
}

/// A payload that can round-trip through a real stable store.
///
/// [`Payload`] is enough to *order* values; persisting them to a
/// `pbc-store` WAL additionally needs a byte codec. `from_bytes` returns
/// `None` on malformed input — the bytes may have just been recovered
/// from a torn or rotted disk, and decoding must degrade, never panic.
pub trait PersistPayload: Payload {
    /// Serializes the payload for stable storage.
    fn to_bytes(&self) -> Vec<u8>;

    /// Deserializes bytes produced by [`PersistPayload::to_bytes`];
    /// `None` on any malformation.
    fn from_bytes(bytes: &[u8]) -> Option<Self>;
}

impl PersistPayload for u64 {
    fn to_bytes(&self) -> Vec<u8> {
        self.to_be_bytes().to_vec()
    }

    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Some(u64::from_be_bytes(bytes.try_into().ok()?))
    }
}

impl Payload for u64 {
    fn digest_u64(&self) -> u64 {
        // splitmix64 finalizer: decorrelates sequential ids.
        let mut z = self.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn wire_size(&self) -> usize {
        8
    }

    fn forked(&self) -> Option<Self> {
        Some(self.wrapping_add(1))
    }
}

/// An in-order decided log with decision timestamps.
///
/// Protocols push decisions as slots finalize (possibly out of order);
/// the log delivers them in sequence-number order, which is what state
/// machine replication requires (§2.2).
#[derive(Clone, Debug)]
pub struct DecidedLog<P> {
    delivered: Vec<(u64, P, SimTime)>,
    buffer: std::collections::BTreeMap<u64, (P, SimTime)>,
    next_seq: u64,
}

impl<P> Default for DecidedLog<P> {
    fn default() -> Self {
        DecidedLog { delivered: Vec::new(), buffer: std::collections::BTreeMap::new(), next_seq: 0 }
    }
}

impl<P: Clone> DecidedLog<P> {
    /// A fresh log expecting sequence number `first_seq` first.
    pub fn starting_at(first_seq: u64) -> Self {
        DecidedLog { next_seq: first_seq, ..Default::default() }
    }

    /// Records that `seq` decided `payload` at `time`. Duplicate
    /// decisions for an already-delivered or buffered slot are ignored.
    pub fn decide(&mut self, seq: u64, payload: P, time: SimTime) {
        if seq < self.next_seq || self.buffer.contains_key(&seq) {
            return;
        }
        self.buffer.insert(seq, (payload, time));
        while let Some((p, t)) = self.buffer.remove(&self.next_seq) {
            self.delivered.push((self.next_seq, p, t));
            self.next_seq += 1;
        }
    }

    /// The contiguous, in-order delivered prefix.
    pub fn delivered(&self) -> &[(u64, P, SimTime)] {
        &self.delivered
    }

    /// Number of delivered entries.
    pub fn len(&self) -> usize {
        self.delivered.len()
    }

    /// True if nothing was delivered yet.
    pub fn is_empty(&self) -> bool {
        self.delivered.is_empty()
    }

    /// The payloads in delivery order (for agreement assertions).
    pub fn payloads(&self) -> Vec<&P> {
        self.delivered.iter().map(|(_, p, _)| p).collect()
    }

    /// Next expected sequence number.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Decisions waiting behind a gap, in sequence order.
    pub fn buffered(&self) -> impl Iterator<Item = (u64, &P, SimTime)> {
        self.buffer.iter().map(|(seq, (payload, time))| (*seq, payload, *time))
    }

    /// Every known decision — the delivered prefix plus buffered
    /// out-of-order decisions — for checkpointing to stable storage.
    pub fn snapshot(&self) -> Vec<(u64, P, SimTime)> {
        let mut all = self.delivered.clone();
        all.extend(self.buffer.iter().map(|(s, (p, t))| (*s, p.clone(), *t)));
        all
    }

    /// Rebuilds a log (first expected sequence `first_seq`) from a
    /// [`DecidedLog::snapshot`].
    pub fn from_snapshot(first_seq: u64, entries: Vec<(u64, P, SimTime)>) -> Self {
        let mut log = DecidedLog::starting_at(first_seq);
        for (seq, payload, time) in entries {
            log.decide(seq, payload, time);
        }
        log
    }
}

/// Trace hooks shared by every protocol implementation.
///
/// Thin wrappers over [`pbc_trace::emit`] so protocol code states *what*
/// happened (a phase entry, a view change, a commit) and the emission
/// mechanics — the enabled check, the closure guard, the event shape —
/// live in one place. All hooks are free when tracing is disabled: the
/// `#[inline]` enabled check in `pbc_trace` short-circuits before any
/// argument is packed into an event.
pub mod hooks {
    use pbc_sim::{NodeIdx, SimTime};
    use pbc_trace::TraceEvent;

    /// A replica entered `phase` of `view` (PBFT pre-prepared/prepared,
    /// HotStuff locked, Tendermint prevote/precommit, ...).
    #[inline]
    pub fn phase(proto: &'static str, node: NodeIdx, now: SimTime, view: u64, phase: &'static str) {
        pbc_trace::emit(now, || TraceEvent::Phase { proto, node, view, phase });
    }

    /// A replica started or joined a view change targeting `view`.
    #[inline]
    pub fn view_change(proto: &'static str, node: NodeIdx, now: SimTime, view: u64) {
        pbc_trace::emit(now, || TraceEvent::ViewChange { proto, node, view });
    }

    /// A node became a candidate for `term` (Raft-style elections).
    #[inline]
    pub fn election(proto: &'static str, node: NodeIdx, now: SimTime, term: u64) {
        pbc_trace::emit(now, || TraceEvent::Election { proto, node, term });
    }

    /// A node won leadership of `term`/view.
    #[inline]
    pub fn leader(proto: &'static str, node: NodeIdx, now: SimTime, term: u64) {
        pbc_trace::emit(now, || TraceEvent::LeaderElected { proto, node, term });
    }

    /// A replica decided log slot `seq` (call next to
    /// [`super::DecidedLog::decide`]).
    #[inline]
    pub fn commit(proto: &'static str, node: NodeIdx, now: SimTime, seq: u64, digest: u64) {
        pbc_trace::emit(now, || TraceEvent::Commit { proto, node, seq, digest });
    }
}

/// Quorum sizes for the standard fault models.
pub mod quorum {
    /// Max Byzantine faults tolerable with `n` replicas (`⌊(n-1)/3⌋`).
    pub fn bft_f(n: usize) -> usize {
        (n - 1) / 3
    }

    /// Byzantine quorum `2f+1` for `n` replicas.
    pub fn bft_quorum(n: usize) -> usize {
        2 * bft_f(n) + 1
    }

    /// Max crash faults tolerable with `n` replicas (`⌊(n-1)/2⌋`).
    pub fn cft_f(n: usize) -> usize {
        (n - 1) / 2
    }

    /// Majority quorum.
    pub fn majority(n: usize) -> usize {
        n / 2 + 1
    }

    /// MinBFT / A2M fault bound: `n = 2f+1` tolerates `f` with trusted
    /// hardware, quorum `f+1`.
    pub fn a2m_f(n: usize) -> usize {
        (n - 1) / 2
    }

    /// MinBFT quorum `f+1`.
    pub fn a2m_quorum(n: usize) -> usize {
        a2m_f(n) + 1
    }
}

/// The distinct replicas that voted for one thing — the set whose
/// [`Voters::len`] every protocol checks against a [`quorum`] size.
///
/// A bitset over [`NodeIdx`] with a cached count: a vote is one word
/// `or`, a quorum check reads one field, and a replica id is never
/// hashed. Tallies keyed by what was voted for are [`Tally`] maps, so a
/// Byzantine sender that spreads votes over many digests still costs
/// O(1) per vote.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Voters {
    words: Vec<u64>,
    len: usize,
}

/// Voter sets keyed by what was voted for (`(view, digest)`, a phase, a
/// round). Fx-hashed: deterministic and cheap for integer keys. Fx does
/// not resist keys crafted to collide, so a Byzantine sender choosing
/// digests can make lookups in one tally linear in its size.
pub type Tally<K> = fxhash::FxHashMap<K, Voters>;

impl Voters {
    /// Adds `voter`; true if it had not voted yet.
    #[inline]
    pub fn insert(&mut self, voter: NodeIdx) -> bool {
        let (word, bit) = (voter / 64, 1u64 << (voter % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += fresh as usize;
        fresh
    }

    /// Number of distinct voters.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nobody voted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `voter` voted.
    pub fn contains(&self, voter: NodeIdx) -> bool {
        self.words.get(voter / 64).is_some_and(|w| w & (1u64 << (voter % 64)) != 0)
    }

    /// The voters in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i * 64 + bit
                })
            })
        })
    }

    /// Forgets every vote, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Writes the voter count, then each voter ascending.
    pub fn encode(&self, e: &mut Encoder) {
        e.u64(self.len as u64);
        for v in self.iter() {
            e.u64(v as u64);
        }
    }

    /// Reads what [`Voters::encode`] wrote for a cluster of `n`. `None` if
    /// a voter is not a replica (`>= n`) or is listed twice: the encoder
    /// writes neither, and a record from disk is not trusted to size the
    /// set.
    pub fn decode(d: &mut Decoder<'_>, n: usize) -> Option<Voters> {
        let count = d.u64()?;
        let mut voters = Voters::default();
        for _ in 0..count {
            let v = d.u64()?;
            if v >= n as u64 || !voters.insert(v as NodeIdx) {
                return None;
            }
        }
        Some(voters)
    }
}

impl std::fmt::Debug for Voters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Writes a replica's delivered digests as their count, then each digest
/// ascending, so the record does not depend on the set's order.
pub(crate) fn encode_digests(e: &mut Encoder, digests: &fxhash::FxHashSet<u64>) {
    let mut sorted: Vec<u64> = digests.iter().copied().collect();
    sorted.sort_unstable();
    e.u64(sorted.len() as u64);
    for d in sorted {
        e.u64(d);
    }
}

/// Reads what [`encode_digests`] wrote.
pub(crate) fn decode_digests(d: &mut Decoder<'_>) -> Option<fxhash::FxHashSet<u64>> {
    let count = d.u64()?;
    let mut digests = fxhash::FxHashSet::default();
    for _ in 0..count {
        digests.insert(d.u64()?);
    }
    Some(digests)
}

/// Reads a flag written as tag 0 or 1; `None` on any other tag.
pub(crate) fn decode_flag(d: &mut Decoder<'_>) -> Option<bool> {
    match d.tag()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// The record-codec checks every protocol's `Durable` impl must pass.
#[cfg(test)]
pub(crate) mod testing {
    use pbc_sim::Durable;

    /// Folds `records` onto a blank state, requiring each to apply.
    pub(crate) fn fold<A: Durable>(actor: &A, records: &[Vec<u8>]) -> A::Stable {
        let mut stable = A::blank_stable(actor);
        for (i, record) in records.iter().enumerate() {
            A::apply(actor, &mut stable, record).unwrap_or_else(|| panic!("record {i} applies"));
        }
        stable
    }

    /// The whole durable state of `actor` as one record.
    pub(crate) fn snapshot<A: Durable>(actor: &A) -> Vec<u8> {
        actor.encode_since(&mut A::Mark::default())
    }

    /// A snapshot of `actor` decodes, re-encodes to the same bytes
    /// (canonical roundtrip), and is rejected when truncated or padded.
    /// Returns what it decoded to.
    pub(crate) fn assert_snapshot_codec<A: Durable>(actor: &A) -> A::Stable {
        let bytes = snapshot(actor);
        let back = fold(actor, std::slice::from_ref(&bytes));
        let again = snapshot(&A::restore(actor, fold(actor, std::slice::from_ref(&bytes))));
        assert_eq!(again, bytes, "canonical roundtrip");
        let mut scratch = A::blank_stable(actor);
        assert!(A::apply(actor, &mut scratch, &bytes[..bytes.len() - 1]).is_none(), "truncated");
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(A::apply(actor, &mut scratch, &padded).is_none(), "padded");
        back
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decided_log_orders_out_of_order_decisions() {
        let mut log: DecidedLog<u64> = DecidedLog::default();
        log.decide(2, 20, 5);
        assert!(log.is_empty(), "gap before seq 0");
        log.decide(0, 0, 1);
        assert_eq!(log.len(), 1);
        log.decide(1, 10, 3);
        assert_eq!(log.len(), 3);
        assert_eq!(log.payloads(), vec![&0, &10, &20]);
        assert_eq!(log.next_seq(), 3);
    }

    #[test]
    fn duplicate_decisions_ignored() {
        let mut log: DecidedLog<u64> = DecidedLog::default();
        log.decide(0, 5, 1);
        log.decide(0, 99, 2);
        assert_eq!(log.payloads(), vec![&5]);
    }

    #[test]
    fn starting_at_offsets_delivery() {
        let mut log: DecidedLog<u64> = DecidedLog::starting_at(10);
        log.decide(10, 1, 0);
        assert_eq!(log.len(), 1);
        log.decide(9, 9, 0); // below the floor: ignored
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn snapshot_roundtrip_preserves_buffered_decisions() {
        let mut log: DecidedLog<u64> = DecidedLog::default();
        log.decide(0, 10, 1);
        log.decide(2, 30, 5); // buffered: gap at seq 1
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        let mut restored = DecidedLog::from_snapshot(0, snap);
        assert_eq!(restored.payloads(), vec![&10]);
        restored.decide(1, 20, 9);
        assert_eq!(restored.payloads(), vec![&10, &20, &30]);
    }

    #[test]
    fn quorum_math() {
        use quorum::*;
        assert_eq!(bft_f(4), 1);
        assert_eq!(bft_quorum(4), 3);
        assert_eq!(bft_f(7), 2);
        assert_eq!(bft_quorum(7), 5);
        assert_eq!(cft_f(5), 2);
        assert_eq!(majority(5), 3);
        assert_eq!(a2m_f(3), 1);
        assert_eq!(a2m_quorum(3), 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `Voters` behaves as a `BTreeSet<NodeIdx>`: the same `insert`
        /// answers, `len`, `contains` and ascending `iter`, with ids on
        /// both sides of every word boundary up to `n - 1`.
        #[test]
        fn voters_match_a_set_model(
            n in 1usize..200,
            picks in proptest::collection::vec((0usize..6, proptest::prelude::any::<usize>()), 0..64),
        ) {
            let mut voters = Voters::default();
            let mut model = std::collections::BTreeSet::new();
            for (kind, raw) in picks {
                let id = match kind {
                    0 => 0,
                    1 => 63,
                    2 => 64,
                    3 => 127,
                    4 => 128,
                    _ => raw % n,
                }
                .min(n - 1);
                proptest::prop_assert_eq!(voters.insert(id), model.insert(id));
                proptest::prop_assert_eq!(voters.len(), model.len());
            }
            for id in 0..n + 64 {
                proptest::prop_assert_eq!(voters.contains(id), model.contains(&id), "{}", id);
            }
            proptest::prop_assert!(voters.iter().eq(model.iter().copied()));
            proptest::prop_assert_eq!(voters.is_empty(), model.is_empty());
            let mut e = Encoder::new();
            voters.encode(&mut e);
            let bytes = e.finish();
            let back = Voters::decode(&mut Decoder::new(&bytes), n).expect("own encoding decodes");
            proptest::prop_assert_eq!(back, voters);
        }
    }

    #[test]
    fn u64_payload_digest_spreads() {
        assert_ne!(Payload::digest_u64(&1u64), Payload::digest_u64(&2u64));
        assert_eq!(1u64.wire_size(), 8);
    }

    #[test]
    fn u64_persist_roundtrip_and_rejection() {
        let bytes = PersistPayload::to_bytes(&0xDEAD_BEEFu64);
        assert_eq!(<u64 as PersistPayload>::from_bytes(&bytes), Some(0xDEAD_BEEF));
        assert_eq!(<u64 as PersistPayload>::from_bytes(&bytes[..7]), None);
        assert_eq!(<u64 as PersistPayload>::from_bytes(&[]), None);
    }
}
