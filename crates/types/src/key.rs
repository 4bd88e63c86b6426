//! Interned state keys.
//!
//! A state key is a string wherever it is named: in [`crate::Op`], in a
//! program's key table, in canonical encodings, digests and proofs.
//! Execution, scheduling and apply run on [`KeyId`]s instead: a `u32`
//! handed out once per distinct key per process. Comparing, hashing and
//! copying an id costs what a `u32` costs, where a `String` key cost a
//! byte compare, a byte hash and an allocation.
//!
//! The interner is append-only: an id, once handed out, names its key for
//! the life of the process, and [`KeyId::as_str`] reads it back without a
//! lock. Ids are numbered in first-use order, which differs between runs
//! (tests share one process), so **no output may depend on an id's
//! number**: digests, proofs and reports encode the key string, and every
//! ordered output sorts by string or by block position.

use fxhash::FxHashMap;
use std::sync::{OnceLock, RwLock};

/// An interned state key. See the [module docs](self).
///
/// Deliberately not `Ord`: ids are numbered in interning order, which
/// is not an order any output may depend on. Its `Debug` prints the key
/// string, as `String`'s does.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyId(pub(crate) u32);

/// Ids in the first segment of the name table; segment `s` holds
/// `FIRST << s` names, so 27 segments cover every `u32`.
const FIRST: usize = 64;
const SEGMENTS: usize = 27;

type Segment = Box<[OnceLock<Box<str>>]>;

/// Id → name, readable without a lock: segments are allocated once and
/// never move, and each slot is written once, under the table's write
/// lock, before its id is handed out.
static NAMES: [OnceLock<Segment>; SEGMENTS] = [const { OnceLock::new() }; SEGMENTS];

type Table = FxHashMap<&'static str, KeyId>;

/// Name → id, for interning and lookups at the API edge.
static IDS: OnceLock<RwLock<Table>> = OnceLock::new();

fn table() -> &'static RwLock<Table> {
    IDS.get_or_init(Default::default)
}

/// Interns `key` under the table's write lock.
fn insert(table: &mut Table, key: &str) -> KeyId {
    if let Some(&id) = table.get(key) {
        return id;
    }
    let id = u32::try_from(table.len()).expect("more than u32::MAX distinct keys");
    let (segment, slot) = slot_of(id);
    let names =
        NAMES[segment].get_or_init(|| (0..FIRST << segment).map(|_| OnceLock::new()).collect());
    let name: &'static str = names[slot].get_or_init(|| key.into());
    table.insert(name, KeyId(id));
    KeyId(id)
}

/// The segment and the slot within it that hold id `id`.
fn slot_of(id: u32) -> (usize, usize) {
    let j = id as usize / FIRST + 1;
    let segment = (usize::BITS - 1 - j.leading_zeros()) as usize;
    (segment, id as usize - FIRST * ((1 << segment) - 1))
}

impl KeyId {
    /// The id of `key`, interning it if it is new. Takes the interner's
    /// read lock, and its write lock once per new key: call it where a
    /// key enters (a transaction's first execution, a genesis load), not
    /// per operation.
    pub fn intern(key: &str) -> KeyId {
        if let Some(id) = KeyId::lookup(key) {
            return id;
        }
        insert(&mut table().write().unwrap_or_else(|e| e.into_inner()), key)
    }

    /// Appends the ids of `keys` to `ids`, in order, interning the new
    /// ones: [`KeyId::intern`] for a whole list under one read lock (and
    /// one write lock if any key is new).
    pub fn intern_all<'a>(keys: impl IntoIterator<Item = &'a str>, ids: &mut Vec<KeyId>) {
        let mut new: Vec<(usize, &str)> = Vec::new();
        {
            let table = table().read().unwrap_or_else(|e| e.into_inner());
            for key in keys {
                let id = table.get(key).copied().unwrap_or_else(|| {
                    new.push((ids.len(), key));
                    KeyId(u32::MAX)
                });
                ids.push(id);
            }
        }
        if !new.is_empty() {
            let mut table = table().write().unwrap_or_else(|e| e.into_inner());
            for (at, key) in new {
                ids[at] = insert(&mut table, key);
            }
        }
    }

    /// The id of `key` if it was ever interned. A key never interned was
    /// never written, read or declared by anything executed in this
    /// process.
    pub fn lookup(key: &str) -> Option<KeyId> {
        table().read().unwrap_or_else(|e| e.into_inner()).get(key).copied()
    }

    /// The key this id names. Lock-free.
    pub fn as_str(self) -> &'static str {
        let (segment, slot) = slot_of(self.0);
        NAMES[segment]
            .get()
            .and_then(|names| names[slot].get())
            .expect("a KeyId is only made by intern")
    }
}

impl std::fmt::Debug for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A state key as a caller names it: a string at the API edge, or an
/// interned id inside execution. `pbc_ledger::StateStore` takes either.
pub trait StateKey {
    /// The key's id if it was ever interned ([`KeyId::lookup`]).
    fn find_id(&self) -> Option<KeyId>;
    /// The key's id, interning it if new ([`KeyId::intern`]).
    fn to_id(&self) -> KeyId;
}

impl StateKey for KeyId {
    fn find_id(&self) -> Option<KeyId> {
        Some(*self)
    }
    fn to_id(&self) -> KeyId {
        *self
    }
}

impl StateKey for str {
    fn find_id(&self) -> Option<KeyId> {
        KeyId::lookup(self)
    }
    fn to_id(&self) -> KeyId {
        KeyId::intern(self)
    }
}

impl StateKey for String {
    fn find_id(&self) -> Option<KeyId> {
        KeyId::lookup(self)
    }
    fn to_id(&self) -> KeyId {
        KeyId::intern(self)
    }
}

impl<K: StateKey + ?Sized> StateKey for &K {
    fn find_id(&self) -> Option<KeyId> {
        (**self).find_id()
    }
    fn to_id(&self) -> KeyId {
        (**self).to_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_tile_the_id_space() {
        assert_eq!(slot_of(0), (0, 0));
        assert_eq!(slot_of(63), (0, 63));
        assert_eq!(slot_of(64), (1, 0));
        assert_eq!(slot_of(191), (1, 127));
        assert_eq!(slot_of(192), (2, 0));
        let (segment, slot) = slot_of(u32::MAX);
        assert!(segment < SEGMENTS && slot < FIRST << segment);
    }

    #[test]
    fn interning_is_idempotent_and_round_trips() {
        let a = KeyId::intern("key-test/a");
        let b = KeyId::intern("key-test/b");
        assert_ne!(a, b);
        assert_eq!(KeyId::intern("key-test/a"), a);
        assert_eq!(a.as_str(), "key-test/a");
        assert_eq!(KeyId::lookup("key-test/b"), Some(b));
        assert_eq!(KeyId::lookup("key-test/never-interned"), None);
        assert_eq!(format!("{a:?}"), format!("{:?}", "key-test/a"));
        assert_eq!(a.to_string(), "key-test/a");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let names: Vec<String> = (0..500).map(|i| format!("key-test/c{i}")).collect();
        let per_thread: Vec<Vec<KeyId>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let names = &names;
                    s.spawn(move || {
                        let mut ids: Vec<KeyId> = Vec::new();
                        for i in 0..names.len() {
                            let i = if t == 0 { i } else { names.len() - 1 - i };
                            ids.push(KeyId::intern(&names[i]));
                        }
                        if t == 1 {
                            ids.reverse();
                        }
                        ids
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(per_thread[0], per_thread[1]);
        for (name, id) in names.iter().zip(&per_thread[0]) {
            assert_eq!(id.as_str(), name);
        }
    }
}
