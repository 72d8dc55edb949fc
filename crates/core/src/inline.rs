//! Small sorted maps and sets stored inline.
//!
//! A thread state's promise set, register file, coherence view, forward
//! bank and private memory hold a handful of entries each. `InlineMap`
//! keeps up to `N` entries, sorted by key, in an array inside the value,
//! so building, cloning and dropping one allocates nothing; past `N` it
//! spills to a sorted `Vec`. Equality, hashing and iteration see only the
//! sorted entries, never where they are stored: a map that spilled (and
//! perhaps shrank again) equals an inline map with the same contents, and
//! both iterate in ascending key order, as the `BTreeMap` they replace
//! did — so state fingerprints do not depend on the representation.

use std::fmt;
use std::hash::{Hash, Hasher};

#[derive(Clone)]
enum Store<K, V, const N: usize> {
    /// The first `len` slots of `items` are the entries, sorted by key.
    Inline { len: u8, items: [(K, V); N] },
    /// Spilled: more than `N` entries were held at some point.
    Heap(Vec<(K, V)>),
}

/// A map sorted by key, inline up to `N` entries (see the module docs).
#[derive(Clone)]
pub(crate) struct InlineMap<K, V, const N: usize>(Store<K, V, N>);

impl<K, V, const N: usize> InlineMap<K, V, N> {
    /// The entries, sorted by key.
    pub(crate) fn as_slice(&self) -> &[(K, V)] {
        match &self.0 {
            Store::Inline { len, items } => &items[..usize::from(*len)],
            Store::Heap(v) => v,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the map is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Iterate over the entries in ascending key order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, (K, V)> {
        self.as_slice().iter()
    }

    /// Whether the entries have spilled to the heap.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> bool {
        matches!(self.0, Store::Heap(_))
    }
}

impl<K: Copy + Ord + Default, V: Copy + Default, const N: usize> InlineMap<K, V, N> {
    /// An empty map (no allocation).
    pub(crate) fn new() -> Self {
        const { assert!(N > 0 && N <= u8::MAX as usize) };
        InlineMap(Store::Inline {
            len: 0,
            items: [(K::default(), V::default()); N],
        })
    }

    fn find(&self, k: &K) -> Result<usize, usize> {
        self.as_slice().binary_search_by(|(e, _)| e.cmp(k))
    }

    /// The value at `k`, if present.
    pub(crate) fn get(&self, k: &K) -> Option<&V> {
        let i = self.find(k).ok()?;
        Some(&self.as_slice()[i].1)
    }

    /// Whether `k` is present.
    pub(crate) fn contains_key(&self, k: &K) -> bool {
        self.find(k).is_ok()
    }

    /// Insert `v` at `k`, returning the value it replaced.
    pub(crate) fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.find(&k) {
            Ok(i) => {
                let slot = match &mut self.0 {
                    Store::Inline { items, .. } => &mut items[i].1,
                    Store::Heap(es) => &mut es[i].1,
                };
                Some(std::mem::replace(slot, v))
            }
            Err(i) => {
                match &mut self.0 {
                    Store::Inline { len, items } if usize::from(*len) < N => {
                        let n = usize::from(*len);
                        items.copy_within(i..n, i + 1);
                        items[i] = (k, v);
                        *len += 1;
                    }
                    Store::Inline { items, .. } => {
                        let mut es = Vec::with_capacity(2 * N);
                        es.extend_from_slice(&items[..i]);
                        es.push((k, v));
                        es.extend_from_slice(&items[i..]);
                        self.0 = Store::Heap(es);
                    }
                    Store::Heap(es) => es.insert(i, (k, v)),
                }
                None
            }
        }
    }

    /// Remove `k`, returning its value if it was present.
    pub(crate) fn remove(&mut self, k: &K) -> Option<V> {
        let i = self.find(k).ok()?;
        match &mut self.0 {
            Store::Inline { len, items } => {
                let v = items[i].1;
                items.copy_within(i + 1..usize::from(*len), i);
                *len -= 1;
                Some(v)
            }
            Store::Heap(es) => Some(es.remove(i).1),
        }
    }
}

impl<K: Copy + Ord + Default, V: Copy + Default, const N: usize> Default for InlineMap<K, V, N> {
    fn default() -> Self {
        InlineMap::new()
    }
}

impl<K: PartialEq, V: PartialEq, const N: usize> PartialEq for InlineMap<K, V, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<K: Eq, V: Eq, const N: usize> Eq for InlineMap<K, V, N> {}

impl<K: Hash, V: Hash, const N: usize> Hash for InlineMap<K, V, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<K: fmt::Debug, V: fmt::Debug, const N: usize> fmt::Debug for InlineMap<K, V, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

/// A sorted set, inline up to `N` elements and spilled to the heap past
/// them (a sorted map to `()`; see the module docs).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct InlineSet<T, const N: usize>(InlineMap<T, (), N>);

impl<T, const N: usize> InlineSet<T, N> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate over the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.into_iter()
    }

    /// Whether the elements have spilled to the heap.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> bool {
        self.0.spilled()
    }
}

impl<T: Copy + Ord + Default, const N: usize> InlineSet<T, N> {
    /// An empty set (no allocation).
    pub fn new() -> Self {
        InlineSet(InlineMap::new())
    }

    /// Whether `t` is an element.
    pub fn contains(&self, t: &T) -> bool {
        self.0.contains_key(t)
    }

    /// Add `t`; returns whether it was new.
    pub fn insert(&mut self, t: T) -> bool {
        self.0.insert(t, ()).is_none()
    }

    /// Remove `t`; returns whether it was present.
    pub fn remove(&mut self, t: &T) -> bool {
        self.0.remove(t).is_some()
    }
}

impl<T: Copy + Ord + Default, const N: usize> Default for InlineSet<T, N> {
    fn default() -> Self {
        InlineSet::new()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineSet<T, N> {
    type Item = &'a T;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (T, ())>, fn(&'a (T, ())) -> &'a T>;

    fn into_iter(self) -> Self::IntoIter {
        let key: fn(&'a (T, ())) -> &'a T = |(t, ())| t;
        self.0.iter().map(key)
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineSet<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{Fingerprint, FpHasher};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::hash::DefaultHasher;

    /// Capacity small enough that short op sequences cross it often.
    const CAP: usize = 4;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    /// The word stream a thread-state bank contributes to a fingerprint:
    /// the length, then each entry in iteration order.
    fn feed_of(m: &InlineMap<u32, i64, CAP>) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_len(m.len());
        for &(k, v) in m.iter() {
            h.write_u32(k);
            h.write_i64(v);
        }
        h.finish128()
    }

    /// Rebuild `m`'s contents fresh, in ascending order (inline whenever
    /// they fit).
    fn rebuilt(m: &InlineMap<u32, i64, CAP>) -> InlineMap<u32, i64, CAP> {
        let mut fresh = InlineMap::new();
        for &(k, v) in m.iter() {
            fresh.insert(k, v);
        }
        fresh
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random insert/remove/get sequences over a key range wider than
        /// the inline capacity behave exactly like a `BTreeMap`, and the
        /// map stays equal (`==`, `Hash`, feed words) to a fresh rebuild
        /// of the same contents, whether it is inline, spilled, or
        /// spilled and shrunk back.
        #[test]
        fn inline_map_matches_btreemap(
            ops in proptest::collection::vec((0u32..3, 0u32..9, any::<i64>()), 0..40)
        ) {
            let mut m: InlineMap<u32, i64, CAP> = InlineMap::new();
            let mut model = BTreeMap::new();
            for &(op, k, v) in &ops {
                match op {
                    0 => prop_assert_eq!(m.insert(k, v), model.insert(k, v)),
                    1 => prop_assert_eq!(m.remove(&k), model.remove(&k)),
                    _ => prop_assert_eq!(m.get(&k), model.get(&k)),
                }
                let entries: Vec<(u32, i64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(m.as_slice(), &entries[..]);
                prop_assert_eq!(m.len(), model.len());
                prop_assert!(m.spilled() || model.len() <= CAP);
                let fresh = rebuilt(&m);
                prop_assert_eq!(fresh.spilled(), model.len() > CAP);
                prop_assert!(m == fresh);
                prop_assert_eq!(hash_of(&m), hash_of(&fresh));
                prop_assert_eq!(feed_of(&m), feed_of(&fresh));
            }
        }

        /// The same model check for the set.
        #[test]
        fn inline_set_matches_btreeset(
            ops in proptest::collection::vec((0u32..3, 0u32..9), 0..40)
        ) {
            let mut s: InlineSet<u32, CAP> = InlineSet::new();
            let mut model = BTreeSet::new();
            for &(op, t) in &ops {
                match op {
                    0 => prop_assert_eq!(s.insert(t), model.insert(t)),
                    1 => prop_assert_eq!(s.remove(&t), model.remove(&t)),
                    _ => prop_assert_eq!(s.contains(&t), model.contains(&t)),
                }
                prop_assert!(s.iter().eq(model.iter()));
                prop_assert!((&s).into_iter().eq(model.iter()));
                let mut fresh = InlineSet::new();
                for &t in &model {
                    fresh.insert(t);
                }
                prop_assert!(s == fresh);
                prop_assert_eq!(hash_of(&s), hash_of(&fresh));
            }
        }
    }

    #[test]
    fn spilled_then_shrunk_map_equals_inline_map() {
        let mut m: InlineMap<u32, i64, CAP> = InlineMap::new();
        for k in 0..=CAP as u32 {
            m.insert(k, i64::from(k) * 10);
        }
        assert!(m.spilled());
        for k in 1..=CAP as u32 - 1 {
            m.remove(&k);
        }
        assert!(m.spilled(), "a spilled map stays on the heap");
        let mut inline = InlineMap::new();
        inline.insert(CAP as u32, 40);
        inline.insert(0, 0);
        assert!(!inline.spilled());
        assert_eq!(m, inline);
        assert_eq!(hash_of(&m), hash_of(&inline));
        assert_eq!(feed_of(&m), feed_of(&inline));
        assert_eq!(format!("{m:?}"), format!("{inline:?}"));
    }
}
