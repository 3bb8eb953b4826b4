//! Dense slot-indexed tables — the flat hot-path substrate.
//!
//! The paper's per-procedure value contexts were held in
//! `BTreeMap<Slot, V>`: ergonomic at the ~20-procedure scale of the
//! original study, but at 100k procedures the per-node heap allocation
//! and pointer chasing dominate the solver. A [`SlotTable`] stores the
//! same (slot → value) mapping as two parallel vectors — a strictly
//! increasing slot vector and a value vector — so lookups are a formal
//! fast path or one cache-friendly binary search, iteration is a linear
//! scan, and the whole context is two contiguous allocations.
//!
//! The representation is *order-faithful*: iteration yields entries in
//! ascending [`Slot`] order, exactly as the `BTreeMap` it replaced did,
//! which is what keeps the flattened solver bit-identical to the golden
//! map-based replica (`ipcp_bench::framework::legacy_solve`).

use crate::modref::Slot;
use std::collections::BTreeMap;

/// A map from [`Slot`] to `V` stored as parallel sorted vectors.
///
/// Slots form a per-procedure universe fixed at construction
/// ([`SlotTable::from_universe`]); inserts of slots outside the universe
/// still work (shifting the tail, as a `Vec::insert`) so the table is a
/// drop-in `BTreeMap` replacement, but the hot paths never take that
/// branch — context universes come from `ModRefInfo::param_slots` and
/// every transfer function writes inside them.
#[derive(Clone, PartialEq, Eq)]
pub struct SlotTable<V> {
    slots: Vec<Slot>,
    vals: Vec<V>,
}

impl<V> Default for SlotTable<V> {
    fn default() -> Self {
        SlotTable {
            slots: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<V> SlotTable<V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table over `slots` (strictly increasing), every value `fill`.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if `slots` is not strictly increasing.
    pub fn from_universe(slots: Vec<Slot>, fill: V) -> Self
    where
        V: Clone,
    {
        debug_assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "slot universe must be strictly increasing"
        );
        let vals = vec![fill; slots.len()];
        SlotTable { slots, vals }
    }

    /// A table from (slot, value) pairs in strictly increasing slot
    /// order.
    pub fn from_sorted_pairs(pairs: Vec<(Slot, V)>) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "pairs must be strictly increasing by slot"
        );
        let mut slots = Vec::with_capacity(pairs.len());
        let mut vals = Vec::with_capacity(pairs.len());
        for (s, v) in pairs {
            slots.push(s);
            vals.push(v);
        }
        SlotTable { slots, vals }
    }

    /// A table from parallel vectors, or `None` unless `slots` is
    /// strictly increasing and as long as `vals` — the codec's entry
    /// point, which never builds a table the analyses could not.
    pub(crate) fn from_parts(slots: Vec<Slot>, vals: Vec<V>) -> Option<Self> {
        let canonical = slots.len() == vals.len() && slots.windows(2).all(|w| w[0] < w[1]);
        canonical.then_some(SlotTable { slots, vals })
    }

    /// A table with the contents of a `BTreeMap` (already sorted).
    pub fn from_map(map: BTreeMap<Slot, V>) -> Self {
        Self::from_sorted_pairs(map.into_iter().collect())
    }

    /// Index of `slot`, or the insertion point when absent.
    ///
    /// Formals are a fast path: in a `param_slots` universe (all scalar
    /// formals present) `Formal(i)` sits at index `i`, so the common
    /// lookup is one comparison, no search.
    #[inline]
    fn idx(&self, slot: Slot) -> Result<usize, usize> {
        if let Slot::Formal(i) = slot {
            let i = i as usize;
            if self.slots.get(i) == Some(&slot) {
                return Ok(i);
            }
        }
        self.slots.binary_search(&slot)
    }

    /// The value of `slot`, if tracked.
    #[inline]
    pub fn get(&self, slot: &Slot) -> Option<&V> {
        self.idx(*slot).ok().map(|i| &self.vals[i])
    }

    /// Whether `slot` is tracked.
    #[inline]
    pub fn contains_key(&self, slot: &Slot) -> bool {
        self.idx(*slot).is_ok()
    }

    /// Sets `slot` to `v`, returning the previous value when the slot
    /// was already tracked (`BTreeMap::insert` semantics).
    pub fn insert(&mut self, slot: Slot, v: V) -> Option<V> {
        match self.idx(slot) {
            Ok(i) => Some(std::mem::replace(&mut self.vals[i], v)),
            Err(i) => {
                self.slots.insert(i, slot);
                self.vals.insert(i, v);
                None
            }
        }
    }

    /// Number of tracked slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slot is tracked.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The tracked slots, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &Slot> + '_ {
        self.slots.iter()
    }

    /// The values, in ascending slot order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.vals.iter()
    }

    /// Mutable values, in ascending slot order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.vals.iter_mut()
    }

    /// (slot, value) pairs in ascending slot order — `BTreeMap::iter`
    /// shape, so `for (&slot, &val) in table.iter()` works unchanged.
    pub fn iter(&self) -> impl Iterator<Item = (&Slot, &V)> + '_ {
        self.slots.iter().zip(self.vals.iter())
    }

    /// The table's contents as the `BTreeMap` it replaces.
    pub fn to_map(&self) -> BTreeMap<Slot, V>
    where
        V: Clone,
    {
        self.iter().map(|(s, v)| (*s, v.clone())).collect()
    }
}

impl<'a, V> IntoIterator for &'a SlotTable<V> {
    type Item = (&'a Slot, &'a V);
    type IntoIter = std::iter::Zip<std::slice::Iter<'a, Slot>, std::slice::Iter<'a, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.iter().zip(self.vals.iter())
    }
}

impl<V> FromIterator<(Slot, V)> for SlotTable<V> {
    /// Collects pairs in any order (sorted on the way in, last write to
    /// a slot wins — `BTreeMap::from_iter` semantics).
    fn from_iter<I: IntoIterator<Item = (Slot, V)>>(iter: I) -> Self {
        let mut table = SlotTable::new();
        for (s, v) in iter {
            table.insert(s, v);
        }
        table
    }
}

impl<V> std::ops::Index<&Slot> for SlotTable<V> {
    type Output = V;

    fn index(&self, slot: &Slot) -> &V {
        self.get(slot).expect("slot not tracked")
    }
}

/// Renders exactly like the `BTreeMap` it replaced, so debug output —
/// and the fingerprints derived from it — keep the map shape.
impl<V: std::fmt::Debug> std::fmt::Debug for SlotTable<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Equality against the map representation — what the golden replica
/// comparisons (`ipcp_bench::framework::assert_solver_agreement`) check.
impl<V: PartialEq> PartialEq<BTreeMap<Slot, V>> for SlotTable<V> {
    fn eq(&self, other: &BTreeMap<Slot, V>) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::GlobalId;

    fn g(i: u32) -> Slot {
        Slot::Global(GlobalId(i))
    }

    #[test]
    fn universe_lookup_and_insert() {
        let mut t = SlotTable::from_universe(vec![Slot::Formal(0), Slot::Formal(1), g(2)], 0i64);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&Slot::Formal(1)), Some(&0));
        assert_eq!(t.insert(Slot::Formal(1), 7), Some(0));
        assert_eq!(t.get(&Slot::Formal(1)), Some(&7));
        assert_eq!(t.get(&g(0)), None);
        assert!(!t.contains_key(&Slot::Result));
    }

    #[test]
    fn out_of_universe_insert_keeps_order() {
        let mut t = SlotTable::from_universe(vec![Slot::Formal(0), g(5)], 1);
        assert_eq!(t.insert(g(2), 9), None);
        assert_eq!(t.insert(Slot::Result, 3), None);
        let keys: Vec<Slot> = t.keys().copied().collect();
        assert_eq!(keys, vec![Slot::Formal(0), g(2), g(5), Slot::Result]);
    }

    #[test]
    fn sparse_formals_fall_back_to_search() {
        // Formal(0) missing (e.g. an array formal): Formal(1) is not at
        // index 1, the fast path must miss and the search must find it.
        let t = SlotTable::from_sorted_pairs(vec![(Slot::Formal(1), 4), (g(0), 5)]);
        assert_eq!(t.get(&Slot::Formal(1)), Some(&4));
        assert_eq!(t.get(&Slot::Formal(0)), None);
    }

    #[test]
    fn matches_btreemap_debug_and_eq() {
        let map: BTreeMap<Slot, i64> = [(Slot::Formal(0), 1), (g(3), 2), (Slot::Result, 9)]
            .into_iter()
            .collect();
        let t = SlotTable::from_map(map.clone());
        assert_eq!(format!("{t:?}"), format!("{map:?}"));
        assert!(t == map);
        assert_eq!(t.to_map(), map);
        let mut smaller = map.clone();
        smaller.remove(&g(3));
        assert!(t != smaller);
    }

    #[test]
    fn from_iter_last_write_wins() {
        let t: SlotTable<i64> = [(g(1), 1), (Slot::Formal(0), 2), (g(1), 3)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t[&g(1)], 3);
    }
}
