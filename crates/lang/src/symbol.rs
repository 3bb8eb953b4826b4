//! Interned identifiers.
//!
//! The parser interns every identifier it meets into the [`Interner`]
//! owned by the [`Program`](crate::ast::Program) it builds. From then on
//! the syntax tree, the type checker's tables and
//! [`ProcInfo`](crate::typeck::ProcInfo) name variables and procedures
//! by [`Symbol`], a dense `u32` index into that interner, so resolving a
//! name is an array index rather than a string hash, and no stage owns a
//! copy of a name. Text comes back out of the interner only where it is
//! shown: in diagnostics, in pretty-printed source, and when lowering
//! writes the IR's own (string-named) variables and procedures.
//!
//! Each program has its own interner; there is no process-wide table, so
//! a long-running process that compiles arbitrary sources does not
//! accumulate their names.

use std::ops::Index;

/// An interned identifier: an index into one program's [`Interner`].
///
/// Symbols of different interners are unrelated; comparing them is
/// meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense index of the symbol, `0..interner.len()`, in order of
    /// first interning.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Marks an empty slot of the interner's hash table.
const EMPTY: u32 = u32::MAX;

/// Maps identifier text to [`Symbol`]s and back.
///
/// All names live in one string buffer and the lookup table holds only
/// symbol indices, so interning a new name allocates nothing except when
/// a buffer doubles.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Every interned name, concatenated in symbol order.
    text: String,
    /// `ends[i]` is the byte offset in `text` where symbol `i` ends; it
    /// starts where symbol `i - 1` ends.
    ends: Vec<u32>,
    /// Open-addressing table of symbol indices (linear probing); its
    /// length is zero or a power of two, and it is at most half full.
    table: Vec<u32>,
}

impl PartialEq for Interner {
    /// Two interners are equal when they hold the same names under the
    /// same symbols (the hash table follows from that).
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text && self.ends == other.ends
    }
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no name has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The symbol for `name`, interning it if it is new.
    ///
    /// # Panics
    ///
    /// Panics if the names interned so far exceed 4 GiB in total.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if self.table.is_empty() {
            self.table = vec![EMPTY; 64];
        }
        let slot = match self.probe(name) {
            Ok(sym) => return sym,
            Err(slot) => slot,
        };
        let sym = self.ends.len() as u32;
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("interned names exceed 4 GiB");
        self.ends.push(end);
        self.table[slot] = sym;
        if self.ends.len() * 2 > self.table.len() {
            self.grow();
        }
        Symbol(sym)
    }

    /// The symbol for `name`, if it has been interned.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        if self.table.is_empty() {
            return None;
        }
        self.probe(name).ok()
    }

    /// The text of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Finds `name` in the (non-empty) table: `Ok` with its symbol, or
    /// `Err` with the empty slot where it belongs.
    fn probe(&self, name: &str) -> Result<Symbol, usize> {
        let mask = self.table.len() - 1;
        let mut slot = hash(name) as usize & mask;
        loop {
            match self.table[slot] {
                EMPTY => return Err(slot),
                sym if self.resolve(Symbol(sym)) == name => return Ok(Symbol(sym)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the table and reinserts every symbol.
    fn grow(&mut self) {
        let mut table = vec![EMPTY; self.table.len() * 2];
        let mask = table.len() - 1;
        for sym in 0..self.ends.len() as u32 {
            let mut slot = hash(self.resolve(Symbol(sym))) as usize & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = sym;
        }
        self.table = table;
    }
}

impl Index<Symbol> for Interner {
    type Output = str;

    fn index(&self, sym: Symbol) -> &str {
        self.resolve(sym)
    }
}

/// A multiply-rotate hash over the bytes of a (short) identifier.
fn hash(name: &str) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = name.len() as u64;
    for &b in name.as_bytes() {
        h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
    }
    // The table indexes with the low bits; fold the well-mixed high bits
    // down onto them.
    h ^ (h >> 32)
}

/// A map from the symbols of one program to `u32` values, indexed by
/// symbol rather than hashed, that empties in constant time.
///
/// Each slot carries the generation it was written in; [`clear`]
/// starts a new generation, which retires every slot at once. A pass
/// that needs one short-lived map per procedure (a scope, a name-to-id
/// table) keeps one `SymbolMap` for the whole program and clears it
/// between procedures.
///
/// [`clear`]: SymbolMap::clear
#[derive(Debug, Clone)]
pub struct SymbolMap {
    /// `(generation, value)` per symbol.
    slots: Vec<(u32, u32)>,
    /// The current generation; slots from older ones read as absent.
    generation: u32,
}

impl SymbolMap {
    /// An empty map for the symbols `0..symbols` (typically
    /// `interner.len()`).
    pub fn new(symbols: usize) -> Self {
        SymbolMap {
            slots: vec![(0, 0); symbols],
            generation: 1,
        }
    }

    /// The value stored for `sym`.
    pub fn get(&self, sym: Symbol) -> Option<u32> {
        match self.slots.get(sym.index()) {
            Some(&(generation, value)) if generation == self.generation => Some(value),
            _ => None,
        }
    }

    /// Whether `sym` has a value.
    pub fn contains(&self, sym: Symbol) -> bool {
        self.get(sym).is_some()
    }

    /// Stores `value` for `sym`, replacing any previous value.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is outside the range the map was made for.
    pub fn insert(&mut self, sym: Symbol, value: u32) {
        self.slots[sym.index()] = (self.generation, value);
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: old generations could read as current again.
            self.slots.fill((0, 0));
            self.generation = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut names = Interner::new();
        let a = names.intern("alpha");
        let b = names.intern("b");
        assert_eq!(names.intern("alpha"), a);
        assert_ne!(a, b);
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(names.len(), 2);
        assert_eq!(&names[a], "alpha");
        assert_eq!(names.resolve(b), "b");
        assert_eq!(names.get("b"), Some(b));
        assert_eq!(names.get("c"), None);
        assert_eq!(Interner::new().get("a"), None);
    }

    #[test]
    fn many_names_survive_growth() {
        let mut names = Interner::new();
        let syms: Vec<Symbol> = (0..5000).map(|i| names.intern(&format!("v{i}"))).collect();
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(names.resolve(s), format!("v{i}"));
            assert_eq!(names.get(&format!("v{i}")), Some(s));
            assert_eq!(s.index(), i);
        }
        assert_eq!(names.len(), 5000);
    }

    #[test]
    fn equal_interners_hold_equal_names() {
        let mut a = Interner::new();
        let mut b = Interner::new();
        a.intern("x");
        b.intern("x");
        assert_eq!(a, b);
        b.intern("y");
        assert_ne!(a, b);
    }

    #[test]
    fn symbol_map_clears_by_generation() {
        let mut names = Interner::new();
        let x = names.intern("x");
        let y = names.intern("y");
        let mut map = SymbolMap::new(names.len());
        map.insert(x, 7);
        assert_eq!(map.get(x), Some(7));
        assert!(!map.contains(y));
        map.clear();
        assert_eq!(map.get(x), None);
        map.insert(y, 3);
        assert_eq!(map.get(y), Some(3));
        // A symbol the map was not made for reads as absent.
        assert_eq!(map.get(names.intern("z")), None);
    }
}
