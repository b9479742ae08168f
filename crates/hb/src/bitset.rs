//! Dense fixed-width bit sets used by the closure and rule engines.
//!
//! The fixpoint derivation of §3.3 sweeps "which sources reach this
//! node" sets over tens of thousands of graph nodes; a dedicated dense
//! bitset with word-level union keeps those sweeps cheap without pulling
//! in a dependency.

/// A fixed-capacity set of small integers, stored one bit each.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for values `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Capacity of the set (exclusive upper bound on member values).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `i`; returns true if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity()`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let mask = 1u64 << b;
        let newly = self.words[w] & mask == 0;
        self.words[w] |= mask;
        newly
    }

    /// Removes `i`; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        present
    }

    /// Tests membership of `i`. Out-of-range values are absent.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Unions `other` into `self`; returns true if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Makes `self` an exact copy of `other`, reusing `self`'s word
    /// allocation when it is large enough. The allocation-free
    /// rebuild step of the per-anchor working set in the rule engine.
    pub fn copy_from(&mut self, other: &BitSet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// True when no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears all bits, keeping capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over set bits in increasing order.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Raw word storage, little-endian bit order. Exposed so hot loops
    /// can combine sets word-wise (e.g. `a & b & !c`) without
    /// allocating intermediates.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Calls `f(i)` for every `i` in `self ∩ and ∖ not`, in increasing
    /// order, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn for_each_in_diff<F: FnMut(usize)>(&self, and: &BitSet, not: &BitSet, mut f: F) {
        assert_eq!(self.len, and.len, "bitset capacity mismatch");
        assert_eq!(self.len, not.len, "bitset capacity mismatch");
        for (wi, ((&a, &b), &c)) in self
            .words
            .iter()
            .zip(&and.words)
            .zip(&not.words)
            .enumerate()
        {
            let mut w = a & b & !c;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                f(wi * 64 + bit);
            }
        }
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects values into a set sized to the maximum value + 1.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let values: Vec<usize> = iter.into_iter().collect();
        let len = values.iter().max().map_or(0, |&m| m + 1);
        let mut s = BitSet::new(len);
        for v in values {
            s.insert(v);
        }
        s
    }
}

/// Iterator over the members of a [`BitSet`].
#[derive(Debug)]
pub struct BitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// A rectangular matrix of bits: `rows` rows of a `cols`-wide [`BitSet`]
/// each, used for the event-order relation (`end(e₁) ≺ begin(e₂)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    rows: Vec<BitSet>,
    cols: usize,
}

impl BitMatrix {
    /// Creates an all-zero `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows: vec![BitSet::new(cols); rows],
            cols,
        }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn col_count(&self) -> usize {
        self.cols
    }

    /// Sets bit `(r, c)`; returns true if it was newly set.
    pub fn set(&mut self, r: usize, c: usize) -> bool {
        self.rows[r].insert(c)
    }

    /// Tests bit `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.rows[r].contains(c)
    }

    /// Borrows row `r`.
    pub fn row(&self, r: usize) -> &BitSet {
        &self.rows[r]
    }

    /// Unions row `src` into row `dst`; returns true if `dst` changed.
    pub fn union_rows(&mut self, dst: usize, src: usize) -> bool {
        if dst == src {
            return false;
        }
        let (a, b) = if dst < src {
            let (lo, hi) = self.rows.split_at_mut(src);
            (&mut lo[dst], &hi[0])
        } else {
            let (lo, hi) = self.rows.split_at_mut(dst);
            (&mut hi[0], &lo[src])
        };
        a.union_with(b)
    }

    /// Total number of set bits.
    pub fn count(&self) -> usize {
        self.rows.iter().map(BitSet::count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(1000));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        b.insert(3);
        b.insert(99);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert!(a.contains(3) && a.contains(99));
    }

    #[test]
    fn iter_yields_sorted_members() {
        let s: BitSet = [5usize, 0, 127, 64, 63].into_iter().collect();
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 63, 64, 127]);
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(10);
        assert!(s.is_empty());
        s.insert(9);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn word_boundary_bits() {
        // Bits 63/64/65 straddle the first u64 word boundary; each must
        // land in its own word slot and round-trip through iteration.
        let mut s = BitSet::new(66);
        for i in [63usize, 64, 65] {
            assert!(s.insert(i));
            assert!(!s.insert(i), "bit {i} double-inserted");
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![63, 64, 65]);
        assert_eq!(s.words()[0], 1u64 << 63);
        assert_eq!(s.words()[1], 0b11);
        assert!(s.remove(64));
        assert!(!s.contains(64));
        assert!(s.contains(63) && s.contains(65));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![63, 65]);
    }

    #[test]
    fn empty_set_operations_are_safe() {
        let mut e = BitSet::new(0);
        assert!(!e.remove(0));
        assert_eq!(e.count(), 0);
        let other = BitSet::new(0);
        assert!(!e.union_with(&other));
        e.for_each_in_diff(&other, &other, |_| unreachable!("no members"));
        assert!(e.is_empty());
    }

    #[test]
    fn self_union_is_a_fixpoint() {
        let mut s = BitSet::new(130);
        for i in [0usize, 63, 64, 65, 129] {
            s.insert(i);
        }
        let copy = s.clone();
        assert!(!s.union_with(&copy), "A ∪ A = A must report no change");
        assert_eq!(s, copy);
    }

    #[test]
    fn zero_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn words_expose_raw_storage() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        let w = s.words();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], 1);
        assert_eq!(w[1], 1);
        assert_eq!(w[2], 1 << (129 - 128));
    }

    #[test]
    fn for_each_in_diff_intersects_and_subtracts() {
        let mut a = BitSet::new(128);
        for i in [1usize, 3, 5, 64, 100] {
            a.insert(i);
        }
        let mut and = BitSet::new(128);
        for i in [3usize, 5, 64, 101] {
            and.insert(i);
        }
        let mut not = BitSet::new(128);
        not.insert(5);
        let mut seen = Vec::new();
        a.for_each_in_diff(&and, &not, |i| seen.push(i));
        assert_eq!(seen, vec![3, 64]);
        // Empty result when everything is masked away.
        a.clear();
        let mut none = Vec::new();
        a.for_each_in_diff(&and, &not, |i| none.push(i));
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn for_each_in_diff_rejects_mismatched_capacity() {
        let a = BitSet::new(10);
        let b = BitSet::new(20);
        let c = BitSet::new(10);
        a.for_each_in_diff(&b, &c, |_| {});
    }

    #[test]
    fn matrix_rows() {
        let mut m = BitMatrix::new(3, 70);
        assert!(m.set(0, 65));
        assert!(!m.set(0, 65));
        assert!(m.get(0, 65));
        assert!(!m.get(1, 65));
        assert!(m.union_rows(1, 0));
        assert!(m.get(1, 65));
        assert!(!m.union_rows(1, 1));
        assert_eq!(m.count(), 2);
        assert_eq!(m.row_count(), 3);
        assert_eq!(m.col_count(), 70);
        assert_eq!(m.row(1).iter().collect::<Vec<_>>(), vec![65]);
    }
}
