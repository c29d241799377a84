//! Packed bit vectors over GF(2).

use std::fmt;
use std::ops::{BitXor, BitXorAssign};

const WORD_BITS: usize = 64;

/// A fixed-length vector over GF(2), packed 64 bits per machine word.
///
/// Addition over GF(2) is XOR ([`BitXorAssign`] is implemented), and the inner product is
/// the parity of the bitwise AND ([`BitVec::dot`]).
///
/// # Example
///
/// ```
/// use prophunt_gf2::BitVec;
///
/// let mut v = BitVec::zeros(10);
/// v.set(3, true);
/// v.set(7, true);
/// let w = BitVec::from_indices(10, &[3, 4]);
/// assert_eq!((&v ^ &w).ones().collect::<Vec<_>>(), vec![4, 7]);
/// assert!(v.dot(&w));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        let nwords = len.div_ceil(WORD_BITS);
        BitVec {
            len,
            words: vec![0u64; nwords],
        }
    }

    /// Creates a vector of length `len` with ones at the given indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices(len: usize, ones: &[usize]) -> Self {
        let mut v = BitVec::zeros(len);
        for &i in ones {
            v.set(i, true);
        }
        v
    }

    /// Creates a vector from a slice of `0`/`1` bytes (any nonzero byte is treated as one).
    pub fn from_u8(bits: &[u8]) -> Self {
        let mut v = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b != 0 {
                v.set(i, true);
            }
        }
        v
    }

    /// Creates a vector from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Returns the number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector has length zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets the bit at position `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Flips the bit at position `i`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn flip(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        *word ^= mask;
        *word & mask != 0
    }

    /// Returns the Hamming weight (number of one bits), counting whole words at
    /// a time.
    ///
    /// Four independent accumulators keep the per-word popcounts pipelined.
    pub fn weight(&self) -> usize {
        let mut acc = [0usize; 4];
        let mut quads = self.words.chunks_exact(4);
        for quad in &mut quads {
            acc[0] += quad[0].count_ones() as usize;
            acc[1] += quad[1].count_ones() as usize;
            acc[2] += quad[2].count_ones() as usize;
            acc[3] += quad[3].count_ones() as usize;
        }
        for (i, w) in quads.remainder().iter().enumerate() {
            acc[i] += w.count_ones() as usize;
        }
        acc[0] + acc[1] + acc[2] + acc[3]
    }

    /// Returns the backing words, 64 bits per word in little-endian bit order.
    ///
    /// Bits at positions `>= self.len()` in the final word are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns `true` if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Returns the GF(2) inner product with `other` (parity of the bitwise AND).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "dot product length mismatch");
        let mut acc = 0u64;
        for (a, b) in self.words.iter().zip(other.words.iter()) {
            acc ^= a & b;
        }
        acc.count_ones() % 2 == 1
    }

    /// Adds (XORs) `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "xor length mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a ^= b;
        }
    }

    /// Adds (XORs) raw little-endian words into `self`, one full word at a time.
    ///
    /// This is the bulk-XOR kernel of the bit-parallel frame engine: `words[i]`
    /// is XORed into bits `64 * i ..` of the vector. Bits of the final input
    /// word at positions `>= self.len()` are ignored, preserving the invariant
    /// that storage past the logical length stays zero.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the vector's word count
    /// (`self.len().div_ceil(64)`).
    pub fn xor_assign_from_slice(&mut self, words: &[u64]) {
        assert_eq!(
            self.words.len(),
            words.len(),
            "xor_assign_from_slice word count mismatch"
        );
        for (a, b) in self.words.iter_mut().zip(words.iter()) {
            *a ^= b;
        }
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Returns the bitwise AND with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "and length mismatch");
        BitVec {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(other.words.iter())
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Returns an iterator over the indices of the set bits, in increasing order.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            vec: self,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Returns the index of the lowest set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Collects the vector into a `Vec<u8>` of zeros and ones.
    pub fn to_u8_vec(&self) -> Vec<u8> {
        (0..self.len).map(|i| u8::from(self.get(i))).collect()
    }

    /// Returns a copy extended (with zeros) or truncated to `new_len` bits.
    pub fn resized(&self, new_len: usize) -> BitVec {
        let mut out = BitVec::zeros(new_len);
        for i in self.ones() {
            if i < new_len {
                out.set(i, true);
            }
        }
        out
    }

    /// Concatenates `self` and `other` into a new vector.
    pub fn concat(&self, other: &BitVec) -> BitVec {
        let mut out = BitVec::zeros(self.len + other.len);
        for i in self.ones() {
            out.set(i, true);
        }
        for i in other.ones() {
            out.set(self.len + i, true);
        }
        out
    }

    /// Returns a 64-bit content hash folded over the backing words.
    ///
    /// The hash is a pure function of `(len, words)` with no per-process
    /// randomization, so it is stable across runs, threads and platforms —
    /// which is what lets the frame engine's per-chunk syndrome-dedup cache
    /// key syndromes by content while keeping results bit-identical at any
    /// thread count. Equal vectors always hash equal; the converse is only
    /// probabilistic, so hash buckets must still compare contents (`==`).
    pub fn hash_words(&self) -> u64 {
        // splitmix64 finalizer folded over the length and each word.
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut h = mix(self.len as u64 ^ 0x9e37_79b9_7f4a_7c15);
        for &w in &self.words {
            h = mix(h ^ w).wrapping_add(0x9e37_79b9_7f4a_7c15);
        }
        h
    }

    /// Returns the sub-vector given by the listed positions, in order.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    pub fn select(&self, positions: &[usize]) -> BitVec {
        let mut out = BitVec::zeros(positions.len());
        for (j, &p) in positions.iter().enumerate() {
            if self.get(p) {
                out.set(j, true);
            }
        }
        out
    }
}

/// Transposes detector-major frame words into per-lane [`BitVec`]s.
///
/// The bit-parallel frame engine stores one 64-lane word per row (detector or
/// observable): bit `lane` of `rows[r]` is row `r` of shot-lane `lane`. This
/// kernel flips that layout into `lanes` vectors of `rows.len()` bits each, so
/// `out[lane].get(r) == (rows[r] >> lane) & 1`.
///
/// Rows are processed in 64×64 blocks with a word-level butterfly transpose
/// (Hacker's Delight 7-3 adapted to LSB-first bit order), so the cost is
/// `O(rows.len())` word operations rather than one bit test per cell.
///
/// # Panics
///
/// Panics if `lanes > 64`.
pub fn transpose_lane_words(rows: &[u64], lanes: usize) -> Vec<BitVec> {
    assert!(lanes <= WORD_BITS, "at most 64 lanes per word, got {lanes}");
    let mut out: Vec<BitVec> = (0..lanes).map(|_| BitVec::zeros(rows.len())).collect();
    let mut block = [0u64; WORD_BITS];
    for (w, chunk) in rows.chunks(WORD_BITS).enumerate() {
        block[..chunk.len()].copy_from_slice(chunk);
        // Zero-padding keeps the tail bits of every output word zero, so the
        // BitVec invariant (no set bits past the logical length) holds.
        block[chunk.len()..].fill(0);
        transpose_64x64(&mut block);
        for (lane, v) in out.iter_mut().enumerate() {
            v.words[w] = block[lane];
        }
    }
    out
}

/// In-place 64×64 bit-matrix transpose with LSB-first bit order: after the
/// call, bit `j` of `a[i]` is the old bit `i` of `a[j]`.
fn transpose_64x64(a: &mut [u64; WORD_BITS]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_ffff_ffff;
    while j != 0 {
        let mut k = 0;
        while k < WORD_BITS {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        self.xor_assign_with(rhs);
    }
}

impl BitXor<&BitVec> for &BitVec {
    type Output = BitVec;

    fn bitxor(self, rhs: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_assign_with(rhs);
        out
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bools(&bits)
    }
}

/// Iterator over the indices of set bits of a [`BitVec`], produced by [`BitVec::ones`].
pub struct Ones<'a> {
    vec: &'a BitVec,
    word_index: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_index * WORD_BITS + bit;
                if idx < self.vec.len {
                    return Some(idx);
                }
                return None;
            }
            self.word_index += 1;
            if self.word_index >= self.vec.words.len() {
                return None;
            }
            self.current = self.vec.words[self.word_index];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_has_no_ones() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.weight(), 0);
        assert!(v.is_zero());
        assert_eq!(v.ones().count(), 0);
        assert_eq!(v.first_one(), None);
    }

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut v = BitVec::zeros(200);
        for &i in &[0, 1, 63, 64, 65, 127, 128, 199] {
            v.set(i, true);
            assert!(v.get(i));
        }
        assert_eq!(v.weight(), 8);
        assert_eq!(
            v.ones().collect::<Vec<_>>(),
            vec![0, 1, 63, 64, 65, 127, 128, 199]
        );
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.weight(), 7);
    }

    #[test]
    fn flip_toggles() {
        let mut v = BitVec::zeros(5);
        assert!(v.flip(2));
        assert!(!v.flip(2));
        assert!(v.is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let v = BitVec::zeros(10);
        let _ = v.get(10);
    }

    #[test]
    fn xor_is_addition_mod_two() {
        let a = BitVec::from_indices(10, &[1, 3, 5]);
        let b = BitVec::from_indices(10, &[3, 4, 5, 9]);
        let c = &a ^ &b;
        assert_eq!(c.ones().collect::<Vec<_>>(), vec![1, 4, 9]);
    }

    #[test]
    fn dot_is_parity_of_overlap() {
        let a = BitVec::from_indices(80, &[0, 64, 70]);
        let b = BitVec::from_indices(80, &[64, 70, 79]);
        assert!(!a.dot(&b)); // overlap {64, 70} has even parity
        let c = BitVec::from_indices(80, &[0]);
        assert!(a.dot(&c));
    }

    #[test]
    fn from_u8_and_to_u8_roundtrip() {
        let bits = [1u8, 0, 0, 1, 1, 0, 1];
        let v = BitVec::from_u8(&bits);
        assert_eq!(v.to_u8_vec(), bits.to_vec());
    }

    #[test]
    fn concat_and_select() {
        let a = BitVec::from_indices(3, &[0, 2]);
        let b = BitVec::from_indices(4, &[1]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 7);
        assert_eq!(c.ones().collect::<Vec<_>>(), vec![0, 2, 4]);
        let s = c.select(&[2, 3, 4]);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn resized_truncates_and_extends() {
        let a = BitVec::from_indices(5, &[0, 4]);
        assert_eq!(a.resized(3).ones().collect::<Vec<_>>(), vec![0]);
        assert_eq!(a.resized(10).ones().collect::<Vec<_>>(), vec![0, 4]);
    }

    #[test]
    fn words_accessor_masks_nothing_and_tail_stays_zero() {
        let mut v = BitVec::zeros(70);
        v.set(0, true);
        v.set(69, true);
        assert_eq!(v.words().len(), 2);
        assert_eq!(v.words()[0], 1);
        assert_eq!(v.words()[1], 1u64 << 5);
        v.xor_assign_from_slice(&[0b10, u64::MAX]);
        // Bits 70..128 of the input are ignored: the tail stays zero.
        assert_eq!(v.words()[1] >> 6, 0);
        assert_eq!(
            v.ones().collect::<Vec<_>>(),
            std::iter::once(0)
                .chain(std::iter::once(1))
                .chain(64..69)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn transpose_lane_words_matches_bit_extraction() {
        // 100 rows, 7 lanes, deterministic pseudo-random content.
        let rows: Vec<u64> = (0..100u64)
            .map(|r| r.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17))
            .collect();
        let lanes = 7;
        let out = transpose_lane_words(&rows, lanes);
        assert_eq!(out.len(), lanes);
        for (lane, v) in out.iter().enumerate() {
            assert_eq!(v.len(), rows.len());
            for (r, &word) in rows.iter().enumerate() {
                assert_eq!(v.get(r), (word >> lane) & 1 == 1, "lane {lane} row {r}");
            }
        }
        assert!(transpose_lane_words(&[], 64).iter().all(|v| v.is_empty()));
        assert!(transpose_lane_words(&rows, 0).is_empty());
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let v = BitVec::from_indices(4, &[1]);
        assert_eq!(format!("{v}"), "0100");
        assert_eq!(format!("{v:?}"), "BitVec[0100]");
        let empty = BitVec::zeros(0);
        assert_eq!(format!("{empty:?}"), "BitVec[]");
    }

    #[test]
    fn hash_words_is_a_pure_content_function() {
        // Same content built two different ways hashes equal.
        let a = BitVec::from_indices(130, &[0, 64, 129]);
        let mut b = BitVec::zeros(130);
        for i in [129, 0, 64] {
            b.set(i, true);
        }
        assert_eq!(a, b);
        assert_eq!(a.hash_words(), b.hash_words());
        // Setting then clearing a bit restores the hash (tail words stay zero).
        let mut c = a.clone();
        c.set(70, true);
        assert_ne!(c.hash_words(), a.hash_words());
        c.set(70, false);
        assert_eq!(c.hash_words(), a.hash_words());
    }

    #[test]
    fn hash_words_distinguishes_length_and_nearby_contents() {
        // Different lengths with identical (empty) words must not collide: a
        // zero syndrome over 64 detectors is not a zero syndrome over 65.
        assert_ne!(
            BitVec::zeros(64).hash_words(),
            BitVec::zeros(65).hash_words()
        );
        // Single-bit differences across the word boundary all hash apart.
        let base = BitVec::zeros(128);
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.hash_words());
        for i in 0..128 {
            let v = BitVec::from_indices(128, &[i]);
            assert!(seen.insert(v.hash_words()), "collision at bit {i}");
        }
    }

    proptest! {
        #[test]
        fn prop_hash_words_matches_on_equal_contents(
            bits in proptest::collection::vec(any::<bool>(), 0..300),
        ) {
            let v = BitVec::from_bools(&bits);
            let w = BitVec::from_bools(&bits);
            prop_assert_eq!(v.hash_words(), w.hash_words());
            // XOR with itself gives the all-zero vector of the same length.
            let z = &v ^ &v;
            prop_assert_eq!(z.hash_words(), BitVec::zeros(bits.len()).hash_words());
        }

        #[test]
        fn prop_xor_self_is_zero(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
            let v = BitVec::from_bools(&bits);
            let z = &v ^ &v;
            prop_assert!(z.is_zero());
        }

        #[test]
        fn prop_weight_matches_naive(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
            let v = BitVec::from_bools(&bits);
            prop_assert_eq!(v.weight(), bits.iter().filter(|&&b| b).count());
        }

        #[test]
        fn prop_ones_matches_naive(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
            let v = BitVec::from_bools(&bits);
            let expected: Vec<usize> = bits
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| b.then_some(i))
                .collect();
            prop_assert_eq!(v.ones().collect::<Vec<_>>(), expected);
        }

        #[test]
        fn prop_count_ones_matches_naive_bit_loop(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
            let v = BitVec::from_bools(&bits);
            let naive = (0..v.len()).filter(|&i| v.get(i)).count();
            prop_assert_eq!(v.weight(), naive);
        }

        #[test]
        fn prop_xor_assign_from_slice_matches_naive_bit_loop(
            bits in proptest::collection::vec(any::<bool>(), 1..300),
            words in proptest::collection::vec(any::<u64>(), 5),
        ) {
            let mut v = BitVec::from_bools(&bits);
            let nwords = bits.len().div_ceil(64);
            let words = &words[..nwords];
            let mut expected = BitVec::from_bools(&bits);
            for i in 0..bits.len() {
                if (words[i / 64] >> (i % 64)) & 1 == 1 {
                    expected.flip(i);
                }
            }
            v.xor_assign_from_slice(words);
            prop_assert_eq!(&v, &expected);
            prop_assert_eq!(v.weight(), expected.weight());
        }

        #[test]
        fn prop_transpose_lane_words_matches_naive_bit_loop(
            rows in proptest::collection::vec(any::<u64>(), 0..150),
            lanes in 0usize..65,
        ) {
            let out = transpose_lane_words(&rows, lanes);
            prop_assert_eq!(out.len(), lanes);
            for (lane, v) in out.iter().enumerate() {
                prop_assert_eq!(v.len(), rows.len());
                for (r, &word) in rows.iter().enumerate() {
                    prop_assert_eq!(v.get(r), (word >> lane) & 1 == 1);
                }
            }
        }

        #[test]
        fn prop_dot_commutes(
            a in proptest::collection::vec(any::<bool>(), 150),
            b in proptest::collection::vec(any::<bool>(), 150),
        ) {
            let va = BitVec::from_bools(&a);
            let vb = BitVec::from_bools(&b);
            prop_assert_eq!(va.dot(&vb), vb.dot(&va));
        }

        #[test]
        fn prop_xor_associative(
            a in proptest::collection::vec(any::<bool>(), 100),
            b in proptest::collection::vec(any::<bool>(), 100),
            c in proptest::collection::vec(any::<bool>(), 100),
        ) {
            let (va, vb, vc) = (BitVec::from_bools(&a), BitVec::from_bools(&b), BitVec::from_bools(&c));
            let left = &(&va ^ &vb) ^ &vc;
            let right = &va ^ &(&vb ^ &vc);
            prop_assert_eq!(left, right);
        }
    }
}
