//! The `RKB2` wave codec: fixed-width packed integer sequences and the
//! run bitmap of the HDT-style bitmap-triples layout.
//!
//! The paper keeps its KBs in HDT — dictionary-compressed *bitmap triples*
//! whose adjacency lists are delimited by bitmaps instead of offset arrays
//! (§3.5.1). An `RKB2` file stores its triples the same way: a *wave* is
//! one direction of the index (SPO, OPS, or the subject→predicates wave
//! SP). Per group (predicate) it holds a packed, strictly increasing key
//! sequence, a packed value sequence with each key's run, and a bitmap
//! with one bit per value marking the last value of each run.
//!
//! [`WaveBuilder`] encodes a wave from sorted groups. The reader side is
//! two views over the file bytes, [`PackedView`] and [`BitsView`]: a
//! group's keys, run bitmap and values already are the keys, offsets and
//! values of a CSR adjacency, so `binfmt` decodes them into one with a
//! linear scan and no sort.

use bytes::{BufMut, BytesMut};

/// Bits needed to store values in `0..=max` (at least 1).
pub(crate) fn bits_for(max: u64) -> u32 {
    (64 - max.leading_zeros()).max(1)
}

/// Packs `values` at `width` bits each into `u64` words, lowest bits
/// first. Debug builds check that every value fits the width.
fn pack(width: u32, values: &[u32]) -> Vec<u64> {
    assert!((1..=32).contains(&width), "width {width} out of range");
    let mut words = vec![0u64; (values.len() * width as usize).div_ceil(64)];
    for (i, &v) in values.iter().enumerate() {
        debug_assert!(u64::from(v) < (1u64 << width), "value overflows width");
        let bit = i * width as usize;
        let (w, off) = (bit / 64, (bit % 64) as u32);
        words[w] |= u64::from(v) << off;
        if off + width > 64 {
            words[w + 1] |= u64::from(v) >> (64 - off);
        }
    }
    words
}

/// Appends the words as little-endian bytes (the `RKB2` wire form).
fn put_words(out: &mut BytesMut, words: &[u64]) {
    for &w in words {
        out.put_u64_le(w);
    }
}

/// Appends a packed sequence: width byte, value count, word count, words.
pub(crate) fn write_packed(out: &mut BytesMut, width: u32, values: &[u32]) {
    let words = pack(width, values);
    out.put_u8(width as u8);
    crate::varint::write_u64(out, values.len() as u64);
    crate::varint::write_u64(out, words.len() as u64);
    put_words(out, &words);
}

/// Appends a bitmap: bit count, word count, words.
pub(crate) fn write_bits(out: &mut BytesMut, len_bits: usize, words: &[u64]) {
    crate::varint::write_u64(out, len_bits as u64);
    crate::varint::write_u64(out, words.len() as u64);
    put_words(out, words);
}

/// The `i`-th little-endian word of `bytes` (which holds whole words).
#[inline]
fn word_at(bytes: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
    u64::from_le_bytes(w)
}

/// A read-only view of a packed sequence inside the file bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedView<'a> {
    /// Whole little-endian words.
    words: &'a [u8],
    width: u32,
    len: usize,
}

impl<'a> PackedView<'a> {
    /// Wraps `len` values of `width` bits. The caller has checked that
    /// `words` holds whole words, enough for `len * width` bits, and that
    /// `width` is in `1..=32`.
    pub(crate) fn new(words: &'a [u8], width: u32, len: usize) -> PackedView<'a> {
        debug_assert!(words.len().is_multiple_of(8) && (1..=32).contains(&width));
        debug_assert!(words.len() * 8 >= len * width as usize);
        PackedView { words, width, len }
    }

    /// Number of values.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends the `len` values starting at `start` to `out`. Values
    /// wholly inside the current word are unpacked in a tight shift/mask
    /// loop (one word fetch per batch of `~64 / width`); only straddling
    /// values pay a second fetch.
    pub(crate) fn decode_run(&self, start: usize, len: usize, out: &mut Vec<u32>) {
        debug_assert!(start + len <= self.len, "decode range out of bounds");
        let width = self.width as usize;
        let mask = (1u64 << self.width) - 1;
        let mut bit = start * width;
        let mut remaining = len;
        while remaining > 0 {
            let (wi, off) = (bit / 64, bit % 64);
            let word = word_at(self.words, wi);
            if off + width <= 64 {
                // All of `fit` >= 1 values live wholly in this word.
                let fit = ((64 - off) / width).min(remaining);
                let mut cur = word >> off;
                for _ in 0..fit {
                    out.push((cur & mask) as u32);
                    cur >>= width;
                }
                bit += fit * width;
                remaining -= fit;
            } else {
                let v = (word >> off) | (word_at(self.words, wi + 1) << (64 - off));
                out.push((v & mask) as u32);
                bit += width;
                remaining -= 1;
            }
        }
    }
}

/// A read-only view of a bitmap inside the file bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BitsView<'a> {
    /// Whole little-endian words (at least `len_bits` bits).
    words: &'a [u8],
    len_bits: usize,
}

impl<'a> BitsView<'a> {
    /// Wraps `len_bits` bits. The caller has checked that `words` holds
    /// whole words, enough for `len_bits` bits.
    pub(crate) fn new(words: &'a [u8], len_bits: usize) -> BitsView<'a> {
        debug_assert!(words.len().is_multiple_of(8) && words.len() * 8 >= len_bits);
        BitsView { words, len_bits }
    }

    /// Number of bits.
    pub(crate) fn len(&self) -> usize {
        self.len_bits
    }

    /// Set bits across every stored word, including any past
    /// [`BitsView::len`].
    pub(crate) fn count_ones(&self) -> usize {
        (0..self.words.len() / 8)
            .map(|i| word_at(self.words, i).count_ones() as usize)
            .sum()
    }

    /// The positions of the set bits in ascending order, one word fetch
    /// per 64 bits.
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + 'a {
        let words = self.words;
        (0..words.len() / 8).flat_map(move |wi| {
            let mut word = word_at(words, wi);
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let pos = wi * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    pos
                })
            })
        })
    }
}

/// Incremental wave encoder: call [`WaveBuilder::begin_group`] per group,
/// then [`WaveBuilder::push_run`] for each key in ascending order, then
/// [`WaveBuilder::write`].
#[derive(Debug)]
pub(crate) struct WaveBuilder {
    key_width: u32,
    val_width: u32,
    key_bounds: Vec<u32>,
    val_bounds: Vec<u32>,
    keys: Vec<u32>,
    /// One bit per value, set on the last value of each run.
    last: Vec<u64>,
    vals: Vec<u32>,
}

impl WaveBuilder {
    /// Creates a builder for keys/values of the given bit widths.
    pub(crate) fn new(key_width: u32, val_width: u32) -> WaveBuilder {
        WaveBuilder {
            key_width,
            val_width,
            key_bounds: vec![0],
            val_bounds: vec![0],
            keys: Vec::new(),
            last: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Starts the next group.
    pub(crate) fn begin_group(&mut self) {
        self.key_bounds.push(self.keys.len() as u32);
        self.val_bounds.push(self.vals.len() as u32);
    }

    /// Appends one key and its non-empty, ascending value run.
    pub(crate) fn push_run(&mut self, key: u32, run: impl IntoIterator<Item = u32>) {
        self.keys.push(key);
        let before = self.vals.len();
        self.vals.extend(run);
        assert!(self.vals.len() > before, "empty adjacency run for {key}");
        self.last.resize(self.vals.len().div_ceil(64), 0);
        let end = self.vals.len() - 1;
        self.last[end / 64] |= 1u64 << (end % 64);
        *self.key_bounds.last_mut().expect("bounds are never empty") = self.keys.len() as u32;
        *self.val_bounds.last_mut().expect("bounds are never empty") = self.vals.len() as u32;
    }

    /// Appends the wave in its wire form: group count, key bounds, value
    /// bounds, packed keys, run bitmap, packed values.
    pub(crate) fn write(&self, out: &mut BytesMut) {
        crate::varint::write_u64(out, (self.key_bounds.len() - 1) as u64);
        for &b in self.key_bounds.iter().chain(&self.val_bounds) {
            crate::varint::write_u32(out, b);
        }
        write_packed(out, self.key_width, &self.keys);
        write_bits(out, self.vals.len(), &self.last);
        write_packed(out, self.val_width, &self.vals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Little-endian bytes of `words`, as the file stores them.
    fn le_bytes(words: &[u64]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_words(&mut buf, words);
        buf.to_vec()
    }

    #[test]
    fn bits_for_covers_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u32::MAX as u64), 32);
    }

    /// Packing then decoding returns the values at every width, from
    /// every start alignment (straddling values differ by alignment).
    #[test]
    fn packed_seq_roundtrip_all_widths() {
        for width in 1..=32u32 {
            let max = if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            let values: Vec<u32> = (0..300u32)
                .map(|i| (i.wrapping_mul(2_654_435_761)) % max.saturating_add(1).max(1))
                .chain([0, max])
                .collect();
            let bytes = le_bytes(&pack(width, &values));
            let len = values.len();
            let view = PackedView::new(&bytes, width, len);
            assert_eq!(view.len(), values.len());
            let mut all = Vec::new();
            view.decode_run(0, len, &mut all);
            assert_eq!(all, values, "width {width}");
            for start in [1usize, 7, 63, 64, 65, 130] {
                let n = (values.len() - start).min(71);
                let mut run = Vec::new();
                view.decode_run(start, n, &mut run);
                assert_eq!(
                    run,
                    &values[start..start + n],
                    "width {width} start {start}"
                );
            }
        }
    }

    /// The reader decodes straight from the little-endian words the writer
    /// emits, borrowing the wire bytes rather than copying the words.
    #[test]
    fn packed_seq_zero_copy_view_matches_owned() {
        let values: Vec<u32> = (0..500).map(|i| i * 37 % 1024).collect();
        let mut wire = BytesMut::new();
        write_packed(&mut wire, 10, &values);
        let mut cur: &[u8] = &wire[1..];
        assert_eq!(wire[0], 10, "width byte");
        let len = crate::varint::read_u64(&mut cur).unwrap() as usize;
        let n_words = crate::varint::read_u64(&mut cur).unwrap() as usize;
        assert_eq!((len, cur.len()), (values.len(), n_words * 8));
        let view = PackedView::new(cur, 10, len);
        let mut out = Vec::new();
        view.decode_run(0, len, &mut out);
        assert_eq!(out, values);
    }

    /// A group of two keys, then a group of one: the bounds, the run
    /// bitmap and the values line up as CSR keys, offsets and values.
    #[test]
    fn wave_index_runs_and_lookups() {
        let mut w = WaveBuilder::new(4, 5);
        w.begin_group();
        w.push_run(2, [1, 4]);
        w.push_run(7, [0]);
        w.begin_group();
        w.push_run(2, [9]);
        assert_eq!(w.key_bounds, [0, 2, 3]);
        assert_eq!(w.val_bounds, [0, 3, 4]);
        assert_eq!(w.keys, [2, 7, 2]);
        assert_eq!(w.vals, [1, 4, 0, 9]);
        let last = le_bytes(&w.last);
        let bits = BitsView::new(&last, w.vals.len());
        // Runs end at values 1, 2 and 3: offsets 2, 3 | 1 per group.
        assert_eq!(bits.ones().collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(bits.count_ones(), 3);
        assert_eq!(bits.len(), 4);
    }

    #[test]
    fn empty_groups_are_fine() {
        let mut w = WaveBuilder::new(3, 3);
        w.begin_group(); // empty predicate
        w.begin_group();
        w.push_run(1, [2, 3]);
        w.begin_group(); // empty again
        assert_eq!(w.key_bounds, [0, 0, 1, 1]);
        assert_eq!(w.val_bounds, [0, 0, 2, 2]);
        let mut out = BytesMut::new();
        w.write(&mut out);
        assert_eq!(out[0], 3, "group count");
    }

    #[test]
    #[should_panic(expected = "empty adjacency run")]
    fn empty_runs_are_rejected() {
        let mut w = WaveBuilder::new(3, 3);
        w.begin_group();
        w.push_run(1, []);
    }
}
