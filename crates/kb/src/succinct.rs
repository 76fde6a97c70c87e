//! Succinct storage primitives: rank/select bitvectors, fixed-width packed
//! integer sequences, and the HDT-style [`BitmapTriples`] layout built from
//! them.
//!
//! The paper keeps its KBs in HDT — dictionary-compressed *bitmap triples*
//! whose adjacency lists are delimited by rank/select bitmaps instead of
//! offset arrays (§3.5.1). This module is the same construction in the
//! style of the Rust HDT engines: a triple wave is a packed key sequence,
//! a packed value sequence, and a bitmap with one bit per value marking the
//! last value of each key's run. Lookups are a binary search over the packed
//! keys plus two `select1` calls; nothing is ever decompressed wholesale.
//!
//! All word storage goes through [`WordSeq`], which is either owned or a
//! zero-copy view into a shared [`Bytes`] buffer — the `RKB2` loader maps
//! file sections straight into these structures without copying the
//! payload.

use bytes::Bytes;

use crate::ids::{NodeId, PredId};

/// Bits needed to store values in `0..=max` (at least 1).
pub fn bits_for(max: u64) -> u32 {
    (64 - max.leading_zeros()).max(1)
}

/// Broadword (SWAR) select of the `k`-th set bit (0-based) within one
/// word — Vigna's byte-counting construction, safe-Rust only: byte-wise
/// popcount prefix sums via a `0x0101…` multiply, a borrow-free parallel
/// byte comparison to find the byte holding the target bit, then an
/// ≤7-step clear loop inside that byte. Replaces the per-bit clear loop
/// that made `select1` O(ones-in-word).
///
/// `k` must be less than `word.count_ones()`.
#[inline]
fn select_in_word(word: u64, k: u64) -> u32 {
    debug_assert!(k < u64::from(word.count_ones()));
    const ONES: u64 = 0x0101_0101_0101_0101;
    const MSBS: u64 = 0x8080_8080_8080_8080;
    // Byte-wise popcounts, then inclusive per-byte prefix sums.
    let mut s = word - ((word >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    let sums = s.wrapping_mul(ONES);
    // One flag bit per byte whose prefix sum is <= k. Every operand byte
    // is < 128 (sums <= 64, k <= 63), so `(k | 0x80) - sum` keeps its
    // byte's MSB exactly when sum <= k and borrows never cross bytes.
    let flags = ((k.wrapping_mul(ONES) | MSBS) - sums) & MSBS;
    // The target byte's index is the number of flagged bytes; its bit
    // offset is that times 8. k < count_ones keeps place <= 56.
    let place = (flags >> 7).wrapping_mul(ONES) >> 56 << 3;
    // Ones of the target byte already accounted for by earlier bytes
    // (`sums << 8` aligns the *exclusive* prefix sum under `place`).
    let rank_in_byte = k - (((sums << 8) >> place) & 0xff);
    let mut byte = (word >> place) & 0xff;
    for _ in 0..rank_in_byte {
        byte &= byte - 1; // clear lowest set bit; at most 7 iterations
    }
    place as u32 + byte.trailing_zeros()
}

/// A `u64` word array: owned, or a zero-copy little-endian view into a
/// shared byte buffer.
#[derive(Debug, Clone)]
pub enum WordSeq {
    /// Heap-owned words.
    Owned(Vec<u64>),
    /// Little-endian words backed by a shared [`Bytes`] buffer (length must
    /// be a multiple of 8).
    Shared(Bytes),
}

impl WordSeq {
    /// The `i`-th word.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        match self {
            WordSeq::Owned(v) => v[i],
            WordSeq::Shared(b) => {
                let lo = i * 8;
                u64::from_le_bytes(b[lo..lo + 8].try_into().expect("8-byte word"))
            }
        }
    }

    /// Number of words.
    pub fn len_words(&self) -> usize {
        match self {
            WordSeq::Owned(v) => v.len(),
            WordSeq::Shared(b) => b.len() / 8,
        }
    }

    /// Resident bytes of the word payload.
    pub fn size_in_bytes(&self) -> usize {
        self.len_words() * 8
    }

    /// Appends the words as little-endian bytes (the `RKB2` wire form).
    pub fn write_le(&self, out: &mut bytes::BytesMut) {
        use bytes::BufMut;
        for i in 0..self.len_words() {
            out.put_u64_le(self.word(i));
        }
    }
}

/// An immutable sequence of fixed-width unsigned integers packed into
/// 64-bit words.
#[derive(Debug, Clone)]
pub struct PackedSeq {
    words: WordSeq,
    width: u32,
    len: usize,
}

impl PackedSeq {
    /// Packs `values` at `width` bits each. Panics if a value overflows the
    /// width.
    pub fn from_values(width: u32, values: impl IntoIterator<Item = u32>) -> PackedSeq {
        assert!((1..=32).contains(&width), "width {width} out of range");
        let mut words: Vec<u64> = Vec::new();
        let mut len = 0usize;
        for v in values {
            debug_assert!(u64::from(v) < (1u64 << width), "value overflows width");
            let bit = len * width as usize;
            let (w, off) = (bit / 64, (bit % 64) as u32);
            if w == words.len() {
                words.push(0);
            }
            words[w] |= u64::from(v) << off;
            if off + width > 64 {
                words.push(u64::from(v) >> (64 - off));
            }
            len += 1;
        }
        PackedSeq {
            words: WordSeq::Owned(words),
            width,
            len,
        }
    }

    /// Wraps pre-packed words (e.g. a zero-copy file section).
    pub fn from_words(words: WordSeq, width: u32, len: usize) -> PackedSeq {
        assert!((1..=32).contains(&width), "width {width} out of range");
        assert!(
            words.len_words() * 64 >= len * width as usize,
            "word payload too short for {len} x {width}-bit values"
        );
        PackedSeq { words, width, len }
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the sequence holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit width per value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The backing words.
    pub fn words(&self) -> &WordSeq {
        &self.words
    }

    /// The `i`-th value. O(1); at most two word reads.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        let bit = i * self.width as usize;
        let (w, off) = (bit / 64, (bit % 64) as u32);
        let mut v = self.words.word(w) >> off;
        if off + self.width > 64 {
            v |= self.words.word(w + 1) << (64 - off);
        }
        // width <= 32, so the mask never overflows a u64 shift.
        (v & ((1u64 << self.width) - 1)) as u32
    }

    /// A streaming decoder over the `len` values starting at `start`.
    /// Amortises the per-value word indexing of [`PackedSeq::get`] down
    /// to roughly one word fetch per `64 / width` values — the iterator
    /// form of [`PackedSeq::decode_run`].
    pub fn cursor(&self, start: usize, len: usize) -> PackedCursor<'_> {
        debug_assert!(start + len <= self.len, "cursor range out of bounds");
        let bit = start * self.width as usize;
        let word_i = bit / 64;
        let word = if len > 0 { self.words.word(word_i) } else { 0 };
        PackedCursor {
            seq: self,
            bit,
            word_i,
            word,
            remaining: len,
        }
    }

    /// Appends the `len` values starting at `start` to `out` — the bulk
    /// extraction path for directly-indexed bindings. Values wholly inside
    /// the current word are unpacked in a tight shift/mask loop (one word
    /// fetch per batch of `~64 / width`); only straddling values pay a
    /// second fetch.
    pub fn decode_run(&self, start: usize, len: usize, out: &mut Vec<u32>) {
        debug_assert!(start + len <= self.len, "decode range out of bounds");
        out.reserve(len);
        let width = self.width as usize;
        let mask = (1u64 << self.width) - 1;
        let mut bit = start * width;
        let mut remaining = len;
        while remaining > 0 {
            let (wi, off) = (bit / 64, bit % 64);
            let word = self.words.word(wi);
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
                let v = (word >> off) | (self.words.word(wi + 1) << (64 - off));
                out.push((v & mask) as u32);
                bit += width;
                remaining -= 1;
            }
        }
    }

    /// True when every value is below `bound`: one pass, skipped outright
    /// when the width cannot encode a value that large. Zero-copy payloads
    /// (the file loader's case) take one unaligned 8-byte load per value —
    /// a value spans at most 32 + 7 bits of its window.
    pub(crate) fn all_below(&self, bound: u64) -> bool {
        if bound >= 1u64 << self.width {
            return true;
        }
        let below = |i: usize| u64::from(self.get(i)) < bound;
        let WordSeq::Shared(bytes) = &self.words else {
            return (0..self.len).all(below);
        };
        let (width, mask) = (self.width as usize, (1u64 << self.width) - 1);
        (0..self.len).all(|i| {
            let bit = i * width;
            match bytes.get(bit / 8..bit / 8 + 8) {
                Some(w) => {
                    let window = u64::from_le_bytes(w.try_into().expect("8-byte window"));
                    (window >> (bit % 8)) & mask < bound
                }
                None => below(i),
            }
        })
    }

    /// Binary search for `value` in the sorted range `lo..hi`.
    pub fn binary_search_range(&self, lo: usize, hi: usize, value: u32) -> Result<usize, usize> {
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid).cmp(&value) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Resident bytes (words + header).
    pub fn size_in_bytes(&self) -> usize {
        self.words.size_in_bytes() + std::mem::size_of::<Self>()
    }
}

/// A streaming decoder over a contiguous [`PackedSeq`] range; see
/// [`PackedSeq::cursor`]. Holds the current word so consecutive values
/// usually decode with a shift and a mask, no re-indexing.
#[derive(Debug, Clone)]
pub struct PackedCursor<'a> {
    seq: &'a PackedSeq,
    /// Absolute bit position of the next value.
    bit: usize,
    /// Index of the cached `word` (always `bit / 64` while values remain).
    word_i: usize,
    word: u64,
    remaining: usize,
}

impl Iterator for PackedCursor<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let width = self.seq.width;
        let off = (self.bit % 64) as u32;
        let mut v = self.word >> off;
        self.bit += width as usize;
        let wi = self.bit / 64;
        if wi != self.word_i {
            self.word_i = wi;
            self.word = if wi < self.seq.words.len_words() {
                self.seq.words.word(wi)
            } else {
                0
            };
            if off + width > 64 {
                // The value straddled into the freshly fetched word.
                v |= self.word << (64 - off);
            }
        }
        Some((v & ((1u64 << width) - 1)) as u32)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PackedCursor<'_> {}

/// How many words one rank superblock covers (512 bits, rank9-style).
const SUPERBLOCK_WORDS: usize = 8;

/// Sampling rate of the select directory: the superblock of every
/// `SELECT_SAMPLE`-th set bit is recorded, so a `select1` never binary
/// searches more than the superblocks spanned by 64 ones.
const SELECT_SAMPLE: usize = 64;

/// A plain append-only bitvector builder for [`RsBitVec`].
#[derive(Debug, Default, Clone)]
pub struct BitVecBuilder {
    words: Vec<u64>,
    len: usize,
}

impl BitVecBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let (w, off) = (self.len / 64, self.len % 64);
        if w == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1u64 << off;
        }
        self.len += 1;
    }

    /// Number of bits pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits were pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Freezes into a rank/select bitvector.
    pub fn finish(self) -> RsBitVec {
        RsBitVec::from_words(WordSeq::Owned(self.words), self.len)
    }
}

/// A bitvector with O(1) rank and O(1) select, in the broadword
/// rank9 style: one cumulative counter per 512-bit superblock plus
/// popcounts inside the block, and a sampled select directory that pins
/// every 64th set bit to its superblock so a `select1` probe touches a
/// constant number of counters on the dense delimiter bitmaps the wave
/// indexes use.
///
/// The word payload may be a zero-copy [`WordSeq::Shared`] view; the small
/// rank and select directories are always rebuilt in memory (O(n/64) on
/// load).
#[derive(Debug, Clone)]
pub struct RsBitVec {
    words: WordSeq,
    len_bits: usize,
    /// Ones before each superblock (`len = ceil(words / 8) + 1`; the last
    /// entry is the total count).
    blocks: Vec<u64>,
    /// Superblock index containing the `(i * SELECT_SAMPLE)`-th set bit —
    /// the select directory. Empty iff the vector holds no set bits.
    select_samples: Vec<u32>,
}

impl RsBitVec {
    /// Builds the rank and select directories over `words` (`len_bits` of
    /// which are valid; trailing bits of the last word must be zero).
    pub fn from_words(words: WordSeq, len_bits: usize) -> RsBitVec {
        let n_words = words.len_words();
        assert!(n_words * 64 >= len_bits, "word payload too short");
        let mut blocks = Vec::with_capacity(n_words / SUPERBLOCK_WORDS + 2);
        let mut select_samples = Vec::new();
        let mut total = 0u64;
        for w in 0..n_words {
            if w % SUPERBLOCK_WORDS == 0 {
                blocks.push(total);
            }
            let ones = u64::from(words.word(w).count_ones());
            // Record the superblock of every SELECT_SAMPLE-th one crossed
            // by this word (a single word can cross at most two samples).
            let mut next = select_samples.len() as u64 * SELECT_SAMPLE as u64;
            while next < total + ones {
                select_samples.push((w / SUPERBLOCK_WORDS) as u32);
                next += SELECT_SAMPLE as u64;
            }
            total += ones;
        }
        blocks.push(total);
        RsBitVec {
            words,
            len_bits,
            blocks,
            select_samples,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len_bits
    }

    /// True when the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        *self.blocks.last().expect("blocks never empty") as usize
    }

    /// The backing words.
    pub fn words(&self) -> &WordSeq {
        &self.words
    }

    /// The `i`-th bit.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len_bits);
        self.words.word(i / 64) >> (i % 64) & 1 == 1
    }

    /// Number of set bits in `[0, i)`.
    pub fn rank1(&self, i: usize) -> usize {
        debug_assert!(i <= self.len_bits);
        let word = i / 64;
        let sb = word / SUPERBLOCK_WORDS;
        let mut count = self.blocks[sb];
        for w in (sb * SUPERBLOCK_WORDS)..word {
            count += u64::from(self.words.word(w).count_ones());
        }
        let rem = i % 64;
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            count += u64::from((self.words.word(word) & mask).count_ones());
        }
        count as usize
    }

    /// Position of the first set bit at or after `from`. Panics if no set
    /// bit remains — callers iterate runs whose final bit is always set.
    /// Amortised O(1) over a sequential sweep (word-at-a-time scan).
    pub fn next_one(&self, from: usize) -> usize {
        debug_assert!(from < self.len_bits);
        let mut w = from / 64;
        let mut word = self.words.word(w) & (u64::MAX << (from % 64));
        while word == 0 {
            w += 1;
            word = self.words.word(w);
        }
        w * 64 + word.trailing_zeros() as usize
    }

    /// Position of the `k`-th set bit (0-based). Panics if fewer than
    /// `k + 1` bits are set. O(1): the select directory narrows the
    /// superblock search to the span of one 64-one sample window.
    pub fn select1(&self, k: usize) -> usize {
        assert!(
            (k as u64) < *self.blocks.last().expect("blocks never empty"),
            "select1 out of range"
        );
        // The sample window bounding the k-th one's superblock: it lies at
        // or after the (k / SAMPLE)-th sample and strictly before the next
        // sample's successor.
        let lo = self.select_samples[k / SELECT_SAMPLE] as usize;
        let hi = self
            .select_samples
            .get(k / SELECT_SAMPLE + 1)
            .map(|&s| s as usize + 1)
            .unwrap_or(self.blocks.len() - 1);
        let k = k as u64;
        // Last superblock in [lo, hi] whose prefix count is <= k; the
        // window spans the superblocks of at most 64 ones.
        let window = &self.blocks[lo..=hi];
        let sb = lo + window.partition_point(|&c| c <= k) - 1;
        let mut count = self.blocks[sb];
        let mut w = sb * SUPERBLOCK_WORDS;
        loop {
            let ones = u64::from(self.words.word(w).count_ones());
            if count + ones > k {
                break;
            }
            count += ones;
            w += 1;
        }
        w * 64 + select_in_word(self.words.word(w), k - count) as usize
    }

    /// A streaming cursor over the set bits at or after `from`, in order.
    /// Sequential sweeps fetch each word once across the whole scan,
    /// where repeated [`RsBitVec::next_one`] calls re-fetch and re-mask
    /// their starting word every time.
    pub fn one_scanner(&self, from: usize) -> OneScanner<'_> {
        let word_i = from / 64;
        let word = if word_i < self.words.len_words() {
            self.words.word(word_i) & (u64::MAX << (from % 64))
        } else {
            0
        };
        OneScanner {
            bv: self,
            word_i,
            word,
        }
    }

    /// Resident bytes (words + rank and select directories).
    pub fn size_in_bytes(&self) -> usize {
        self.words.size_in_bytes()
            + self.blocks.len() * 8
            + self.select_samples.len() * 4
            + std::mem::size_of::<Self>()
    }
}

/// A streaming cursor over the set bits of an [`RsBitVec`]; see
/// [`RsBitVec::one_scanner`].
#[derive(Debug, Clone)]
pub struct OneScanner<'a> {
    bv: &'a RsBitVec,
    word_i: usize,
    /// The current word with already-consumed bits cleared.
    word: u64,
}

impl OneScanner<'_> {
    /// Position of the next set bit, consuming it. Panics if no set bit
    /// remains — callers iterate runs whose final bit is always set.
    #[inline]
    pub fn next_one(&mut self) -> usize {
        while self.word == 0 {
            self.word_i += 1;
            self.word = self.bv.words.word(self.word_i);
        }
        let pos = self.word_i * 64 + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        pos
    }
}

/// One direction of a bitmap-triples index: adjacency lists for every
/// group (predicate), each list keyed by a packed, sorted key sequence and
/// delimited in the packed value stream by a "last value of this key"
/// bitmap — the HDT wave layout.
#[derive(Debug, Clone)]
pub struct WaveIndex {
    /// Key-range bounds per group (`num_groups + 1` entries).
    key_bounds: Vec<u32>,
    /// Value-range bounds per group (`num_groups + 1` entries).
    val_bounds: Vec<u32>,
    /// All keys, grouped by group id, sorted within a group.
    keys: PackedSeq,
    /// One bit per value; set on the last value of each key's run.
    last: RsBitVec,
    /// All values, grouped by key, sorted within a key's run.
    vals: PackedSeq,
}

impl WaveIndex {
    /// Assembles a wave from its parts (the `RKB2` loader and
    /// [`WaveBuilder`] both end here).
    pub fn from_parts(
        key_bounds: Vec<u32>,
        val_bounds: Vec<u32>,
        keys: PackedSeq,
        last: RsBitVec,
        vals: PackedSeq,
    ) -> WaveIndex {
        assert_eq!(key_bounds.len(), val_bounds.len(), "bound tables disagree");
        assert!(!key_bounds.is_empty(), "bound tables must not be empty");
        assert_eq!(
            *key_bounds.last().expect("non-empty") as usize,
            keys.len(),
            "key bounds do not cover the key sequence"
        );
        assert_eq!(
            *val_bounds.last().expect("non-empty") as usize,
            vals.len(),
            "value bounds do not cover the value sequence"
        );
        assert_eq!(last.len(), vals.len(), "bitmap length != value count");
        assert_eq!(
            last.count_ones(),
            keys.len(),
            "bitmap must hold one run per key"
        );
        WaveIndex {
            key_bounds,
            val_bounds,
            keys,
            last,
            vals,
        }
    }

    /// Number of groups (predicates).
    pub fn num_groups(&self) -> usize {
        self.key_bounds.len() - 1
    }

    /// Number of distinct keys in group `g`.
    #[inline]
    pub fn num_keys(&self, g: usize) -> usize {
        (self.key_bounds[g + 1] - self.key_bounds[g]) as usize
    }

    /// Number of values in group `g`.
    #[inline]
    pub fn num_vals(&self, g: usize) -> usize {
        (self.val_bounds[g + 1] - self.val_bounds[g]) as usize
    }

    /// The `i`-th key of group `g`.
    #[inline]
    pub fn key_at(&self, g: usize, i: usize) -> u32 {
        self.keys.get(self.key_bounds[g] as usize + i)
    }

    /// The packed value stream (for [`Bindings`](crate::backend::Bindings)
    /// construction).
    pub fn vals(&self) -> &PackedSeq {
        &self.vals
    }

    /// Locates `key` within group `g`, returning its local index.
    #[inline]
    pub fn find(&self, g: usize, key: u32) -> Option<usize> {
        let lo = self.key_bounds[g] as usize;
        let hi = self.key_bounds[g + 1] as usize;
        self.keys
            .binary_search_range(lo, hi, key)
            .ok()
            .map(|abs| abs - lo)
    }

    /// The global value range `(start, len)` of the `i`-th key of group
    /// `g`: one `select1` probe for the run's start, then a short forward
    /// word scan (run length / 64 words, usually zero extra fetches) for
    /// its end — cheaper than a second full select walk.
    #[inline]
    pub fn run_at(&self, g: usize, i: usize) -> (usize, usize) {
        let k = self.key_bounds[g] as usize + i;
        if k == 0 {
            (0, self.last.select1(0) + 1)
        } else {
            let prev = self.last.select1(k - 1);
            let end = self.last.next_one(prev + 1) + 1;
            (prev + 1, end - prev - 1)
        }
    }

    /// The run length of the `i`-th key of group `g`.
    #[inline]
    pub fn run_len_at(&self, g: usize, i: usize) -> usize {
        self.run_at(g, i).1
    }

    /// Start of group `g`'s value range (the first key's run begins here).
    #[inline]
    pub fn val_start(&self, g: usize) -> usize {
        self.val_bounds[g] as usize
    }

    /// The run beginning at value position `start`, found by scanning the
    /// delimiter bitmap forward — amortised O(1) per run when sweeping a
    /// group sequentially, vs two `select1` probes for random access.
    #[inline]
    pub fn run_from(&self, start: usize) -> (usize, usize) {
        let end = self.last.next_one(start) + 1;
        (start, end - start)
    }

    /// A streaming scanner yielding consecutive runs from value position
    /// `start` — the group-sweep fast path: the delimiter bitmap is
    /// walked word-at-a-time with each word fetched once, where repeated
    /// [`WaveIndex::run_from`] calls re-fetch their starting word per run.
    pub fn run_scanner(&self, start: usize) -> RunScanner<'_> {
        RunScanner {
            ones: self.last.one_scanner(start),
            next_start: start,
        }
    }

    /// Per-component sizes `(keys, bitmap, values, bounds)` in bytes.
    pub fn component_sizes(&self) -> (usize, usize, usize, usize) {
        (
            self.keys.size_in_bytes(),
            self.last.size_in_bytes(),
            self.vals.size_in_bytes(),
            (self.key_bounds.len() + self.val_bounds.len()) * 4,
        )
    }

    /// Total resident bytes.
    pub fn size_in_bytes(&self) -> usize {
        let (k, b, v, bounds) = self.component_sizes();
        k + b + v + bounds
    }

    /// The serialisable parts: `(key_bounds, val_bounds, keys, last, vals)`.
    pub fn parts(&self) -> (&[u32], &[u32], &PackedSeq, &RsBitVec, &PackedSeq) {
        (
            &self.key_bounds,
            &self.val_bounds,
            &self.keys,
            &self.last,
            &self.vals,
        )
    }
}

/// A streaming run scanner over a [`WaveIndex`] group; see
/// [`WaveIndex::run_scanner`].
#[derive(Debug, Clone)]
pub struct RunScanner<'a> {
    ones: OneScanner<'a>,
    next_start: usize,
}

impl RunScanner<'_> {
    /// The next run `(start, len)`, consuming it. Panics past the final
    /// run of the value stream.
    #[inline]
    pub fn next_run(&mut self) -> (usize, usize) {
        let end = self.ones.next_one() + 1;
        let run = (self.next_start, end - self.next_start);
        self.next_start = end;
        run
    }
}

/// Incremental [`WaveIndex`] builder: call [`WaveBuilder::begin_group`] per
/// group, then [`WaveBuilder::push_run`] for each key in ascending order.
#[derive(Debug)]
pub struct WaveBuilder {
    key_width: u32,
    val_width: u32,
    key_bounds: Vec<u32>,
    val_bounds: Vec<u32>,
    keys: Vec<u32>,
    last: BitVecBuilder,
    vals: Vec<u32>,
}

impl WaveBuilder {
    /// Creates a builder for keys/values of the given bit widths.
    pub fn new(key_width: u32, val_width: u32) -> WaveBuilder {
        WaveBuilder {
            key_width,
            val_width,
            key_bounds: vec![0],
            val_bounds: vec![0],
            keys: Vec::new(),
            last: BitVecBuilder::new(),
            vals: Vec::new(),
        }
    }

    /// Starts the next group.
    pub fn begin_group(&mut self) {
        self.key_bounds.push(self.keys.len() as u32);
        self.val_bounds.push(self.vals.len() as u32);
    }

    /// Appends one key and its non-empty, ascending value run.
    pub fn push_run(&mut self, key: u32, run: impl IntoIterator<Item = u32>) {
        self.keys.push(key);
        let before = self.vals.len();
        for v in run {
            self.vals.push(v);
            self.last.push(false);
        }
        assert!(self.vals.len() > before, "empty adjacency run for {key}");
        // Re-mark the final value of the run.
        let fixed = self.last.len() - 1;
        self.last.words[fixed / 64] |= 1u64 << (fixed % 64);
        *self.key_bounds.last_mut().expect("bounds are never empty") = self.keys.len() as u32;
        *self.val_bounds.last_mut().expect("bounds are never empty") = self.vals.len() as u32;
    }

    /// Freezes into an immutable wave.
    pub fn finish(self) -> WaveIndex {
        let WaveBuilder {
            key_width,
            val_width,
            key_bounds,
            val_bounds,
            keys,
            last,
            vals,
        } = self;
        WaveIndex::from_parts(
            key_bounds,
            val_bounds,
            PackedSeq::from_values(key_width, keys),
            last.finish(),
            PackedSeq::from_values(val_width, vals),
        )
    }
}

/// The succinct triple store: an SPO wave (per predicate: subjects →
/// object runs), an OPS wave (per predicate: objects → subject runs), and
/// a subject→predicates wave, all rank/select-delimited packed sequences.
#[derive(Debug, Clone)]
pub struct BitmapTriples {
    /// Per predicate: subject keys, object runs.
    pub(crate) spo: WaveIndex,
    /// Per predicate: object keys, subject runs.
    pub(crate) ops: WaveIndex,
    /// Single-group wave: subject keys, predicate runs.
    pub(crate) sp: WaveIndex,
}

impl BitmapTriples {
    /// Assembles the store from its three waves.
    pub fn from_waves(spo: WaveIndex, ops: WaveIndex, sp: WaveIndex) -> BitmapTriples {
        assert_eq!(
            spo.num_groups(),
            ops.num_groups(),
            "SPO and OPS predicate counts disagree"
        );
        assert_eq!(sp.num_groups(), 1, "subject-preds wave is single-group");
        BitmapTriples { spo, ops, sp }
    }

    /// The SPO wave.
    pub fn spo(&self) -> &WaveIndex {
        &self.spo
    }

    /// The OPS wave.
    pub fn ops(&self) -> &WaveIndex {
        &self.ops
    }

    /// The subject→predicates wave.
    pub fn sp(&self) -> &WaveIndex {
        &self.sp
    }

    /// Number of predicates.
    pub fn num_preds(&self) -> usize {
        self.spo.num_groups()
    }

    /// Total facts across predicates.
    pub fn num_facts_total(&self) -> usize {
        self.spo.vals().len()
    }

    /// Fact count of one predicate.
    #[inline]
    pub fn num_facts(&self, p: PredId) -> usize {
        self.spo.num_vals(p.idx())
    }

    /// Distinct subjects of one predicate.
    #[inline]
    pub fn num_subjects(&self, p: PredId) -> usize {
        self.spo.num_keys(p.idx())
    }

    /// Distinct objects of one predicate.
    #[inline]
    pub fn num_objects(&self, p: PredId) -> usize {
        self.ops.num_keys(p.idx())
    }

    /// The value run for `objects(p, s)` as `(start, len)` into
    /// [`WaveIndex::vals`] of the SPO wave.
    #[inline]
    pub fn objects_run(&self, p: PredId, s: NodeId) -> Option<(usize, usize)> {
        let i = self.spo.find(p.idx(), s.0)?;
        Some(self.spo.run_at(p.idx(), i))
    }

    /// The value run for `subjects(p, o)` in the OPS wave.
    #[inline]
    pub fn subjects_run(&self, p: PredId, o: NodeId) -> Option<(usize, usize)> {
        let i = self.ops.find(p.idx(), o.0)?;
        Some(self.ops.run_at(p.idx(), i))
    }

    /// The value run for `preds_of_subject(s)` in the SP wave.
    #[inline]
    pub fn preds_run(&self, s: NodeId) -> Option<(usize, usize)> {
        let i = self.sp.find(0, s.0)?;
        Some(self.sp.run_at(0, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_covers_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u32::MAX as u64), 32);
    }

    #[test]
    fn packed_seq_roundtrip_all_widths() {
        for width in 1..=32u32 {
            let max = if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            let values: Vec<u32> = (0..200u32)
                .map(|i| (i.wrapping_mul(2_654_435_761)) % max.saturating_add(1).max(1))
                .chain([0, max])
                .collect();
            let seq = PackedSeq::from_values(width, values.iter().copied());
            assert_eq!(seq.len(), values.len());
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(seq.get(i), v, "width {width}, index {i}");
            }
        }
    }

    #[test]
    fn packed_seq_binary_search() {
        let seq = PackedSeq::from_values(7, [3u32, 9, 27, 81, 100]);
        assert_eq!(seq.binary_search_range(0, 5, 27), Ok(2));
        assert_eq!(seq.binary_search_range(0, 5, 28), Err(3));
        assert_eq!(seq.binary_search_range(2, 5, 3), Err(2));
        assert_eq!(seq.binary_search_range(0, 0, 3), Err(0));
    }

    #[test]
    fn all_below_matches_a_naive_scan_at_every_width() {
        for width in 1..=32u32 {
            let max = u32::MAX >> (32 - width);
            let values: Vec<u32> = (0..150u32)
                .map(|i| i.wrapping_mul(2_654_435_761) & max)
                .collect();
            let owned = PackedSeq::from_values(width, values.iter().copied());
            let mut buf = bytes::BytesMut::new();
            owned.words().write_le(&mut buf);
            let shared = PackedSeq::from_words(WordSeq::Shared(buf.freeze()), width, values.len());
            let top = u64::from(*values.iter().max().unwrap());
            for bound in [0, 1, top, top + 1, u64::from(max) + 1] {
                let naive = values.iter().all(|&v| u64::from(v) < bound);
                assert_eq!(
                    owned.all_below(bound),
                    naive,
                    "width {width}, bound {bound}"
                );
                assert_eq!(
                    shared.all_below(bound),
                    naive,
                    "width {width}, bound {bound}"
                );
            }
            // Only the last value is out of range: the scan must reach it.
            let mut tail = vec![0u32; 99];
            tail.push(max);
            let seq = PackedSeq::from_values(width, tail);
            assert!(!seq.all_below(u64::from(max)), "width {width}");
        }
    }

    #[test]
    fn packed_seq_zero_copy_view_matches_owned() {
        let values: Vec<u32> = (0..500).map(|i| i * 37 % 1024).collect();
        let owned = PackedSeq::from_values(10, values.iter().copied());
        let mut buf = bytes::BytesMut::new();
        owned.words().write_le(&mut buf);
        let shared = PackedSeq::from_words(WordSeq::Shared(buf.freeze()), 10, values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(shared.get(i), v);
        }
    }

    #[test]
    fn rank_select_agree_with_naive() {
        let mut b = BitVecBuilder::new();
        let pattern: Vec<bool> = (0..1500usize)
            .map(|i| (i * i + i / 3) % 7 < 2 || i % 64 == 63)
            .collect();
        for &bit in &pattern {
            b.push(bit);
        }
        let bv = b.finish();
        assert_eq!(bv.len(), pattern.len());
        let mut ones = 0usize;
        for (i, &bit) in pattern.iter().enumerate() {
            assert_eq!(bv.rank1(i), ones, "rank at {i}");
            assert_eq!(bv.get(i), bit);
            if bit {
                assert_eq!(bv.select1(ones), i, "select of one #{ones}");
                ones += 1;
            }
        }
        assert_eq!(bv.count_ones(), ones);
        assert_eq!(bv.rank1(pattern.len()), ones);
    }

    #[test]
    fn select_directory_handles_sparse_and_dense_extremes() {
        // Sparse: one set bit every 997 positions — samples are far apart
        // and most superblocks are empty.
        let mut b = BitVecBuilder::new();
        let mut expected = Vec::new();
        for i in 0..50_000usize {
            let bit = i % 997 == 0;
            if bit {
                expected.push(i);
            }
            b.push(bit);
        }
        let bv = b.finish();
        for (k, &pos) in expected.iter().enumerate() {
            assert_eq!(bv.select1(k), pos, "sparse select of one #{k}");
        }

        // Dense: all ones — every sample lands SELECT_SAMPLE bits apart.
        let mut b = BitVecBuilder::new();
        for _ in 0..(SELECT_SAMPLE * 5 + 3) {
            b.push(true);
        }
        let bv = b.finish();
        for k in 0..bv.count_ones() {
            assert_eq!(bv.select1(k), k, "dense select of one #{k}");
        }

        // Exactly one sample boundary: SELECT_SAMPLE ones then a long tail
        // of zeros then one more one (the 64th one starts a new sample).
        let mut b = BitVecBuilder::new();
        for _ in 0..SELECT_SAMPLE {
            b.push(true);
        }
        for _ in 0..10_000 {
            b.push(false);
        }
        b.push(true);
        let bv = b.finish();
        assert_eq!(bv.select1(SELECT_SAMPLE - 1), SELECT_SAMPLE - 1);
        assert_eq!(bv.select1(SELECT_SAMPLE), SELECT_SAMPLE + 10_000);
    }

    #[test]
    #[should_panic(expected = "select1 out of range")]
    fn select_past_last_one_panics() {
        let mut b = BitVecBuilder::new();
        b.push(true);
        b.push(false);
        b.finish().select1(1);
    }

    #[test]
    fn rank_select_on_zero_copy_words() {
        let mut b = BitVecBuilder::new();
        for i in 0..700usize {
            b.push(i % 5 == 0);
        }
        let owned = b.finish();
        let mut buf = bytes::BytesMut::new();
        owned.words().write_le(&mut buf);
        let shared = RsBitVec::from_words(WordSeq::Shared(buf.freeze()), owned.len());
        assert_eq!(shared.count_ones(), owned.count_ones());
        for k in 0..shared.count_ones() {
            assert_eq!(shared.select1(k), owned.select1(k));
        }
    }

    #[test]
    fn wave_index_runs_and_lookups() {
        // Two groups: group 0 has keys {2: [1, 4], 7: [0]}, group 1 has
        // {2: [9]}.
        let mut w = WaveBuilder::new(4, 5);
        w.begin_group();
        w.push_run(2, [1, 4]);
        w.push_run(7, [0]);
        w.begin_group();
        w.push_run(2, [9]);
        let wave = w.finish();

        assert_eq!(wave.num_groups(), 2);
        assert_eq!(wave.num_keys(0), 2);
        assert_eq!(wave.num_vals(0), 3);
        assert_eq!(wave.num_keys(1), 1);
        assert_eq!(wave.key_at(0, 1), 7);
        assert_eq!(wave.find(0, 2), Some(0));
        assert_eq!(wave.find(0, 3), None);
        assert_eq!(wave.find(1, 2), Some(0));
        assert_eq!(wave.run_at(0, 0), (0, 2));
        assert_eq!(wave.run_at(0, 1), (2, 1));
        assert_eq!(wave.run_at(1, 0), (3, 1));
        assert_eq!(wave.vals().get(3), 9);
    }

    #[test]
    fn empty_groups_are_fine() {
        let mut w = WaveBuilder::new(3, 3);
        w.begin_group(); // empty predicate
        w.begin_group();
        w.push_run(1, [2, 3]);
        w.begin_group(); // empty again
        let wave = w.finish();
        assert_eq!(wave.num_groups(), 3);
        assert_eq!(wave.num_keys(0), 0);
        assert_eq!(wave.num_vals(0), 0);
        assert_eq!(wave.find(0, 1), None);
        assert_eq!(wave.num_keys(1), 1);
        assert_eq!(wave.run_at(1, 0), (0, 2));
    }

    #[test]
    #[should_panic(expected = "empty adjacency run")]
    fn empty_runs_are_rejected() {
        let mut w = WaveBuilder::new(3, 3);
        w.begin_group();
        w.push_run(1, []);
    }

    #[test]
    fn select_in_word_matches_bit_clear_loop() {
        let words = [
            1u64,
            u64::MAX,
            0x8000_0000_0000_0001,
            0xAAAA_AAAA_AAAA_AAAA,
            0x0123_4567_89AB_CDEF,
            1u64 << 63,
            0x00FF_00FF_00FF_00FF,
            0xdead_beef_cafe_f00d,
        ];
        for &w in &words {
            for k in 0..w.count_ones() as u64 {
                let mut naive = w;
                for _ in 0..k {
                    naive &= naive - 1;
                }
                assert_eq!(
                    select_in_word(w, k),
                    naive.trailing_zeros(),
                    "word {w:#x}, k {k}"
                );
            }
        }
    }

    #[test]
    fn cursor_and_decode_run_match_get_all_widths() {
        for width in 1..=32u32 {
            let max = if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            let values: Vec<u32> = (0..300u32)
                .map(|i| (i.wrapping_mul(2_654_435_761)) % max.saturating_add(1).max(1))
                .collect();
            let seq = PackedSeq::from_values(width, values.iter().copied());
            // Every (start, len) alignment matters: straddles differ.
            for start in [0usize, 1, 7, 63, 64, 65, 130] {
                let len = (values.len() - start).min(71);
                let want = &values[start..start + len];
                let cursed: Vec<u32> = seq.cursor(start, len).collect();
                assert_eq!(cursed, want, "cursor width {width} start {start}");
                let mut bulk = Vec::new();
                seq.decode_run(start, len, &mut bulk);
                assert_eq!(bulk, want, "decode_run width {width} start {start}");
            }
            assert_eq!(seq.cursor(0, 0).next(), None);
        }
    }

    #[test]
    fn one_scanner_and_run_scanner_match_random_access() {
        let mut b = BitVecBuilder::new();
        let pattern: Vec<bool> = (0..3000usize)
            .map(|i| (i * 31 + i / 5) % 11 < 2 || i == 2999)
            .collect();
        for &bit in &pattern {
            b.push(bit);
        }
        let bv = b.finish();
        let mut sc = bv.one_scanner(0);
        for k in 0..bv.count_ones() {
            assert_eq!(sc.next_one(), bv.select1(k), "one #{k}");
        }
        // Starting mid-way, including exactly on a set bit.
        let third = bv.select1(bv.count_ones() / 3);
        let mut sc = bv.one_scanner(third);
        assert_eq!(sc.next_one(), third);

        // Run scanner over a wave replays run_at exactly.
        let mut w = WaveBuilder::new(8, 8);
        w.begin_group();
        for key in 0..40u32 {
            let run: Vec<u32> = (0..(key % 7 + 1)).collect();
            w.push_run(key, run);
        }
        let wave = w.finish();
        let mut runs = wave.run_scanner(wave.val_start(0));
        for i in 0..wave.num_keys(0) {
            assert_eq!(runs.next_run(), wave.run_at(0, i), "run #{i}");
        }
    }
}
