//! Compressed trajectory storage: sealed, immutable, bit-packed chunks,
//! the chunk being written, and a small raw window.
//!
//! Regularly sampled GPS traces are highly compressible: consecutive
//! positions share most mantissa bits, so the XOR of consecutive `f64`
//! *bit patterns* is mostly zeros. [`SealedChunk`] exploits that with
//! Gorilla-style XOR-delta encoding per axis (Facebook's in-memory TSDB
//! float scheme), cutting steady-state history storage roughly 4× at
//! paper-like workloads while staying **bit-lossless** for every finite
//! and non-finite `f64` alike — the codec moves bit patterns, never
//! arithmetic values.
//!
//! # Chunk bit-stream grammar
//!
//! A chunk of `n` samples is one MSB-first bit stream over `u64` words:
//!
//! ```text
//! chunk   := first delta*            first = 64-bit x, 64-bit y (raw bits)
//! delta   := dx dy                   one per sample after the first
//! dx, dy  := '0'                                        xor == 0
//!          | '10' meaningful-bits                      window reuse
//!          | '11' lead(6) siglen-1(6) meaningful-bits  new window
//! ```
//!
//! Each axis keeps independent state: the previous value's bits and the
//! current *window* `(lead, sig)` — leading-zero count and significant
//! bit length set by the last `'11'` form. `'10'` re-uses the window
//! when the new XOR fits inside it (`lead' ≥ lead` and
//! `trail' ≥ 64 − lead − sig`), writing only `sig` bits.
//!
//! [`encode_xor_bytes`] writes the same grammar over bytes instead of
//! words, zero-padded to a whole byte — the form the WAL stores each
//! run's coordinates in.
//!
//! # Losslessness
//!
//! XOR over bit patterns is an involution, so decode reproduces every
//! sample's `to_bits()` exactly: `-0.0`, subnormals and (if a caller
//! ever bypassed ingest validation) NaN payloads survive unchanged.
//! `tests/chunk_props.rs` asserts chunked == raw point-for-point over
//! generated trajectories including adversarial bit patterns, and the
//! objectstore's recovery suite proves post-restore predictions are
//! bit-identical.
//!
//! # Append path
//!
//! [`ChunkedHistory::push`] appends to a raw *window* of at most
//! `min_tail + E` samples, `E = seal_len / 8` (at least 1,
//! [`ChunkParams::move_len`]). A push into a full window first encodes
//! the window's oldest `E` samples into the *open chunk*, the chunk
//! being written: its words grow by exactly what those samples take and
//! always hold a valid zero-padded stream, so a [`ChunkDecoder`] reads
//! it as it reads a sealed one. When the samples since the last seal
//! reach `seal_len + min_tail`, the push encodes the rest of the open
//! chunk's `seal_len` samples and seals it. Chunk boundaries therefore
//! depend on the sample count alone, every chunk is the
//! [`SealedChunk::seal`] of its run, and how the samples after the last
//! seal split between the open chunk and the window depends on their
//! count alone too. The window never drops below `min_tail` samples
//! once anything is encoded, so recent-window reads (the whole
//! `predict` hot path) are plain slice borrows that never touch
//! compressed data. A push that moves nothing allocates nothing; one
//! that moves samples grows the open chunk's words once.
//!
//! # Restore
//!
//! A snapshot copies a history's parts as they are: the sealed chunks
//! and the [`OpenChunk`]'s stream word for word, the window raw.
//! [`OpenChunk::from_raw_parts`] validates a stream as
//! [`SealedChunk::from_raw_parts`] does, and the decode that validates
//! it leaves the coder state the next sample continues from, so
//! [`ChunkedHistory::from_parts`] installs the parts as they were and
//! the restored history equals the live one, nothing re-encoded.

use crate::traj::Timestamp;
use crate::History;
use hpm_geo::mem::vec_cap_bytes;
use hpm_geo::{MemUse, Point};
use std::cell::RefCell;
use std::fmt;

/// Samples per sealed chunk unless overridden — one chunk per ~256
/// samples keeps intra-chunk seek cost bounded while amortizing the
/// 128-bit raw first sample to under half a bit per sample.
pub const DEFAULT_SEAL_LEN: usize = 256;

/// Raw window floor unless overridden.
pub const DEFAULT_MIN_TAIL: usize = 16;

/// Chunking geometry of a [`ChunkedHistory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkParams {
    /// Samples compressed into each sealed chunk.
    pub seal_len: usize,
    /// Raw samples the window always holds once anything has been
    /// encoded — size this at least as large as every window length the
    /// read hot path needs ([`ChunkedHistory::hot_window`]). The window
    /// holds at most `min_tail + `[`move_len`](Self::move_len) samples.
    pub min_tail: usize,
}

impl Default for ChunkParams {
    fn default() -> Self {
        ChunkParams {
            seal_len: DEFAULT_SEAL_LEN,
            min_tail: DEFAULT_MIN_TAIL,
        }
    }
}

impl ChunkParams {
    /// Panics when a field is zero (a zero `seal_len` would loop
    /// forever; a zero `min_tail` is allowed to be 1 at minimum so
    /// `hot_window(1)` always works).
    pub fn validate(&self) {
        assert!(self.seal_len >= 1, "seal_len must be >= 1");
        assert!(self.min_tail >= 1, "min_tail must be >= 1");
    }

    /// Samples a push into a full window moves into the open chunk:
    /// `seal_len / 8`, at least 1 (32 at the defaults, so a chunk is
    /// written in eight steps).
    #[inline]
    pub fn move_len(&self) -> usize {
        (self.seal_len / 8).max(1)
    }

    /// The open chunk's samples once `unsealed` samples follow the last
    /// seal — what [`ChunkedHistory::push`] leaves encoded of them, the
    /// rest being the window — or `None` when that many would have
    /// sealed.
    fn open_len(&self, unsealed: usize) -> Option<usize> {
        if unsealed >= self.seal_len + self.min_tail {
            return None;
        }
        let bound = self.min_tail + self.move_len();
        let (mut open, mut window) = (0, 0);
        for _ in 0..unsealed {
            if window == bound {
                let moved = self.move_len().min(self.seal_len - open);
                open += moved;
                window -= moved;
            }
            window += 1;
        }
        Some(open)
    }
}

/// Why a serialized chunk was rejected by
/// [`SealedChunk::from_raw_parts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// The declared bit count does not fit the provided words, or the
    /// word vector is longer than the bit count needs.
    WordCountMismatch {
        /// Declared valid bits.
        bits: u64,
        /// Provided 64-bit words.
        words: usize,
    },
    /// The bit stream ended before yielding every declared sample.
    Truncated,
    /// Decoding every declared sample consumed fewer bits than
    /// declared — trailing garbage a writer never produces.
    TrailingBits {
        /// Bits the decode actually consumed.
        consumed: u64,
        /// Bits declared valid.
        declared: u64,
    },
    /// Bits past the declared count were not zero (the writer
    /// zero-pads, so nonzero padding means corruption).
    DirtyPadding,
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::WordCountMismatch { bits, words } => {
                write!(f, "chunk declares {bits} bits but carries {words} words")
            }
            ChunkError::Truncated => write!(f, "chunk bit stream truncated"),
            ChunkError::TrailingBits { consumed, declared } => write!(
                f,
                "chunk decode consumed {consumed} bits of {declared} declared"
            ),
            ChunkError::DirtyPadding => write!(f, "chunk padding bits are not zero"),
        }
    }
}

impl std::error::Error for ChunkError {}

const fn low_mask(n: u32) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The unit a bit stream is stored in: `u64` words in a
/// [`SealedChunk`], bytes in a [`encode_xor_bytes`] stream. Both move
/// the stream 64 bits at a time.
trait Word: Copy {
    /// Appends the first `bits` bits of `word` (most significant
    /// first): a whole word, or the zero-padded end of the stream.
    fn put(out: &mut Vec<Self>, word: u64, bits: u32);
    /// The stream's `i`-th 64-bit word, zero-padded past the end.
    fn load(words: &[Self], i: usize) -> u64;
}

impl Word for u64 {
    fn put(out: &mut Vec<u64>, word: u64, _bits: u32) {
        out.push(word);
    }

    #[inline]
    fn load(words: &[u64], i: usize) -> u64 {
        words.get(i).copied().unwrap_or(0)
    }
}

impl Word for u8 {
    fn put(out: &mut Vec<u8>, word: u64, bits: u32) {
        out.extend_from_slice(&word.to_be_bytes()[..bits.div_ceil(8) as usize]);
    }

    #[inline]
    fn load(words: &[u8], i: usize) -> u64 {
        let from = (i * 8).min(words.len());
        let mut word = [0u8; 8];
        let have = (words.len() - from).min(8);
        word[..have].copy_from_slice(&words[from..from + have]);
        u64::from_be_bytes(word)
    }
}

/// MSB-first bit sink appending to a vector of words. Bits gather in a
/// 64-bit accumulator that is stored whole when it fills;
/// [`finish`](Self::finish) stores the zero-padded rest.
#[derive(Debug)]
struct BitWriter<'a, W: Word> {
    words: &'a mut Vec<W>,
    /// Pending bits, most significant first; `fill` of them are valid.
    acc: u64,
    fill: u32,
    /// Bits appended by this writer, or for [`resume`](Self::resume)
    /// bits in the stream it continues.
    bits: u64,
}

impl<'a, W: Word> BitWriter<'a, W> {
    fn new(words: &'a mut Vec<W>) -> Self {
        BitWriter {
            words,
            acc: 0,
            fill: 0,
            bits: 0,
        }
    }

    /// Appends the low `n` bits of `value`, most significant first.
    fn push_bits(&mut self, value: u64, n: u32) {
        debug_assert!((1..=64).contains(&n));
        debug_assert!(n == 64 || value >> n == 0, "value wider than n");
        let room = 64 - self.fill;
        if n < room {
            self.acc |= value << (room - n);
            self.fill += n;
        } else {
            let rest = n - room;
            W::put(self.words, self.acc | value >> rest, 64);
            self.acc = if rest == 0 { 0 } else { value << (64 - rest) };
            self.fill = rest;
        }
        self.bits += u64::from(n);
    }

    /// Appends `head` (`head_bits` wide) then `body` (`body_bits`
    /// wide) — in one step when both fit a word.
    fn push_tagged(&mut self, head: u64, head_bits: u32, body: u64, body_bits: u32) {
        if head_bits + body_bits <= 64 {
            self.push_bits(head << body_bits | body, head_bits + body_bits);
        } else {
            self.push_bits(head, head_bits);
            self.push_bits(body, body_bits);
        }
    }

    /// Stores the pending bits, zero-padded; returns [`bits`](Self::bits).
    fn finish(self) -> u64 {
        if self.fill > 0 {
            W::put(self.words, self.acc, self.fill);
        }
        self.bits
    }
}

impl<'a> BitWriter<'a, u64> {
    /// Continues the zero-padded `bits`-bit stream `words` holds: its
    /// partial last word, if any, goes back into the accumulator.
    fn resume(words: &'a mut Vec<u64>, bits: u64) -> Self {
        let fill = (bits % 64) as u32;
        let acc = match fill {
            0 => 0,
            _ => words.pop().expect("a partial word ends the stream"),
        };
        BitWriter {
            words,
            acc,
            fill,
            bits,
        }
    }
}

/// MSB-first bit source over words, bounded by a declared bit count
/// so corruption surfaces as a typed error instead of a read past the
/// stream. Unread bits sit in a 128-bit buffer that fields are shifted
/// out of; each word is loaded once, when fewer than 64 bits are left,
/// so every field of up to 64 bits is a shift and a mask. Reads past
/// the stream's words see zeros, and [`check`](Self::check) reports a
/// decode that consumed more than the declared bits.
#[derive(Debug, Clone)]
struct BitReader<'a, W> {
    words: &'a [W],
    /// Unread bits, most significant first; `avail` of them are valid
    /// and the bits below them are zero.
    buf: u128,
    avail: u32,
    /// Index of the next 64-bit word to load.
    next: usize,
    limit: u64,
}

impl<'a, W: Word> BitReader<'a, W> {
    fn new(words: &'a [W], limit: u64) -> Self {
        BitReader {
            words,
            buf: 0,
            avail: 0,
            next: 0,
            limit,
        }
    }

    /// The next 64 bits, not consumed.
    #[inline]
    fn peek(&mut self) -> u64 {
        if self.avail < 64 {
            let word = W::load(self.words, self.next);
            self.next += 1;
            self.buf |= u128::from(word) << (64 - self.avail);
            self.avail += 64;
        }
        (self.buf >> 64) as u64
    }

    /// Consumes `n` bits, at most 64 and at most what the last
    /// [`peek`](Self::peek) showed.
    #[inline]
    fn skip(&mut self, n: u32) {
        self.buf <<= n;
        self.avail -= n;
    }

    #[inline]
    fn read_bits(&mut self, n: u32) -> u64 {
        debug_assert!((1..=64).contains(&n));
        let bits = self.peek() >> (64 - n);
        self.skip(n);
        bits
    }

    /// Bits consumed so far.
    fn pos(&self) -> u64 {
        self.next as u64 * 64 - u64::from(self.avail)
    }

    /// Refuses a decode that read past the declared bit count.
    #[inline]
    fn check(&self) -> Result<(), ChunkError> {
        if self.pos() > self.limit {
            Err(ChunkError::Truncated)
        } else {
            Ok(())
        }
    }
}

/// Per-axis Gorilla state shared by the encoder and decoder.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AxisState {
    prev: u64,
    /// `(leading zeros, significant bits)` of the last `'11'` form;
    /// `None` until one has been written/read.
    window: Option<(u8, u8)>,
}

impl AxisState {
    fn new(first: u64) -> Self {
        AxisState {
            prev: first,
            window: None,
        }
    }

    fn encode<W: Word>(&mut self, bits: u64, w: &mut BitWriter<'_, W>) {
        let xor = bits ^ self.prev;
        self.prev = bits;
        if xor == 0 {
            w.push_bits(0, 1);
            return;
        }
        let lead = xor.leading_zeros();
        let trail = xor.trailing_zeros();
        if let Some((wlead, wsig)) = self.window {
            let (wlead, wsig) = (u32::from(wlead), u32::from(wsig));
            let wtrail = 64 - wlead - wsig;
            if lead >= wlead && trail >= wtrail {
                w.push_tagged(0b10, 2, xor >> wtrail, wsig);
                return;
            }
        }
        // New window: 6-bit lead caps at 63 (xor != 0 keeps it there
        // naturally), 6-bit `sig - 1` covers sig in 1..=64.
        let sig = 64 - lead - trail;
        let head = 0b11 << 12 | u64::from(lead) << 6 | u64::from(sig - 1);
        w.push_tagged(head, 14, xor >> trail, sig);
        self.window = Some((lead as u8, sig as u8));
    }

    /// Decodes one axis value: its form is read off the next bits at
    /// once, then the meaningful bits.
    #[inline]
    fn decode<W: Word>(&mut self, r: &mut BitReader<'_, W>) -> Result<u64, ChunkError> {
        let head = r.peek();
        if head >> 63 == 0 {
            r.skip(1);
            return Ok(self.prev);
        }
        let (lead, sig, form) = if head >> 62 == 0b10 {
            let (lead, sig) = self.window.ok_or(ChunkError::Truncated)?;
            (u32::from(lead), u32::from(sig), 2)
        } else {
            let lead = (head >> 56) as u32 & 63;
            let sig = ((head >> 50) as u32 & 63) + 1;
            if lead + sig > 64 {
                // An impossible window: the writer never produces one,
                // and honoring it would shift out of range below.
                return Err(ChunkError::Truncated);
            }
            self.window = Some((lead as u8, sig as u8));
            (lead, sig, 14)
        };
        // The meaningful bits, from the bits already peeked when they
        // fit there.
        let meaningful = if form + sig <= 64 {
            r.skip(form + sig);
            head << form >> (64 - sig)
        } else {
            r.skip(form);
            r.read_bits(sig)
        };
        let xor = meaningful << (64 - lead - sig);
        self.prev ^= xor;
        Ok(self.prev)
    }
}

/// The point codec of the grammar above, over both axes: the first
/// point raw, every later one as an XOR delta per axis. One coder for
/// two containers — a chunk's words and the byte-aligned streams of
/// [`encode_xor_bytes`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct XorCoder {
    /// `None` until the first (raw) point has been written/read.
    axes: Option<(AxisState, AxisState)>,
}

impl XorCoder {
    fn encode<W: Word>(&mut self, p: Point, w: &mut BitWriter<'_, W>) {
        let (xb, yb) = (p.x.to_bits(), p.y.to_bits());
        match &mut self.axes {
            Some((x, y)) => {
                x.encode(xb, w);
                y.encode(yb, w);
            }
            None => {
                w.push_bits(xb, 64);
                w.push_bits(yb, 64);
                self.axes = Some((AxisState::new(xb), AxisState::new(yb)));
            }
        }
    }

    #[inline]
    fn decode<W: Word>(&mut self, r: &mut BitReader<'_, W>) -> Result<Point, ChunkError> {
        let (xb, yb) = match &mut self.axes {
            Some((x, y)) => (x.decode(r)?, y.decode(r)?),
            None => {
                let (xb, yb) = (r.read_bits(64), r.read_bits(64));
                self.axes = Some((AxisState::new(xb), AxisState::new(yb)));
                (xb, yb)
            }
        };
        r.check()?;
        Ok(Point::new(f64::from_bits(xb), f64::from_bits(yb)))
    }
}

/// Appends `points` to `out` as one stream of the chunk grammar,
/// zero-padded to a whole byte: a one-point stream is its 16 raw bytes
/// (x then y, most significant byte first), every later point costs
/// its two XOR deltas. Bit-lossless like a chunk. The WAL stores each
/// run's coordinates this way.
pub fn encode_xor_bytes(out: &mut Vec<u8>, points: &[Point]) {
    let mut w = BitWriter::new(out);
    let mut coder = XorCoder::default();
    for &p in points {
        coder.encode(p, &mut w);
    }
    w.finish();
}

/// Decodes the `n`-point stream [`encode_xor_bytes`] wrote at the head
/// of `bytes`, appending the points to `out`; returns the bytes the
/// stream occupies. A stream running past `bytes` is
/// [`ChunkError::Truncated`], nonzero padding [`ChunkError::DirtyPadding`].
pub fn decode_xor_bytes(bytes: &[u8], n: usize, out: &mut Vec<Point>) -> Result<usize, ChunkError> {
    let mut r = BitReader::new(bytes, bytes.len() as u64 * 8);
    let mut coder = XorCoder::default();
    for _ in 0..n {
        out.push(coder.decode(&mut r)?);
    }
    let used = r.pos().div_ceil(8) as usize;
    let pad = (used as u64 * 8 - r.pos()) as u32;
    if pad > 0 && u64::from(bytes[used - 1]) & low_mask(pad) != 0 {
        return Err(ChunkError::DirtyPadding);
    }
    Ok(used)
}

/// The chunk being written: its stream so far (zero-padded, so it
/// decodes like a sealed chunk), the coder state after its last sample,
/// and its sample count. A snapshot writes its stream verbatim;
/// [`from_raw_parts`](Self::from_raw_parts) reads it back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenChunk {
    words: Vec<u64>,
    bits: u64,
    coder: XorCoder,
    samples: u32,
}

impl OpenChunk {
    /// Rebuilds an open chunk from serialized parts, validating them as
    /// [`SealedChunk::from_raw_parts`] does (here zero samples, in zero
    /// bits, is the empty chunk). The coder state the next sample
    /// continues from is the one the validating decode ends in.
    pub fn from_raw_parts(samples: u32, bits: u64, words: Vec<u64>) -> Result<Self, ChunkError> {
        let needed = bits.div_ceil(64);
        if needed != words.len() as u64 || (samples == 0) != (bits == 0 && words.is_empty()) {
            return Err(ChunkError::WordCountMismatch {
                bits,
                words: words.len(),
            });
        }
        let pad = needed * 64 - bits;
        if pad > 0 {
            let last = words[words.len() - 1];
            if last & low_mask(pad as u32) != 0 {
                return Err(ChunkError::DirtyPadding);
            }
        }
        // Full decode validation: every sample must materialize and the
        // stream must end exactly at the declared bit count.
        let mut dec = ChunkDecoder::new(&words, bits, samples);
        for _ in 0..samples {
            dec.next_point()?;
        }
        if dec.reader.pos() != bits {
            return Err(ChunkError::TrailingBits {
                consumed: dec.reader.pos(),
                declared: bits,
            });
        }
        let coder = dec.coder;
        Ok(OpenChunk {
            words,
            bits,
            coder,
            samples,
        })
    }

    /// Samples encoded so far.
    #[inline]
    pub fn samples(&self) -> usize {
        self.samples as usize
    }

    /// Valid bits in the stream.
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The stream's words, the last zero-padded.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Encodes `points` after the samples already written, growing the
    /// words once, by exactly what the points take: they are encoded
    /// into a per-thread scratch, which continues the stream's partial
    /// last word, and then appended.
    fn append(&mut self, points: &[Point]) {
        thread_local! {
            static SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        }
        SCRATCH.with_borrow_mut(|scratch| {
            let whole = (self.bits / 64) as usize;
            scratch.clear();
            scratch.extend(self.words.drain(whole..));
            let mut w = BitWriter::resume(scratch, self.bits % 64);
            for &p in points {
                self.coder.encode(p, &mut w);
            }
            self.bits = whole as u64 * 64 + w.finish();
            self.words.reserve_exact(scratch.len());
            self.words.extend_from_slice(scratch);
        });
        self.samples += points.len() as u32;
    }

    /// Streaming decoder positioned at the first sample.
    pub fn decoder(&self) -> ChunkDecoder<'_> {
        ChunkDecoder::new(&self.words, self.bits, self.samples)
    }

    fn seal(self) -> SealedChunk {
        SealedChunk {
            samples: self.samples,
            bits: self.bits,
            words: self.words.into_boxed_slice(),
        }
    }
}

/// One sealed, immutable, bit-packed run of consecutive samples.
///
/// Sealed chunks are never mutated or re-encoded: snapshots write
/// their words verbatim and recovery re-installs them verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedChunk {
    samples: u32,
    bits: u64,
    words: Box<[u64]>,
}

impl SealedChunk {
    /// Compresses `points` (at least one) into a sealed chunk.
    ///
    /// # Panics
    /// Panics when `points` is empty.
    pub fn seal(points: &[Point]) -> Self {
        assert!(!points.is_empty(), "cannot seal an empty chunk");
        let mut open = OpenChunk::default();
        open.append(points);
        open.seal()
    }

    /// Samples stored in this chunk.
    #[inline]
    pub fn samples(&self) -> usize {
        self.samples as usize
    }

    /// Valid bits in the packed stream.
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The packed words (only [`bits`](Self::bits) of them are
    /// meaningful; the writer zero-pads the last word).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Compressed payload bytes (packed words only — the accounting the
    /// compression ratio is quoted over).
    #[inline]
    pub fn packed_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Rebuilds a chunk from serialized parts, validating that the
    /// stream decodes to exactly `samples` samples (at least one)
    /// consuming exactly `bits` bits with clean zero padding — a
    /// corrupt chunk refuses with a typed [`ChunkError`] instead of
    /// yielding garbage points.
    pub fn from_raw_parts(samples: u32, bits: u64, words: Vec<u64>) -> Result<Self, ChunkError> {
        let chunk = OpenChunk::from_raw_parts(samples, bits, words)?;
        if samples == 0 {
            return Err(ChunkError::Truncated);
        }
        Ok(chunk.seal())
    }

    /// Streaming decoder positioned at the first sample.
    pub fn decoder(&self) -> ChunkDecoder<'_> {
        ChunkDecoder::new(&self.words, self.bits, self.samples)
    }
}

impl MemUse for SealedChunk {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.words.len() * 8
    }
}

/// Streaming decoder over one chunk, sealed or open: yields the chunk's
/// samples in order without materializing them.
#[derive(Debug, Clone)]
pub struct ChunkDecoder<'a> {
    reader: BitReader<'a, u64>,
    coder: XorCoder,
    yielded: u32,
    samples: u32,
}

impl<'a> ChunkDecoder<'a> {
    fn new(words: &'a [u64], bits: u64, samples: u32) -> Self {
        ChunkDecoder {
            reader: BitReader::new(words, bits),
            coder: XorCoder::default(),
            yielded: 0,
            samples,
        }
    }

    /// Decodes the next sample, or a typed error on a corrupt stream.
    /// Returns `Ok(None)` when the chunk is exhausted.
    #[allow(clippy::should_implement_trait)] // fallible next; Iterator wraps it
    #[inline]
    pub fn next_point(&mut self) -> Result<Option<Point>, ChunkError> {
        if self.yielded == self.samples {
            return Ok(None);
        }
        let p = self.coder.decode(&mut self.reader)?;
        self.yielded += 1;
        Ok(Some(p))
    }
}

impl Iterator for ChunkDecoder<'_> {
    type Item = Point;

    /// Iterates the chunk's samples. Chunks written by this module
    /// never fail to decode; a chunk admitted through
    /// [`SealedChunk::from_raw_parts`] or [`OpenChunk::from_raw_parts`]
    /// was fully validated, so the
    /// iterator treats a decode error as unreachable.
    #[inline]
    fn next(&mut self) -> Option<Point> {
        self.next_point()
            .expect("validated chunk streams never fail to decode")
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.samples - self.yielded) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ChunkDecoder<'_> {}

/// What a history holds besides its raw window: the sealed chunks and
/// the open one. Boxed, so a history that has never encoded a sample
/// pays one pointer for it.
#[derive(Debug, Clone, Default, PartialEq)]
struct Encoded {
    chunks: Vec<SealedChunk>,
    /// Total samples across `chunks` (cached; chunks are immutable).
    sealed_samples: usize,
    open: OpenChunk,
}

/// A movement history stored as sealed compressed chunks, one open
/// chunk and a raw window — the drop-in replacement for a raw
/// `Vec<Point>` history inside the object store.
///
/// Invariant: once any sample is encoded, the window holds at least
/// `params.min_tail` samples, so [`hot_window`](Self::hot_window) of up
/// to `min_tail` samples is always a plain slice borrow (the `predict`
/// hot path never decompresses). The encoded state is a function of
/// the sealed chunks and the samples since the last seal, so two
/// histories with the same of both compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedHistory {
    start: Timestamp,
    params: ChunkParams,
    window: Vec<Point>,
    encoded: Option<Box<Encoded>>,
}

// Every object of a fleet pays this inline, however short its history.
const _: () = assert!(std::mem::size_of::<ChunkedHistory>() <= 56);

impl ChunkedHistory {
    /// An empty history beginning at timestamp `start`.
    ///
    /// # Panics
    /// Panics when `params` is inconsistent.
    pub fn new(start: Timestamp, params: ChunkParams) -> Self {
        params.validate();
        ChunkedHistory {
            start,
            params,
            window: Vec::new(),
            encoded: None,
        }
    }

    /// Rebuilds a history from the parts [`chunks`](Self::chunks),
    /// [`open_chunk`](Self::open_chunk) and [`window`](Self::window)
    /// gave. When the open chunk and the window split the samples after
    /// the last seal as `params` would, every part is installed as it
    /// is and the result equals the history the parts came from, with
    /// nothing re-encoded. Otherwise — the parts were written under
    /// another chunk geometry — the chunks are installed verbatim and
    /// the samples after them are decoded and pushed, after trailing
    /// chunks are decoded back in front of them until the hot-window
    /// invariant can hold (readers never assume uniform chunk lengths).
    pub fn from_parts(
        start: Timestamp,
        params: ChunkParams,
        mut chunks: Vec<SealedChunk>,
        open: OpenChunk,
        window: Vec<Point>,
    ) -> Self {
        let mut h = ChunkedHistory::new(start, params);
        let unsealed = open.samples() + window.len();
        let installs = params.open_len(unsealed) == Some(open.samples())
            && (chunks.is_empty() || unsealed >= params.min_tail);
        let (open, window, pushed) = if installs {
            (open, window, Vec::new())
        } else {
            let mut pushed: Vec<Point> = open.decoder().chain(window).collect();
            while pushed.len() < params.min_tail {
                let Some(chunk) = chunks.pop() else { break };
                let mut run: Vec<Point> = chunk.decoder().collect();
                run.extend_from_slice(&pushed);
                pushed = run;
            }
            (OpenChunk::default(), Vec::new(), pushed)
        };
        if !chunks.is_empty() || open.samples > 0 {
            let sealed_samples = chunks.iter().map(SealedChunk::samples).sum();
            h.encoded = Some(Box::new(Encoded {
                chunks,
                sealed_samples,
                open,
            }));
        }
        h.window = window;
        pushed.into_iter().for_each(|p| h.push(p));
        h
    }

    /// The sealed chunks, oldest first.
    #[inline]
    pub fn chunks(&self) -> &[SealedChunk] {
        self.encoded.as_ref().map_or(&[], |e| &e.chunks)
    }

    /// The open chunk: the samples encoded since the last seal.
    #[inline]
    pub fn open_chunk(&self) -> &OpenChunk {
        static EMPTY: OpenChunk = OpenChunk {
            words: Vec::new(),
            bits: 0,
            coder: XorCoder { axes: None },
            samples: 0,
        };
        self.encoded.as_ref().map_or(&EMPTY, |e| &e.open)
    }

    /// The raw window (the newest samples).
    #[inline]
    pub fn window(&self) -> &[Point] {
        &self.window
    }

    /// Samples inside sealed chunks.
    #[inline]
    pub fn sealed_samples(&self) -> usize {
        self.encoded.as_ref().map_or(0, |e| e.sealed_samples)
    }

    /// Samples encoded into the open chunk.
    #[inline]
    fn open_samples(&self) -> usize {
        self.open_chunk().samples()
    }

    /// Every sample after the sealed chunks: the open chunk decoded,
    /// then the window.
    pub fn unsealed(&self) -> Vec<Point> {
        self.iter_from(self.sealed_samples()).collect()
    }

    /// Appends the next sample — amortized O(1). A full window first
    /// moves its oldest [`move_len`](ChunkParams::move_len) samples into
    /// the open chunk; when the samples since the last seal reach
    /// `seal_len + min_tail`, the open chunk is completed to `seal_len`
    /// samples and sealed.
    pub fn push(&mut self, p: Point) {
        let ChunkParams { seal_len, min_tail } = self.params;
        let bound = min_tail + self.params.move_len();
        if self.window.len() == bound {
            self.encode_front(self.params.move_len().min(seal_len - self.open_samples()));
        }
        // The window never holds more than `bound` samples, so clamp its
        // last capacity-doubling step there (doubling still applies
        // below, so tiny histories stay tiny).
        if self.window.len() == self.window.capacity() && self.window.capacity() * 2 > bound {
            self.window.reserve_exact(bound - self.window.len());
        }
        self.window.push(p);
        if self.open_samples() + self.window.len() == seal_len + min_tail {
            self.encode_front(seal_len - self.open_samples());
            let enc = self.encoded.as_mut().expect("encode_front made it");
            let chunk = std::mem::take(&mut enc.open).seal();
            enc.sealed_samples += chunk.samples();
            enc.chunks.push(chunk);
        }
    }

    /// Moves the window's oldest `n` samples into the open chunk.
    fn encode_front(&mut self, n: usize) {
        let enc = self.encoded.get_or_insert_with(Box::default);
        enc.open.append(&self.window[..n]);
        self.window.drain(..n);
    }

    /// The most recent `len` samples as a raw slice, with the
    /// timestamp of the first returned sample — the `predict` hot
    /// path. Returns `None` when the window would need encoded samples
    /// (never happens for `len <= min_tail`, the invariant the store
    /// sizes `min_tail` for).
    pub fn hot_window(&self, len: usize) -> Option<(&[Point], Timestamp)> {
        let take = len.min(self.len());
        if take > self.window.len() {
            return None;
        }
        let first_idx = self.len() - take;
        Some((
            &self.window[self.window.len() - take..],
            self.start + first_idx as Timestamp,
        ))
    }

    /// Streams every sample in timestamp order.
    pub fn iter(&self) -> DecodeCursor<'_> {
        self.iter_from(0)
    }

    /// Streams samples starting at index `from` (clamped to the end).
    /// Whole chunks before `from` are skipped without decoding; at
    /// most one chunk (sealed or open) is partially decoded to reach
    /// the offset.
    pub fn iter_from(&self, from: usize) -> DecodeCursor<'_> {
        let mut skip = from.min(self.len());
        let remaining = self.len() - skip;
        let mut run = 0;
        let mut decoder = self.run(0);
        while let Some(dec) = &mut decoder {
            if skip < dec.len() {
                for _ in 0..skip {
                    dec.next();
                }
                skip = 0;
                break;
            }
            skip -= dec.len();
            run += 1;
            decoder = self.run(run);
        }
        DecodeCursor {
            hist: self,
            run,
            decoder,
            window_idx: skip,
            remaining,
        }
    }

    /// A decoder over encoded run `i`: sealed chunk `i`, or the open
    /// chunk after the last of them; `None` past that.
    fn run(&self, i: usize) -> Option<ChunkDecoder<'_>> {
        let enc = self.encoded.as_ref()?;
        match enc.chunks.get(i) {
            Some(chunk) => Some(chunk.decoder()),
            None => (i == enc.chunks.len()).then(|| enc.open.decoder()),
        }
    }

    /// Bytes an uncompressed `Vec<Point>` of the same samples would
    /// occupy (the baseline the compression ratio is quoted against;
    /// `len`, not capacity, so the baseline is the most charitable
    /// possible raw layout).
    #[inline]
    pub fn raw_baseline_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<Point>()
    }

    /// Bytes held for history samples: the sealed chunks' packed words,
    /// the open chunk's words and the raw window, each at capacity
    /// (excludes the headers counted by [`MemUse`]) — the numerator of
    /// honest byte accounting, the denominator of the marketing one.
    #[inline]
    pub fn history_bytes(&self) -> usize {
        vec_cap_bytes(&self.window)
            + self.encoded.as_ref().map_or(0, |e| {
                e.chunks
                    .iter()
                    .map(SealedChunk::packed_bytes)
                    .sum::<usize>()
                    + vec_cap_bytes(&e.open.words)
            })
    }
}

impl MemUse for ChunkedHistory {
    /// The inline header, then — once anything is encoded — the boxed
    /// encoded part with its chunk headers at capacity: together with
    /// [`history_bytes`](ChunkedHistory::history_bytes), every block the
    /// history owns.
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.history_bytes()
            + self.encoded.as_ref().map_or(0, |e| {
                std::mem::size_of::<Encoded>()
                    + e.chunks.capacity() * std::mem::size_of::<SealedChunk>()
            })
    }
}

impl History for ChunkedHistory {
    #[inline]
    fn start(&self) -> Timestamp {
        self.start
    }

    /// Samples sealed, in the open chunk and raw.
    #[inline]
    fn len(&self) -> usize {
        self.sealed_samples() + self.open_samples() + self.window.len()
    }

    fn iter_from(&self, from: usize) -> impl Iterator<Item = Point> + '_ {
        self.iter_from(from)
    }
}

/// Streaming cursor over a [`ChunkedHistory`]: decodes the sealed
/// chunks and then the open chunk one sample at a time and finishes
/// over the raw window, so consumers (periodic decomposition,
/// retraining, snapshots of derived state) never materialize the full
/// `Vec<Point>`.
#[derive(Debug, Clone)]
pub struct DecodeCursor<'a> {
    hist: &'a ChunkedHistory,
    /// The encoded run `decoder` reads: a sealed chunk's index, or the
    /// chunk count for the open chunk.
    run: usize,
    decoder: Option<ChunkDecoder<'a>>,
    window_idx: usize,
    remaining: usize,
}

impl Iterator for DecodeCursor<'_> {
    type Item = Point;

    #[inline]
    fn next(&mut self) -> Option<Point> {
        while let Some(dec) = &mut self.decoder {
            if let Some(p) = dec.next() {
                self.remaining -= 1;
                return Some(p);
            }
            self.run += 1;
            self.decoder = self.hist.run(self.run);
        }
        let p = self.hist.window.get(self.window_idx)?;
        self.window_idx += 1;
        self.remaining -= 1;
        Some(*p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for DecodeCursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as f64 * 0.25, 100.0 - i as f64))
            .collect()
    }

    fn history(points: &[Point], seal_len: usize, min_tail: usize) -> ChunkedHistory {
        let mut h = ChunkedHistory::new(7, ChunkParams { seal_len, min_tail });
        points.iter().for_each(|&p| h.push(p));
        h
    }

    fn bits_eq(a: &[Point], b: &[Point]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
    }

    #[test]
    fn chunk_roundtrips_bit_exact() {
        let points = vec![
            Point::new(0.0, -0.0),
            Point::new(0.0, -0.0),
            Point::new(1.5, f64::MIN_POSITIVE / 2.0), // subnormal y
            Point::new(1.5000001, -3.25),
            Point::new(f64::MAX, f64::MIN),
        ];
        let chunk = SealedChunk::seal(&points);
        let decoded: Vec<Point> = chunk.decoder().collect();
        assert!(bits_eq(&decoded, &points));
    }

    /// The byte form is the chunk's bit stream, byte-aligned: the same
    /// bits as the words, most significant byte first, zero-padded.
    #[test]
    fn byte_stream_is_the_chunk_stream_byte_aligned() {
        let points = vec![
            Point::new(0.0, -0.0),
            Point::new(1.5, f64::MIN_POSITIVE / 2.0),
            Point::new(f64::from_bits(0x7FF8_0000_0000_1234), -3.25),
            Point::new(1.5000001, -3.25),
        ];
        let mut bytes = vec![0xAB];
        encode_xor_bytes(&mut bytes, &points);
        let chunk = SealedChunk::seal(&points);
        let words: Vec<u8> = chunk.words().iter().flat_map(|w| w.to_be_bytes()).collect();
        let used = chunk.bits().div_ceil(8) as usize;
        assert_eq!(bytes[1..], words[..used]);

        let mut out = Vec::new();
        assert_eq!(decode_xor_bytes(&bytes[1..], 4, &mut out), Ok(used));
        assert!(bits_eq(&out, &points));
        // One point is its 16 raw bytes.
        let mut one = Vec::new();
        encode_xor_bytes(&mut one, &points[2..3]);
        assert_eq!(one[..8], 0x7FF8_0000_0000_1234u64.to_be_bytes());
        assert_eq!(one.len(), 16);
        // Short input and dirty padding are typed errors.
        let mut sink = Vec::new();
        assert_eq!(
            decode_xor_bytes(&bytes[1..used], 4, &mut sink),
            Err(ChunkError::Truncated)
        );
        assert_ne!(chunk.bits() % 8, 0, "the stream ends mid-byte");
        let mut dirty = bytes[1..].to_vec();
        dirty[used - 1] |= 1;
        assert_eq!(
            decode_xor_bytes(&dirty, 4, &mut sink),
            Err(ChunkError::DirtyPadding)
        );
    }

    #[test]
    fn constant_trajectory_compresses_hard() {
        let points = vec![Point::new(42.5, -17.25); 256];
        let chunk = SealedChunk::seal(&points);
        // 128 bits raw first + 2 bits ('0','0') per later sample.
        assert_eq!(chunk.bits(), 128 + 2 * 255);
        assert!(chunk.packed_bytes() < 96);
        assert!(bits_eq(&chunk.decoder().collect::<Vec<_>>(), &points));
    }

    #[test]
    fn history_partitions_into_chunks_open_chunk_and_window() {
        let points = pts(1000);
        let h = history(&points, 100, 10);
        assert_eq!(h.len(), 1000);
        // Nine seals of 100 leave 100 unsealed; the window filled to
        // 10 + 12 at sample 922 and moved 12 at every 12th push since,
        // so 84 are encoded and 16 are raw.
        assert_eq!(h.chunks().len(), 9);
        assert_eq!(h.window().len(), 16);
        assert!(bits_eq(&h.unsealed(), &points[900..]));
        assert_eq!(
            h.sealed_samples() + h.unsealed().len(),
            1000,
            "chunks + unsealed partition the history"
        );
        assert!(bits_eq(&h.iter().collect::<Vec<_>>(), &points));
    }

    #[test]
    fn iter_from_matches_slice_suffixes() {
        let points = pts(517);
        let h = history(&points, 64, 8);
        for from in [0, 1, 63, 64, 65, 200, 511, 516, 517, 600] {
            let streamed: Vec<Point> = h.iter_from(from).collect();
            let want = &points[from.min(points.len())..];
            assert!(bits_eq(&streamed, want), "iter_from({from})");
        }
    }

    #[test]
    fn hot_window_is_a_tail_slice() {
        let points = pts(300);
        let h = history(&points, 100, 10);
        let (w, ts) = h.hot_window(4).unwrap();
        assert!(bits_eq(w, &points[296..]));
        assert_eq!(ts, 7 + 296);
        // Window larger than the tail: needs sealed data, refused.
        assert!(h.hot_window(250).is_none());
        // Empty + short histories clamp.
        let empty = ChunkedHistory::new(0, ChunkParams::default());
        assert_eq!(empty.hot_window(5).unwrap().0.len(), 0);
        let short = history(&points[..3], 100, 10);
        assert_eq!(short.hot_window(5).unwrap().0.len(), 3);
    }

    #[test]
    fn from_parts_unseals_to_restore_min_tail() {
        let points = pts(512);
        let h = history(&points, 64, 8);
        let restored = ChunkedHistory::from_parts(
            7,
            ChunkParams {
                seal_len: 64,
                min_tail: 100, // larger floor than the writer used
            },
            h.chunks().to_vec(),
            h.open_chunk().clone(),
            h.window().to_vec(),
        );
        assert!(restored.window().len() >= 100);
        assert!(bits_eq(&restored.iter().collect::<Vec<_>>(), &points));
        assert!(restored.hot_window(100).is_some());
    }

    /// `open_len` is the split `push` leaves at every length, so the
    /// parts of a history always install as they are.
    #[test]
    fn open_len_is_the_split_push_leaves() {
        for (seal_len, min_tail) in [(256, 16), (21, 5), (8, 1), (1, 3), (15, 40)] {
            let params = ChunkParams { seal_len, min_tail };
            let mut h = ChunkedHistory::new(0, params);
            for p in pts(3 * seal_len + min_tail) {
                h.push(p);
                let unsealed = h.len() - h.sealed_samples();
                assert_eq!(
                    params.open_len(unsealed),
                    Some(h.open_chunk().samples()),
                    "{params:?} at {}",
                    h.len()
                );
            }
            assert_eq!(params.open_len(seal_len + min_tail), None);
        }
    }

    /// An open chunk's stream reads back with the coder state its next
    /// sample continues from: appending to the copy writes what
    /// appending to the original does.
    #[test]
    fn open_chunk_reads_back_ready_to_append() {
        let points = pts(40);
        let mut live = OpenChunk::default();
        live.append(&points[..25]);
        let mut back =
            OpenChunk::from_raw_parts(live.samples, live.bits(), live.words().to_vec()).unwrap();
        assert_eq!(back, live);
        live.append(&points[25..]);
        back.append(&points[25..]);
        assert_eq!(back, live);
        assert_eq!(back.seal(), SealedChunk::seal(&points));
        assert_eq!(
            OpenChunk::from_raw_parts(0, 0, Vec::new()),
            Ok(OpenChunk::default())
        );
        assert_eq!(
            SealedChunk::from_raw_parts(0, 0, Vec::new()),
            Err(ChunkError::Truncated)
        );
    }

    #[test]
    fn from_raw_parts_validates() {
        let chunk = SealedChunk::seal(&pts(50));
        let ok = SealedChunk::from_raw_parts(chunk.samples, chunk.bits(), chunk.words().to_vec())
            .unwrap();
        assert_eq!(ok, chunk);
        // Truncated words.
        let mut words = chunk.words().to_vec();
        words.pop();
        assert!(matches!(
            SealedChunk::from_raw_parts(50, chunk.bits(), words),
            Err(ChunkError::WordCountMismatch { .. })
        ));
        // Sample count lies high → the stream runs dry.
        assert!(matches!(
            SealedChunk::from_raw_parts(51, chunk.bits(), chunk.words().to_vec()),
            Err(ChunkError::Truncated)
        ));
        // Sample count lies low → declared bits left over.
        assert!(matches!(
            SealedChunk::from_raw_parts(49, chunk.bits(), chunk.words().to_vec()),
            Err(ChunkError::TrailingBits { .. })
        ));
    }

    #[test]
    fn compresses_smooth_walks_well() {
        // A paper-like slow walk on a bounded grid: small deltas,
        // shared mantissa prefixes.
        let mut points = Vec::with_capacity(1200);
        let (mut x, mut y) = (5000.0f64, 5000.0f64);
        for i in 0..1200u64 {
            x += ((i % 7) as f64 - 3.0) * 0.5;
            y += ((i % 5) as f64 - 2.0) * 0.5;
            points.push(Point::new(x, y));
        }
        let h = history(&points, 256, 16);
        let sealed: usize = h.chunks().iter().map(SealedChunk::packed_bytes).sum();
        let sealed_raw = h.sealed_samples() * 16;
        assert!(
            sealed * 3 < sealed_raw,
            "sealed {sealed}B should be well under a third of raw {sealed_raw}B"
        );
        assert!(bits_eq(&h.iter().collect::<Vec<_>>(), &points));
    }
}
