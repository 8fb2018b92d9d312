//! Property tests for compressed chunk storage: a [`ChunkedHistory`]
//! is observationally identical to the raw `Vec<Point>` it replaces —
//! point-for-point, **bit**-for-bit — including adversarial bit
//! patterns the codec must move untouched (`-0.0`, subnormals,
//! infinities, NaN payloads).

use hpm_check::prelude::*;
use hpm_geo::Point;
use hpm_trajectory::{ChunkError, ChunkParams, ChunkedHistory, History, OpenChunk, SealedChunk};

/// Chunk geometries from degenerate (seal every sample) to generous.
fn arb_params() -> Gen<ChunkParams> {
    tuple((int(1usize..80), int(1usize..40)))
        .map(|(seal_len, min_tail)| ChunkParams { seal_len, min_tail })
}

/// A smooth paper-like walk: small steps, shared mantissa prefixes.
fn arb_walk() -> Gen<Vec<Point>> {
    walk(0..400)
}

/// A smooth walk of `len` points.
fn walk(len: std::ops::Range<usize>) -> Gen<Vec<Point>> {
    tuple((
        float(-1e4..1e4),
        float(-1e4..1e4),
        vec(tuple((float(-3.0..3.0), float(-3.0..3.0))), len),
    ))
    .map(|(x0, y0, steps)| {
        let (mut x, mut y) = (x0, y0);
        steps
            .into_iter()
            .map(|(dx, dy)| {
                x += dx;
                y += dy;
                Point::new(x, y)
            })
            .collect()
    })
}

/// Arbitrary raw bit patterns per axis: every `f64`, finite or not,
/// with a bias towards the special values XOR codecs get wrong.
fn arb_adversarial() -> Gen<Vec<Point>> {
    adversarial(0..200)
}

/// `len` points of [`arb_adversarial`]'s bit patterns.
fn adversarial(len: std::ops::Range<usize>) -> Gen<Vec<Point>> {
    let special = vec![
        0.0f64.to_bits(),
        (-0.0f64).to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        f64::NAN.to_bits(),
        f64::NAN.to_bits() | 0xDEAD,      // NaN payload
        f64::MIN_POSITIVE.to_bits() >> 1, // subnormal
        f64::MAX.to_bits(),
        1u64,
        u64::MAX,
    ];
    vec(
        tuple((
            choice(vec![true, false]),
            choice(special.clone()),
            choice(special),
            int(0u64..=u64::MAX),
            int(0u64..=u64::MAX),
        )),
        len,
    )
    .map(|raw| {
        raw.into_iter()
            .map(|(pick_special, sx, sy, rx, ry)| {
                let (xb, yb) = if pick_special { (sx, sy) } else { (rx, ry) };
                Point::new(f64::from_bits(xb), f64::from_bits(yb))
            })
            .collect()
    })
}

/// A geometry: the store's default, a fixed one where
/// [`ChunkParams::move_len`] does not divide `seal_len` or is 1, or an
/// arbitrary one.
fn arb_geometry() -> Gen<ChunkParams> {
    let fixed = [
        (256, 16),
        (21, 5),
        (100, 7),
        (26, 2),
        (15, 40),
        (8, 1),
        (1, 3),
    ]
    .map(|(seal_len, min_tail)| ChunkParams { seal_len, min_tail });
    tuple((
        choice(vec![true, false]),
        choice(fixed.to_vec()),
        arb_params(),
    ))
    .map(|(pick_fixed, fixed, any)| if pick_fixed { fixed } else { any })
}

/// A geometry and `3·seal_len + min_tail` points — three seals and a
/// full window after them — from a smooth walk, or (when `bits`) from
/// either a walk or [`arb_adversarial`]'s bit patterns.
fn arb_run(bits: bool) -> Gen<(ChunkParams, Vec<Point>)> {
    arb_geometry().flat_map(move |params| {
        let n = 3 * params.seal_len + params.min_tail;
        tuple((
            choice(vec![true, false]),
            walk(n..n + 1),
            adversarial(n..n + 1),
        ))
        .map(move |(smooth, w, a)| (params, if smooth || !bits { w } else { a }))
    })
}

/// The history a store holds after `points` were reported one by one.
fn pushed(start: u64, params: ChunkParams, points: &[Point]) -> ChunkedHistory {
    let mut h = ChunkedHistory::new(start, params);
    points.iter().for_each(|&p| h.push(p));
    h
}

fn bits_eq(a: &[Point], b: &[Point]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
}

props! {
    /// Chunked == raw point-for-point on smooth walks, at every chunk
    /// geometry.
    fn walk_roundtrips_bit_exact(points in arb_walk(), params in arb_params()) {
        let h = pushed(3, params, &points);
        require_eq!(h.len(), points.len());
        require!(bits_eq(&h.iter().collect::<Vec<_>>(), &points));
    }

    /// Chunked == raw even for adversarial bit patterns: the codec
    /// moves bits, never arithmetic values.
    fn adversarial_bits_roundtrip(points in arb_adversarial(), params in arb_params()) {
        let h = pushed(0, params, &points);
        require!(bits_eq(&h.iter().collect::<Vec<_>>(), &points));
    }

    /// `iter_from(k)` streams exactly the raw suffix `[k..]`.
    fn iter_from_matches_suffix(
        points in arb_walk(),
        params in arb_params(),
        from in int(0usize..500),
    ) {
        let h = pushed(11, params, &points);
        let streamed: Vec<Point> = h.iter_from(from).collect();
        require!(bits_eq(&streamed, &points[from.min(points.len())..]));
    }

    /// Any window of up to `min_tail` samples is always servable as a
    /// raw slice borrow and equals the raw suffix — the hot-path
    /// invariant `predict` relies on.
    fn hot_window_always_raw_within_min_tail(
        points in arb_walk(),
        params in arb_params(),
        want in int(0usize..40),
    ) {
        let want = want.min(params.min_tail);
        let h = pushed(5, params, &points);
        let (w, ts) = match h.hot_window(want) {
            Some(ok) => ok,
            None => return Err(CaseError::Fail(format!(
                "hot_window({want}) refused with min_tail {}", params.min_tail
            ))),
        };
        let take = want.min(points.len());
        require!(bits_eq(w, &points[points.len() - take..]));
        require_eq!(ts, 5 + (points.len() - take) as u64);
    }

    /// Seal → serialize parts → `from_raw_parts` is the identity, so a
    /// snapshot can carry chunks verbatim; a set padding bit, the
    /// highest included, is refused.
    fn raw_parts_roundtrip(points in arb_adversarial(), params in arb_params()) {
        let h = pushed(0, params, &points);
        for c in h.chunks() {
            let back = SealedChunk::from_raw_parts(
                c.samples() as u32,
                c.bits(),
                c.words().to_vec(),
            );
            require_eq!(back.as_ref(), Ok(c));
            let pad = c.words().len() as u64 * 64 - c.bits();
            if pad > 0 {
                let mut dirty = c.words().to_vec();
                *dirty.last_mut().unwrap() |= 1 << (pad - 1);
                let back = SealedChunk::from_raw_parts(c.samples() as u32, c.bits(), dirty);
                require_eq!(back, Err(ChunkError::DirtyPadding));
            }
        }
    }

    /// Recovery via `from_parts` under a *different* chunk geometry
    /// (unsealing to restore the raw window's floor) is still
    /// bit-lossless.
    fn from_parts_resize_is_lossless(
        points in arb_walk(),
        write in arb_params(),
        read in arb_params(),
    ) {
        let h = pushed(9, write, &points);
        let (open, window) = (h.open_chunk().clone(), h.window().to_vec());
        let r = ChunkedHistory::from_parts(9, read, h.chunks().to_vec(), open, window);
        require!(bits_eq(&r.iter().collect::<Vec<_>>(), &points));
        // Once anything is encoded the raw window holds `min_tail`.
        require!(r.window().len() == r.len() || r.window().len() >= read.min_tail);
    }

    /// At every length, every sealed chunk is the batch seal of the raw
    /// run it covers: the open chunk writes the bits
    /// `SealedChunk::seal` would.
    fn chunks_are_the_batch_seal_of_each_run((params, points) in arb_run(true)) {
        let runs: Vec<SealedChunk> = points.chunks_exact(params.seal_len).map(SealedChunk::seal).collect();
        let mut h = ChunkedHistory::new(0, params);
        for &p in &points {
            h.push(p);
            let k = h.chunks().len();
            require!(k <= runs.len());
            require_eq!(h.chunks(), &runs[..k]);
            require_eq!(h.sealed_samples(), k * params.seal_len);
        }
    }

    /// At every length, `unsealed()` is the raw tail a history kept
    /// when it compressed nothing before a seal: the tail that drops its
    /// oldest `seal_len` samples whenever it reaches `seal_len +
    /// min_tail`. The raw window stays within
    /// `min_tail + move_len` and, once anything is encoded, at or above
    /// `min_tail`.
    fn unsealed_is_the_old_tail((params, points) in arb_run(true)) {
        let mut h = ChunkedHistory::new(0, params);
        let mut tail = Vec::new();
        for &p in &points {
            h.push(p);
            tail.push(p);
            if tail.len() >= params.seal_len + params.min_tail {
                tail.drain(..params.seal_len);
            }
            require!(bits_eq(&h.unsealed(), &tail));
            let window = h.window().len();
            require!(window <= params.min_tail + params.move_len());
            require!(window == h.len() || window >= params.min_tail);
        }
    }

    /// At every length, the parts a snapshot takes rebuild an equal
    /// history, open chunk and coder state included, whether the open
    /// chunk is copied or read back from its stream; and the restored
    /// history goes on to encode what the live one does.
    fn from_parts_of_its_own_parts_is_equal((params, points) in arb_run(false)) {
        let mut h = ChunkedHistory::new(4, params);
        for &p in &points {
            h.push(p);
            let open = h.open_chunk();
            let read = OpenChunk::from_raw_parts(open.samples() as u32, open.bits(), open.words().to_vec());
            require_eq!(read.as_ref(), Ok(open));
            let r = ChunkedHistory::from_parts(4, params, h.chunks().to_vec(), read.unwrap(), h.window().to_vec());
            require!(r == h);
        }
        let mut r = ChunkedHistory::from_parts(4, params, h.chunks().to_vec(), h.open_chunk().clone(), h.window().to_vec());
        for &p in &points {
            r.push(p);
            h.push(p);
        }
        require!(r == h);
    }

    /// Byte accounting is conservative: the compressed payload of a
    /// sealed chunk never exceeds the raw layout of the same samples
    /// plus the 16-byte first-sample overhead.
    fn sealed_payload_bounded(points in arb_adversarial()) {
        assume!(!points.is_empty());
        let c = SealedChunk::seal(&points);
        // Worst case per delta sample: 2×(2+6+6+64) bits < 20 bytes.
        require!(c.packed_bytes() <= 16 + points.len() * 20);
        require_eq!(c.samples(), points.len());
    }
}
