//! Canonical byte encoding of tuning outcomes.
//!
//! The phase-equivalence harness needs to compare two `TuningRun`s for
//! *bit* equality — including `+inf` scores of quarantined candidates,
//! which JSON cannot round-trip (`serde_json` writes non-finite floats
//! as `null`). This module defines a tiny, schema-free encoder: every
//! `f64` is its IEEE-754 bit pattern, every length is a little-endian
//! `u64` prefix, and every field is written in declaration order. Two
//! values encode to the same bytes iff every deterministic field is
//! bit-identical. Digests, the worker wire protocol, spooled campaign
//! specs and the sealed checkpoint records (the campaign WAL's
//! [`crate::supervisor::CampaignRecord`] and the collection file's
//! [`crate::Checkpoint`]) all use it, and [`Reader`] is the one decoder
//! of every surface that takes these bytes from outside the process:
//! wire messages, spool specs and sealed records all read through it,
//! so the rule for bounding untrusted bytes lives in one place.

use ft_flags::rng::mix;
use ft_flags::Cv;

/// Appends a `u64` little-endian.
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its exact bit pattern (distinguishes `+inf`,
/// `-0.0`, and every NaN payload — nothing is rounded through text).
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    write_u64(out, v.to_bits());
}

/// Appends a length-prefixed byte slice.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

/// Appends a length-prefixed `f64` slice, each element by bit pattern.
pub fn write_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    write_u64(out, vs.len() as u64);
    for v in vs {
        write_f64(out, *v);
    }
}

/// Appends a count-prefixed CV list, each CV by its raw flag bytes.
pub fn write_cvs(out: &mut Vec<u8>, cvs: &[Cv]) {
    write_u64(out, cvs.len() as u64);
    for cv in cvs {
        write_bytes(out, cv.values());
    }
}

/// Appends an optional value: a `0` word for `None`, else a `1` word
/// followed by `write(value, out)` (the argument order of the
/// `write_canonical` methods).
pub fn write_option<T: ?Sized>(
    out: &mut Vec<u8>,
    value: Option<&T>,
    write: impl FnOnce(&T, &mut Vec<u8>),
) {
    match value {
        None => write_u64(out, 0),
        Some(v) => {
            write_u64(out, 1);
            write(v, out);
        }
    }
}

/// A bounds-checked cursor over untrusted canonical bytes: the one
/// decoder of every byte surface. Every read returns `None` on
/// truncation or a malformed value and leaves the cursor at the start
/// of the field it could not read, so [`Reader::pos`] names where a
/// refusal begins. Every count is checked against the bytes that remain
/// before anything is allocated for it.
///
/// A *dry* reader ([`Reader::dry`]) walks the same layout without
/// materializing it: strings, byte vectors and lists come back empty,
/// so a dry pass allocates nothing. Decoding a buffer dry first proves
/// it well-formed, so a hostile buffer is refused before the real pass
/// allocates a byte.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    dry: bool,
}

impl<'a> Reader<'a> {
    /// A reader that decodes `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            dry: false,
        }
    }

    /// A reader that only validates `buf` (see the type docs).
    pub fn dry(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            dry: true,
        }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte was consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one field with `read`, rewinding to its start on failure.
    fn field<T>(&mut self, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let start = self.pos;
        let value = read(self);
        if value.is_none() {
            self.pos = start;
        }
        value
    }

    /// The next `n` bytes, borrowed from the buffer.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let bytes = self.buf.get(self.pos..)?.get(..n)?;
        self.pos += n;
        Some(bytes)
    }

    /// A `u64` (inverse of [`write_u64`]).
    pub fn u64(&mut self) -> Option<u64> {
        let word = self.take(8)?;
        Some(u64::from_le_bytes(word.try_into().expect("8 bytes")))
    }

    /// An `f64` by bit pattern (inverse of [`write_f64`]).
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A `u64` word that must fit a `usize`.
    pub fn usize(&mut self) -> Option<usize> {
        self.field(|r| usize::try_from(r.u64()?).ok())
    }

    /// A `u64` word that must fit a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.field(|r| u32::try_from(r.u64()?).ok())
    }

    /// An element count whose elements take at least `min_bytes`
    /// (non-zero) each: refused unless that many bytes remain.
    pub fn count(&mut self, min_bytes: usize) -> Option<usize> {
        self.field(|r| {
            let n = r.usize()?;
            (n.checked_mul(min_bytes)? <= r.buf.len() - r.pos).then_some(n)
        })
    }

    /// A length-prefixed byte slice (inverse of [`write_bytes`]),
    /// borrowed from the buffer even when dry.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        self.field(|r| {
            let n = r.count(1)?;
            r.take(n)
        })
    }

    /// A length-prefixed UTF-8 string (inverse of [`write_str`]).
    /// Invalid UTF-8 is a decode failure, not a lossy conversion.
    pub fn str(&mut self) -> Option<String> {
        self.field(|r| {
            let s = std::str::from_utf8(r.bytes()?).ok()?;
            Some(if r.dry { String::new() } else { s.to_string() })
        })
    }

    /// A CV list (inverse of [`write_cvs`]).
    pub fn cvs(&mut self) -> Option<Vec<Cv>> {
        self.list(8, |r| {
            let values = r.bytes()?;
            Some(Cv::from_raw(if r.dry {
                Vec::new()
            } else {
                values.to_vec()
            }))
        })
    }

    /// A length-prefixed `f64` slice (inverse of [`write_f64s`]).
    pub fn f64s(&mut self) -> Option<Vec<f64>> {
        self.list(8, Self::f64)
    }

    /// A count-prefixed list whose elements take at least `min_bytes`
    /// each, decoded by `elem`.
    pub fn list<T>(
        &mut self,
        min_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = self.count(min_bytes)?;
        let mut out = Vec::with_capacity(if self.dry { 0 } else { n });
        for _ in 0..n {
            let v = elem(self)?;
            if !self.dry {
                out.push(v);
            }
        }
        Some(out)
    }

    /// An optional value (inverse of [`write_option`]); a presence
    /// word other than 0 or 1 is malformed.
    pub fn option<T>(&mut self, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        match self.u64()? {
            0 => Some(None),
            1 => read(self).map(Some),
            _ => None,
        }
    }
}

/// Folds an encoded buffer into a single `u64` (SplitMix64 over
/// 8-byte chunks) — a compact fingerprint for logs and golden tests.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0x5EED_CAFE_F00D_BEEFu64 ^ bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h ^ u64::from_le_bytes(word));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinities_and_nan_payloads_are_distinguished() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_f64(&mut a, f64::INFINITY);
        write_f64(&mut b, f64::NEG_INFINITY);
        assert_ne!(a, b);
        let mut z = Vec::new();
        let mut nz = Vec::new();
        write_f64(&mut z, 0.0);
        write_f64(&mut nz, -0.0);
        assert_ne!(z, nz, "JSON would conflate these; the encoder must not");
    }

    #[test]
    fn length_prefixes_prevent_field_bleeding() {
        // ("ab", "c") and ("a", "bc") must encode differently.
        let mut a = Vec::new();
        write_str(&mut a, "ab");
        write_str(&mut a, "c");
        let mut b = Vec::new();
        write_str(&mut b, "a");
        write_str(&mut b, "bc");
        assert_ne!(a, b);
    }

    #[test]
    fn readers_invert_writers() {
        let mut out = Vec::new();
        write_u64(&mut out, 0xDEAD_BEEF_u64);
        write_f64(&mut out, f64::INFINITY);
        write_bytes(&mut out, &[1, 2, 3]);
        write_str(&mut out, "swim");
        let mut r = Reader::new(&out);
        assert_eq!(r.u64(), Some(0xDEAD_BEEF_u64));
        assert_eq!(r.f64().map(f64::to_bits), Some(f64::INFINITY.to_bits()));
        assert_eq!(r.bytes(), Some(&[1u8, 2, 3][..]));
        assert_eq!(r.str().as_deref(), Some("swim"));
        assert!(r.at_end());
        assert_eq!(r.u64(), None, "past the end");
    }

    #[test]
    fn hostile_length_prefix_is_refused_without_allocation() {
        let mut out = Vec::new();
        write_u64(&mut out, u64::MAX); // claims ~2^64 bytes follow
        assert_eq!(Reader::new(&out).bytes(), None);
        // Truncation mid-prefix is also a clean refusal.
        assert_eq!(Reader::new(&out[..4]).bytes(), None);
    }

    #[test]
    fn a_failed_read_leaves_the_cursor_at_the_field() {
        let mut out = Vec::new();
        write_u64(&mut out, 7);
        write_u64(&mut out, 100); // a length prefix that overruns
        out.extend_from_slice(b"short");
        let mut r = Reader::new(&out);
        assert_eq!(r.u64(), Some(7));
        assert_eq!(r.bytes(), None);
        assert_eq!(r.pos(), 8, "rewound to the length prefix");
        assert_eq!(r.count(1), None);
        assert_eq!(r.pos(), 8);
        assert_eq!(r.str(), None);
        assert_eq!(r.pos(), 8);
    }

    #[test]
    fn digest_depends_on_every_byte() {
        let mut a = Vec::new();
        write_f64s(&mut a, &[1.0, 2.0, 3.0]);
        let mut b = a.clone();
        *b.last_mut().unwrap() ^= 1;
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
