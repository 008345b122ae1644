//! Checkpoint/resume support: state digests, the run journal, and the
//! versioned binary snapshot format.
//!
//! A checkpoint is a *proof point*: (simulated time, digest of live
//! state). The [`RunJournal`] records one every N simulated seconds and
//! keeps only the latest plus those not yet drained into a session's
//! directives. A [`SnapshotHasher`] computes the digest; the machine
//! feeds it its live state by hand.
//!
//! The digest folds the raw bits of the state (floats via `to_bits`) a
//! word at a time, one bijective multiply-xorshift step per word, and
//! finishes with splitmix; byte strings go in by FNV-1a. A state that
//! differs in one word always digests differently, and bit-identical
//! states digest equal — the property the crash-halfway/resume test
//! relies on.
//!
//! [`SnapshotWriter`] / [`SnapshotReader`] are the dependency-free binary
//! encoding of a whole session's state: little-endian words behind an
//! envelope of magic, version, payload length, and a trailing checksum
//! over the payload. The writer reserves the header up front and seals
//! in place. The checksum folds the payload a word at a time on four
//! interleaved lanes, because a served session is frozen after every
//! batch; [`reseal`] recomputes it for tests that edit a payload on
//! purpose. Every value in the
//! payload goes through one [`Codec`] impl that lists its fields once
//! for both directions. A snapshot carries
//! state, not history: the journal keeps only its latest checkpoint, and
//! trace records and the goal controller's plot series are output
//! history that stays out (the trace's counters go in). The one history
//! left is the machine's per-process fidelity series, which grows only
//! when a fidelity changes.
//! Decoding never panics — every read is bounds-checked and every
//! malformed input surfaces as a [`SnapshotError`], so a corrupted or
//! truncated snapshot sends recovery to an older generation instead of
//! taking the service down.
//!
//! Names (buckets, procedures, dead-letter reasons) travel as strings
//! but come back as `&'static str`: the thawing shell hands the reader
//! the [`Names`] it can hold, and a name outside them is
//! [`SnapshotError::Corrupt`]. Decoding allocates nothing that outlives
//! the reader.

#![deny(clippy::indexing_slicing)]

use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};

use crate::time::{SimDuration, SimTime};
use crate::units::{Joules, Watts};

/// First eight bytes of every sealed snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ODYSNAP1";

/// Format version written into (and demanded from) the envelope.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Why a snapshot failed to decode (or a component refused to encode).
///
/// Every variant is a recoverable condition: the caller falls back to an
/// older snapshot generation. Nothing in the decode path panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the declared content did.
    Truncated,
    /// The envelope does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The envelope was written by a different format version.
    VersionMismatch {
        /// The version found in the envelope header.
        found: u32,
    },
    /// The payload checksum does not match the trailing digest.
    ChecksumMismatch,
    /// The payload decoded structurally but a value is out of range.
    Corrupt(&'static str),
    /// The component cannot be frozen/thawed in its current shape.
    Unsupported(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "snapshot magic mismatch"),
            SnapshotError::VersionMismatch { found } => {
                write!(
                    f,
                    "snapshot version mismatch: found {found}, expected {SNAPSHOT_VERSION}"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::Unsupported(what) => write!(f, "snapshot unsupported: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Append-only encoder for the snapshot payload.
///
/// All scalars are little-endian words; floats are written by exact bit
/// pattern so freeze→thaw round-trips are bit-identical. Values go in
/// through [`Self::put`] in their [`Codec`] encoding; [`Self::seal`]
/// wraps the payload in the magic/version/length/checksum envelope. The
/// buffer opens with room for the header, so sealing writes the envelope
/// around the payload in place instead of copying it.
#[derive(Clone, Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        SnapshotWriter::new()
    }
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapshotWriter::with_capacity(0)
    }

    /// Creates an empty writer whose buffer holds a sealed snapshot of
    /// `sealed_len` bytes without growing: a caller that freezes the
    /// same state again passes the length of its previous snapshot.
    pub fn with_capacity(sealed_len: usize) -> Self {
        let mut buf = Vec::with_capacity(sealed_len.max(HEADER + 8));
        buf.resize(HEADER, 0);
        SnapshotWriter { buf }
    }

    /// Appends `v` in its [`Codec`] encoding.
    pub fn put<T: Codec>(&mut self, v: &T) {
        v.put(self);
    }

    /// Appends one little-endian word.
    fn word(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends length-prefixed raw bytes.
    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// The payload written so far.
    fn payload(&self) -> &[u8] {
        self.buf.get(HEADER..).unwrap_or_default()
    }

    /// Payload bytes written so far.
    pub fn len(&self) -> usize {
        self.payload().len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.payload().is_empty()
    }

    /// Wraps the payload in the envelope: magic, version, payload
    /// length, payload, then a trailing checksum of the payload.
    pub fn seal(mut self) -> Vec<u8> {
        let payload = self.payload();
        let checksum = checksum(payload);
        let len = (payload.len() as u64).to_le_bytes();
        let version = SNAPSHOT_VERSION.to_le_bytes();
        let header = SNAPSHOT_MAGIC.iter().chain(&version).chain(&len);
        self.buf.iter_mut().zip(header).for_each(|(b, &h)| *b = h);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

/// Envelope bytes before the payload: magic, version and payload length.
const HEADER: usize = 20;

/// Odd multiplier of the checksum step, so the multiply is a bijection.
const CHECKSUM_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One checksum step: `w` folds into `h` by a xor, an odd multiply and a
/// right xorshift. Each is invertible, so the step is a bijection of `h`
/// for a given word and of the word for a given `h`; the xorshift
/// carries high bits down, so the same bit flipped in two words of one
/// chain does not cancel.
#[inline]
fn fold(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(CHECKSUM_K);
    h ^ (h >> 29)
}

/// The envelope checksum of `payload`, a word at a time on four lanes.
/// Each 32-byte block feeds its four little-endian words to four chains
/// seeded with the payload length, so their multiplies overlap. Each
/// lane is finished with [`splitmix`] before the lanes fold, in order,
/// into one chain, also seeded with the length; the words after the last
/// block (the final one zero-padded) fold serially into that chain, and
/// [`splitmix`] finishes it. A change confined to one word changes its
/// lane, hence the sum. Without the per-lane finish the same high bit
/// flipped in two lanes' last words moves both lanes alike, and the
/// xor in the lane fold cancels it.
fn checksum(payload: &[u8]) -> u64 {
    let len = payload.len() as u64;
    let (blocks, tail) = payload.as_chunks::<32>();
    let mut lanes = [len; 4];
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = fold(*lane, u64::from_le_bytes(*word));
        }
    }
    let mut h = lanes
        .into_iter()
        .fold(len, |h, lane| fold(h, splitmix(lane)));
    for chunk in tail.chunks(8) {
        let mut word = [0u8; 8];
        word.iter_mut().zip(chunk).for_each(|(w, &b)| *w = b);
        h = fold(h, u64::from_le_bytes(word));
    }
    splitmix(h)
}

/// Rewrites the trailing checksum of a sealed snapshot to match the
/// payload between its header and its last eight bytes, so a payload
/// edited on purpose passes [`SnapshotReader::open`] and reaches field
/// validation. For tests and the fuzz harness; bytes too short to hold
/// an envelope are left as they are.
pub fn reseal(bytes: &mut [u8]) {
    let Some(end) = bytes.len().checked_sub(8) else {
        return;
    };
    let (body, trailer) = bytes.split_at_mut(end);
    if let Some(payload) = body.get(HEADER..) {
        trailer.copy_from_slice(&checksum(payload).to_le_bytes());
    }
}

/// A sorted, deduplicated table of `&'static str` names.
///
/// A name's id is its position, so ids run in name order. The machine's
/// energy ledger indexes its bookings by these ids, and a
/// [`SnapshotReader`] resolves every decoded name against one table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Names {
    names: Vec<&'static str>,
}

impl Names {
    /// The table of `names`, sorted and with duplicates dropped.
    pub fn new(names: impl IntoIterator<Item = &'static str>) -> Names {
        let mut names: Vec<&'static str> = names.into_iter().collect();
        names.sort_unstable();
        names.dedup();
        Names { names }
    }

    /// This table with `more` added.
    pub fn with(&self, more: impl IntoIterator<Item = &'static str>) -> Names {
        let more = Names::new(more);
        let mut names = Vec::with_capacity(self.len() + more.len());
        let (mut a, mut b) = (self.iter().peekable(), more.iter().peekable());
        while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
            names.push(x.min(y));
            if x <= y {
                a.next();
            }
            if y <= x {
                b.next();
            }
        }
        names.extend(a.chain(b));
        Names { names }
    }

    /// The id of `name`, if the table holds it.
    pub fn id(&self, name: &str) -> Option<usize> {
        self.names.binary_search(&name).ok()
    }

    /// The table's copy of `name`, if it holds one.
    pub fn resolve(&self, name: &str) -> Option<&'static str> {
        self.id(name).and_then(|i| self.names.get(i).copied())
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the table holds no name.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The names in id order.
    pub fn iter(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.names.iter().copied()
    }
}

/// The table of a reader given none: every name is unknown.
static NO_NAMES: Names = Names { names: Vec::new() };

/// Bounds-checked decoder over a verified snapshot payload.
///
/// Constructed by [`SnapshotReader::open`], which validates the whole
/// envelope (magic, version, length, checksum) up front; [`Self::take`]
/// then only needs to guard against structural truncation. No method
/// indexes unchecked or panics on hostile input — the module denies
/// `clippy::indexing_slicing` outside its tests to keep it so.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    payload: &'a [u8],
    pos: usize,
    names: &'a Names,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the envelope of `bytes` and returns a reader over the
    /// payload. The header is checked before the checksum: a wrong magic
    /// fails as [`SnapshotError::BadMagic`], another version as
    /// [`SnapshotError::VersionMismatch`], and a length word that claims
    /// more bytes than there are as [`SnapshotError::Truncated`] (fewer,
    /// as [`SnapshotError::Corrupt`]); only then a payload that does not
    /// match its checksum fails as [`SnapshotError::ChecksumMismatch`].
    pub fn open(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let magic = bytes.get(..8).ok_or(SnapshotError::Truncated)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version_bytes = bytes.get(8..12).ok_or(SnapshotError::Truncated)?;
        let mut v = [0u8; 4];
        v.copy_from_slice(version_bytes);
        let version = u32::from_le_bytes(v);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch { found: version });
        }
        let len_bytes = bytes.get(12..HEADER).ok_or(SnapshotError::Truncated)?;
        let mut l = [0u8; 8];
        l.copy_from_slice(len_bytes);
        // The declared length must account for every byte before the
        // checksum is computed.
        let declared = u64::from_le_bytes(l);
        let available = bytes.len().saturating_sub(HEADER + 8) as u64;
        match declared.cmp(&available) {
            Ordering::Greater => return Err(SnapshotError::Truncated),
            Ordering::Less => return Err(SnapshotError::Corrupt("trailing bytes after envelope")),
            Ordering::Equal => {}
        }
        let (body, checksum_bytes) = bytes.split_at(bytes.len() - 8);
        let payload = body.get(HEADER..).ok_or(SnapshotError::Truncated)?;
        let mut c = [0u8; 8];
        c.copy_from_slice(checksum_bytes);
        if checksum(payload) != u64::from_le_bytes(c) {
            return Err(SnapshotError::ChecksumMismatch);
        }
        Ok(SnapshotReader {
            payload,
            pos: 0,
            names: &NO_NAMES,
        })
    }

    /// Resolves the names this reader decodes against `names`. A reader
    /// opened without a table knows no name.
    pub fn with_names(self, names: &'a Names) -> Self {
        SnapshotReader { names, ..self }
    }

    /// Reads one value in its [`Codec`] encoding.
    pub fn take<T: Codec>(&mut self) -> Result<T, SnapshotError> {
        T::take(self)
    }

    /// Reads a word; the same as `take::<u64>()`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        self.take()
    }

    /// Reads a usize, rejecting words beyond the platform's range; the
    /// same as `take::<usize>()`.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        self.take()
    }

    /// Reads a [`SimTime`]; the same as `take::<SimTime>()`.
    pub fn take_time(&mut self) -> Result<SimTime, SnapshotError> {
        self.take()
    }

    /// Reads one little-endian word.
    fn word(&mut self) -> Result<u64, SnapshotError> {
        let bytes = self
            .payload
            .get(self.pos..self.pos + 8)
            .ok_or(SnapshotError::Truncated)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(bytes);
        self.pos += 8;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads length-prefixed raw bytes.
    fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len: usize = self.take()?;
        let end = self.pos.checked_add(len).ok_or(SnapshotError::Truncated)?;
        let bytes = self
            .payload
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Reads a length-prefixed UTF-8 string in place.
    fn take_str(&mut self) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.take_bytes()?).map_err(|_| SnapshotError::Corrupt("invalid utf-8"))
    }

    /// Reads a string destined for a `&'static str` field (bucket,
    /// procedure, dead-letter reason) and returns the reader's copy of
    /// it; a name outside the reader's [`Names`] is corrupt.
    fn take_static_str(&mut self) -> Result<&'static str, SnapshotError> {
        let s = self.take_str()?;
        self.names
            .resolve(s)
            .ok_or(SnapshotError::Corrupt("unknown name"))
    }

    /// Reads a name and returns its id in `names`; a name outside
    /// `names` is corrupt. A shell whose state is indexed by its own
    /// [`Names`] reads its keys this way.
    pub fn take_name_id(&mut self, names: &Names) -> Result<usize, SnapshotError> {
        let s = self.take_str()?;
        names.id(s).ok_or(SnapshotError::Corrupt("unknown name"))
    }

    /// Reads a length word and preallocates for at most 1024 items, so a
    /// hostile length costs a `Truncated`, not a huge allocation.
    fn take_len<T>(&mut self) -> Result<(usize, Vec<T>), SnapshotError> {
        let n: usize = self.take()?;
        Ok((n, Vec::with_capacity(n.min(1024))))
    }

    /// Unread payload bytes.
    pub fn remaining(&self) -> usize {
        self.payload.len().saturating_sub(self.pos)
    }

    /// Asserts the payload was fully consumed — leftover bytes mean the
    /// encoder and decoder disagree about the schema.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt("payload not fully consumed"))
        }
    }
}

/// A value with one snapshot encoding, stated once for both directions.
///
/// `put` writes the fields in a fixed order and `take` reads them back
/// in the same order. A type describes itself by one field list: `put`
/// is a `w.put(&self.f)` per field, `take` a struct literal of
/// `r.take()?` per field (struct literal fields evaluate in the order
/// written), followed by any range or invariant check the decoded value
/// must pass, which fails as [`SnapshotError::Corrupt`]. Enums write an
/// explicit tag word first. [`impl_codec!`](crate::impl_codec) writes
/// the impl for a plain field struct.
///
/// Scalars are one little-endian word each: `u32`, `usize` and `bool`
/// widen to a word (and reject out-of-range words on the way back),
/// floats and the unit newtypes go by bit pattern, instants and
/// durations by their microsecond count. `Option` is a presence word
/// then the value; `Vec`, `VecDeque`, `BTreeMap` and strings are a
/// length word then their items. A map rejects a duplicate key. A
/// `&'static str` must be one of the reader's [`Names`].
pub trait Codec: Sized {
    /// Appends this value to a snapshot payload.
    fn put(&self, w: &mut SnapshotWriter);

    /// Reads a value written by [`Codec::put`].
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// Implements [`Codec`] for a struct whose encoding is its listed
/// fields in order, each by its own `Codec`.
#[macro_export]
macro_rules! impl_codec {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::snapshot::Codec for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                $(w.put(&self.$field);)+
            }

            fn take(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok($ty { $($field: r.take()?),+ })
            }
        }
    };
}

/// Implements [`Codec`] for scalars that travel as one word: each row
/// gives how the value widens to the word and how a word comes back,
/// failing where the word is out of the type's range.
macro_rules! word_codec {
    ($($ty:ty => $to:expr, $from:expr;)+) => {$(
        impl Codec for $ty {
            fn put(&self, w: &mut SnapshotWriter) {
                w.word(($to)(*self));
            }

            fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                r.word().and_then($from)
            }
        }
    )+};
}

word_codec! {
    u64 => |v| v, Ok;
    u32 => u64::from, |v| u32::try_from(v).map_err(|_| SnapshotError::Corrupt("u32 overflow"));
    usize => |v| v as u64,
        |v| usize::try_from(v).map_err(|_| SnapshotError::Corrupt("usize overflow"));
    bool => u64::from, |v| match v {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(SnapshotError::Corrupt("bool out of range")),
    };
    f64 => f64::to_bits, |v| Ok(f64::from_bits(v));
    Joules => |j: Joules| j.0.to_bits(), |v| Ok(Joules(f64::from_bits(v)));
    Watts => |p: Watts| p.0.to_bits(), |v| Ok(Watts(f64::from_bits(v)));
    SimTime => SimTime::as_micros, |v| Ok(SimTime::from_micros(v));
    SimDuration => SimDuration::as_micros, |v| Ok(SimDuration::from_micros(v));
}

impl Codec for &'static str {
    fn put(&self, w: &mut SnapshotWriter) {
        w.bytes(self.as_bytes());
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_static_str()
    }
}

impl Codec for String {
    fn put(&self, w: &mut SnapshotWriter) {
        w.bytes(self.as_bytes());
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.take_str()?.to_owned())
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.is_some());
        if let Some(v) = self {
            w.put(v);
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        if r.take()? {
            Ok(Some(r.take()?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.len());
        for v in self {
            w.put(v);
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let (n, mut out) = r.take_len()?;
        for _ in 0..n {
            out.push(r.take()?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.len());
        for v in self {
            w.put(v);
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::take(r)?.into())
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.len());
        for (k, v) in self {
            w.put(k);
            w.put(v);
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut map = BTreeMap::new();
        for (k, v) in Vec::<(K, V)>::take(r)? {
            if map.insert(k, v).is_some() {
                return Err(SnapshotError::Corrupt("duplicate map key"));
            }
        }
        Ok(map)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.0);
        w.put(&self.1);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((r.take()?, r.take()?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.0);
        w.put(&self.1);
        w.put(&self.2);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((r.take()?, r.take()?, r.take()?))
    }
}

/// Checks the [`Codec`] laws on `value`, panicking on a violation: it
/// round-trips to an equal value that consumes the whole payload; every
/// truncation of the sealed snapshot fails to decode; and every
/// truncation of the payload, resealed, decodes to
/// [`SnapshotError::Truncated`]. Each crate's tests run it over its own
/// impls.
///
/// # Panics
///
/// Panics when a law does not hold.
pub fn check_codec<T: Codec + PartialEq + std::fmt::Debug>(value: &T) {
    check_codec_in(value, &NO_NAMES);
}

/// [`check_codec`] for a value holding names: every reader resolves
/// them against `names`.
///
/// # Panics
///
/// Panics when a law does not hold.
pub fn check_codec_in<T: Codec + PartialEq + std::fmt::Debug>(value: &T, names: &Names) {
    let mut w = SnapshotWriter::new();
    w.put(value);
    let payload = w.payload().to_vec();
    let sealed = w.seal();
    let decode = |bytes: &[u8]| {
        let mut r = SnapshotReader::open(bytes)?.with_names(names);
        let v = r.take::<T>()?;
        r.finish().map(|()| v)
    };
    assert_eq!(decode(&sealed).as_ref(), Ok(value), "round trip");
    for cut in 0..sealed.len() {
        let prefix = sealed.get(..cut).unwrap_or_default();
        assert!(decode(prefix).is_err(), "sealed cut at {cut}");
    }
    for cut in 0..payload.len() {
        let mut w = SnapshotWriter::new();
        w.buf
            .extend_from_slice(payload.get(..cut).unwrap_or_default());
        let resealed = w.seal();
        let got = decode(&resealed);
        assert_eq!(got, Err(SnapshotError::Truncated), "payload cut at {cut}");
    }
}

/// Incremental 64-bit state digest.
///
/// Raw bytes go in by FNV-1a with a splitmix64 finish per call; a word
/// goes in by one step of the envelope checksum's chain, a bijection of
/// the state for a given word and of the word for a given state. Not
/// cryptographic, but sensitive to every bit fed in, which is all a
/// determinism check needs.
#[derive(Clone, Debug)]
pub struct SnapshotHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SnapshotHasher {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        SnapshotHasher { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self.state = splitmix(self.state);
    }

    /// Folds a word into the digest in one step.
    pub fn write_u64(&mut self, v: u64) {
        self.state = fold(self.state, v);
    }

    /// Folds a float into the digest by its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        splitmix(self.state)
    }
}

impl Default for SnapshotHasher {
    fn default() -> Self {
        SnapshotHasher::new()
    }
}

/// One recorded proof point of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Sequence number, starting at 0.
    pub seq: u64,
    /// Simulated instant the digest was taken.
    pub t: SimTime,
    /// Digest of the full live state at `t`.
    pub digest: u64,
}

/// Journal of checkpoints taken every N simulated seconds.
///
/// The journal holds state, not history: the latest checkpoint plus
/// those recorded since the last [`Self::drain`], which a serving
/// session empties into directives after every batch. Its size, and its
/// share of a snapshot, is bounded by one batch however long the run.
/// Recording a checkpoint never mutates simulation state; it observes
/// the digest a hook computed and remembers when the next one is due.
#[derive(Clone, Debug, PartialEq)]
pub struct RunJournal {
    interval: SimDuration,
    next_due: SimTime,
    latest: Option<Checkpoint>,
    undrained: Vec<Checkpoint>,
}

impl RunJournal {
    /// Creates a journal checkpointing every `interval`.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval.
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "checkpoint interval must be positive");
        RunJournal {
            interval,
            next_due: SimTime::ZERO + interval,
            latest: None,
            undrained: Vec::new(),
        }
    }

    /// Records a checkpoint at `now` if one is due; returns true if
    /// recorded. `digest` is only invoked when due.
    pub fn record_if_due(&mut self, now: SimTime, digest: impl FnOnce() -> u64) -> bool {
        if now < self.next_due {
            return false;
        }
        let ck = Checkpoint {
            seq: self.latest.map_or(0, |c| c.seq + 1),
            t: now,
            digest: digest(),
        };
        self.latest = Some(ck);
        self.undrained.push(ck);
        // Schedule strictly after `now` so a stalled clock cannot record
        // twice at one instant.
        while self.next_due <= now {
            self.next_due += self.interval;
        }
        true
    }

    /// The most recent checkpoint, if any: the salvage point of a run
    /// killed now.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.latest.as_ref()
    }

    /// Takes the checkpoints recorded since the previous drain, in time
    /// order. [`Self::latest`] stays.
    pub fn drain(&mut self) -> Vec<Checkpoint> {
        std::mem::take(&mut self.undrained)
    }
}

crate::impl_codec!(Checkpoint { seq, t, digest });

impl RunJournal {
    /// Writes the journal's state: a has-latest word, the undrained
    /// count, then the latest checkpoint (when present) and the undrained
    /// ones. The latest is written once even when it is also the newest
    /// undrained entry. The interval is construction-time configuration,
    /// and the next due instant is the first multiple of it after the
    /// latest checkpoint, so neither is written.
    pub fn freeze_into(&self, w: &mut SnapshotWriter) {
        w.put(&self.latest.is_some());
        w.put(&self.undrained.len());
        for c in self.latest.iter().chain(&self.undrained) {
            w.put(c);
        }
    }

    /// Restores the state written by [`Self::freeze_into`] onto this
    /// journal, which must have been built with the frozen one's
    /// interval.
    pub fn thaw_from(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let has_latest: bool = r.take()?;
        let (n, mut undrained): (usize, Vec<Checkpoint>) = r.take_len()?;
        let latest = if has_latest { Some(r.take()?) } else { None };
        for _ in 0..n {
            undrained.push(r.take()?);
        }
        // The undrained run is dense, in time order, and ends at `latest`.
        let dense = undrained
            .windows(2)
            .all(|w| matches!(w, [a, b] if b.seq == a.seq + 1 && b.t >= a.t));
        if !dense || undrained.last().is_some_and(|c| Some(*c) != latest) {
            return Err(SnapshotError::Corrupt("undrained checkpoints"));
        }
        let every = self.interval.as_micros();
        let due = latest.map_or(1, |c: Checkpoint| c.t.as_micros() / every + 1);
        self.next_due = SimTime::from_micros(due.saturating_mul(every));
        self.latest = latest;
        self.undrained = undrained;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_bit_sensitive() {
        let mut a = SnapshotHasher::new();
        let mut b = SnapshotHasher::new();
        a.write_f64(1.0);
        b.write_f64(1.0 + f64::EPSILON);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = SnapshotHasher::new();
        let mut b = SnapshotHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn journal_records_on_interval_and_drains() {
        let mut j = RunJournal::new(SimDuration::from_secs(10));
        assert!(!j.record_if_due(SimTime::from_secs(5), || 1));
        assert!(j.record_if_due(SimTime::from_secs(10), || 2));
        assert!(!j.record_if_due(SimTime::from_secs(10), || 3));
        assert!(j.record_if_due(SimTime::from_secs(25), || 4));
        let second = Checkpoint {
            seq: 1,
            t: SimTime::from_secs(25),
            digest: 4,
        };
        assert_eq!(
            j.drain(),
            vec![
                Checkpoint {
                    seq: 0,
                    t: SimTime::from_secs(10),
                    digest: 2
                },
                second
            ]
        );
        // Draining keeps the latest and empties the rest.
        assert!(j.drain().is_empty());
        assert_eq!(j.latest(), Some(&second));
        assert!(j.record_if_due(SimTime::from_secs(30), || 5));
        assert_eq!(j.drain().len(), 1);
        assert_eq!(j.latest().map(|c| c.seq), Some(2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = RunJournal::new(SimDuration::ZERO);
    }

    fn sample_payload() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put(&7u64);
        w.put(&-0.5f64);
        w.put(&true);
        w.put(&"speech");
        w.put(&Some(3u64));
        w.put(&None::<SimTime>);
        w.seal()
    }

    /// A journal with a drained checkpoint and an undrained latest one.
    fn journal() -> RunJournal {
        let mut j = RunJournal::new(SimDuration::from_secs(10));
        j.record_if_due(SimTime::from_secs(10), || 10);
        j.drain();
        j.record_if_due(SimTime::from_secs(25), || 25);
        j
    }

    /// The generic property test over every impl in this crate.
    #[test]
    fn codec_laws_hold_for_every_impl() {
        check_codec(&0u64);
        check_codec(&u64::MAX);
        check_codec(&u32::MAX);
        check_codec(&usize::MAX);
        check_codec(&true);
        check_codec(&-0.5f64);
        check_codec(&f64::INFINITY);
        check_codec(&Joules(3.25));
        check_codec(&Watts(-1e-300));
        check_codec(&SimTime::from_micros(u64::MAX));
        check_codec(&SimDuration::from_millis(1500));
        check_codec(&crate::EventQueue::new().push(SimTime::ZERO, ()));
        check_codec(&crate::EventQueue::<()>::new().mark());
        let names = Names::new([
            "speech", "", "a", "bb", "x", "xanim", "decode", "Idle", "idle",
        ]);
        check_codec_in(&"speech", &names);
        check_codec_in(&"", &names);
        check_codec(&String::from("naïve"));
        check_codec(&None::<u64>);
        check_codec(&Some(0u64));
        check_codec(&Vec::<u64>::new());
        check_codec(&vec![Some(1.5f64), None]);
        check_codec_in(&VecDeque::from(["a", "bb"]), &names);
        check_codec(&(7usize, Joules(1.0)));
        check_codec_in(&(SimTime::ZERO, 2u32, "x"), &names);
        let detail: BTreeMap<(&'static str, &'static str), (f64, Joules)> = [
            (("xanim", "decode"), (1.5, Joules(20.0))),
            (("Idle", "idle"), (0.0, Joules(3.0))),
        ]
        .into();
        check_codec_in(&detail, &names);
        check_codec(&Checkpoint {
            seq: 4,
            t: SimTime::from_secs(50),
            digest: u64::MAX,
        });
        let mut series = crate::TimeSeries::new("level");
        series.record(SimTime::ZERO, 2.0);
        series.record(SimTime::from_secs(3), 1.0);
        check_codec(&series);
    }

    /// A length word of `u64::MAX` ends in `Truncated` after a bounded
    /// preallocation, for every length-prefixed decode.
    #[test]
    fn hostile_length_words_are_truncated() {
        let mut w = SnapshotWriter::new();
        w.put(&u64::MAX);
        w.put(&1u64);
        let bytes = w.seal();
        let take = |f: fn(&mut SnapshotReader<'_>) -> Result<(), SnapshotError>| {
            f(&mut SnapshotReader::open(&bytes).expect("open"))
        };
        let truncated = Err(SnapshotError::Truncated);
        assert_eq!(take(|r| r.take::<Vec<u64>>().map(drop)), truncated);
        assert_eq!(take(|r| r.take::<VecDeque<u64>>().map(drop)), truncated);
        assert_eq!(
            take(|r| r.take::<BTreeMap<u64, u64>>().map(drop)),
            truncated
        );
        assert_eq!(take(|r| r.take::<&'static str>().map(drop)), truncated);
        assert_eq!(take(|r| r.take::<String>().map(drop)), truncated);
    }

    #[test]
    fn duplicate_map_key_is_corrupt() {
        let mut w = SnapshotWriter::new();
        w.put(&vec![(1u64, 2u64), (1, 3)]);
        let bytes = w.seal();
        let mut r = SnapshotReader::open(&bytes).expect("open");
        assert_eq!(
            r.take::<BTreeMap<u64, u64>>(),
            Err(SnapshotError::Corrupt("duplicate map key"))
        );
    }

    #[test]
    fn out_of_range_words_are_corrupt() {
        let mut w = SnapshotWriter::new();
        w.put(&2u64);
        w.put(&(u64::from(u32::MAX) + 1));
        let bytes = w.seal();
        let mut r = SnapshotReader::open(&bytes).expect("open");
        assert!(matches!(r.take::<bool>(), Err(SnapshotError::Corrupt(_))));
        assert!(matches!(r.take::<u32>(), Err(SnapshotError::Corrupt(_))));
    }

    /// A decoded name is the table's own copy; a name outside the table,
    /// or any name read without one, is corrupt.
    #[test]
    fn names_resolve_against_the_readers_table() {
        let disk: &'static str = "disk";
        let names = Names::new([disk, "idle", disk]);
        assert_eq!(names.len(), 2);
        assert_eq!(names.id("idle"), Some(1));
        assert_eq!(
            Names::new(["b", "d"]).with(["e", "d", "a", "c", "a"]),
            Names::new(["a", "b", "c", "d", "e"])
        );
        let mut w = SnapshotWriter::new();
        w.put(&String::from("disk"));
        w.put(&"ghost");
        let bytes = w.seal();
        let mut r = SnapshotReader::open(&bytes)
            .expect("open")
            .with_names(&names);
        let a: &str = r.take().unwrap();
        assert!(
            std::ptr::eq(a, disk),
            "a name must resolve to the table's copy"
        );
        assert_eq!(
            r.take::<&'static str>(),
            Err(SnapshotError::Corrupt("unknown name"))
        );
        let mut bare = SnapshotReader::open(&bytes).expect("open");
        assert_eq!(
            bare.take::<&'static str>(),
            Err(SnapshotError::Corrupt("unknown name"))
        );
    }

    #[test]
    fn truncation_at_every_length_is_detected_without_panic() {
        let bytes = sample_payload();
        for cut in 0..bytes.len() {
            let err =
                SnapshotReader::open(&bytes[..cut]).expect_err("truncated snapshot must not open");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::BadMagic
                        | SnapshotError::ChecksumMismatch
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_payload();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[byte] ^= 1 << bit;
                let outcome = SnapshotReader::open(&evil);
                assert!(
                    outcome.is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    /// Every lane, the block/tail boundary and the zero-padded last
    /// word: for payloads of 0 to 96 bytes, flipping any one bit changes
    /// the checksum, and so does flipping the same bit in two words 1, 2,
    /// 3 or 4 words apart (other lanes, the same lane, or a block word
    /// and a tail word).
    #[test]
    fn every_flip_in_every_lane_changes_the_checksum() {
        let patterned: Vec<u8> = (0..96u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for base in [vec![0u8; 96], patterned] {
            for len in 0..=base.len() {
                let payload = &base[..len];
                let sum = checksum(payload);
                let flipped = |bits: &[usize]| {
                    let mut p = payload.to_vec();
                    for &bit in bits {
                        p[bit / 8] ^= 1 << (bit % 8);
                    }
                    checksum(&p)
                };
                for bit in 0..len * 8 {
                    assert_ne!(flipped(&[bit]), sum, "length {len}: bit {bit}");
                    for apart in 1..=4 {
                        let other = bit + 64 * apart;
                        if other < len * 8 {
                            assert_ne!(
                                flipped(&[bit, other]),
                                sum,
                                "length {len}: bits {bit} and {other}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn version_mismatch_reports_found_version() {
        let mut bytes = sample_payload();
        bytes[8] = 99;
        assert!(matches!(
            SnapshotReader::open(&bytes),
            Err(SnapshotError::VersionMismatch { found: 99 })
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample_payload();
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotReader::open(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = sample_payload();
        bytes.push(0);
        assert!(matches!(
            SnapshotReader::open(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn unconsumed_payload_is_an_error() {
        let bytes = sample_payload();
        let r = SnapshotReader::open(&bytes).expect("open");
        assert!(matches!(r.finish(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn journal_snapshot_stays_flat_as_the_run_grows() {
        let frozen_len = |secs: u64| {
            let mut j = RunJournal::new(SimDuration::from_secs(10));
            for t in (10..=secs).step_by(10) {
                j.record_if_due(SimTime::from_secs(t), || t);
                j.drain();
            }
            let mut w = SnapshotWriter::new();
            j.freeze_into(&mut w);
            w.seal().len()
        };
        assert_eq!(frozen_len(100), frozen_len(100_000));
    }

    /// A journal thaws onto one rebuilt with its interval, and picks up
    /// its next due instant from the latest checkpoint; every cut of the
    /// payload is `Truncated`.
    #[test]
    fn journal_thaws_onto_a_rebuilt_journal() {
        let every = SimDuration::from_secs(10);
        for want in [RunJournal::new(every), journal()] {
            let mut w = SnapshotWriter::new();
            want.freeze_into(&mut w);
            let payload = w.payload().to_vec();
            let thaw = |bytes: &[u8]| {
                let mut r = SnapshotReader::open(bytes)?;
                let mut j = RunJournal::new(every);
                j.thaw_from(&mut r)?;
                r.finish().map(|()| j)
            };
            assert_eq!(thaw(&w.seal()).as_ref(), Ok(&want));
            for cut in 0..payload.len() {
                let mut w = SnapshotWriter::new();
                w.buf.extend_from_slice(&payload[..cut]);
                assert_eq!(
                    thaw(&w.seal()),
                    Err(SnapshotError::Truncated),
                    "cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn undrained_checkpoints_must_end_at_the_latest() {
        let mut w = SnapshotWriter::new();
        w.put(&true);
        w.put(&1usize);
        for seq in [1u64, 0] {
            w.put(&(seq, SimTime::from_secs(10), 7u64));
        }
        let bytes = w.seal();
        let mut r = SnapshotReader::open(&bytes).expect("open");
        assert_eq!(
            RunJournal::new(SimDuration::from_secs(10)).thaw_from(&mut r),
            Err(SnapshotError::Corrupt("undrained checkpoints"))
        );
    }
}
