//! Checkpoint/resume support: state digests, the run journal, and the
//! versioned binary snapshot format.
//!
//! A checkpoint is a *proof point*: (simulated time, digest of live
//! state). The [`RunJournal`] records one every N simulated seconds and
//! keeps only the latest plus those not yet drained into a session's
//! directives; the [`Snapshot`] trait folds a component's live state
//! into a [`SnapshotHasher`].
//!
//! The digest is a 64-bit FNV-1a/splitmix chain over the raw bits of the
//! state (floats via `to_bits`), so two states digest equal iff they are
//! bit-identical — the property the crash-halfway/resume test relies on.
//!
//! [`SnapshotWriter`] / [`SnapshotReader`] are the dependency-free binary
//! encoding of a whole session's state: little-endian scalars behind an
//! envelope of magic, version, payload length, and a trailing
//! [`SnapshotHasher`] checksum over the payload. A snapshot carries
//! state, not history: the journal keeps only its latest checkpoint, and
//! trace records and the goal controller's plot series are output
//! history that stays out (the trace's counters go in). The one history
//! left is the machine's per-process fidelity series, which grows only
//! when a fidelity changes.
//! Decoding never panics — every read is bounds-checked and every
//! malformed input surfaces as a [`SnapshotError`], so a corrupted or
//! truncated snapshot sends recovery to an older generation instead of
//! taking the service down.

#![deny(clippy::indexing_slicing)]

use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

use crate::time::{SimDuration, SimTime};

/// First eight bytes of every sealed snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ODYSNAP1";

/// Format version written into (and demanded from) the envelope.
pub const SNAPSHOT_VERSION: u32 = 2;

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
/// All scalars are little-endian; floats are written by exact bit
/// pattern so freeze→thaw round-trips are bit-identical. [`Self::seal`]
/// wraps the payload in the magic/version/length/checksum envelope.
#[derive(Clone, Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Appends a word.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a float by its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one word (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u64(v as u64);
    }

    /// Appends a usize widened to a word.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a [`SimTime`] as its microsecond count.
    pub fn put_time(&mut self, t: SimTime) {
        self.put_u64(t.as_micros());
    }

    /// Appends a [`SimDuration`] as its microsecond count.
    pub fn put_duration(&mut self, d: SimDuration) {
        self.put_u64(d.as_micros());
    }

    /// Appends length-prefixed raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends `Some(v)`/`None` as a presence word plus the payload.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.put_u64(0),
            Some(v) => {
                self.put_u64(1);
                self.put_u64(v);
            }
        }
    }

    /// Appends an optional float (presence word plus bit pattern).
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.put_u64(0),
            Some(v) => {
                self.put_u64(1);
                self.put_f64(v);
            }
        }
    }

    /// Appends an optional [`SimTime`].
    pub fn put_opt_time(&mut self, t: Option<SimTime>) {
        self.put_opt_u64(t.map(|t| t.as_micros()));
    }

    /// Payload bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Wraps the payload in the envelope: magic, version, payload
    /// length, payload, then a trailing [`SnapshotHasher`] digest of the
    /// payload.
    pub fn seal(self) -> Vec<u8> {
        let mut h = SnapshotHasher::new();
        h.write_bytes(&self.buf);
        let checksum = h.finish();
        let mut out = Vec::with_capacity(self.buf.len() + 28);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.buf);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }
}

/// Every `&'static str` any [`SnapshotReader`] has decoded.
static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Bounds-checked decoder over a verified snapshot payload.
///
/// Constructed by [`SnapshotReader::open`], which validates the whole
/// envelope (magic, version, length, checksum) up front; the take
/// methods then only need to guard against structural truncation. No
/// method indexes unchecked or panics on hostile input — the module
/// denies `clippy::indexing_slicing` outside its tests to keep it so.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the envelope of `bytes` and returns a reader over the
    /// payload.
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
        let len_bytes = bytes.get(12..20).ok_or(SnapshotError::Truncated)?;
        let mut l = [0u8; 8];
        l.copy_from_slice(len_bytes);
        let payload_len = u64::from_le_bytes(l) as usize;
        let payload_end = 20usize
            .checked_add(payload_len)
            .ok_or(SnapshotError::Truncated)?;
        let payload = bytes.get(20..payload_end).ok_or(SnapshotError::Truncated)?;
        let checksum_bytes = bytes
            .get(payload_end..payload_end + 8)
            .ok_or(SnapshotError::Truncated)?;
        let mut c = [0u8; 8];
        c.copy_from_slice(checksum_bytes);
        let mut h = SnapshotHasher::new();
        h.write_bytes(payload);
        if h.finish() != u64::from_le_bytes(c) {
            return Err(SnapshotError::ChecksumMismatch);
        }
        if bytes.len() > payload_end + 8 {
            return Err(SnapshotError::Corrupt("trailing bytes after envelope"));
        }
        Ok(SnapshotReader { payload, pos: 0 })
    }

    /// Reads a word.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        let bytes = self
            .payload
            .get(self.pos..self.pos + 8)
            .ok_or(SnapshotError::Truncated)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(bytes);
        self.pos += 8;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a float by bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a bool; any word other than 0/1 is corruption.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u64()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool out of range")),
        }
    }

    /// Reads a usize, rejecting words beyond the platform's range.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take_u64()?).map_err(|_| SnapshotError::Corrupt("usize overflow"))
    }

    /// Reads a [`SimTime`].
    pub fn take_time(&mut self) -> Result<SimTime, SnapshotError> {
        Ok(SimTime::from_micros(self.take_u64()?))
    }

    /// Reads a [`SimDuration`].
    pub fn take_duration(&mut self) -> Result<SimDuration, SnapshotError> {
        Ok(SimDuration::from_micros(self.take_u64()?))
    }

    /// Reads length-prefixed raw bytes.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.take_usize()?;
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

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_string(&mut self) -> Result<String, SnapshotError> {
        Ok(self.take_str()?.to_owned())
    }

    /// Reads a string destined for a `&'static str` field (bucket,
    /// procedure, dead-letter reason), interned process-wide.
    ///
    /// A name is leaked the first time any reader in the process decodes
    /// it and reused from then on, so the leak is bounded by the distinct
    /// names ever thawed, not by the number of thaws.
    pub fn take_static_str(&mut self) -> Result<&'static str, SnapshotError> {
        let s = self.take_str()?;
        // A poisoned set is still sound: the only update is one `insert`
        // of a name that is already leaked, so no panic leaves it half done.
        let mut names = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&name) = names.get(s) {
            return Ok(name);
        }
        let name: &'static str = Box::leak(s.into());
        names.insert(name);
        Ok(name)
    }

    /// Reads an optional word (presence word plus payload).
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        if self.take_bool()? {
            Ok(Some(self.take_u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads an optional float.
    pub fn take_opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        if self.take_bool()? {
            Ok(Some(self.take_f64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads an optional [`SimTime`].
    pub fn take_opt_time(&mut self) -> Result<Option<SimTime>, SnapshotError> {
        Ok(self.take_opt_u64()?.map(SimTime::from_micros))
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

/// Incremental 64-bit state digest.
///
/// FNV-1a over bytes with a splitmix64 finalizer per word; not
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

    /// Folds a word into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
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

/// State that can be folded into a checkpoint digest.
///
/// Implementations must visit every field that influences future
/// behavior, in a fixed order; two components snapshot equal iff their
/// observable future evolution is identical.
pub trait Snapshot {
    /// Folds this component's live state into the hasher.
    fn snapshot(&self, h: &mut SnapshotHasher);
}

impl Snapshot for u64 {
    fn snapshot(&self, h: &mut SnapshotHasher) {
        h.write_u64(*self);
    }
}

impl Snapshot for u32 {
    fn snapshot(&self, h: &mut SnapshotHasher) {
        h.write_u64(*self as u64);
    }
}

impl Snapshot for usize {
    fn snapshot(&self, h: &mut SnapshotHasher) {
        h.write_u64(*self as u64);
    }
}

impl Snapshot for bool {
    fn snapshot(&self, h: &mut SnapshotHasher) {
        h.write_u64(*self as u64);
    }
}

impl Snapshot for f64 {
    fn snapshot(&self, h: &mut SnapshotHasher) {
        h.write_f64(*self);
    }
}

impl Snapshot for SimTime {
    fn snapshot(&self, h: &mut SnapshotHasher) {
        h.write_u64(self.as_micros());
    }
}

impl Snapshot for SimDuration {
    fn snapshot(&self, h: &mut SnapshotHasher) {
        h.write_u64(self.as_micros());
    }
}

impl Snapshot for str {
    fn snapshot(&self, h: &mut SnapshotHasher) {
        h.write_u64(self.len() as u64);
        h.write_bytes(self.as_bytes());
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn snapshot(&self, h: &mut SnapshotHasher) {
        match self {
            None => h.write_u64(0),
            Some(v) => {
                h.write_u64(1);
                v.snapshot(h);
            }
        }
    }
}

impl<T: Snapshot> Snapshot for [T] {
    fn snapshot(&self, h: &mut SnapshotHasher) {
        h.write_u64(self.len() as u64);
        for v in self {
            v.snapshot(h);
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn snapshot(&self, h: &mut SnapshotHasher) {
        self.as_slice().snapshot(h);
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
#[derive(Clone, Debug)]
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

    /// Encodes the journal (interval, schedule position, latest and
    /// undrained checkpoints) into a snapshot payload.
    pub fn freeze_into(&self, w: &mut SnapshotWriter) {
        w.put_duration(self.interval);
        w.put_time(self.next_due);
        w.put_bool(self.latest.is_some());
        w.put_usize(self.undrained.len());
        for c in self.latest.iter().chain(&self.undrained) {
            w.put_u64(c.seq);
            w.put_time(c.t);
            w.put_u64(c.digest);
        }
    }

    /// Decodes a journal previously written by [`Self::freeze_into`].
    pub fn thaw_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let interval = r.take_duration()?;
        if interval.is_zero() {
            return Err(SnapshotError::Corrupt("zero checkpoint interval"));
        }
        let next_due = r.take_time()?;
        let has_latest = r.take_bool()?;
        let n = r.take_usize()?;
        let mut take = || -> Result<Checkpoint, SnapshotError> {
            Ok(Checkpoint {
                seq: r.take_u64()?,
                t: r.take_time()?,
                digest: r.take_u64()?,
            })
        };
        let latest = if has_latest { Some(take()?) } else { None };
        let mut undrained: Vec<Checkpoint> = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            undrained.push(take()?);
        }
        // The undrained run is dense, in time order, and ends at `latest`.
        let dense = undrained
            .windows(2)
            .all(|w| matches!(w, [a, b] if b.seq == a.seq + 1 && b.t >= a.t));
        if !dense || undrained.last().is_some_and(|c| Some(*c) != latest) {
            return Err(SnapshotError::Corrupt("undrained checkpoints"));
        }
        Ok(RunJournal {
            interval,
            next_due,
            latest,
            undrained,
        })
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
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
    fn identical_streams_digest_equal() {
        let mut a = SnapshotHasher::new();
        let mut b = SnapshotHasher::new();
        for h in [&mut a, &mut b] {
            h.write_u64(42);
            h.write_f64(-0.5);
            "speech".snapshot(h);
            Some(7u64).snapshot(h);
            vec![1u64, 2, 3].snapshot(h);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn option_none_differs_from_some_zero() {
        let mut a = SnapshotHasher::new();
        let mut b = SnapshotHasher::new();
        Option::<u64>::None.snapshot(&mut a);
        Some(0u64).snapshot(&mut b);
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
        w.put_u64(7);
        w.put_f64(-0.5);
        w.put_bool(true);
        w.put_str("speech");
        w.put_opt_u64(Some(3));
        w.put_opt_time(None);
        w.seal()
    }

    #[test]
    fn writer_reader_round_trip() {
        let bytes = sample_payload();
        let mut r = SnapshotReader::open(&bytes).expect("open");
        assert_eq!(r.take_u64().unwrap(), 7);
        assert_eq!(r.take_f64().unwrap(), -0.5);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_string().unwrap(), "speech");
        assert_eq!(r.take_opt_u64().unwrap(), Some(3));
        assert_eq!(r.take_opt_time().unwrap(), None);
        r.finish().expect("fully consumed");
    }

    /// Names intern to one leak within a reader and across readers:
    /// every thaw opens a new reader, and a long-lived server must not
    /// grow with its restore count.
    #[test]
    fn static_str_interning_dedups() {
        let mut w = SnapshotWriter::new();
        w.put_str("disk");
        w.put_str("disk");
        let bytes = w.seal();
        let mut r = SnapshotReader::open(&bytes).expect("open");
        let a = r.take_static_str().unwrap();
        let b = r.take_static_str().unwrap();
        assert_eq!(a, "disk");
        assert!(std::ptr::eq(a, b), "same string must intern to one leak");
        let mut again = SnapshotReader::open(&bytes).expect("open");
        let c = again.take_static_str().unwrap();
        assert!(std::ptr::eq(a, c), "a second reader must not leak again");
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
    fn bool_out_of_range_is_corrupt() {
        let mut w = SnapshotWriter::new();
        w.put_u64(2);
        let bytes = w.seal();
        let mut r = SnapshotReader::open(&bytes).expect("open");
        assert!(matches!(r.take_bool(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn journal_round_trips_through_snapshot() {
        let mut j = RunJournal::new(SimDuration::from_secs(10));
        j.record_if_due(SimTime::from_secs(10), || 10);
        j.drain();
        j.record_if_due(SimTime::from_secs(25), || 25);
        let mut w = SnapshotWriter::new();
        j.freeze_into(&mut w);
        let bytes = w.seal();
        let mut r = SnapshotReader::open(&bytes).expect("open");
        let mut back = RunJournal::thaw_from(&mut r).expect("thaw");
        r.finish().expect("fully consumed");
        assert_eq!(back.interval, j.interval);
        assert_eq!(back.latest(), j.latest());
        assert_eq!(back.clone().drain(), j.clone().drain());
        // The thawed journal continues the schedule, not restarts it.
        assert!(!back.record_if_due(SimTime::from_secs(29), || 0));
        assert!(back.record_if_due(SimTime::from_secs(30), || 30));
        assert_eq!(back.latest().map(|c| c.seq), Some(2));
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

    #[test]
    fn undrained_checkpoints_must_end_at_the_latest() {
        let mut w = SnapshotWriter::new();
        w.put_duration(SimDuration::from_secs(10));
        w.put_time(SimTime::from_secs(20));
        w.put_bool(true);
        w.put_usize(1);
        for (seq, digest) in [(1, 7), (0, 7)] {
            w.put_u64(seq);
            w.put_time(SimTime::from_secs(10));
            w.put_u64(digest);
        }
        let bytes = w.seal();
        let mut r = SnapshotReader::open(&bytes).expect("open");
        assert!(matches!(
            RunJournal::thaw_from(&mut r),
            Err(SnapshotError::Corrupt("undrained checkpoints"))
        ));
    }
}
