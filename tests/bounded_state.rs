//! A long-lived session does not grow with its history.
//!
//! The served supervised k=2 golden rig is the viceroy as a service: it
//! watches supply and demand for the whole life of the device. These
//! tests pin the two bounds recovery depends on — a snapshot's size is
//! flat over the run, and a `Server` slot's sample log never holds more
//! than two batches.

use energy_adaptation::experiments::tracerec::GOLDEN_SEED;
use energy_adaptation::experiments::{fuzz, serve};
use energy_adaptation::simcore::snapshot::reseal;
use energy_adaptation::simcore::{SnapshotHasher, SNAPSHOT_MAGIC};
use energy_adaptation::simserve::{Directive, Sample, Server, Session};

/// The 1× golden stream, then a tick every 10 s out to 1440 s.
#[expect(clippy::expect_used, reason = "a broken fixture fails the test")]
fn long_stream() -> Vec<Sample> {
    let mut samples = serve::schedule(1).expect("golden trace present");
    let end = samples.last().map_or(0.0, |s| s.at_s);
    samples.extend(
        (1..=144)
            .map(|k| Sample::tick(f64::from(k) * 10.0))
            .filter(|s| s.at_s > end),
    );
    samples
}

/// Freezing the served rig at every checkpoint out to 1440 s yields
/// snapshots within 1.25× of each other, the last one under 5 KB.
#[test]
fn served_snapshots_stay_flat_across_every_checkpoint() {
    let mut session = serve::build_session(GOLDEN_SEED).expect("build");
    let mut frozen = Vec::new();
    for sample in long_stream() {
        let out = session.ingest(&[sample]).expect("ingest");
        if let Some(at) = out.iter().find_map(|d| match d {
            Directive::Checkpointed { at, .. } => Some(*at),
            _ => None,
        }) {
            let bytes = session.freeze().expect("freeze").len();
            frozen.push((at.as_secs_f64(), bytes));
        }
    }
    let times: Vec<f64> = frozen.iter().map(|&(t, _)| t).collect();
    assert_eq!(
        times,
        (1..=8).map(|k| f64::from(k) * 180.0).collect::<Vec<_>>(),
        "{frozen:?}"
    );
    let min = frozen.iter().map(|&(_, b)| b).min().expect("snapshots");
    let max = frozen.iter().map(|&(_, b)| b).max().expect("snapshots");
    assert!(4 * max <= 5 * min, "snapshots grew: {frozen:?}");
    let last = frozen.last().expect("snapshots").1;
    assert!(last < 5_000, "snapshot at 1440 s is {last} bytes");
}

/// Over 200+ batches a `Server` slot's log stays within two batches and
/// its snapshots within the same flat bound.
#[test]
fn server_log_stays_within_two_batches() {
    let samples = serve::schedule(1).expect("golden trace present");
    let batch = 3;
    let mut server = Server::new(1).expect("server");
    let id = server
        .admit(Box::new(|| serve::build_session(GOLDEN_SEED)))
        .expect("admit");
    for chunk in samples.chunks(batch) {
        server.ingest(id, chunk).expect("ingest");
    }
    let stats = server.stats(id).expect("stats");
    assert!(stats.batches >= 200, "{stats:?}");
    assert!(stats.max_log_len <= 2 * batch, "{stats:?}");
    assert!(stats.max_snapshot_bytes < 5_000, "{stats:?}");
    // Bounded, and still exact: the slot ends where a solo session does.
    let mut solo = serve::build_session(GOLDEN_SEED).expect("build");
    solo.ingest(&samples).expect("ingest");
    assert_eq!(server.session(id).expect("live").digest(), solo.digest());
}

/// Hash of a sealed snapshot's payload, the bytes between the 20-byte
/// header and the trailing checksum word.
fn payload_hash(bytes: &[u8]) -> u64 {
    let mut h = SnapshotHasher::new();
    h.write_bytes(&bytes[20..bytes.len() - 8]);
    h.finish()
}

/// Fails unless `bytes` is a version-3 envelope: the magic, the version,
/// the payload length, then the payload and its checksum.
fn assert_envelope(what: &str, bytes: &[u8]) {
    let payload_len = bytes.len() - 28;
    assert_eq!(bytes[..8], SNAPSHOT_MAGIC, "{what}: magic");
    assert_eq!(bytes[8..12], 3u32.to_le_bytes(), "{what}: version");
    assert_eq!(
        bytes[12..20],
        (payload_len as u64).to_le_bytes(),
        "{what}: payload length"
    );
    let mut resealed = bytes.to_vec();
    resealed[20 + payload_len..].fill(0);
    reseal(&mut resealed);
    assert_eq!(resealed, bytes, "{what}: checksum of the payload");
}

/// Fails unless `bytes` is a sound envelope whose payload hashes to
/// `want`, thaws into `fresh`, and freezes back to the same bytes.
#[expect(clippy::expect_used, reason = "a failed thaw fails the test")]
fn assert_pinned(what: &str, bytes: &[u8], want: u64, mut fresh: Session) {
    assert_envelope(what, bytes);
    let got = payload_hash(bytes);
    assert_eq!(got, want, "{what}: payload hash {got:#018x}");
    fresh.thaw(bytes).expect("thaw");
    assert_eq!(fresh.freeze().expect("refreeze"), bytes, "{what}: refreeze");
}

/// Served snapshots are pinned byte for byte: each is a sound envelope
/// and its payload hash is a constant; the envelope's checksum is not
/// pinned, so the checksum function can change without moving a pin.
/// The proof session's
/// first three checkpoints cover the supervisor, the checkpoint
/// journal, the misbehaving workloads, the attribution feed and the
/// trace counters. Hostile stream 1 (a reconfiguration flood) ends with
/// a full dead-letter ledger that has evicted entries and counts
/// strikes per origin.
#[test]
fn served_snapshots_are_byte_stable() {
    const CHECKPOINT_PINS: [u64; 3] = [0x4b5cea76ce1f9511, 0xa4a1fc8f7f7b10b0, 0xf61d7d8fc1c66ca7];
    const HOSTILE_STREAM: u64 = 1;
    const HOSTILE_PIN: u64 = 0x65f98a833ad83a79;
    let samples = serve::schedule(1).expect("golden trace present");
    for (k, want) in CHECKPOINT_PINS.into_iter().enumerate() {
        let kill = serve::kill_at(GOLDEN_SEED, &samples, k).expect("kill");
        let bytes = kill.frozen.snapshot.expect("frozen");
        let fresh = serve::proof_session(GOLDEN_SEED).expect("build");
        assert_pinned(&format!("checkpoint {k}"), &bytes, want, fresh);
    }

    let alt = serve::schedule_for("goal", 1).expect("golden trace present");
    let (hostile, _) = fuzz::hostile_stream(GOLDEN_SEED, &samples, &alt, HOSTILE_STREAM);
    let mut session = serve::build_session(GOLDEN_SEED).expect("build");
    for chunk in hostile.chunks(64) {
        session.ingest(chunk).expect("ingest");
    }
    let dead = session.dead_letters().expect("serving");
    assert!(
        dead.dropped() > 0 && dead.len() == dead.capacity(),
        "{dead:?}"
    );
    let bytes = session.freeze().expect("freeze");
    let fresh = serve::build_session(GOLDEN_SEED).expect("build");
    assert_pinned("hostile stream", &bytes, HOSTILE_PIN, fresh);
}

/// A checksum-valid snapshot whose dead-letter ledger names a reason
/// the session does not know is corrupt, not a new name.
#[test]
fn resealed_unknown_dead_letter_reason_is_corrupt() {
    use energy_adaptation::simcore::SnapshotError;
    use energy_adaptation::simserve::DEAD_LETTER_REASONS;

    let samples = serve::schedule(1).expect("golden trace present");
    let alt = serve::schedule_for("goal", 1).expect("golden trace present");
    let (hostile, _) = fuzz::hostile_stream(GOLDEN_SEED, &samples, &alt, 1);
    let mut session = serve::build_session(GOLDEN_SEED).expect("build");
    for chunk in hostile.chunks(64) {
        session.ingest(chunk).expect("ingest");
    }
    let mut bytes = session.freeze().expect("freeze");
    let (header, checksum) = (20, bytes.len() - 8);
    let at = DEAD_LETTER_REASONS
        .iter()
        .find_map(|reason| {
            let mut word = (reason.len() as u64).to_le_bytes().to_vec();
            word.extend_from_slice(reason.as_bytes());
            (header..checksum - word.len()).find(|&i| bytes[i..i + word.len()] == word[..])
        })
        .expect("a dead-letter reason in the snapshot");
    bytes[at + 8] = b'#';
    reseal(&mut bytes);
    let mut fresh = serve::build_session(GOLDEN_SEED).expect("build");
    assert_eq!(
        fresh.thaw(&bytes),
        Err(SnapshotError::Corrupt("unknown name"))
    );
}

/// Every single-bit flip of a served snapshot fails to open: in the
/// payload or the checksum as `ChecksumMismatch`, in the header as the
/// header check that owns the bit. Flipping the same bit in two payload
/// words 8 or 32 bytes apart fails too; a checksum step without its
/// xorshift lets hundreds of such pairs through, most of them in a
/// word's top bits.
#[test]
fn every_bit_flip_of_a_served_snapshot_fails_to_open() {
    use energy_adaptation::simcore::{SnapshotError, SnapshotReader};

    let samples = serve::schedule(1).expect("golden trace present");
    let kill = serve::kill_at(GOLDEN_SEED, &samples, 1).expect("kill");
    let mut bytes = kill.frozen.snapshot.expect("frozen");
    assert!(SnapshotReader::open(&bytes).is_ok());
    let open = |bytes: &[u8]| SnapshotReader::open(bytes).map(drop);
    let flip = |bytes: &mut [u8], bit: usize| bytes[bit / 8] ^= 1 << (bit % 8);

    for bit in 0..8 * bytes.len() {
        flip(&mut bytes, bit);
        let got = open(&bytes);
        flip(&mut bytes, bit);
        let expected = match bit / 8 {
            0..8 => matches!(got, Err(SnapshotError::BadMagic)),
            8..12 => matches!(got, Err(SnapshotError::VersionMismatch { .. })),
            12..20 => matches!(
                got,
                Err(SnapshotError::Truncated
                    | SnapshotError::Corrupt("trailing bytes after envelope"))
            ),
            _ => got == Err(SnapshotError::ChecksumMismatch),
        };
        assert!(expected, "flip of bit {bit}: {got:?}");
    }

    // Every bit of every other payload word, paired with the same bit
    // one and four words on; sampling halves the sweep's debug runtime.
    let mut pairs = 0;
    let first_bits = (8 * 20..8 * (bytes.len() - 8)).filter(|bit| (bit - 8 * 20) / 64 % 2 == 0);
    for bit in first_bits {
        for apart in [8 * 8, 32 * 8] {
            if bit + apart >= 8 * bytes.len() {
                continue;
            }
            flip(&mut bytes, bit);
            flip(&mut bytes, bit + apart);
            let got = open(&bytes);
            flip(&mut bytes, bit);
            flip(&mut bytes, bit + apart);
            assert_eq!(
                got,
                Err(SnapshotError::ChecksumMismatch),
                "flip of bits {bit} and {}",
                bit + apart
            );
            pairs += 1;
        }
    }
    assert!(pairs > 25_000, "{pairs} pairs");
}
