//! The energy ledger and run reports.
//!
//! The ledger integrates platform power exactly between events and keeps
//! three views the experiments need:
//!
//! - **buckets**: energy per software component (Idle, each application,
//!   X Server, Odyssey, WaveLAN, Kernel) — the shadings of the paper's
//!   bar charts;
//! - **components**: energy per hardware component — Figure 4's view;
//! - **procedure detail**: energy and CPU time per `(process, procedure)`
//!   pair — the rows of a PowerScope profile (Figure 2).
//!
//! Buckets and detail rows are stored densely, indexed by the machine's
//! [`Names`] table: a bucket by its name id, a `(bucket, procedure)` row
//! by the slot `bucket id × table size + procedure id`. Each booking site
//! resolves its pair to a `Key` once and reuses it while the pair stays
//! the same, so booking an interval is plain indexed additions. Because
//! the table is sorted, id order is name order: reports and snapshots
//! walk the present entries in the order a name-keyed map would.

use hw560x::platform::PowerBreakdown;
use simcore::{
    Joules, Names, SimDuration, SimTime, SnapshotError, SnapshotReader, SnapshotWriter, TimeSeries,
    Watts,
};

use crate::observer::ShareEntry;

/// Energy per hardware component over a run, J.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ComponentTotals {
    /// Display backlight.
    pub display_j: Joules,
    /// Disk.
    pub disk_j: Joules,
    /// WaveLAN radio.
    pub radio_j: Joules,
    /// CPU + memory excess over halt.
    pub cpu_j: Joules,
    /// Base (chipset, DRAM refresh, CPU halt).
    pub base_j: Joules,
    /// Superlinear correction.
    pub superlinear_j: Joules,
}

impl ComponentTotals {
    /// Sum over all components.
    pub fn total_j(&self) -> Joules {
        self.display_j + self.disk_j + self.radio_j + self.cpu_j + self.base_j + self.superlinear_j
    }
}

/// One `(process, procedure)` row of the profile detail.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcDetail {
    /// Process (bucket) name.
    pub process: &'static str,
    /// Procedure name.
    pub procedure: &'static str,
    /// Attributed CPU-occupancy time, seconds.
    pub cpu_secs: f64,
    /// Attributed energy.
    pub energy_j: Joules,
}

/// Where one share books: its bucket's name id and its `(bucket,
/// procedure)` detail slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Key {
    bucket: usize,
    slot: usize,
}

/// The pair one booking site resolved last and its [`Key`]. The key is
/// reused while the site books the same pair (the same two strings, by
/// address).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct KeyMemo {
    pair: Option<(&'static str, &'static str)>,
    key: Key,
}

/// An energy value a thawed ledger may hold: finite and not negative.
fn checked_j(j: Joules, what: &'static str) -> Result<Joules, SnapshotError> {
    if j.is_finite() && j >= Joules::ZERO {
        Ok(j)
    } else {
        Err(SnapshotError::Corrupt(what))
    }
}

#[derive(Debug, PartialEq)]
pub(crate) struct Ledger {
    names: Names,
    total_j: Joules,
    // Indexed, not hashed: the ledger is replayed state, and its walk
    // order (name order, through the sorted table) must not depend on
    // the process's hash seed. `None` marks a key never booked. Both
    // stay empty until the first booking or thaw sizes them.
    buckets: Vec<Option<Joules>>,
    detail: Vec<Option<(f64, Joules)>>,
    components: ComponentTotals,
}

impl Ledger {
    /// An empty ledger that books the names of `names`.
    pub(crate) fn new(names: Names) -> Ledger {
        Ledger {
            names,
            total_j: Joules::ZERO,
            buckets: Vec::new(),
            detail: Vec::new(),
            components: ComponentTotals::default(),
        }
    }

    /// Sizes the storage to the table, with nothing booked.
    fn clear_storage(&mut self) {
        let n = self.names.len();
        self.buckets.clear();
        self.buckets.resize(n, None);
        self.detail.clear();
        self.detail.resize(n * n, None);
    }

    /// The names this ledger can book.
    pub(crate) fn names(&self) -> &Names {
        &self.names
    }

    pub(crate) fn total_j(&self) -> Joules {
        self.total_j
    }

    /// The key of `(bucket, procedure)`, from `memo` when it still holds.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the table: every name a workload books
    /// must be declared by its [`Workload::names`](crate::Workload::names).
    #[inline]
    pub(crate) fn key(
        &mut self,
        memo: &mut KeyMemo,
        bucket: &'static str,
        procedure: &'static str,
    ) -> Key {
        let same = |(b, p): (&str, &str)| std::ptr::eq(b, bucket) && std::ptr::eq(p, procedure);
        if memo.pair.is_some_and(same) {
            return memo.key;
        }
        self.resolve(memo, bucket, procedure)
    }

    /// The memo miss of [`Self::key`], kept out of line so the hit that
    /// nearly every interval takes stays a compare and a load: looks the
    /// pair up in the table and refreshes `memo`.
    #[inline(never)]
    fn resolve(
        &mut self,
        memo: &mut KeyMemo,
        bucket: &'static str,
        procedure: &'static str,
    ) -> Key {
        let (Some(b), Some(p)) = (self.names.id(bucket), self.names.id(procedure)) else {
            panic!("ledger pair ({bucket:?}, {procedure:?}) was not declared by its workload");
        };
        if self.buckets.is_empty() {
            self.clear_storage();
        }
        let key = Key {
            bucket: b,
            slot: b * self.names.len() + p,
        };
        *memo = KeyMemo {
            pair: Some((bucket, procedure)),
            key,
        };
        key
    }

    /// Books one interval: `shares[i]` goes to `keys[i]`.
    #[inline]
    pub(crate) fn add(
        &mut self,
        dt: SimDuration,
        power_w: Watts,
        b: &PowerBreakdown,
        shares: &[ShareEntry],
        keys: &[Key],
    ) {
        debug_assert_eq!(shares.len(), keys.len(), "one key per share");
        let dt_secs = dt.as_secs_f64();
        let energy = power_w * dt;
        self.total_j += energy;
        self.components.display_j += b.display_w * dt;
        self.components.disk_j += b.disk_w * dt;
        self.components.radio_j += b.radio_w * dt;
        self.components.cpu_j += b.cpu_w * dt;
        self.components.base_j += b.base_w * dt;
        self.components.superlinear_j += b.superlinear_w * dt;
        for (s, k) in shares.iter().zip(keys) {
            *self.buckets[k.bucket].get_or_insert(Joules::ZERO) += energy * s.fraction;
            let d = self.detail[k.slot].get_or_insert((0.0, Joules::ZERO));
            d.0 += dt_secs * s.fraction;
            d.1 += energy * s.fraction;
        }
    }

    /// The booked buckets in name order, with their name ids.
    fn present_buckets(&self) -> impl Iterator<Item = (usize, &'static str, Joules)> + '_ {
        self.names
            .iter()
            .zip(&self.buckets)
            .enumerate()
            .filter_map(|(id, (name, j))| j.map(|j| (id, name, j)))
    }

    /// The booked procedures of bucket `bucket` in name order.
    fn present_detail_of(
        &self,
        bucket: usize,
    ) -> impl Iterator<Item = (&'static str, f64, Joules)> + '_ {
        let n = self.names.len();
        let row = self
            .detail
            .get(bucket * n..(bucket + 1) * n)
            .unwrap_or_default();
        self.names
            .iter()
            .zip(row)
            .filter_map(|(name, d)| d.map(|(secs, j)| (name, secs, j)))
    }

    /// Every booked detail row in `(bucket, procedure)` name order.
    fn present_detail(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, f64, Joules)> + '_ {
        self.present_buckets().flat_map(move |(id, bucket, _)| {
            self.present_detail_of(id)
                .map(move |(procedure, secs, j)| (bucket, procedure, secs, j))
        })
    }

    /// Energy attributed so far to the bucket with name id `bucket`, J
    /// (0 when absent). This is the live PowerScope-attribution feed the
    /// supervisor cross-checks declarations against.
    pub(crate) fn bucket_j(&self, bucket: usize) -> Joules {
        self.buckets
            .get(bucket)
            .copied()
            .flatten()
            .unwrap_or(Joules::ZERO)
    }

    /// The procedure with the most attributed energy inside the bucket
    /// with name id `bucket`, with its energy, J — the live counterpart
    /// of the profile detail's top row (ties break toward the
    /// lexicographically first name, so the answer is replay-stable).
    pub(crate) fn hot_procedure_j(&self, bucket: usize) -> Option<(&'static str, Joules)> {
        self.present_detail_of(bucket)
            .map(|(procedure, _, j)| (procedure, j))
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(a.0)))
    }

    pub(crate) fn snapshot_buckets(&self) -> Vec<(String, Joules)> {
        let mut v: Vec<(String, Joules)> = self
            .present_buckets()
            .map(|(_, k, e)| (k.to_string(), e))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    pub(crate) fn snapshot_detail(&self) -> Vec<ProcDetail> {
        let mut v: Vec<ProcDetail> = self
            .present_detail()
            .map(|(p, f, secs, j)| ProcDetail {
                process: p,
                procedure: f,
                cpu_secs: secs,
                energy_j: j,
            })
            .collect();
        v.sort_by(|a, b| {
            b.energy_j
                .total_cmp(&a.energy_j)
                .then_with(|| (a.process, a.procedure).cmp(&(b.process, b.procedure)))
        });
        v
    }

    pub(crate) fn components(&self) -> ComponentTotals {
        self.components
    }

    /// Writes the ledger as `total_j`, the bucket map, the detail map and
    /// the component totals. Each map is a count, then its present
    /// entries in name order: the layout of a `BTreeMap` keyed by name.
    pub(crate) fn freeze_into(&self, w: &mut SnapshotWriter) {
        w.put(&self.total_j);
        w.put(&self.present_buckets().count());
        for (_, name, j) in self.present_buckets() {
            w.put(&name);
            w.put(&j);
        }
        w.put(&self.present_detail().count());
        for (bucket, procedure, secs, j) in self.present_detail() {
            w.put(&(bucket, procedure));
            w.put(&(secs, j));
        }
        w.put(&self.components);
    }

    /// Restores what [`Self::freeze_into`] wrote onto this ledger's table.
    /// A name outside the table, a key written twice, a detail row whose
    /// bucket has no entry, and a negative or non-finite energy or CPU
    /// time are all corrupt.
    pub(crate) fn thaw_from(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = self.names.len();
        self.clear_storage();
        self.total_j = checked_j(r.take()?, "ledger total")?;
        for _ in 0..r.take::<usize>()? {
            let b = r.take_name_id(&self.names)?;
            let j = checked_j(r.take()?, "ledger bucket energy")?;
            if self.buckets[b].replace(j).is_some() {
                return Err(SnapshotError::Corrupt("duplicate map key"));
            }
        }
        for _ in 0..r.take::<usize>()? {
            let b = r.take_name_id(&self.names)?;
            let p = r.take_name_id(&self.names)?;
            let (secs, j): (f64, Joules) = r.take()?;
            if !(secs.is_finite() && secs >= 0.0) {
                return Err(SnapshotError::Corrupt("ledger detail cpu time"));
            }
            let j = checked_j(j, "ledger detail energy")?;
            if self.buckets[b].is_none() {
                return Err(SnapshotError::Corrupt("ledger detail without its bucket"));
            }
            if self.detail[b * n + p].replace((secs, j)).is_some() {
                return Err(SnapshotError::Corrupt("duplicate map key"));
            }
        }
        let c: ComponentTotals = r.take()?;
        for v in [
            c.display_j,
            c.disk_j,
            c.radio_j,
            c.cpu_j,
            c.base_j,
            c.superlinear_j,
        ] {
            checked_j(v, "ledger component total")?;
        }
        self.components = c;
        Ok(())
    }
}

simcore::impl_codec!(ComponentTotals {
    display_j,
    disk_j,
    radio_j,
    cpu_j,
    base_j,
    superlinear_j
});

/// The result of one machine run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Instant the run ended.
    pub end: SimTime,
    /// Total energy consumed.
    pub total_j: Joules,
    /// Energy per software bucket, sorted descending.
    pub buckets: Vec<(String, Joules)>,
    /// Energy per hardware component.
    pub components: ComponentTotals,
    /// Energy and CPU time per `(process, procedure)` pair.
    pub detail: Vec<ProcDetail>,
    /// Fidelity level over time, one series per adaptive workload
    /// (named after the workload).
    pub fidelity: Vec<TimeSeries>,
    /// True if a finite energy supply ran out before the workload ended.
    pub exhausted: bool,
    /// Energy remaining in the supply at the end (∞ for external).
    pub residual_j: Joules,
    /// Bytes carried over the wireless link (including aborted attempts).
    pub bytes_carried: u64,
    /// RPC attempts aborted by the retry policy's timeout.
    pub rpc_timeouts: u64,
    /// RPC attempts re-issued after a timeout.
    pub rpc_retries: u64,
}

impl RunReport {
    /// Energy attributed to `bucket` (0 when absent).
    pub fn bucket_j(&self, bucket: &str) -> Joules {
        self.buckets
            .iter()
            .find(|(b, _)| b == bucket)
            .map(|(_, e)| *e)
            .unwrap_or(Joules::ZERO)
    }

    /// Total adaptations (fidelity changes) performed by `workload`.
    pub fn adaptations_of(&self, workload: &str) -> usize {
        self.fidelity
            .iter()
            .find(|s| s.name() == workload)
            .map(|s| s.change_count())
            .unwrap_or(0)
    }

    /// Wall-clock duration of the run, seconds.
    pub fn duration_s(&self) -> f64 {
        self.end.as_secs_f64()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::{BUCKET_IDLE, BUCKET_WAVELAN};
    use simcore::SimRng;

    fn share(bucket: &'static str, f: f64) -> ShareEntry {
        ShareEntry {
            bucket,
            procedure: "p",
            fraction: f,
        }
    }

    fn ledger(names: &[&'static str]) -> Ledger {
        Ledger::new(Names::new(names.iter().copied()))
    }

    /// Books one interval the way the machine does: each share resolved
    /// to its key first.
    fn book(
        l: &mut Ledger,
        dt: SimDuration,
        power_w: Watts,
        b: &PowerBreakdown,
        shares: &[ShareEntry],
    ) {
        let keys: Vec<Key> = shares
            .iter()
            .map(|s| l.key(&mut KeyMemo::default(), s.bucket, s.procedure))
            .collect();
        l.add(dt, power_w, b, shares, &keys);
    }

    #[test]
    fn ledger_conserves_energy_across_buckets() {
        let mut l = ledger(&[BUCKET_IDLE, BUCKET_WAVELAN, "p"]);
        let b = PowerBreakdown {
            base_w: Watts(10.0),
            ..Default::default()
        };
        book(
            &mut l,
            SimDuration::from_secs(2),
            Watts(10.0),
            &b,
            &[share(BUCKET_IDLE, 0.75), share(BUCKET_WAVELAN, 0.25)],
        );
        assert!((l.total_j() - Joules(20.0)).abs() < Joules(1e-12));
        let buckets = l.snapshot_buckets();
        let sum: Joules = buckets.iter().map(|(_, e)| e).sum();
        assert!((sum - Joules(20.0)).abs() < Joules(1e-12));
        assert_eq!(buckets[0].0, BUCKET_IDLE);
        assert!((buckets[0].1 - Joules(15.0)).abs() < Joules(1e-12));
    }

    #[test]
    fn component_totals_track_breakdown() {
        let mut l = ledger(&[BUCKET_IDLE, "p"]);
        let b = PowerBreakdown {
            display_w: Watts(4.0),
            disk_w: Watts(1.0),
            radio_w: Watts(2.0),
            cpu_w: Watts(3.0),
            base_w: Watts(5.0),
            superlinear_w: Watts(0.5),
        };
        book(
            &mut l,
            SimDuration::from_secs(4),
            b.total_w(),
            &b,
            &[share(BUCKET_IDLE, 1.0)],
        );
        let c = l.components();
        assert!((c.display_j - Joules(16.0)).abs() < Joules(1e-12));
        assert!((c.total_j() - l.total_j()).abs() < Joules(1e-9));
    }

    #[test]
    fn detail_accumulates_cpu_time() {
        let mut l = ledger(&["janus", "p"]);
        let b = PowerBreakdown::default();
        for _ in 0..3 {
            book(
                &mut l,
                SimDuration::from_secs(1),
                Watts(5.0),
                &b,
                &[share("janus", 1.0)],
            );
        }
        let d = l.snapshot_detail();
        assert_eq!(d.len(), 1);
        assert!((d[0].cpu_secs - 3.0).abs() < 1e-12);
        assert!((d[0].energy_j - Joules(15.0)).abs() < Joules(1e-12));
    }

    #[test]
    fn snapshot_order_is_insertion_order_independent() {
        // Report order must depend only on the data, never on the order
        // buckets were first touched (or on the process's hash seed). The
        // ties are deliberate — with every bucket at equal energy,
        // ordering falls entirely to the name-based tie-break.
        let names = ["janus", "Idle", "xanim", "WaveLAN", "netscape"];
        let table = ["janus", "Idle", "xanim", "WaveLAN", "netscape", "p"];
        let b = PowerBreakdown::default();
        let dt = SimDuration::from_secs(1);
        let mut forward = ledger(&table);
        for n in names {
            book(&mut forward, dt, Watts(5.0), &b, &[share(n, 1.0)]);
        }
        let mut reversed = ledger(&table);
        for n in names.iter().rev() {
            book(&mut reversed, dt, Watts(5.0), &b, &[share(n, 1.0)]);
        }
        assert_eq!(forward.snapshot_buckets(), reversed.snapshot_buckets());
        assert_eq!(forward.snapshot_detail(), reversed.snapshot_detail());
        let buckets = forward.snapshot_buckets();
        let order: Vec<&str> = buckets.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            order,
            ["Idle", "WaveLAN", "janus", "netscape", "xanim"],
            "equal energies must fall back to name order"
        );
    }

    /// The map-keyed ledger the dense one replaced, kept as the reference
    /// it must match bit for bit.
    #[derive(Debug, Default)]
    struct MapLedger {
        total_j: Joules,
        buckets: BTreeMap<&'static str, Joules>,
        detail: BTreeMap<(&'static str, &'static str), (f64, Joules)>,
        components: ComponentTotals,
    }

    simcore::impl_codec!(MapLedger {
        total_j,
        buckets,
        detail,
        components
    });

    impl MapLedger {
        fn add(
            &mut self,
            dt: SimDuration,
            power_w: Watts,
            b: &PowerBreakdown,
            shares: &[ShareEntry],
        ) {
            let dt_secs = dt.as_secs_f64();
            let energy = power_w * dt;
            self.total_j += energy;
            self.components.display_j += b.display_w * dt;
            self.components.disk_j += b.disk_w * dt;
            self.components.radio_j += b.radio_w * dt;
            self.components.cpu_j += b.cpu_w * dt;
            self.components.base_j += b.base_w * dt;
            self.components.superlinear_j += b.superlinear_w * dt;
            for s in shares {
                *self.buckets.entry(s.bucket).or_insert(Joules::ZERO) += energy * s.fraction;
                let d = self
                    .detail
                    .entry((s.bucket, s.procedure))
                    .or_insert((0.0, Joules::ZERO));
                d.0 += dt_secs * s.fraction;
                d.1 += energy * s.fraction;
            }
        }

        fn bucket_j(&self, name: &str) -> Joules {
            self.buckets.get(name).copied().unwrap_or(Joules::ZERO)
        }

        fn hot_procedure_j(&self, bucket: &str) -> Option<(&'static str, Joules)> {
            self.detail
                .iter()
                .filter(|((b, _), _)| *b == bucket)
                .map(|((_, procedure), (_, j))| (*procedure, *j))
                .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(a.0)))
        }

        fn snapshot_buckets(&self) -> Vec<(String, Joules)> {
            let mut v: Vec<(String, Joules)> = self
                .buckets
                .iter()
                .map(|(k, e)| (k.to_string(), *e))
                .collect();
            v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            v
        }

        fn snapshot_detail(&self) -> Vec<ProcDetail> {
            let mut v: Vec<ProcDetail> = self
                .detail
                .iter()
                .map(|((p, f), (secs, j))| ProcDetail {
                    process: p,
                    procedure: f,
                    cpu_secs: *secs,
                    energy_j: *j,
                })
                .collect();
            v.sort_by(|a, b| {
                b.energy_j
                    .total_cmp(&a.energy_j)
                    .then_with(|| (a.process, a.procedure).cmp(&(b.process, b.procedure)))
            });
            v
        }
    }

    const POOL: [&str; 10] = [
        "Idle", "Kernel", "X Server", "anvil", "decode", "janus", "render", "unknown", "xanim",
        "zz",
    ];

    fn dense_bytes(l: &Ledger) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        l.freeze_into(&mut w);
        w.seal()
    }

    fn map_bytes(l: &MapLedger) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put(l);
        w.seal()
    }

    /// Seeded random share sequences — names first touched in random
    /// order, repeated pairs through reused memos, zero-fraction shares —
    /// leave the dense ledger and the map-keyed reference bit-identical
    /// in every report and in their snapshot bytes.
    #[test]
    fn dense_ledger_matches_the_map_model() {
        for seed in 0..40u64 {
            let mut rng = SimRng::new(seed).fork("energy/model");
            let mut dense = ledger(&POOL);
            let mut model = MapLedger::default();
            let mut memos = [KeyMemo::default(); 4];
            for _ in 0..rng.uniform_u64(1, 300) {
                let n = rng.uniform_u64(1, 4) as usize;
                let shares: Vec<ShareEntry> = (0..n)
                    .map(|_| ShareEntry {
                        bucket: POOL[rng.uniform_u64(0, 9) as usize],
                        procedure: POOL[rng.uniform_u64(0, 9) as usize],
                        fraction: if rng.bernoulli(0.2) {
                            0.0
                        } else {
                            rng.uniform(0.0, 1.0)
                        },
                    })
                    .collect();
                let dt = SimDuration::from_micros(rng.uniform_u64(1, 5_000_000));
                let power_w = Watts(rng.uniform(0.0, 20.0));
                let b = PowerBreakdown {
                    display_w: Watts(rng.uniform(0.0, 5.0)),
                    cpu_w: Watts(rng.uniform(0.0, 5.0)),
                    base_w: Watts(rng.uniform(0.0, 10.0)),
                    ..Default::default()
                };
                let keys: Vec<Key> = shares
                    .iter()
                    .zip(&mut memos)
                    .map(|(s, memo)| dense.key(memo, s.bucket, s.procedure))
                    .collect();
                dense.add(dt, power_w, &b, &shares, &keys);
                model.add(dt, power_w, &b, &shares);
            }
            let bits = |v: Vec<(String, Joules)>| -> Vec<(String, u64)> {
                v.into_iter().map(|(n, j)| (n, j.0.to_bits())).collect()
            };
            assert_eq!(
                bits(dense.snapshot_buckets()),
                bits(model.snapshot_buckets())
            );
            let rows = |v: Vec<ProcDetail>| -> Vec<(&str, &str, u64, u64)> {
                v.into_iter()
                    .map(|d| {
                        (
                            d.process,
                            d.procedure,
                            d.cpu_secs.to_bits(),
                            d.energy_j.0.to_bits(),
                        )
                    })
                    .collect()
            };
            assert_eq!(rows(dense.snapshot_detail()), rows(model.snapshot_detail()));
            for name in POOL.iter().chain(&["absent"]) {
                let id = dense.names().id(name);
                assert_eq!(
                    id.map_or(Joules::ZERO, |id| dense.bucket_j(id)).0.to_bits(),
                    model.bucket_j(name).0.to_bits()
                );
                let hot = |h: Option<(&'static str, Joules)>| h.map(|(p, j)| (p, j.0.to_bits()));
                assert_eq!(
                    hot(id.and_then(|id| dense.hot_procedure_j(id))),
                    hot(model.hot_procedure_j(name))
                );
            }
            assert_eq!(dense_bytes(&dense), map_bytes(&model), "seed {seed}");
            let bytes = dense_bytes(&dense);
            let mut thawed = ledger(&POOL);
            let mut r = SnapshotReader::open(&bytes)
                .expect("open")
                .with_names(dense.names());
            thawed.thaw_from(&mut r).expect("thaw");
            r.finish().expect("fully consumed");
            assert_eq!(thawed, dense);
        }
    }

    /// Booking a name the table lacks is a bug in its workload.
    #[test]
    #[should_panic(expected = "was not declared")]
    fn undeclared_names_panic() {
        let mut l = ledger(&["p"]);
        book(
            &mut l,
            SimDuration::from_secs(1),
            Watts(1.0),
            &PowerBreakdown::default(),
            &[share("ghost", 1.0)],
        );
    }

    /// Every truncation of a ledger snapshot, resealed, fails as
    /// `Truncated`; the whole one round-trips.
    #[test]
    fn ledger_codec_laws() {
        let mut l = ledger(&POOL);
        let b = PowerBreakdown::default();
        for (bucket, f) in [("xanim", 0.5), ("Idle", 0.25), ("janus", 0.25)] {
            book(
                &mut l,
                SimDuration::from_secs(2),
                Watts(3.0),
                &b,
                &[share_in(bucket, f)],
            );
        }
        let mut w = SnapshotWriter::new();
        l.freeze_into(&mut w);
        let sealed = w.seal();
        let payload_len = sealed.len() - 28;
        for cut in 0..=payload_len {
            let bytes = cut_payload(&sealed, cut);
            let mut thawed = ledger(&POOL);
            let mut r = SnapshotReader::open(&bytes)
                .expect("open")
                .with_names(l.names());
            let got = thawed.thaw_from(&mut r).and_then(|()| r.finish());
            if cut == payload_len {
                assert_eq!(got, Ok(()));
                assert_eq!(thawed, l);
            } else {
                assert_eq!(got, Err(SnapshotError::Truncated), "payload cut at {cut}");
            }
        }
    }

    fn share_in(bucket: &'static str, f: f64) -> ShareEntry {
        ShareEntry {
            bucket,
            procedure: "decode",
            fraction: f,
        }
    }

    /// `sealed` with its payload cut to `cut` bytes, resealed.
    fn cut_payload(sealed: &[u8], cut: usize) -> Vec<u8> {
        let mut out = sealed[..20 + cut].to_vec();
        out[12..20].copy_from_slice(&(cut as u64).to_le_bytes());
        out.extend_from_slice(&[0; 8]);
        simcore::snapshot::reseal(&mut out);
        out
    }

    /// 10,000 snapshots, each naming a distinct bucket the table lacks,
    /// all thaw to `Corrupt`, and the table does not grow.
    #[test]
    fn unknown_names_thaw_to_corrupt_and_intern_nothing() {
        let mut l = ledger(&POOL);
        let names = l.names().clone();
        for i in 0..10_000 {
            let ghost = format!("ghost-{i}");
            let mut w = SnapshotWriter::new();
            w.put(&Joules(1.0));
            w.put(&1usize);
            w.put(&ghost);
            w.put(&Joules(1.0));
            w.put(&0usize);
            w.put(&ComponentTotals::default());
            let bytes = w.seal();
            let mut r = SnapshotReader::open(&bytes)
                .expect("open")
                .with_names(&names);
            assert_eq!(
                l.thaw_from(&mut r),
                Err(SnapshotError::Corrupt("unknown name"))
            );
        }
        assert_eq!(l.names(), &Names::new(POOL));
    }

    /// Each poisoned value is corrupt on thaw: a NaN or negative energy
    /// or CPU time anywhere, and a detail row without its bucket.
    #[test]
    fn poisoned_ledger_values_are_corrupt() {
        let thaw =
            |total: Joules, bucket: Joules, secs: f64, row_bucket: &'static str, disk: Joules| {
                let mut w = SnapshotWriter::new();
                w.put(&total);
                w.put(&1usize);
                w.put(&"xanim");
                w.put(&bucket);
                w.put(&1usize);
                w.put(&(row_bucket, "decode"));
                w.put(&(secs, Joules(1.0)));
                w.put(&ComponentTotals {
                    disk_j: disk,
                    ..Default::default()
                });
                let bytes = w.seal();
                let mut l = ledger(&POOL);
                let names = l.names().clone();
                let mut r = SnapshotReader::open(&bytes)
                    .expect("open")
                    .with_names(&names);
                l.thaw_from(&mut r)
            };
        let ok = Joules(1.0);
        assert_eq!(thaw(ok, ok, 1.0, "xanim", ok), Ok(()));
        let corrupt = |what| Err(SnapshotError::Corrupt(what));
        assert_eq!(
            thaw(Joules(f64::NAN), ok, 1.0, "xanim", ok),
            corrupt("ledger total")
        );
        assert_eq!(
            thaw(ok, Joules(f64::NAN), 1.0, "xanim", ok),
            corrupt("ledger bucket energy")
        );
        assert_eq!(
            thaw(ok, Joules(-1.0), 1.0, "xanim", ok),
            corrupt("ledger bucket energy")
        );
        assert_eq!(
            thaw(ok, ok, f64::INFINITY, "xanim", ok),
            corrupt("ledger detail cpu time")
        );
        assert_eq!(
            thaw(ok, ok, 1.0, "janus", ok),
            corrupt("ledger detail without its bucket")
        );
        assert_eq!(
            thaw(ok, ok, 1.0, "xanim", Joules(-0.5)),
            corrupt("ledger component total")
        );
    }

    #[test]
    fn report_lookup_helpers() {
        let report = RunReport {
            end: SimTime::from_secs(10),
            total_j: Joules(50.0),
            buckets: vec![
                ("Idle".into(), Joules(30.0)),
                ("xanim".into(), Joules(20.0)),
            ],
            components: ComponentTotals::default(),
            detail: vec![],
            fidelity: vec![],
            exhausted: false,
            residual_j: Joules(f64::INFINITY),
            bytes_carried: 0,
            rpc_timeouts: 0,
            rpc_retries: 0,
        };
        assert_eq!(report.bucket_j("xanim"), Joules(20.0));
        assert_eq!(report.bucket_j("nope"), Joules(0.0));
        assert_eq!(report.adaptations_of("xanim"), 0);
        assert_eq!(report.duration_s(), 10.0);
    }
}
