//! The shard write-ahead log under crashes at any byte.
//!
//! - A crash that tears *any* append (birth records included) at *any*
//!   byte offset, followed by recovery and a ledger replay of the lost
//!   deliveries, reproduces the uninterrupted run bit for bit: per-tick
//!   records, room verdicts and, after a final kill of every shard, each
//!   link's recovered event count.
//! - A dead link evicted before a compaction recovers as `Dead` with its
//!   exact event count (compaction rewrites its kept final image).
//! - A failed birth append leaves no half-registered link behind, so a
//!   retried registration succeeds.
//! - A logged shard refuses, at registration, a calibrated shape whose
//!   windows the wire header could not carry.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;

use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::{Baseline, SubcarrierWeighting};
use mpdf_fleet::chaos::{FaultIo, FaultPlan, MemIo};
use mpdf_fleet::{
    Fleet, FleetError, FleetPolicy, LinkHealth, LinkOutcome, LinkRecord, LinkWindow, LogError,
    Shard, ShardLog, TickReport,
};
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::environment::Environment;
use mpdf_propagation::human::HumanBody;
use mpdf_rfmath::complex::Complex64;
use mpdf_session::runtime::{SessionConfig, SessionRuntime};
use mpdf_wifi::band::Band;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::CsiReceiver;
use mpdf_wifi::wire::WireError;

const LINKS: u64 = 4;
const SHARDS: usize = 2;
const TICKS: u64 = 6;
/// Small enough that every run compacts (and rotates `.bak`) mid-way.
const COMPACT_EVERY: usize = 3;
const SEED: u64 = 0x0003_A10C;

type Runtime = SessionRuntime<SubcarrierWeighting>;
type LoggedFleet = Fleet<SubcarrierWeighting, FaultIo<MemIo>>;

fn mix(a: u64, b: u64) -> u64 {
    let mut z = SEED
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn receiver(seed: u64) -> CsiReceiver {
    let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
    CsiReceiver::new(link, seed).unwrap()
}

/// One calibrated runtime per room, cloned per link.
fn runtimes() -> &'static [Runtime] {
    static RUNTIMES: OnceLock<Vec<Runtime>> = OnceLock::new();
    RUNTIMES.get_or_init(|| {
        (0..2)
            .map(|room| {
                let calibration = receiver(SEED ^ room).capture_static(None, 100).unwrap();
                SessionRuntime::calibrate(
                    &calibration,
                    SubcarrierWeighting,
                    DetectorConfig::default(),
                    SessionConfig::default(),
                )
                .unwrap()
            })
            .collect()
    })
}

fn poisoned() -> Vec<CsiPacket> {
    let sc = DetectorConfig::default().band.num_subcarriers();
    vec![CsiPacket::new(
        2,
        sc,
        vec![Complex64::new(1.0, 0.0); 2 * sc],
        0,
        0.0,
    )]
}

/// `windows()[tick][link]`: pure in `(SEED, link, tick)`; about one in
/// seven is mis-shaped, so shape-fault records are part of every run.
fn windows() -> &'static [Vec<Vec<CsiPacket>>] {
    static WINDOWS: OnceLock<Vec<Vec<Vec<CsiPacket>>>> = OnceLock::new();
    WINDOWS.get_or_init(|| {
        let body = HumanBody::new(Vec2::new(4.0, 3.6));
        (0..TICKS)
            .map(|tick| {
                (0..LINKS)
                    .map(|link| {
                        if mix(link, tick ^ 0xFA).is_multiple_of(7) {
                            return poisoned();
                        }
                        let occupied = mix(link % 2, tick ^ 0xCC).is_multiple_of(3);
                        receiver(mix(link ^ 0x417, tick))
                            .capture_static(occupied.then_some(&body), 25)
                            .unwrap()
                    })
                    .collect()
            })
            .collect()
    })
}

fn policy() -> FleetPolicy {
    FleetPolicy {
        max_windows_per_tick: 0,
        max_strikes: 3,
        quarantine_base: 1,
        quarantine_cap: 2,
        watchdog_ticks: 6,
    }
}

fn tick_windows(tick: u64) -> Vec<LinkWindow> {
    (0..LINKS)
        .map(|link| LinkWindow {
            link,
            packets: windows()[tick as usize][link as usize].clone(),
        })
        .collect()
}

fn register<IO: mpdf_fleet::LogIo>(
    fleet: &mut Fleet<SubcarrierWeighting, IO>,
    link: u64,
) -> Result<(), FleetError> {
    fleet.register(
        link,
        (link % 2) as u32,
        runtimes()[(link % 2) as usize].clone(),
    )
}

/// The uninterrupted in-memory run: per-tick reports and final event
/// counts.
fn reference() -> &'static (Vec<TickReport>, BTreeMap<u64, u64>) {
    static REFERENCE: OnceLock<(Vec<TickReport>, BTreeMap<u64, u64>)> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let mut fleet = Fleet::in_memory(SHARDS, policy(), 1).unwrap();
        for link in 0..LINKS {
            register(&mut fleet, link).unwrap();
        }
        let reports: Vec<TickReport> = (0..TICKS)
            .map(|tick| fleet.step_tick(&tick_windows(tick)).unwrap())
            .collect();
        let events = (0..LINKS)
            .map(|l| (l, fleet.link_meta(l).unwrap().events))
            .collect();
        (reports, events)
    })
}

/// A logged fleet whose shard `torn_shard` tears its `n`-th append after
/// `cut % len` bytes.
fn logged_fleet(torn_shard: u32, n: u64, cut: usize) -> LoggedFleet {
    let shards = (0..SHARDS as u32)
        .map(|i| {
            let plan = if i == torn_shard {
                FaultPlan::tear_once(n, cut)
            } else {
                FaultPlan::quiet(0)
            };
            let io = FaultIo::new(MemIo::new(), plan);
            let (log, _) = ShardLog::open(io, format!("shard{i}.mpsl"), i, COMPACT_EVERY).unwrap();
            Shard::new(i, Some(log))
        })
        .collect();
    Fleet::new(shards, policy(), 1).unwrap()
}

type Ledger = BTreeMap<u64, Vec<(u64, LinkRecord)>>;

/// Recovers `shard` and replays every delivery its log lost from the
/// ledger, checking each replay against the original record.
fn recover_and_replay(fleet: &mut LoggedFleet, ledger: &Ledger, shard: u32) {
    let report = fleet.recover_shard(shard).unwrap();
    for (&link, &restored) in &report.events {
        let entries = ledger.get(&link).map_or(&[][..], Vec::as_slice);
        assert!(
            entries.len() as u64 >= restored,
            "link {link}: recovered {restored} events, the ledger holds {}",
            entries.len()
        );
        for (tick, original) in &entries[restored as usize..] {
            let window = &windows()[*tick as usize][link as usize];
            let record = fleet.replay(link, *tick, window).unwrap();
            assert_eq!(&record, original, "replay of link {link} tick {tick}");
        }
    }
}

/// Runs the logged fleet with one torn append; returns the per-tick
/// reports and every link's event count after a final kill and
/// recovery of every shard.
fn crashed_run(torn_shard: u32, n: u64, cut: usize) -> (Vec<TickReport>, BTreeMap<u64, u64>) {
    let mut fleet = logged_fleet(torn_shard, n, cut);
    for link in 0..LINKS {
        if register(&mut fleet, link).is_err() {
            // A torn birth append: registration is all-or-nothing, so
            // the retry must succeed.
            register(&mut fleet, link).unwrap();
        }
    }
    let mut ledger: Ledger = BTreeMap::new();
    let mut reports = Vec::new();
    for tick in 0..TICKS {
        let report = fleet.step_tick(&tick_windows(tick)).unwrap();
        for rec in &report.records {
            if matches!(
                rec.outcome,
                LinkOutcome::Decision { .. } | LinkOutcome::Fault { .. }
            ) {
                ledger
                    .entry(rec.link)
                    .or_default()
                    .push((tick, rec.clone()));
            }
        }
        for &shard in &report.crashed_shards {
            recover_and_replay(&mut fleet, &ledger, shard);
            assert!(!fleet.shard_crashed(shard), "one tear, one crash");
        }
        reports.push(report);
    }
    for shard in 0..SHARDS as u32 {
        recover_and_replay(&mut fleet, &ledger, shard);
    }
    let events = (0..LINKS)
        .map(|l| (l, fleet.link_meta(l).unwrap().events))
        .collect();
    (reports, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Births (two per shard) plus one group append per tick: `n` covers
    /// every append a shard makes, `cut` every byte offset of it.
    #[test]
    fn a_torn_append_anywhere_recovers_to_the_uninterrupted_run(
        torn_shard in 0u32..SHARDS as u32,
        n in 1u64..(2 + TICKS + 1),
        cut in 0usize..1_000_000,
    ) {
        let (expected, expected_events) = reference();
        let (reports, events) = crashed_run(torn_shard, n, cut);
        for (a, b) in expected.iter().zip(&reports) {
            prop_assert_eq!(&a.records, &b.records, "tick {} records", a.tick);
            prop_assert_eq!(&a.rooms, &b.rooms, "tick {} room verdicts", a.tick);
            prop_assert_eq!((a.delivered, a.shed), (b.delivered, b.shed));
        }
        prop_assert_eq!(&events, expected_events);
    }
}

#[test]
fn an_evicted_dead_link_survives_compaction_as_dead() {
    let dying = 1u64;
    let policy = FleetPolicy {
        max_strikes: 1,
        quarantine_base: 1,
        quarantine_cap: 1,
        ..policy()
    };
    let shards = (0..SHARDS as u32)
        .map(|i| {
            let io = FaultIo::new(MemIo::new(), FaultPlan::quiet(0));
            // Compact after every tick that logs a window.
            let (log, _) = ShardLog::open(io, format!("shard{i}.mpsl"), i, 1).unwrap();
            Shard::new(i, Some(log))
        })
        .collect();
    let mut fleet: LoggedFleet = Fleet::new(shards, policy, 1).unwrap();
    for link in 0..LINKS {
        register(&mut fleet, link).unwrap();
    }
    // Link 1 only ever receives mis-shaped windows: strike, quarantine,
    // probe, strike again — dead.
    let step = |fleet: &mut LoggedFleet, tick: u64| {
        let mut w = tick_windows(tick);
        w[dying as usize].packets = poisoned();
        fleet.step_tick(&w).unwrap()
    };
    let mut tick = 0;
    while !matches!(
        fleet.link_meta(dying).map(|m| m.health),
        Some(LinkHealth::Dead { .. })
    ) {
        step(&mut fleet, tick);
        tick += 1;
        assert!(tick < TICKS, "the link never died");
    }
    let dead = fleet.link_meta(dying).unwrap().clone();
    assert_eq!(fleet.evict_dead(), 1);
    assert!(fleet.link_meta(dying).is_none(), "evicted");

    // The next tick logs link 3's window and compacts the shard: its log
    // is rewritten as snapshots only, so the dead link can only come back
    // from the kept final image.
    step(&mut fleet, tick);
    let shard = fleet.shard_of(dying);
    let report = fleet.recover_shard(shard).unwrap();
    assert_eq!(report.records, report.links, "a freshly compacted log");
    assert_eq!(report.links, 2);
    assert_eq!(report.events[&dying], dead.events);
    assert_eq!(fleet.link_meta(dying), Some(&dead), "recovered still dead");
}

#[test]
fn a_shape_the_wire_header_cannot_carry_is_refused_at_registration() {
    // 256 subcarriers: one more than the wire header's `u8` can count.
    let subcarriers = 256;
    let config = DetectorConfig {
        band: Band::new(5.32e9, (0..subcarriers as i32).collect()),
        window: 10,
        ..DetectorConfig::default()
    };
    let calibration: Vec<CsiPacket> = (0..40u64)
        .map(|seq| {
            let data = (0..3 * subcarriers)
                .map(|k| Complex64::from_polar(1.0 + 1e-3 * ((seq + k as u64) as f64).sin(), 0.0))
                .collect();
            CsiPacket::new(3, subcarriers, data, seq, seq as f64 * 0.02)
        })
        .collect();
    let wide = SessionRuntime::calibrate(&calibration, Baseline, config, SessionConfig::default())
        .unwrap();

    // Only a logged shard has to encode the link's windows.
    let mut unlogged = Fleet::in_memory(1, policy(), 1).unwrap();
    unlogged.register(0, 0, wide.clone()).unwrap();

    let (log, _) = ShardLog::open(MemIo::new(), "shard0.mpsl", 0, 0).unwrap();
    let mut logged = Fleet::new(vec![Shard::new(0, Some(log))], policy(), 1).unwrap();
    let err = logged.register(0, 0, wide).unwrap_err();
    assert!(
        matches!(
            err,
            FleetError::Log(LogError::Wire(WireError::ShapeTooLarge {
                antennas: 3,
                subcarriers: 256
            }))
        ),
        "{err}"
    );
    assert_eq!(logged.links(), 0, "nothing registered");
}

#[test]
fn a_failed_birth_append_does_not_half_register_a_link() {
    // Shard 0's first append (link 0's birth record) is torn.
    let mut fleet = logged_fleet(0, 1, 100);
    let err = register(&mut fleet, 0).unwrap_err();
    assert!(matches!(err, FleetError::Log(LogError::Io(_))), "{err}");
    assert_eq!(fleet.links(), 0);
    assert!(fleet.link_meta(0).is_none());

    // The retry succeeds: the shard kept no slot for the link, and the
    // log repairs its torn tail before the next append.
    register(&mut fleet, 0).unwrap();
    register(&mut fleet, 2).unwrap();
    assert_eq!(fleet.links(), 2);
    let report = fleet.step_tick(&[tick_windows(0)[0].clone()]).unwrap();
    assert!(report.crashed_shards.is_empty());
    let recovered = fleet.recover_shard(0).unwrap();
    assert_eq!((recovered.links, recovered.torn_bytes), (2, 0));
    assert_eq!(recovered.events, BTreeMap::from([(0, 1), (2, 0)]));
}
