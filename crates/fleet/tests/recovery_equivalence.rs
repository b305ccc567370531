//! Tier-1 crash-recovery equivalence: a fleet whose shards are killed
//! at seeded points and whose log IO injects seeded torn/transient
//! faults must produce **bit-identical** per-tick records and fused
//! room verdicts to an uninterrupted in-memory run — at thread counts
//! 1 and 4.
//!
//! The driver follows the event-ledger replay protocol: every delivered
//! window is remembered as `(tick, record)`; after a recovery restores
//! a link at `events = e`, ledger entries `e..` are replayed (at their
//! original ticks) and each replay must reproduce the original record
//! exactly.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::SubcarrierWeighting;
use mpdf_fleet::chaos::{mix, ChaosPlan, FaultIo, FaultPlan};
use mpdf_fleet::{
    Fleet, FleetPolicy, LinkOutcome, LinkRecord, LinkWindow, LogIo, Shard, ShardLog, StdIo,
    TickReport,
};
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::environment::Environment;
use mpdf_propagation::human::HumanBody;
use mpdf_rfmath::complex::Complex64;
use mpdf_session::runtime::{SessionConfig, SessionRuntime};
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::CsiReceiver;

const LINKS: u64 = 6;
const SHARDS: usize = 2;
const TICKS: u64 = 8;
const WINDOW: usize = 25;
const SEED: u64 = 0xF1EE7;

fn receiver(seed: u64) -> CsiReceiver {
    let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
    CsiReceiver::new(link, seed).unwrap()
}

fn calibrated(seed: u64) -> SessionRuntime<SubcarrierWeighting> {
    let mut rx = receiver(seed);
    let calibration = rx.capture_static(None, 150).unwrap();
    SessionRuntime::calibrate(
        &calibration,
        SubcarrierWeighting,
        DetectorConfig::default(),
        SessionConfig::default(),
    )
    .unwrap()
}

/// The window `link` receives at `tick` — pure in `(SEED, link, tick)`.
/// Roughly one in 11 windows is poisoned with a mis-shaped packet.
fn window_for(link: u64, tick: u64) -> Vec<CsiPacket> {
    if mix(SEED, link, tick.wrapping_mul(13) ^ 0xFA).is_multiple_of(11) {
        let sc = DetectorConfig::default().band.num_subcarriers();
        return vec![CsiPacket::new(
            2,
            sc,
            vec![Complex64::new(1.0, 0.0); 2 * sc],
            0,
            0.0,
        )];
    }
    let occupied = mix(SEED, link % 2, tick ^ 0x0CC).is_multiple_of(3);
    let body = HumanBody::new(Vec2::new(4.0, 3.6));
    let mut rx = receiver(mix(SEED, link ^ 0x417, tick));
    rx.capture_static(occupied.then_some(&body), WINDOW)
        .unwrap()
}

fn policy() -> FleetPolicy {
    FleetPolicy {
        // 3 links per shard, budget 2: every full tick sheds once per
        // shard, so shedding is part of what must stay equivalent.
        max_windows_per_tick: 2,
        max_strikes: 3,
        quarantine_base: 1,
        quarantine_cap: 4,
        watchdog_ticks: 6,
    }
}

fn register_all<IO: LogIo>(fleet: &mut Fleet<SubcarrierWeighting, IO>) {
    for link in 0..LINKS {
        // Two rooms; one calibration per room, cloned per link.
        let room = (link % 2) as u32 + 1;
        fleet
            .register(link, room, calibrated(SEED ^ (0xCA11 + u64::from(room))))
            .unwrap();
    }
}

type Ledger = BTreeMap<u64, Vec<(u64, LinkRecord)>>;

fn drive<IO: LogIo + Send>(
    fleet: &mut Fleet<SubcarrierWeighting, IO>,
    plan: Option<&ChaosPlan>,
) -> Vec<TickReport> {
    let mut ledger: Ledger = BTreeMap::new();
    let mut reports = Vec::new();
    for tick in 0..TICKS {
        if let Some(plan) = plan {
            for shard in plan.kills_at(tick) {
                recover_and_replay(fleet, &ledger, shard);
            }
        }
        let windows: Vec<LinkWindow> = (0..LINKS)
            .map(|link| LinkWindow {
                link,
                packets: window_for(link, tick),
            })
            .collect();
        let report = fleet.step_tick(&windows).unwrap();
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
        let mut crashed = report.crashed_shards.clone();
        let mut rounds = 0;
        while !crashed.is_empty() {
            rounds += 1;
            assert!(rounds <= 16, "shards {crashed:?} never stopped crashing");
            for shard in std::mem::take(&mut crashed) {
                recover_and_replay(fleet, &ledger, shard);
                if fleet.shard_crashed(shard) {
                    crashed.push(shard);
                }
            }
        }
        reports.push(report);
    }
    reports
}

fn recover_and_replay<IO: LogIo>(
    fleet: &mut Fleet<SubcarrierWeighting, IO>,
    ledger: &Ledger,
    shard: u32,
) {
    let report = fleet.recover_shard(shard).unwrap();
    for (&link, &restored) in &report.events {
        let empty = Vec::new();
        let entries = ledger.get(&link).unwrap_or(&empty);
        assert!(
            entries.len() as u64 >= restored,
            "link {link}: durable events {restored} ahead of the ledger ({})",
            entries.len()
        );
        for (tick, original) in &entries[restored as usize..] {
            let record = fleet.replay(link, *tick, &window_for(link, *tick)).unwrap();
            assert_eq!(
                &record, original,
                "replay of link {link} tick {tick} diverged from the original delivery"
            );
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpdf_fleet_equiv_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn chaos_fleet(
    dir: &std::path::Path,
    threads: usize,
) -> Fleet<SubcarrierWeighting, FaultIo<StdIo>> {
    let mut shards = Vec::new();
    for i in 0..SHARDS as u32 {
        let io = FaultIo::new(
            StdIo,
            FaultPlan {
                seed: SEED ^ (0xFA_0170 + u64::from(i)),
                transient_period: 4,
                torn_period: 7,
                grace_appends: LINKS.div_ceil(SHARDS as u64),
                tear_at: None,
            },
        );
        let (log, _) = ShardLog::open(io, dir.join(format!("shard{i}.mpsl")), i, 16).unwrap();
        shards.push(Shard::new(i, Some(log)));
    }
    let mut fleet = Fleet::new(shards, policy(), threads).unwrap();
    register_all(&mut fleet);
    fleet
}

/// The observable slice of a tick report (crash markers excluded — a
/// crash that recovery fully absorbs is not an observable difference).
fn observable(r: &TickReport) -> (u64, &Vec<LinkRecord>, u32, u32) {
    (r.tick, &r.records, r.delivered, r.shed)
}

fn assert_equivalent_at(threads: usize) {
    let mut reference = Fleet::in_memory(SHARDS, policy(), threads).unwrap();
    register_all(&mut reference);
    let ref_reports = drive(&mut reference, None);

    let dir = temp_dir(&format!("t{threads}"));
    let mut fleet = chaos_fleet(&dir, threads);
    let plan = ChaosPlan::seeded(SEED ^ 0xC405, SHARDS as u32, TICKS, 2);
    assert!(!plan.kills.is_empty(), "the seeded plan must actually kill");
    let chaos_reports = drive(&mut fleet, Some(&plan));
    std::fs::remove_dir_all(&dir).ok();

    let crashes: usize = chaos_reports.iter().map(|r| r.crashed_shards.len()).sum();
    assert!(crashes > 0, "the fault plan must actually crash a shard");
    for (a, b) in ref_reports.iter().zip(&chaos_reports) {
        assert_eq!(
            observable(a),
            observable(b),
            "tick {} diverged between reference and chaos runs",
            a.tick
        );
        assert_eq!(a.rooms, b.rooms, "tick {} room verdicts diverged", a.tick);
    }
}

#[test]
fn killed_and_recovered_fleet_matches_uninterrupted_run_serial() {
    assert_equivalent_at(1);
}

#[test]
fn killed_and_recovered_fleet_matches_uninterrupted_run_threaded() {
    assert_equivalent_at(4);
}

#[test]
fn thread_count_does_not_change_chaos_reports() {
    let dir1 = temp_dir("x1");
    let mut f1 = chaos_fleet(&dir1, 1);
    let plan = ChaosPlan::seeded(SEED ^ 0xC405, SHARDS as u32, TICKS, 2);
    let r1 = drive(&mut f1, Some(&plan));
    std::fs::remove_dir_all(&dir1).ok();

    let dir4 = temp_dir("x4");
    let mut f4 = chaos_fleet(&dir4, 4);
    let r4 = drive(&mut f4, Some(&plan));
    std::fs::remove_dir_all(&dir4).ok();

    assert_eq!(r1, r4, "chaos runs must be identical at any thread count");
}
