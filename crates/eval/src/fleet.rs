//! Deterministic fleet demo behind `repro fleet`.
//!
//! Runs many calibrated links under the [`mpdf_fleet`] supervisor:
//! links are sharded, stepped in parallel, shed under a per-shard
//! ingest budget, and poisoned with seeded mis-shaped windows that the
//! per-link fault machine must contain. With `--chaos`, shard logs are
//! wrapped in a fault-injecting IO shim (seeded torn appends and
//! transient errors) and shards are additionally killed and recovered
//! at seeded ticks; the driver replays the deliveries its event ledger
//! holds past each recovered link's durable event count and asserts the
//! chaos'd fleet's per-tick records and fused room verdicts are
//! **bit-identical** to an uninterrupted in-memory reference run — at
//! any thread count.
//!
//! Every window, occupancy flip, fault point and kill point is a pure
//! function of `(campaign seed, link, tick)`, so the transcript on
//! stdout is byte-deterministic.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

use mpdf_core::scheme::SubcarrierWeighting;
use mpdf_fleet::chaos::{ChaosPlan, FaultIo, FaultPlan};
use mpdf_fleet::{
    Fleet, FleetPolicy, LinkOutcome, LinkRecord, LinkWindow, ShardLog, StdIo, TickReport,
};
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::human::HumanBody;
use mpdf_rfmath::complex::Complex64;
use mpdf_session::runtime::{SessionConfig, SessionRuntime};
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::CsiReceiver;

use crate::scenario::{five_cases, LinkCase};
use crate::workload::{case_receiver, CampaignConfig};

/// Options for the fleet demo.
#[derive(Debug, Clone)]
pub struct FleetDemoOptions {
    /// Links in the fleet.
    pub links: usize,
    /// Shards the links are partitioned across.
    pub shards: usize,
    /// Ticks to run.
    pub ticks: u64,
    /// Enable the chaos harness: shard logs behind a fault-injecting IO
    /// shim, plus seeded shard kills, with recovery equivalence asserted
    /// against an uninterrupted reference run.
    pub chaos: bool,
    /// Directory for the shard logs (chaos mode). `None` uses a
    /// process-scoped temp directory, removed afterwards.
    pub dir: Option<PathBuf>,
}

impl Default for FleetDemoOptions {
    fn default() -> Self {
        FleetDemoOptions {
            links: 24,
            shards: 4,
            ticks: 12,
            chaos: false,
            dir: None,
        }
    }
}

/// SplitMix64-style mixer, the demo's only randomness.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn demo_policy(opts: &FleetDemoOptions) -> FleetPolicy {
    // Budget one below the per-shard link count: a full tick sheds the
    // most-vacant window on every saturated shard, exercising the
    // vacancy bias without starving the fleet.
    let per_shard = opts.links.div_ceil(opts.shards.max(1));
    FleetPolicy {
        max_windows_per_tick: per_shard.saturating_sub(1).max(1),
        max_strikes: 3,
        quarantine_base: 1,
        quarantine_cap: 4,
        watchdog_ticks: 6,
    }
}

struct DemoLinks {
    templates: Vec<(LinkCase, CsiReceiver)>,
    runtimes: Vec<SessionRuntime<SubcarrierWeighting>>,
}

fn calibrate_links(cfg: &CampaignConfig) -> Result<DemoLinks, String> {
    let mut templates = Vec::new();
    let mut runtimes = Vec::new();
    for case in five_cases() {
        let template = case_receiver(&case, cfg, cfg.seed ^ (0xF1EE_7000 + case.id as u64))
            .map_err(|e| format!("fleet case {} geometry: {e}", case.id))?;
        let mut calib_rx = template.fork(cfg.seed ^ (0xCA11_B000 + case.id as u64));
        let calibration = calib_rx
            .capture_static(None, 12 * cfg.detector.window)
            .map_err(|e| format!("fleet case {} calibration: {e}", case.id))?;
        let rt = SessionRuntime::calibrate(
            &calibration,
            SubcarrierWeighting,
            cfg.detector.clone(),
            SessionConfig::default(),
        )
        .map_err(|e| format!("fleet case {} calibration: {e}", case.id))?;
        templates.push((case, template));
        runtimes.push(rt);
    }
    Ok(DemoLinks {
        templates,
        runtimes,
    })
}

/// The window link `link` receives at `tick` — a pure function of the
/// campaign seed. Roughly one in 29 windows is poisoned with a
/// mis-shaped packet (a receiver glitch the fleet must contain as a
/// typed `Shape` fault without stepping the runtime).
fn window_for(
    links: &DemoLinks,
    cfg: &CampaignConfig,
    link: u64,
    tick: u64,
) -> Result<Vec<CsiPacket>, String> {
    let case_idx = (link as usize) % links.templates.len();
    let (case, template) = &links.templates[case_idx];
    if mix(cfg.seed, link, tick.wrapping_mul(13) ^ 0xFA).is_multiple_of(29) {
        let want_sc = cfg.detector.band.num_subcarriers();
        let data = vec![Complex64::new(1.0, 0.0); 2 * want_sc];
        return Ok(vec![CsiPacket::new(2, want_sc, data, 0, 0.0)]);
    }
    // Occupancy is shared per room: every link of a room sees the same
    // body (or none), so room fusion has something real to fuse.
    let occupied = mix(cfg.seed, case.id as u64, tick ^ 0x0CC).is_multiple_of(3);
    let body = HumanBody::new(case.midpoint() + Vec2::new(0.0, 0.6));
    let mut rx = template.fork_with_drift(mix(cfg.seed, link ^ 0x417, tick));
    rx.capture_static(occupied.then_some(&body), cfg.detector.window)
        .map_err(|e| format!("fleet window link={link} tick={tick}: {e}"))
}

fn emit(out: &mut dyn Write, line: &str) -> Result<(), String> {
    writeln!(out, "{line}").map_err(|e| format!("write fleet output: {e}"))
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn fault_count(report: &TickReport) -> usize {
    report
        .records
        .iter()
        .filter(|r| matches!(r.outcome, LinkOutcome::Fault { .. }))
        .count()
}

fn render_tick(report: &TickReport) -> String {
    let mut line = format!(
        "tick={} delivered={} shed={} faults={}",
        report.tick,
        report.delivered,
        report.shed,
        fault_count(report)
    );
    for room in &report.rooms {
        let score = room.mean_score.map_or("-".to_string(), hex);
        line.push_str(&format!(
            " | room={} present={} votes={}/{} score={score}",
            room.room,
            u8::from(room.present),
            room.votes,
            room.scored
        ));
    }
    line
}

/// A delivery ledger: for every link, the `(tick, record)` of each
/// delivered window, in delivery order. Entry `i` is the link's
/// `(i+1)`-th event, so after a recovery restores a link at `events=e`,
/// entries `e..` are exactly the lost deliveries to replay.
type Ledger = BTreeMap<u64, Vec<(u64, LinkRecord)>>;

fn ledger_push(ledger: &mut Ledger, report: &TickReport) {
    for rec in &report.records {
        if matches!(
            rec.outcome,
            LinkOutcome::Decision { .. } | LinkOutcome::Fault { .. }
        ) {
            ledger
                .entry(rec.link)
                .or_default()
                .push((report.tick, rec.clone()));
        }
    }
}

/// Recovers `shard` and replays its links' lost deliveries from the
/// ledger, asserting each replay reproduces the original record bit for
/// bit. Returns the number of replayed deliveries.
fn recover_and_replay<IO: mpdf_fleet::LogIo>(
    fleet: &mut Fleet<SubcarrierWeighting, IO>,
    links: &DemoLinks,
    cfg: &CampaignConfig,
    ledger: &Ledger,
    shard: u32,
    out: &mut dyn Write,
) -> Result<usize, String> {
    let report = fleet
        .recover_shard(shard)
        .map_err(|e| format!("recover shard {shard}: {e}"))?;
    let mut replayed = 0usize;
    for (&link, &restored) in &report.events {
        let empty = Vec::new();
        let entries = ledger.get(&link).unwrap_or(&empty);
        if (entries.len() as u64) < restored {
            return Err(format!(
                "recovered link {link} claims {restored} events but the ledger only holds {}",
                entries.len()
            ));
        }
        for (tick, original) in &entries[restored as usize..] {
            let window = window_for(links, cfg, link, *tick)?;
            let record = fleet
                .replay(link, *tick, &window)
                .map_err(|e| format!("replay link {link} tick {tick}: {e}"))?;
            if &record != original {
                return Err(format!(
                    "replay divergence: link {link} tick {tick} reproduced {record:?}, \
                     originally {original:?}"
                ));
            }
            replayed += 1;
        }
    }
    emit(
        out,
        &format!(
            "recovered shard={shard} links={} records={} torn_bytes={} bak={} replayed={replayed}",
            report.links,
            report.records,
            report.torn_bytes,
            u8::from(report.used_bak)
        ),
    )?;
    Ok(replayed)
}

/// How many times a crashed shard is recovered-and-replayed before the
/// demo gives up (replays append to the faulty log too, so a recovery
/// can itself crash again under an aggressive fault plan).
const MAX_RECOVERY_ROUNDS: usize = 16;

struct RunSummary {
    reports: Vec<TickReport>,
    delivered: u64,
    shed: u64,
    faults: u64,
    recoveries: u64,
    replays: u64,
}

fn drive<IO: mpdf_fleet::LogIo + Send>(
    fleet: &mut Fleet<SubcarrierWeighting, IO>,
    links: &DemoLinks,
    cfg: &CampaignConfig,
    opts: &FleetDemoOptions,
    plan: Option<&ChaosPlan>,
    out: &mut dyn Write,
    quiet: bool,
) -> Result<RunSummary, String> {
    let mut ledger: Ledger = BTreeMap::new();
    let mut summary = RunSummary {
        reports: Vec::new(),
        delivered: 0,
        shed: 0,
        faults: 0,
        recoveries: 0,
        replays: 0,
    };
    let mut sink = Vec::new();
    for tick in 0..opts.ticks {
        // Seeded kills land at the start of their tick: the shard's
        // in-memory state is discarded and rebuilt from its log, then
        // lost deliveries are replayed from the ledger.
        if let Some(plan) = plan {
            for shard in plan.kills_at(tick) {
                let dst: &mut dyn Write = if quiet { &mut sink } else { out };
                emit(dst, &format!("killed shard={shard} tick={tick}"))?;
                summary.replays +=
                    recover_and_replay(fleet, links, cfg, &ledger, shard, dst)? as u64;
                summary.recoveries += 1;
            }
        }
        let mut windows = Vec::with_capacity(opts.links);
        for link in 0..opts.links as u64 {
            windows.push(LinkWindow {
                link,
                packets: window_for(links, cfg, link, tick)?,
            });
        }
        let report = fleet
            .step_tick(&windows)
            .map_err(|e| format!("fleet tick {tick}: {e}"))?;
        ledger_push(&mut ledger, &report);
        summary.delivered += u64::from(report.delivered);
        summary.shed += u64::from(report.shed);
        summary.faults += fault_count(&report) as u64;
        if !quiet {
            emit(out, &render_tick(&report))?;
        }
        // Shards whose log failed mid-tick are recovered before the next
        // tick; replaying the log's gap converges them back onto the
        // uninterrupted trajectory.
        let mut crashed = report.crashed_shards.clone();
        let mut rounds = 0usize;
        while !crashed.is_empty() {
            rounds += 1;
            if rounds > MAX_RECOVERY_ROUNDS {
                return Err(format!(
                    "shards {crashed:?} still crashing after {MAX_RECOVERY_ROUNDS} recovery rounds"
                ));
            }
            for shard in std::mem::take(&mut crashed) {
                let dst: &mut dyn Write = if quiet { &mut sink } else { out };
                summary.replays +=
                    recover_and_replay(fleet, links, cfg, &ledger, shard, dst)? as u64;
                summary.recoveries += 1;
                if fleet.shard_crashed(shard) {
                    crashed.push(shard);
                }
            }
        }
        summary.reports.push(report);
    }
    Ok(summary)
}

/// Strips the fields recovery legitimately perturbs (crash markers) and
/// compares everything the fleet *observes*: records, room verdicts,
/// delivery and shed counts.
fn equivalent(a: &TickReport, b: &TickReport) -> bool {
    a.tick == b.tick
        && a.records == b.records
        && a.rooms == b.rooms
        && a.delivered == b.delivered
        && a.shed == b.shed
}

/// Runs the fleet demo, writing one line per tick (plus kill/recovery
/// events) to `out`.
///
/// In chaos mode the faulted-and-killed fleet is compared tick by tick
/// against an uninterrupted in-memory reference; any divergence is an
/// error, and the final line is `equivalence=ok`.
///
/// # Errors
/// Returns a rendered error string on pipeline, log or equivalence
/// failures.
pub fn run_fleet_demo(
    cfg: &CampaignConfig,
    opts: &FleetDemoOptions,
    out: &mut dyn Write,
) -> Result<(), String> {
    let _stage = mpdf_obs::stage!("eval.fleet_demo");
    if opts.links == 0 || opts.shards == 0 || opts.ticks == 0 {
        return Err("fleet demo needs at least one link, shard and tick".to_string());
    }
    let links = calibrate_links(cfg)?;
    let policy = demo_policy(opts);
    emit(
        out,
        &format!(
            "fleet links={} shards={} ticks={} budget={} chaos={}",
            opts.links,
            opts.shards,
            opts.ticks,
            policy.max_windows_per_tick,
            u8::from(opts.chaos)
        ),
    )?;

    if !opts.chaos {
        let mut fleet = Fleet::in_memory(opts.shards, policy, cfg.threads)
            .map_err(|e| format!("build fleet: {e}"))?;
        register_all(&mut fleet, &links, opts)?;
        let s = drive(&mut fleet, &links, cfg, opts, None, out, false)?;
        emit(
            out,
            &format!(
                "fleet complete ticks={} delivered={} shed={} faults={}",
                opts.ticks, s.delivered, s.shed, s.faults
            ),
        )?;
        return Ok(());
    }

    // Chaos mode: reference run first (quiet), then the faulted run.
    let mut reference = Fleet::in_memory(opts.shards, policy.clone(), cfg.threads)
        .map_err(|e| format!("build reference fleet: {e}"))?;
    register_all(&mut reference, &links, opts)?;
    let mut sink = Vec::new();
    let ref_summary = drive(&mut reference, &links, cfg, opts, None, &mut sink, true)?;

    let dir = match &opts.dir {
        Some(dir) => dir.clone(),
        None => std::env::temp_dir().join(format!("mpdf_fleet_demo_{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cleanup = opts.dir.is_none();

    let result = (|| {
        let mut shards = Vec::with_capacity(opts.shards);
        for i in 0..opts.shards as u32 {
            let io = FaultIo::new(
                StdIo,
                FaultPlan {
                    seed: cfg.seed ^ (0xFA_0170 + u64::from(i)),
                    transient_period: 5,
                    torn_period: 17,
                    // Registration's birth records land before the chaos
                    // starts.
                    grace_appends: opts.links.div_ceil(opts.shards) as u64,
                    tear_at: None,
                },
            );
            let (log, _) = ShardLog::open(io, dir.join(format!("shard{i}.mpsl")), i, 16)
                .map_err(|e| format!("open shard {i} log: {e}"))?;
            shards.push(mpdf_fleet::Shard::new(i, Some(log)));
        }
        let mut fleet = Fleet::new(shards, policy, cfg.threads)
            .map_err(|e| format!("build chaos fleet: {e}"))?;
        register_all(&mut fleet, &links, opts)?;
        let plan = ChaosPlan::seeded(cfg.seed ^ 0xC405, opts.shards as u32, opts.ticks, 3);
        let chaos_summary = drive(&mut fleet, &links, cfg, opts, Some(&plan), out, false)?;

        for (a, b) in ref_summary.reports.iter().zip(&chaos_summary.reports) {
            if !equivalent(a, b) {
                return Err(format!(
                    "tick {} diverged between the chaos run and the reference run",
                    a.tick
                ));
            }
        }
        emit(
            out,
            &format!(
                "fleet complete ticks={} delivered={} shed={} faults={} kills={} \
                 recoveries={} replays={}",
                opts.ticks,
                chaos_summary.delivered,
                chaos_summary.shed,
                chaos_summary.faults,
                plan.kills.len(),
                chaos_summary.recoveries,
                chaos_summary.replays
            ),
        )?;
        emit(out, "equivalence=ok")?;
        Ok(())
    })();
    if cleanup {
        std::fs::remove_dir_all(&dir).ok();
    }
    result
}

fn register_all<IO: mpdf_fleet::LogIo>(
    fleet: &mut Fleet<SubcarrierWeighting, IO>,
    links: &DemoLinks,
    opts: &FleetDemoOptions,
) -> Result<(), String> {
    for link in 0..opts.links as u64 {
        let case_idx = (link as usize) % links.runtimes.len();
        let room = links.templates[case_idx].0.id as u32;
        fleet
            .register(link, room, links.runtimes[case_idx].clone())
            .map_err(|e| format!("register link {link}: {e}"))?;
    }
    Ok(())
}
