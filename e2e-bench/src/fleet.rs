//! `fleet` and `fleet_logged`: one operation is one `Fleet::step_tick`.
//!
//! Windows come from a pool synthesized in set-up by `run_campaign`:
//! per room (one of the five link cases), windows with a person at one
//! of the grid positions and windows of the empty room. Link `l`
//! reports into room `l % 5`; each tick, each room is occupied with
//! probability 1/3, and each link receives a pool window of its room
//! picked by a seeded hash of (link, tick). Every packet is multiplied by
//! a seeded unit-modulus phase, the per-packet offset of a commodity NIC
//! that sanitization removes, so no two deliveries are bit-identical.
//! About one window in 29 is replaced by a mis-shaped one, which the
//! fleet must contain as a typed `Shape` fault.
//!
//! Each room's session is calibrated on twice its rollback-guard
//! reservoir, so the reservoir starts full and a link's snapshot, which
//! the shard log writes on every delivery, has its steady size from the
//! first tick.
//!
//! `fleet_logged` runs the same generator with one `ShardLog` per shard
//! (over the counting in-memory [`MemIo`]) and times a few
//! `recover_shard` calls apart from the ticks, so its difference to
//! `fleet` is the shard log's work.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mpdf_core::scheme::SubcarrierAndPathWeighting;
use mpdf_eval::scenario::five_cases;
use mpdf_eval::workload::{case_receiver, run_campaign, CampaignConfig};
use mpdf_fleet::{
    Fleet, FleetError, FleetPolicy, LinkFault, LinkOutcome, LinkWindow, Shard, ShardLog, TickReport,
};
use mpdf_session::{SessionConfig, SessionRuntime};
use mpdf_wifi::csi::CsiPacket;

use crate::gen::{mix, poisoned_window, rotate, unit, Digest};
use crate::logio::{IoCounts, IoStats, MemIo};
use crate::spans::Spans;
use crate::{campaign, stats, timed, Bench, Checks, Ctx, Metric, Op, Scale, Workload};

/// Stream tags for [`mix`].
const POISON: u64 = 0x9015_0400;
const OCCUPANCY: u64 = 0x0CC0;
const PICK: u64 = 0x91C4;
const PHASE: u64 = 0xF1A5;

/// One window in 29 is poisoned.
const POISON_PERIOD: u64 = 29;
/// Shard-log compaction period, in appends.
const COMPACT_EVERY: usize = 64;

type Scheme = SubcarrierAndPathWeighting;
type LinkFleet = Fleet<Scheme, MemIo>;

/// Sizes of one fleet workload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    links: u64,
    shards: u32,
    logged: bool,
    warmup: u64,
    /// `run_campaign` sizes of the window pool.
    episodes: usize,
    negatives: usize,
}

fn spec(logged: bool, scale: Scale) -> Spec {
    let (links, shards, warmup) = match (logged, scale) {
        // 32 links per shard: a tick of about 16 ms. With 8 per shard a
        // 4-ms tick was mostly thread start-up and wake-ups, and slowed
        // by up to 2.4x, against 1.5x, when other tenants loaded the host.
        (false, Scale::Full) => (256, 8, 32),
        // Two shards, one per pool thread, keep the logs' memory near
        // 170 MB; eight links per shard make a tick of about 30 ms.
        (true, Scale::Full) => (16, 2, 8),
        (false, Scale::Smoke) => (8, 2, 2),
        (true, Scale::Smoke) => (6, 2, 2),
    };
    let (episodes, negatives) = match scale {
        // 5 × (9 × 11 + 106) = 1025 pool windows: every delivery is
        // still distinct (the per-packet phase), and set-up, which runs
        // several times per run, stays short.
        Scale::Full => (11, 106),
        Scale::Smoke => (1, 9),
    };
    Spec {
        links,
        shards,
        logged,
        warmup,
        episodes,
        negatives,
    }
}

/// One room's share of the window pool.
#[derive(Debug, Default)]
struct RoomPool {
    id: u32,
    occupied: Vec<Vec<CsiPacket>>,
    vacant: Vec<Vec<CsiPacket>>,
}

/// The fleet workloads' state.
#[derive(Debug)]
pub struct FleetBench {
    spec: Spec,
    seed: u64,
    subcarriers: usize,
    rooms: Vec<RoomPool>,
    fleet: LinkFleet,
    /// A single-threaded in-memory fleet stepped in lockstep with
    /// `fleet` on the windows of `reference_links`: every link of every
    /// room for `fleet_logged`, the links of `reference_room` for
    /// `fleet`. Its records and room verdicts must match bit for bit.
    reference: LinkFleet,
    reference_links: Vec<u64>,
    reference_room: Option<u32>,
    io: Arc<IoStats>,
    deliveries: Vec<(u64, u64)>,
    recover_at: BTreeMap<u64, u32>,
    recoveries_ms: Vec<f64>,
    recovery_io_ns: u64,
    recovery_read_bytes: u64,
    timed_io: IoCounts,
    timed_log_bytes: u64,
    timed_delivered: u64,
    injected: u64,
    shape_faults: u64,
    poisoned_skipped: u64,
    checks: Checks,
}

fn log_bytes_total() -> u64 {
    mpdf_obs::metrics::counter("fleet.log.bytes_total").get()
}

impl FleetBench {
    fn build(ctx: &Ctx, spans: &mut Spans) -> Result<FleetBench, String> {
        let spec = spec(ctx.workload == Workload::FleetLogged, ctx.scale);
        let pool_cfg = CampaignConfig {
            episodes_per_position: spec.episodes,
            negative_windows: spec.negatives,
            seed: mix(ctx.seed, 0x9001, 0),
            ..campaign::config(ctx.scale, ctx.threads)
        };
        let cases = five_cases();
        let data = spans
            .span("bench.setup.pool", |_| run_campaign(&cases, &pool_cfg))
            .map_err(|e| format!("synthesize the window pool: {e}"))?;
        let rooms: Vec<RoomPool> = data
            .into_iter()
            .map(|case| {
                let mut room = RoomPool {
                    id: case.case_id as u32,
                    ..RoomPool::default()
                };
                for w in case.windows {
                    if w.human.is_some() {
                        room.occupied.push(w.packets);
                    } else {
                        room.vacant.push(w.packets);
                    }
                }
                room
            })
            .collect();

        let detector = pool_cfg.detector.clone();
        // `calibrate` trains on the first half of its packets and seeds
        // the reservoir with the second.
        let calibration_windows = 2 * SessionConfig::default().reservoir_windows;
        let runtimes = spans.span("bench.setup.calibrate", |_| {
            cases
                .iter()
                .map(|case| {
                    let id = case.id as u64;
                    let rx = case_receiver(case, &pool_cfg, mix(ctx.seed, 0xCA11, id))
                        .map_err(|e| format!("room {id} receiver: {e}"))?;
                    let packets = rx
                        .fork(mix(ctx.seed, 0xCA12, id))
                        .capture_static(None, calibration_windows * detector.window)
                        .map_err(|e| format!("room {id} calibration capture: {e}"))?;
                    SessionRuntime::calibrate(
                        &packets,
                        Scheme::default(),
                        detector.clone(),
                        SessionConfig::default(),
                    )
                    .map_err(|e| format!("room {id} calibration: {e}"))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;

        let io = Arc::new(IoStats::default());
        let mut shards = Vec::with_capacity(spec.shards as usize);
        for i in 0..spec.shards {
            let log = if spec.logged {
                let store = MemIo::new(Arc::clone(&io), ctx.io_spans.clone());
                let path = PathBuf::from(format!("shard{i}.mpsl"));
                let (log, _) = ShardLog::open(store, path, i, COMPACT_EVERY)
                    .map_err(|e| format!("open shard {i} log: {e}"))?;
                Some(log)
            } else {
                None
            };
            shards.push(Shard::new(i, log));
        }
        let mut fleet = new_fleet(shards, ctx.threads)?;
        let links: Vec<u64> = (0..spec.links).collect();
        spans.span("bench.setup.register", |_| {
            register(&mut fleet, &links, &rooms, &runtimes)
        })?;

        let room_count = rooms.len() as u64;
        let checked = (!spec.logged).then(|| mix(ctx.seed, 0x4EF, 0) % room_count);
        let reference_links: Vec<u64> = links
            .into_iter()
            .filter(|l| checked.is_none_or(|r| l % room_count == r))
            .collect();
        let reference_room = checked.map(|r| rooms[r as usize].id);
        let ref_shards = (0..spec.shards).map(|i| Shard::new(i, None)).collect();
        let mut reference = new_fleet(ref_shards, 1)?;
        register(&mut reference, &reference_links, &rooms, &runtimes)?;

        let mut bench = FleetBench {
            spec,
            seed: ctx.seed,
            subcarriers: detector.band.num_subcarriers(),
            rooms,
            fleet,
            reference,
            reference_links,
            reference_room,
            io,
            deliveries: Vec::new(),
            recover_at: BTreeMap::new(),
            recoveries_ms: Vec::new(),
            recovery_io_ns: 0,
            recovery_read_bytes: 0,
            timed_io: IoCounts::default(),
            timed_log_bytes: 0,
            timed_delivered: 0,
            injected: 0,
            shape_faults: 0,
            poisoned_skipped: 0,
            checks: Checks::default(),
        };
        bench.schedule_recoveries(ctx.workload.lengths(ctx.scale).1);
        for _ in 0..spec.warmup {
            bench.tick(&mut Spans::new(false));
        }
        Ok(bench)
    }

    /// Places two recoveries of every shard (`fleet_logged` only) at
    /// distinct seeded timed-tick indices within the shortest run.
    fn schedule_recoveries(&mut self, span: u64) {
        if !self.spec.logged {
            return;
        }
        let mut order: Vec<u32> = (0..self.spec.shards).flat_map(|s| [s, s]).collect();
        for i in (1..order.len()).rev() {
            let j = (mix(self.seed, 0x5A0F, i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let n = order.len() as u64;
        for (k, shard) in order.into_iter().enumerate() {
            let k = k as u64;
            let slot = span / n.max(1);
            let at = k * slot + mix(self.seed, 0x5A10, k) % slot.max(1);
            self.recover_at.insert(at, shard);
        }
    }

    /// The window link `link` receives at `tick`, and whether it is a
    /// poisoned one.
    pub fn window(&self, tick: u64, link: u64) -> (Vec<CsiPacket>, bool) {
        if mix(self.seed ^ POISON, link, tick).is_multiple_of(POISON_PERIOD) {
            let key = mix(self.seed ^ POISON, tick, link);
            return (poisoned_window(self.seed, key, self.subcarriers), true);
        }
        let room = &self.rooms[(link % self.rooms.len() as u64) as usize];
        let occupied = mix(self.seed ^ OCCUPANCY, u64::from(room.id), tick).is_multiple_of(3);
        let pool = if occupied {
            &room.occupied
        } else {
            &room.vacant
        };
        let key = mix(self.seed ^ PICK, link, tick);
        let pick = &pool[(key % pool.len() as u64) as usize];
        let packets = pick
            .iter()
            .enumerate()
            .map(|(p, packet)| {
                let phase = std::f64::consts::TAU * unit(self.seed ^ PHASE, key, p as u64);
                rotate(packet, phase)
            })
            .collect();
        (packets, false)
    }

    /// Every window delivered so far, in tick order (for input checks).
    pub fn delivered_windows(&self) -> Vec<Vec<CsiPacket>> {
        self.deliveries
            .iter()
            .map(|&(tick, link)| self.window(tick, link).0)
            .collect()
    }

    /// Poisoned windows the generator injected, the `Shape` faults the
    /// fleet reported, and poisoned windows a skipped link never saw.
    pub fn poison_counts(&self) -> (u64, u64, u64) {
        (self.injected, self.shape_faults, self.poisoned_skipped)
    }

    /// Generates, steps and checks one tick.
    fn tick(&mut self, spans: &mut Spans) -> Op {
        let tick = self.fleet.tick();
        let (windows, poisoned): (Vec<LinkWindow>, Vec<bool>) = (0..self.spec.links)
            .map(|link| {
                let (packets, poisoned) = self.window(tick, link);
                (LinkWindow { link, packets }, poisoned)
            })
            .unzip();
        let fleet = &mut self.fleet;
        let (result, ms) = timed(spans, |s| {
            s.span("bench.call.step_tick", |_| fleet.step_tick(&windows))
        });
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                eprintln!("fleet tick {tick}: {e}");
                return Op {
                    ms,
                    windows: 0,
                    failed: true,
                };
            }
        };
        let failed = self.check_tick(&report, &poisoned);
        self.check_reference(&report, &windows);
        let mut digest = Digest::default();
        digest.bytes(format!("{:?}{:?}", report.records, report.rooms).as_bytes());
        self.checks.output(digest.value());
        let delivered = u64::from(report.delivered);
        for r in &report.records {
            if matches!(
                r.outcome,
                LinkOutcome::Decision { .. } | LinkOutcome::Fault { .. }
            ) {
                self.deliveries.push((tick, r.link));
            }
        }
        Op {
            ms,
            windows: delivered,
            failed,
        }
    }

    /// Checks one tick's report; returns whether the tick failed.
    fn check_tick(&mut self, report: &TickReport, poisoned: &[bool]) -> bool {
        let tick = report.tick;
        let links = self.spec.links as usize;
        self.checks.require(
            report.records.len() == links
                && report
                    .records
                    .iter()
                    .enumerate()
                    .all(|(i, r)| r.link == i as u64),
            || format!("tick {tick}: records do not cover links 0..{links} in order"),
        );
        let mut failed = !report.crashed_shards.is_empty();
        for r in &report.records {
            let was_poisoned = poisoned.get(r.link as usize).copied().unwrap_or(false);
            self.injected += u64::from(was_poisoned);
            match &r.outcome {
                LinkOutcome::Fault {
                    fault: LinkFault::Shape { .. },
                    ..
                } => {
                    self.shape_faults += 1;
                    self.checks.require(was_poisoned, || {
                        format!(
                            "tick {tick}: link {} faulted on a well-formed window",
                            r.link
                        )
                    });
                }
                LinkOutcome::Fault { fault, .. } => {
                    eprintln!("tick {tick}: link {} fault {fault:?}", r.link);
                    failed = true;
                }
                LinkOutcome::QuarantineSkip { .. } | LinkOutcome::DeadSkip => {
                    self.poisoned_skipped += u64::from(was_poisoned);
                }
                LinkOutcome::Decision { .. } | LinkOutcome::Shed { .. } => {
                    self.checks.require(!was_poisoned, || {
                        format!("tick {tick}: link {} accepted a mis-shaped window", r.link)
                    });
                }
            }
        }
        failed
    }

    fn recover(&mut self, shard: u32) {
        let links: Vec<u64> = (0..self.spec.links)
            .filter(|&l| self.fleet.shard_of(l) == shard)
            .collect();
        let before: BTreeMap<u64, u64> = links
            .iter()
            .filter_map(|&l| self.fleet.link_meta(l).map(|m| (l, m.events)))
            .collect();
        let io_before = self.io.counts();
        let start = Instant::now();
        let result = self.fleet.recover_shard(shard);
        self.recoveries_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let io = self.io.counts().since(&io_before);
        self.recovery_io_ns += io.busy_ns;
        self.recovery_read_bytes += io.read_bytes;
        match result {
            // Every append completed, so recovery loses nothing.
            Ok(rep) => self.checks.require(
                rep.links == links.len()
                    && rep.events == before
                    && rep.torn_bytes == 0
                    && !rep.used_bak,
                || format!("recovery of shard {shard} lost state: {rep:?}"),
            ),
            Err(e) => self
                .checks
                .require(false, || format!("recover shard {shard}: {e}")),
        }
    }

    /// Steps the reference fleet on the same windows and compares.
    fn check_reference(&mut self, report: &TickReport, windows: &[LinkWindow]) {
        let tick = report.tick;
        let links = &self.reference_links;
        let mine: Vec<LinkWindow> = windows
            .iter()
            .filter(|w| links.contains(&w.link))
            .cloned()
            .collect();
        let expected = match self.reference.step_tick(&mine) {
            Ok(r) => r,
            Err(e) => {
                self.checks
                    .require(false, || format!("tick {tick}: reference fleet: {e}"));
                return;
            }
        };
        let records_match = report
            .records
            .iter()
            .filter(|r| links.contains(&r.link))
            .eq(expected.records.iter());
        let rooms_match = match self.reference_room {
            None => report.rooms == expected.rooms,
            Some(room) => report
                .rooms
                .iter()
                .filter(|v| v.room == room)
                .eq(expected.rooms.iter()),
        };
        self.checks.require(
            records_match && rooms_match && tick == expected.tick,
            || format!("tick {tick} differs from a single-threaded in-memory fleet"),
        );
    }
}

fn new_fleet(shards: Vec<Shard<Scheme, MemIo>>, threads: usize) -> Result<LinkFleet, String> {
    Fleet::new(shards, FleetPolicy::default(), threads).map_err(|e| format!("build fleet: {e}"))
}

fn register(
    fleet: &mut LinkFleet,
    links: &[u64],
    rooms: &[RoomPool],
    runtimes: &[SessionRuntime<Scheme>],
) -> Result<(), String> {
    for &link in links {
        let room = (link % rooms.len() as u64) as usize;
        fleet
            .register(link, rooms[room].id, runtimes[room].clone())
            .map_err(|e: FleetError| format!("register link {link}: {e}"))?;
    }
    Ok(())
}

impl Bench for FleetBench {
    fn setup(ctx: &Ctx, spans: &mut Spans) -> Result<Self, String> {
        FleetBench::build(ctx, spans)
    }

    fn op(&mut self, index: u64, spans: &mut Spans) -> Op {
        if let Some(shard) = self.recover_at.get(&index).copied() {
            spans.span("bench.recover_shard", |_| self.recover(shard));
        }
        let io_before = self.io.counts();
        let bytes_before = log_bytes_total();
        let op = self.tick(spans);
        self.timed_io += self.io.counts().since(&io_before);
        self.timed_log_bytes += log_bytes_total() - bytes_before;
        self.timed_delivered += op.windows;
        op
    }

    fn finish(&mut self, ops: &[Op]) -> Vec<Metric> {
        let (injected, shape, skipped) = self.poison_counts();
        self.checks.require(injected == shape + skipped, || {
            format!("{injected} poisoned windows injected, {shape} Shape faults, {skipped} skipped")
        });
        let ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
        let n = ops.len();
        let mut extras = vec![
            Metric::new(
                "tick_ms_p99",
                stats::percentile(&ms, 0.99).unwrap_or(f64::NAN),
                "ms",
                n,
            ),
            Metric::new("poisoned_windows", injected as f64, "count", n),
            Metric::new("shape_faults", shape as f64, "count", n),
        ];
        if self.spec.logged {
            let delivered = self.timed_delivered.max(1) as f64;
            let recoveries = &self.recoveries_ms;
            let recovery_ns = 1e6 * recoveries.iter().sum::<f64>();
            let io = self.timed_io;
            extras.extend([
                Metric::new(
                    "log_bytes_per_window",
                    self.timed_log_bytes as f64 / delivered,
                    "B",
                    n,
                ),
                Metric::new(
                    "fsyncs_per_window",
                    self.timed_io.fsyncs() as f64 / delivered,
                    "count",
                    n,
                ),
                Metric::new("log_appends", io.appends as f64, "count", n),
                Metric::new("log_replaces", io.replaces as f64, "count", n),
                Metric::new("log_renames", io.renames as f64, "count", n),
                Metric::new("log_written_bytes", io.written_bytes() as f64, "B", n),
                Metric::new("log_io_ms", io.busy_ns as f64 / 1e6, "ms", n),
                Metric::new(
                    "recovery_ms_p50",
                    stats::median(recoveries).unwrap_or(f64::NAN),
                    "ms",
                    recoveries.len(),
                ),
                Metric::new(
                    "recovery_read_bytes",
                    self.recovery_read_bytes as f64 / recoveries.len().max(1) as f64,
                    "B",
                    recoveries.len(),
                ),
                Metric::new(
                    "recovery_io_pct",
                    100.0 * self.recovery_io_ns as f64 / recovery_ns.max(1.0),
                    "%",
                    recoveries.len(),
                ),
            ]);
        }
        extras
    }

    fn checks(&self) -> &Checks {
        &self.checks
    }
}
