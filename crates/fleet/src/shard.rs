//! A shard: the fleet's unit of parallelism, failure and recovery.
//!
//! Each shard owns a slab of link slots (session runtime + fleet-level
//! [`LinkMeta`]) and, optionally, one [`ShardLog`] multiplexing every
//! session's checkpoints. Ticks are processed link-by-link in input
//! order; all cross-link interaction (shedding) is a deterministic
//! function of the shard's state at the start of the tick, so a shard
//! stepped serially and one stepped on a pool thread produce identical
//! records.
//!
//! ## Crash semantics
//!
//! The log records inputs: every delivery of a tick is framed into one
//! buffer and made durable by one group append at the end of the tick.
//! A failed append marks the shard *crashed*: the in-memory stepping
//! completed (the tick's records were already computed and handed
//! downstream — exactly what a process crash during the final flush
//! looks like from the outside), further appends are skipped, and the
//! caller recovers the shard from its log before the next tick.
//! Recovery restores every link from its last snapshot and replays its
//! later window records; the restored event counts tell the driver
//! which deliveries were lost with the failed append and must be
//! replayed.

use std::collections::BTreeMap;

use mpdf_core::detector::Decision;
use mpdf_core::scheme::DetectionScheme;
use mpdf_session::checkpoint::encode_image_into;
use mpdf_session::SessionRuntime;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::wire::WireError;

use crate::link::{LinkFault, LinkHealth, LinkMeta};
use crate::log::{Entry, LogIo, RecordKind, ShardLog};
use crate::slab::Slab;
use crate::{FleetError, FleetPolicy};

/// One link's pooled state.
#[derive(Debug)]
pub struct LinkSlot<S: DetectionScheme + Clone> {
    /// Link id.
    pub link: u64,
    /// Fleet-level metadata (health, streaks, event count).
    pub meta: LinkMeta,
    /// The supervised session runtime.
    pub runtime: SessionRuntime<S>,
}

/// The outcome of one window (or skip) for one link in one tick.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkOutcome {
    /// The window was delivered and stepped; `decision` is `None` when
    /// the session abstained.
    Decision {
        /// The session's decision for this window.
        decision: Option<Decision>,
        /// HMM posterior after the window.
        posterior: f64,
    },
    /// The delivery faulted; the link moved through the health machine.
    Fault {
        /// Typed triage.
        fault: LinkFault,
        /// Health after applying the fault.
        health: LinkHealth,
    },
    /// Overload shedding dropped the window (typed backpressure — the
    /// link's state is untouched).
    Shed {
        /// The link's posterior at shed time (what the vacancy bias
        /// sorted on).
        posterior: f64,
    },
    /// The link is quarantined; the window was skipped without touching
    /// its state.
    QuarantineSkip {
        /// First tick at which a probe will be delivered.
        until_tick: u64,
    },
    /// The link is dead; the window was skipped.
    DeadSkip,
}

/// One link's record within a tick report.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkRecord {
    /// Link id.
    pub link: u64,
    /// Room the link reports into.
    pub room: u32,
    /// The link's event count *after* this tick (unchanged for skips
    /// and sheds — only deliveries are events).
    pub events: u64,
    /// What happened.
    pub outcome: LinkOutcome,
}

/// A shard's slice of one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTick {
    /// Shard index.
    pub index: u32,
    /// Per-link records, in input order.
    pub records: Vec<LinkRecord>,
    /// The shard's log failed mid-tick: in-memory results are complete
    /// and correct, durable state is stale — recover before the next
    /// tick.
    pub crashed: bool,
    /// Windows delivered (stepped or faulted).
    pub delivered: u32,
    /// Windows shed.
    pub shed: u32,
}

/// What a shard recovery restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecovery {
    /// Valid records scanned from the log.
    pub records: usize,
    /// Torn-tail bytes truncated.
    pub torn_bytes: usize,
    /// Whether the `.bak` rotation was used.
    pub used_bak: bool,
    /// Restored per-link event counts — the driver replays deliveries
    /// past these.
    pub events: BTreeMap<u64, u64>,
}

/// A shard of the fleet.
#[derive(Debug)]
pub struct Shard<S: DetectionScheme + Clone, IO: LogIo> {
    index: u32,
    slab: Slab<LinkSlot<S>>,
    by_link: BTreeMap<u64, usize>,
    log: Option<ShardLog<IO>>,
    crashed: bool,
    /// The final `LinkMeta ‖ checkpoint image` payload of every evicted
    /// dead link (logged shards only): compaction rewrites it so the link
    /// stays recoverable.
    evicted: BTreeMap<u64, Vec<u8>>,
}

/// What one delivery hands a link — and what the log records for it.
#[derive(Debug, Clone, Copy)]
enum Delivery<'a> {
    /// A window of packets.
    Window(&'a [CsiPacket]),
    /// A window the shape gate rejected, known only by the offending
    /// packet's shape (how the log records and replays it).
    ShapeFault((usize, usize)),
}

/// Appends a link's snapshot record payload, `LinkMeta ‖ checkpoint
/// image`, to `out`.
fn write_snapshot<S: DetectionScheme + Clone>(
    meta: &LinkMeta,
    runtime: &SessionRuntime<S>,
    out: &mut Vec<u8>,
) -> Result<(), FleetError> {
    meta.encode(out);
    encode_image_into(&runtime.snapshot_parts(), out)?;
    Ok(())
}

/// Where a compacted snapshot record's payload comes from.
enum Payload<'a, S: DetectionScheme + Clone> {
    /// A live link: encoded from its runtime.
    Live(&'a LinkSlot<S>),
    /// An evicted link: the payload kept at eviction.
    Kept(&'a [u8]),
}

impl<S: DetectionScheme + Clone> Payload<'_, S> {
    fn write(self, out: &mut Vec<u8>) -> Result<(), FleetError> {
        match self {
            Payload::Live(s) => write_snapshot(&s.meta, &s.runtime, out),
            Payload::Kept(image) => {
                out.extend_from_slice(image);
                Ok(())
            }
        }
    }
}

fn is_delivery(record: &LinkRecord) -> bool {
    matches!(
        record.outcome,
        LinkOutcome::Decision { .. } | LinkOutcome::Fault { .. }
    )
}

/// What the log records for a delivered window: its packets, or only
/// the shape of a window the shape gate rejected.
fn logged<'a>(record: &LinkRecord, packets: &'a [CsiPacket]) -> Delivery<'a> {
    match record.outcome {
        LinkOutcome::Fault {
            fault: LinkFault::Shape { got, .. },
            ..
        } => Delivery::ShapeFault(got),
        _ => Delivery::Window(packets),
    }
}

impl<S: DetectionScheme + Clone, IO: LogIo> Shard<S, IO> {
    /// Creates a shard. `log` is `None` for purely in-memory fleets
    /// (benchmarks, tests); such shards cannot be recovered.
    pub fn new(index: u32, log: Option<ShardLog<IO>>) -> Self {
        Shard {
            index,
            slab: Slab::new(),
            by_link: BTreeMap::new(),
            log,
            crashed: false,
            evicted: BTreeMap::new(),
        }
    }

    /// Shard index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Number of links homed on this shard.
    pub fn links(&self) -> usize {
        self.slab.len()
    }

    /// Whether the shard's log failed and a recovery is pending.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// The metadata of a link homed here.
    pub fn link_meta(&self, link: u64) -> Option<&LinkMeta> {
        let &slot = self.by_link.get(&link)?;
        self.slab.get(slot).map(|s| &s.meta)
    }

    /// Iterates `(link, meta)` in link order.
    pub fn link_metas(&self) -> impl Iterator<Item = (u64, &LinkMeta)> {
        self.by_link
            .iter()
            .filter_map(|(&link, &slot)| self.slab.get(slot).map(|s| (link, &s.meta)))
    }

    /// Registers a link on this shard. A logged shard first makes the
    /// *birth record* — the link's initial snapshot — durable, so a
    /// recovery always finds an image for every registered link.
    /// Registration is all-or-nothing: on any error the shard is
    /// unchanged and the call may be retried.
    ///
    /// # Errors
    /// [`FleetError::DuplicateLink`]; on a logged shard, a calibrated
    /// shape the wire header's `u8` dimensions cannot carry
    /// ([`LogError::Wire`](crate::LogError::Wire)), and log failures on
    /// the birth append.
    pub fn register(
        &mut self,
        link: u64,
        room: u32,
        runtime: SessionRuntime<S>,
    ) -> Result<(), FleetError> {
        if self.by_link.contains_key(&link) {
            return Err(FleetError::DuplicateLink(link));
        }
        let meta = LinkMeta::new(room);
        if let Some(log) = self.log.as_mut() {
            let profile = runtime.detector().profile();
            let (antennas, subcarriers) = (profile.antennas(), profile.subcarriers());
            if u8::try_from(antennas).is_err() || u8::try_from(subcarriers).is_err() {
                return Err(FleetError::Log(crate::LogError::Wire(
                    WireError::ShapeTooLarge {
                        antennas,
                        subcarriers,
                    },
                )));
            }
            log.stage_snapshot(link, |out| write_snapshot(&meta, &runtime, out))?;
            log.flush()?;
        }
        self.evicted.remove(&link);
        let slot = self.slab.insert(LinkSlot {
            link,
            meta,
            runtime,
        });
        self.by_link.insert(link, slot);
        Ok(())
    }

    /// Evicts every dead link, freeing its slab slot (and its runtime).
    /// Evicted links stay in the log — a logged shard keeps each one's
    /// final image for compaction — and a recovery restores them still
    /// dead. Returns the number evicted.
    pub fn evict_dead(&mut self) -> usize {
        let dead: Vec<u64> = self
            .by_link
            .iter()
            .filter(|(_, &slot)| {
                matches!(
                    self.slab.get(slot).map(|s| s.meta.health),
                    Some(LinkHealth::Dead { .. })
                )
            })
            .map(|(&link, _)| link)
            .collect();
        for link in &dead {
            let Some(slot) = self.by_link.remove(link) else {
                continue;
            };
            let Some(evicted) = self.slab.remove(slot) else {
                continue;
            };
            if self.log.is_some() {
                let mut image = Vec::new();
                match write_snapshot(&evicted.meta, &evicted.runtime, &mut image) {
                    Ok(()) => {
                        self.evicted.insert(*link, image);
                    }
                    // Without an image the next compaction would drop the
                    // link: leave that to a recovery from the log instead.
                    Err(_) => self.crash(),
                }
            }
        }
        dead.len()
    }

    /// Processes one tick: vacancy-biased shedding against the ingest
    /// budget, then per-link delivery in input order, then one group
    /// append of the tick's deliveries and, when due, a compaction.
    /// Windows for links not homed on this shard are ignored (the fleet
    /// validates routing before calling).
    pub fn step_tick(
        &mut self,
        tick: u64,
        windows: &[&crate::fleet::LinkWindow],
        policy: &FleetPolicy,
    ) -> ShardTick {
        let mut shed_records: Vec<Option<LinkRecord>> = vec![None; windows.len()];
        if policy.max_windows_per_tick > 0 {
            // Admission control over the windows that would actually be
            // delivered (skips don't consume budget). Sort key: vacant
            // links first, lowest posterior first, link id as the tie
            // break — presence-positive links are shed last.
            let mut candidates: Vec<(bool, f64, u64, usize, u32)> = Vec::new();
            for (idx, w) in windows.iter().enumerate() {
                let Some(&slot) = self.by_link.get(&w.link) else {
                    continue;
                };
                let Some(s) = self.slab.get(slot) else {
                    continue;
                };
                let deliverable = match s.meta.health {
                    LinkHealth::Healthy => true,
                    LinkHealth::Quarantined { until_tick, .. } => tick >= until_tick,
                    LinkHealth::Dead { .. } => false,
                };
                if deliverable {
                    let posterior = s.runtime.posterior();
                    let presence = posterior >= s.runtime.session_config().vacancy_eps;
                    candidates.push((presence, posterior, w.link, idx, s.meta.room));
                }
            }
            if candidates.len() > policy.max_windows_per_tick {
                let over = candidates.len() - policy.max_windows_per_tick;
                candidates
                    .sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
                for &(presence, posterior, link, idx, room) in candidates.iter().take(over) {
                    let events = self.link_meta(link).map_or(0, |m| m.events);
                    shed_records[idx] = Some(LinkRecord {
                        link,
                        room,
                        events,
                        outcome: LinkOutcome::Shed { posterior },
                    });
                    mpdf_obs::counter!("fleet.sheds_total").inc();
                    if presence {
                        mpdf_obs::counter!("fleet.sheds_presence_total").inc();
                    }
                }
            }
        }

        let mut records = Vec::with_capacity(windows.len());
        let mut batch = Vec::new();
        let mut delivered = 0u32;
        let mut shed = 0u32;
        for (idx, w) in windows.iter().enumerate() {
            if let Some(rec) = shed_records[idx].take() {
                shed += 1;
                records.push(rec);
                continue;
            }
            if let Some(rec) =
                self.deliver_inner(tick, w.link, Delivery::Window(&w.packets), policy)
            {
                if is_delivery(&rec) {
                    delivered += 1;
                    if self.log.is_some() {
                        batch.push((w.link, logged(&rec, &w.packets)));
                    }
                }
                records.push(rec);
            }
        }
        if self.log.is_some() {
            self.commit(tick, &batch);
            self.compact_if_due();
        }
        ShardTick {
            index: self.index,
            records,
            crashed: self.crashed,
            delivered,
            shed,
        }
    }

    /// Delivers one window to one link, bypassing shedding — the replay
    /// entry point for deliveries lost to a failed append. `tick` must
    /// be the tick the window originally belonged to so the health gate
    /// reproduces the original decision. A delivery is logged with its
    /// own append.
    ///
    /// # Errors
    /// [`FleetError::UnknownLink`] for links not homed here.
    pub fn deliver_one(
        &mut self,
        tick: u64,
        link: u64,
        packets: &[CsiPacket],
        policy: &FleetPolicy,
    ) -> Result<LinkRecord, FleetError> {
        let record = self
            .deliver_inner(tick, link, Delivery::Window(packets), policy)
            .ok_or(FleetError::UnknownLink(link))?;
        if is_delivery(&record) && self.log.is_some() {
            self.commit(tick, &[(link, logged(&record, packets))]);
        }
        Ok(record)
    }

    fn deliver_inner(
        &mut self,
        tick: u64,
        link: u64,
        delivery: Delivery<'_>,
        policy: &FleetPolicy,
    ) -> Option<LinkRecord> {
        let &slot_idx = self.by_link.get(&link)?;
        let slot = self.slab.get_mut(slot_idx)?;
        let room = slot.meta.room;

        // Health gate: skips touch nothing (and are not events).
        match slot.meta.health {
            LinkHealth::Dead { .. } => {
                return Some(LinkRecord {
                    link,
                    room,
                    events: slot.meta.events,
                    outcome: LinkOutcome::DeadSkip,
                });
            }
            LinkHealth::Quarantined { until_tick, .. } if tick < until_tick => {
                return Some(LinkRecord {
                    link,
                    room,
                    events: slot.meta.events,
                    outcome: LinkOutcome::QuarantineSkip { until_tick },
                });
            }
            _ => {}
        }
        let probing = matches!(slot.meta.health, LinkHealth::Quarantined { .. });

        // From here on the window is delivered: exactly one event.
        slot.meta.events += 1;

        // Shape gate: mis-shaped packets are a fault, rejected before
        // they can reach (and poison) the runtime.
        let profile = slot.runtime.detector().profile();
        let want = (profile.antennas(), profile.subcarriers());
        let (packets, bad_shape) = match delivery {
            Delivery::Window(packets) => (
                packets,
                packets
                    .iter()
                    .find(|p| (p.antennas(), p.subcarriers()) != want)
                    .map(|p| (p.antennas(), p.subcarriers())),
            ),
            Delivery::ShapeFault(got) => (&[][..], Some(got)),
        };
        let outcome = if let Some(got) = bad_shape {
            let fault = LinkFault::Shape { got, want };
            let health = apply_fault(&mut slot.meta, tick, policy);
            LinkOutcome::Fault { fault, health }
        } else {
            let step = {
                let _stage = mpdf_obs::stage!("fleet.step");
                slot.runtime.step(packets)
            };
            mpdf_obs::counter!("fleet.steps_total").inc();
            match step {
                Ok(sd) => {
                    if sd.decision.is_some() {
                        slot.meta.abstain_streak = 0;
                    } else {
                        slot.meta.abstain_streak += 1;
                    }
                    if probing {
                        slot.meta.health = LinkHealth::Healthy;
                        mpdf_obs::counter!("fleet.quarantine_releases_total").inc();
                    }
                    if policy.watchdog_ticks > 0
                        && slot.meta.abstain_streak >= policy.watchdog_ticks
                    {
                        let fault = LinkFault::Watchdog {
                            streak: slot.meta.abstain_streak,
                        };
                        let health = apply_fault(&mut slot.meta, tick, policy);
                        LinkOutcome::Fault { fault, health }
                    } else {
                        LinkOutcome::Decision {
                            decision: sd.decision,
                            posterior: sd.posterior,
                        }
                    }
                }
                Err(e) => {
                    let fault = LinkFault::Step(e.to_string());
                    let health = apply_fault(&mut slot.meta, tick, policy);
                    LinkOutcome::Fault { fault, health }
                }
            }
        };

        Some(LinkRecord {
            link,
            room,
            events: slot.meta.events,
            outcome,
        })
    }

    fn crash(&mut self) {
        if !self.crashed {
            self.crashed = true;
            mpdf_obs::counter!("fleet.shard_crashes_total").inc();
        }
    }

    /// Logs `batch` — one record per delivery, in delivery order — with
    /// one append; a failure marks the shard crashed (in-memory state
    /// stays authoritative for the tick, durable state goes stale until
    /// recovery).
    fn commit(&mut self, tick: u64, batch: &[(u64, Delivery<'_>)]) {
        if self.crashed || batch.is_empty() {
            return;
        }
        let Some(log) = self.log.as_mut() else {
            return;
        };
        let _stage = mpdf_obs::stage!("fleet.log.append");
        let staged = batch
            .iter()
            .try_for_each(|&(link, delivery)| match delivery {
                Delivery::Window(packets) => log.stage_window(link, tick, packets),
                Delivery::ShapeFault(got) => log.stage_shape_fault(link, tick, got),
            });
        if staged.and_then(|()| log.flush()).is_err() {
            self.crash();
        }
    }

    /// Rewrites the log as one snapshot per link — live and evicted —
    /// once `compact_every` window records have accumulated. Each live
    /// link's image is encoded straight into the new file; an evicted
    /// link's kept bytes are copied in.
    fn compact_if_due(&mut self) {
        if self.crashed {
            return;
        }
        let Some(log) = self.log.as_mut().filter(|log| log.compaction_due()) else {
            return;
        };
        let _stage = mpdf_obs::stage!("fleet.log.compact");
        let slab = &self.slab;
        let live = self
            .by_link
            .iter()
            .filter_map(|(&link, &slot)| slab.get(slot).map(|s| (link, Payload::Live(s))));
        let kept = self
            .evicted
            .iter()
            .map(|(&link, image)| (link, Payload::Kept(image)));
        let images = live
            .chain(kept)
            .map(|(link, payload)| (link, move |out: &mut Vec<u8>| payload.write(out)));
        if log.compact(images).is_err() {
            self.crash();
        }
    }

    /// Rebuilds the shard from its log — the in-memory slab is discarded,
    /// every link is restored from its last snapshot record, and its
    /// later window records are replayed, in log order, at their logged
    /// ticks (nothing is appended while replaying). `restore` turns a
    /// snapshot image back into a runtime (the fleet supplies the
    /// per-link calibration constants).
    ///
    /// # Errors
    /// [`FleetError::NoLog`] for in-memory shards; log, record and
    /// snapshot decode failures; [`FleetError::MissingSnapshot`] for a
    /// window record of a link with no earlier snapshot.
    pub fn recover<F>(
        &mut self,
        policy: &FleetPolicy,
        mut restore: F,
    ) -> Result<ShardRecovery, FleetError>
    where
        F: FnMut(u64, &[u8]) -> Result<SessionRuntime<S>, FleetError>,
    {
        let Some(log) = self.log.as_mut() else {
            return Err(FleetError::NoLog(self.index));
        };
        let (rec, image) = log.recover()?;
        // Each link's last snapshot; records before it are superseded.
        let mut last_snapshot: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, r) in image.records().enumerate() {
            if r.kind == RecordKind::Snapshot {
                last_snapshot.insert(r.link, i);
            }
        }
        let mut entries: Vec<(u64, LinkMeta, SessionRuntime<S>)> = Vec::new();
        for (&link, &i) in &last_snapshot {
            let Some(record) = image.get(i) else {
                return Err(FleetError::MissingSnapshot(link));
            };
            let Some((meta, snap)) = LinkMeta::decode(record.payload) else {
                return Err(FleetError::Checkpoint(
                    mpdf_session::CheckpointError::Corrupt(format!(
                        "link {link} meta prefix truncated"
                    )),
                ));
            };
            entries.push((link, meta, restore(link, snap)?));
        }
        self.slab.clear();
        self.by_link.clear();
        self.evicted.clear();
        self.crashed = false;
        for (link, meta, runtime) in entries {
            let slot = self.slab.insert(LinkSlot {
                link,
                meta,
                runtime,
            });
            self.by_link.insert(link, slot);
        }
        for (i, record) in image.records().enumerate() {
            if record.kind == RecordKind::Snapshot {
                continue;
            }
            match last_snapshot.get(&record.link) {
                Some(&snap) if snap < i => {}
                Some(_) => continue,
                None => return Err(FleetError::MissingSnapshot(record.link)),
            }
            let replayed = match record.entry()? {
                Entry::Window { tick, packets } => {
                    self.deliver_inner(tick, record.link, Delivery::Window(&packets), policy)
                }
                Entry::ShapeFault { tick, got } => {
                    self.deliver_inner(tick, record.link, Delivery::ShapeFault(got), policy)
                }
                Entry::Snapshot(_) => continue,
            };
            if !replayed.as_ref().is_some_and(is_delivery) {
                // The logged window was delivered; a skip now means the
                // log disagrees with itself.
                return Err(FleetError::Log(crate::LogError::BadRecord {
                    gen: record.gen,
                    what: "replayed window was not delivered".to_string(),
                }));
            }
            mpdf_obs::counter!("fleet.log.replayed_windows_total").inc();
        }
        let events = self.link_metas().map(|(l, m)| (l, m.events)).collect();
        Ok(ShardRecovery {
            records: rec.records,
            torn_bytes: rec.torn_bytes,
            used_bak: rec.used_bak,
            events,
        })
    }
}

/// Moves a link through the health machine on a fault: strike, then
/// quarantine with exponential backoff, then death past the budget.
fn apply_fault(meta: &mut LinkMeta, tick: u64, policy: &FleetPolicy) -> LinkHealth {
    let strikes = match meta.health {
        LinkHealth::Healthy => 1,
        LinkHealth::Quarantined { strikes, .. } | LinkHealth::Dead { strikes } => {
            strikes.saturating_add(1)
        }
    };
    meta.abstain_streak = 0;
    meta.health = if strikes > policy.max_strikes {
        mpdf_obs::counter!("fleet.links_dead_total").inc();
        LinkHealth::Dead { strikes }
    } else {
        mpdf_obs::counter!("fleet.quarantines_total").inc();
        LinkHealth::Quarantined {
            until_tick: tick + 1 + policy.backoff_ticks(strikes),
            strikes,
        }
    };
    meta.health
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::LinkWindow;
    use crate::log::{frame_record, header_bytes, StdIo};
    use mpdf_core::profile::DetectorConfig;
    use mpdf_core::scheme::SubcarrierWeighting;
    use mpdf_geom::shapes::Rect;
    use mpdf_geom::vec2::Vec2;
    use mpdf_propagation::channel::ChannelModel;
    use mpdf_propagation::environment::Environment;
    use mpdf_rfmath::complex::Complex64;
    use mpdf_session::checkpoint::decode_image;
    use mpdf_session::runtime::SessionSnapshot;
    use mpdf_session::SessionConfig;
    use mpdf_wifi::receiver::CsiReceiver;

    fn receiver(seed: u64) -> CsiReceiver {
        let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
        let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
        CsiReceiver::new(link, seed).unwrap()
    }

    /// `(LinkMeta, snapshot)` of a link homed on `shard`.
    fn state<IO: LogIo>(
        shard: &Shard<SubcarrierWeighting, IO>,
        link: u64,
    ) -> (LinkMeta, SessionSnapshot) {
        let s = shard.slab.get(shard.by_link[&link]).unwrap();
        (s.meta.clone(), s.runtime.snapshot())
    }

    #[test]
    fn compaction_writes_what_snapshot_encoding_and_framing_would() {
        let dir = std::env::temp_dir().join(format!("mpdf_shard_compact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard0.mpsl");
        std::fs::remove_file(&path).ok();
        let (log, _) = ShardLog::open(StdIo, &path, 0, 2).unwrap();
        let mut shard = Shard::new(0, Some(log));
        let calibration = receiver(3).capture_static(None, 100).unwrap();
        let runtime = SessionRuntime::calibrate(
            &calibration,
            SubcarrierWeighting,
            DetectorConfig::default(),
            SessionConfig::default(),
        )
        .unwrap();
        for link in [3, 5, 9] {
            shard.register(link, 0, runtime.clone()).unwrap();
        }
        // One strike kills: link 9's mis-shaped window makes it dead, and
        // it is evicted with its final image kept.
        let policy = FleetPolicy {
            max_strikes: 0,
            ..FleetPolicy::default()
        };
        let window = |link: u64, tick: u64| LinkWindow {
            link,
            packets: receiver(link * 10 + tick).capture_static(None, 25).unwrap(),
        };
        let poisoned = LinkWindow {
            link: 9,
            packets: vec![CsiPacket::new(1, 1, vec![Complex64::new(1.0, 0.0)], 0, 0.0)],
        };
        let tick0 = [window(3, 0), window(5, 0), poisoned];
        let report = shard.step_tick(0, &tick0.iter().collect::<Vec<_>>(), &policy);
        assert!(!report.crashed);
        let dead = state(&shard, 9);
        assert!(matches!(dead.0.health, LinkHealth::Dead { .. }));
        assert_eq!(shard.evict_dead(), 1);
        let tick1 = [window(3, 1), window(5, 1)];
        let report = shard.step_tick(1, &tick1.iter().collect::<Vec<_>>(), &policy);
        assert!(!report.crashed);

        // Built the old way: the snapshot's image encoded into a scratch
        // buffer, copied behind the meta, framed into a fresh buffer.
        // Generations: births 1-3, tick 0's records 4-6, its compaction
        // 7-9, tick 1's records 10-11, then this compaction.
        let links = [(3, state(&shard, 3)), (5, state(&shard, 5)), (9, dead)];
        let mut expected = header_bytes(0);
        for (gen, (link, (meta, snap))) in (12..).zip(&links) {
            frame_record(&mut expected, gen, *link, RecordKind::Snapshot, |out| {
                meta.encode(out);
                let mut image = Vec::new();
                encode_image_into(&snap.into(), &mut image)?;
                out.extend_from_slice(&image);
                Ok::<_, FleetError>(())
            })
            .unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), expected);

        // Every snapshot record decodes back to the runtime's snapshot.
        let (mut reopened, _) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
        let (_, image) = reopened.recover().unwrap();
        assert_eq!(image.len(), links.len());
        for (record, (link, (meta, snap))) in image.records().zip(&links) {
            assert_eq!(record.link, *link);
            let (decoded_meta, body) = LinkMeta::decode(record.payload).unwrap();
            assert_eq!(decoded_meta, *meta);
            assert_eq!(
                decode_image(body, &DetectorConfig::default()).unwrap(),
                *snap
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_escalation_walks_quarantine_into_death() {
        let policy = FleetPolicy {
            max_strikes: 2,
            quarantine_base: 2,
            quarantine_cap: 8,
            ..FleetPolicy::default()
        };
        let mut meta = LinkMeta::new(1);
        let h1 = apply_fault(&mut meta, 10, &policy);
        assert_eq!(
            h1,
            LinkHealth::Quarantined {
                until_tick: 13,
                strikes: 1
            }
        );
        let h2 = apply_fault(&mut meta, 13, &policy);
        assert_eq!(
            h2,
            LinkHealth::Quarantined {
                until_tick: 18,
                strikes: 2
            }
        );
        let h3 = apply_fault(&mut meta, 18, &policy);
        assert_eq!(h3, LinkHealth::Dead { strikes: 3 });
        // Death is terminal even under further faults.
        assert_eq!(
            apply_fault(&mut meta, 30, &policy),
            LinkHealth::Dead { strikes: 4 }
        );
    }

    #[test]
    fn fault_resets_the_abstain_streak() {
        let mut meta = LinkMeta::new(0);
        meta.abstain_streak = 5;
        apply_fault(&mut meta, 0, &FleetPolicy::default());
        assert_eq!(meta.abstain_streak, 0);
    }
}
