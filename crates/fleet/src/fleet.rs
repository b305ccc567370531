//! The fleet supervisor: routing, parallel stepping, room fusion and
//! shard recovery.
//!
//! The fleet owns the shards, a link→shard directory and the per-link
//! calibration constants needed to rebuild a session runtime from a
//! recovered snapshot (a snapshot stores the *mutable* state; scheme,
//! detector config and session config are fleet-side constants, as they
//! are for a single-session checkpoint).
//!
//! `step_tick` is deterministic at any thread count: windows are routed
//! by link id, shards are stepped independently (in parallel through
//! `mpdf_par::map_indexed_mut` when `threads > 1`), and the merged
//! records are sorted by link before fusion — so thread interleaving
//! can never reorder anything observable.

use std::collections::BTreeMap;

use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::DetectionScheme;
use mpdf_session::checkpoint::decode_image;
use mpdf_session::{SessionConfig, SessionRuntime};
use mpdf_wifi::csi::CsiPacket;

use crate::log::{LogIo, StdIo};
use crate::shard::{LinkOutcome, LinkRecord, Shard};
use crate::{FleetError, FleetPolicy, LinkMeta};

/// One link's windowed CSI for one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkWindow {
    /// Link id.
    pub link: u64,
    /// The window's packets.
    pub packets: Vec<CsiPacket>,
}

/// The immutable per-link constants a recovery needs to rebuild the
/// session runtime around a restored snapshot.
#[derive(Debug, Clone)]
struct LinkConstants<S: DetectionScheme + Clone> {
    scheme: S,
    detector: DetectorConfig,
    session: SessionConfig,
}

/// Fused room-level verdict for one tick: simple majority over the
/// links that produced a decision this tick.
#[derive(Debug, Clone, PartialEq)]
pub struct RoomVerdict {
    /// Room id.
    pub room: u32,
    /// Links that contributed any record this tick.
    pub links: u32,
    /// Links that produced a decision (not abstained/skipped/shed).
    pub scored: u32,
    /// Links whose decision was "presence detected".
    pub votes: u32,
    /// Majority fusion: more than half of the scored links detected.
    pub present: bool,
    /// Mean detection score over the scored links, `None` when nothing
    /// scored.
    pub mean_score: Option<f64>,
}

/// Everything one tick produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// The tick that was stepped (pre-increment).
    pub tick: u64,
    /// Every link record, sorted by link id.
    pub records: Vec<LinkRecord>,
    /// Fused per-room verdicts, sorted by room id.
    pub rooms: Vec<RoomVerdict>,
    /// Shards whose log failed during this tick — recover them before
    /// the next tick.
    pub crashed_shards: Vec<u32>,
    /// Windows delivered fleet-wide.
    pub delivered: u32,
    /// Windows shed fleet-wide.
    pub shed: u32,
}

/// What recovering one shard restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The recovered shard.
    pub shard: u32,
    /// Links restored.
    pub links: usize,
    /// Valid log records scanned.
    pub records: usize,
    /// Torn-tail bytes truncated from the log.
    pub torn_bytes: usize,
    /// Whether recovery fell back to the `.bak` rotation.
    pub used_bak: bool,
    /// Restored per-link event counts — deliveries past these were lost
    /// and must be replayed from the driver's ledger.
    pub events: BTreeMap<u64, u64>,
}

/// A sharded fleet of supervised session runtimes.
#[derive(Debug)]
pub struct Fleet<S: DetectionScheme + Clone, IO: LogIo> {
    shards: Vec<Shard<S, IO>>,
    directory: BTreeMap<u64, u32>,
    constants: BTreeMap<u64, LinkConstants<S>>,
    policy: FleetPolicy,
    threads: usize,
    tick: u64,
}

impl<S: DetectionScheme + Clone> Fleet<S, StdIo> {
    /// Builds a fleet of `shards` in-memory shards (no logs — benchmarks
    /// and reference runs; recovery is unavailable).
    ///
    /// # Errors
    /// [`FleetError::NoShards`], [`FleetError::InvalidPolicy`].
    pub fn in_memory(
        shards: usize,
        policy: FleetPolicy,
        threads: usize,
    ) -> Result<Self, FleetError> {
        let shards = (0..shards as u32).map(|i| Shard::new(i, None)).collect();
        Fleet::new(shards, policy, threads)
    }
}

impl<S: DetectionScheme + Clone, IO: LogIo> Fleet<S, IO> {
    /// Builds a fleet from pre-constructed shards (the chaos harness
    /// uses this to wrap logs in a fault-injecting IO shim).
    ///
    /// # Errors
    /// [`FleetError::NoShards`], [`FleetError::InvalidPolicy`].
    pub fn new(
        shards: Vec<Shard<S, IO>>,
        policy: FleetPolicy,
        threads: usize,
    ) -> Result<Self, FleetError> {
        if shards.is_empty() {
            return Err(FleetError::NoShards);
        }
        if policy.max_strikes == 0 {
            return Err(FleetError::InvalidPolicy(
                "max_strikes must be at least 1".into(),
            ));
        }
        Ok(Fleet {
            shards,
            directory: BTreeMap::new(),
            constants: BTreeMap::new(),
            policy,
            threads: threads.max(1),
            tick: 0,
        })
    }

    /// The next tick to be stepped.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of registered links.
    pub fn links(&self) -> usize {
        self.directory.len()
    }

    /// The home shard of a link, by static hash routing.
    pub fn shard_of(&self, link: u64) -> u32 {
        (link % self.shards.len() as u64) as u32
    }

    /// The fleet-level metadata of a registered link.
    pub fn link_meta(&self, link: u64) -> Option<&LinkMeta> {
        let &shard = self.directory.get(&link)?;
        self.shards[shard as usize].link_meta(link)
    }

    /// Registers a calibrated runtime as link `link` reporting into
    /// `room`. The runtime's scheme and configs are captured as the
    /// link's recovery constants; a birth record is appended to the home
    /// shard's log. Registration is all-or-nothing: on error the fleet
    /// is unchanged and the call may be retried.
    ///
    /// # Errors
    /// [`FleetError::DuplicateLink`]; see [`Shard::register`].
    pub fn register(
        &mut self,
        link: u64,
        room: u32,
        runtime: SessionRuntime<S>,
    ) -> Result<(), FleetError> {
        if self.directory.contains_key(&link) {
            return Err(FleetError::DuplicateLink(link));
        }
        let shard = self.shard_of(link);
        let constants = LinkConstants {
            scheme: runtime.scheme().clone(),
            detector: runtime.detector().config().clone(),
            session: runtime.session_config().clone(),
        };
        self.shards[shard as usize].register(link, room, runtime)?;
        self.constants.insert(link, constants);
        self.directory.insert(link, shard);
        Ok(())
    }

    /// Steps the whole fleet one tick: routes `windows` to their home
    /// shards, steps every shard (in parallel when `threads > 1`),
    /// merges the records and fuses room verdicts.
    ///
    /// # Errors
    /// [`FleetError::UnknownLink`] if any window references an
    /// unregistered link (nothing is stepped in that case).
    pub fn step_tick(&mut self, windows: &[LinkWindow]) -> Result<TickReport, FleetError>
    where
        S: Send + Sync,
        IO: Send,
    {
        let _stage = mpdf_obs::stage!("fleet.tick");
        let mut routed: Vec<Vec<&LinkWindow>> = vec![Vec::new(); self.shards.len()];
        for w in windows {
            let Some(&shard) = self.directory.get(&w.link) else {
                return Err(FleetError::UnknownLink(w.link));
            };
            routed[shard as usize].push(w);
        }

        let tick = self.tick;
        let policy = &self.policy;
        let ticks = if self.threads <= 1 {
            self.shards
                .iter_mut()
                .enumerate()
                .map(|(i, s)| s.step_tick(tick, &routed[i], policy))
                .collect()
        } else {
            mpdf_par::map_indexed_mut(self.threads, &mut self.shards, |i, s| {
                s.step_tick(tick, &routed[i], policy)
            })
        };
        self.tick += 1;

        let mut records = Vec::with_capacity(windows.len());
        let mut crashed_shards = Vec::new();
        let mut delivered = 0u32;
        let mut shed = 0u32;
        for st in ticks {
            if st.crashed {
                crashed_shards.push(st.index);
            }
            delivered += st.delivered;
            shed += st.shed;
            records.extend(st.records);
        }
        records.sort_by_key(|r| r.link);
        let rooms = fuse_rooms(&records);

        let mut active = 0i64;
        let mut quarantined = 0i64;
        for shard in &self.shards {
            for (_, meta) in shard.link_metas() {
                match meta.health {
                    crate::LinkHealth::Healthy => active += 1,
                    crate::LinkHealth::Quarantined { .. } => quarantined += 1,
                    crate::LinkHealth::Dead { .. } => {}
                }
            }
        }
        mpdf_obs::gauge!("fleet.links_active").set(active);
        mpdf_obs::gauge!("fleet.links_quarantined").set(quarantined);

        Ok(TickReport {
            tick,
            records,
            rooms,
            crashed_shards,
            delivered,
            shed,
        })
    }

    /// Recovers one shard from its log: every link homed there is
    /// rebuilt from its last snapshot record, using the constants
    /// captured at registration, and its later window records are
    /// replayed. Only deliveries lost to a failed append are missing
    /// afterwards: the driver replays the deliveries its ledger holds
    /// past each link's restored event count.
    ///
    /// # Errors
    /// [`FleetError::UnknownShard`], [`FleetError::NoLog`], log, record
    /// and snapshot failures, [`FleetError::MissingSnapshot`] if the log
    /// lacks a registered link's image.
    pub fn recover_shard(&mut self, shard: u32) -> Result<RecoveryReport, FleetError> {
        if shard as usize >= self.shards.len() {
            return Err(FleetError::UnknownShard(shard));
        }
        let _stage = mpdf_obs::stage!("fleet.recover");
        let constants = &self.constants;
        let policy = &self.policy;
        let rec = self.shards[shard as usize].recover(policy, |link, snap| {
            let Some(c) = constants.get(&link) else {
                // A link in the log that was never registered this run:
                // restore it with nothing to go on is impossible.
                return Err(FleetError::MissingSnapshot(link));
            };
            let snapshot = decode_image(snap, &c.detector)?;
            SessionRuntime::from_snapshot(
                snapshot,
                c.scheme.clone(),
                c.detector.clone(),
                c.session.clone(),
            )
            .map_err(|e| FleetError::Checkpoint(e.into()))
        })?;
        for (&link, &home) in &self.directory {
            if home == shard && !rec.events.contains_key(&link) {
                return Err(FleetError::MissingSnapshot(link));
            }
        }
        mpdf_obs::counter!("fleet.recoveries_total").inc();
        Ok(RecoveryReport {
            shard,
            links: rec.events.len(),
            records: rec.records,
            torn_bytes: rec.torn_bytes,
            used_bak: rec.used_bak,
            events: rec.events,
        })
    }

    /// Replays one delivery lost to a failed append: delivers `packets` to
    /// `link` as if at `tick` (the original tick — health gates must see
    /// the same clock they saw the first time), bypassing shedding.
    ///
    /// # Errors
    /// [`FleetError::UnknownLink`].
    pub fn replay(
        &mut self,
        link: u64,
        tick: u64,
        packets: &[CsiPacket],
    ) -> Result<LinkRecord, FleetError> {
        let Some(&shard) = self.directory.get(&link) else {
            return Err(FleetError::UnknownLink(link));
        };
        let policy = self.policy.clone();
        let record = self.shards[shard as usize].deliver_one(tick, link, packets, &policy)?;
        mpdf_obs::counter!("fleet.replays_total").inc();
        Ok(record)
    }

    /// Whether a shard is marked crashed (log failure pending recovery).
    pub fn shard_crashed(&self, shard: u32) -> bool {
        self.shards
            .get(shard as usize)
            .is_some_and(Shard::is_crashed)
    }

    /// Evicts dead links from every shard, returning the count.
    pub fn evict_dead(&mut self) -> usize {
        self.shards.iter_mut().map(Shard::evict_dead).sum()
    }
}

/// Majority fusion of link records into room verdicts, room order.
fn fuse_rooms(records: &[LinkRecord]) -> Vec<RoomVerdict> {
    let mut acc: BTreeMap<u32, (u32, u32, u32, f64)> = BTreeMap::new();
    for r in records {
        let e = acc.entry(r.room).or_insert((0, 0, 0, 0.0));
        e.0 += 1;
        if let LinkOutcome::Decision {
            decision: Some(d), ..
        } = &r.outcome
        {
            e.1 += 1;
            e.3 += d.score;
            if d.detected {
                e.2 += 1;
            }
        }
    }
    acc.into_iter()
        .map(|(room, (links, scored, votes, score_sum))| RoomVerdict {
            room,
            links,
            scored,
            votes,
            present: scored > 0 && votes * 2 > scored,
            mean_score: (scored > 0).then(|| score_sum / f64::from(scored)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::LinkOutcome;
    use mpdf_core::detector::Decision;

    fn decision(room: u32, link: u64, detected: bool, score: f64) -> LinkRecord {
        LinkRecord {
            link,
            room,
            events: 1,
            outcome: LinkOutcome::Decision {
                decision: Some(Decision {
                    score,
                    threshold: 1.0,
                    detected,
                    degraded: false,
                }),
                posterior: 0.5,
            },
        }
    }

    #[test]
    fn room_fusion_is_a_strict_majority_over_scored_links() {
        let records = vec![
            decision(1, 0, true, 3.0),
            decision(1, 1, true, 5.0),
            decision(1, 2, false, 0.5),
            LinkRecord {
                link: 3,
                room: 1,
                events: 0,
                outcome: LinkOutcome::DeadSkip,
            },
            decision(2, 4, false, 0.1),
            decision(2, 5, true, 2.0),
        ];
        let rooms = fuse_rooms(&records);
        assert_eq!(rooms.len(), 2);
        assert_eq!(rooms[0].room, 1);
        assert_eq!(rooms[0].links, 4, "skips still count as contributing links");
        assert_eq!(rooms[0].scored, 3);
        assert_eq!(rooms[0].votes, 2);
        assert!(rooms[0].present, "2 of 3 is a majority");
        let mean = rooms[0].mean_score.expect("scored");
        assert!((mean - (3.0 + 5.0 + 0.5) / 3.0).abs() < 1e-12);
        assert!(!rooms[1].present, "1 of 2 is a tie, not a majority");
    }

    #[test]
    fn empty_room_has_no_verdict_score() {
        let records = vec![LinkRecord {
            link: 9,
            room: 4,
            events: 2,
            outcome: LinkOutcome::QuarantineSkip { until_tick: 7 },
        }];
        let rooms = fuse_rooms(&records);
        assert_eq!(rooms.len(), 1);
        assert!(!rooms[0].present);
        assert_eq!(rooms[0].mean_score, None);
    }
}
