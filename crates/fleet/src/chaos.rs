//! Deterministic chaos: seeded kill schedules, a fault-injecting
//! [`LogIo`] shim and an in-memory [`LogIo`] to run it over.
//!
//! Everything here is a pure function of the seed and the operation
//! count — no clocks, no global RNG — so a chaos run replays
//! identically at any thread count, which is what lets the recovery
//! equivalence tests demand *bit-identical* fused verdicts between a
//! chaos'd fleet and an uninterrupted one.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::log::LogIo;

/// SplitMix64-style mixer: a deterministic pseudo-random word from a
/// seed and two lane values. The one mixer the fleet's chaos schedules,
/// the `repro fleet` demo and the fleet tests draw from.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded schedule of shard kills: at the start of each listed tick,
/// the driver drops the shard's in-memory state and recovers it from
/// its log before stepping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// `(tick, shard)` kill points, sorted by tick.
    pub kills: Vec<(u64, u32)>,
}

impl ChaosPlan {
    /// Derives `kills` kill points over `ticks` ticks and `shards`
    /// shards from the seed. Tick 0 is never chosen (there is nothing
    /// to recover yet) and at most one kill lands per tick.
    pub fn seeded(seed: u64, shards: u32, ticks: u64, kills: usize) -> Self {
        let mut chosen: Vec<(u64, u32)> = Vec::new();
        let mut n = 0u64;
        while chosen.len() < kills && n < kills as u64 * 64 {
            n += 1;
            if ticks <= 1 || shards == 0 {
                break;
            }
            let tick = 1 + mix(seed, n, 0x17) % (ticks - 1);
            if chosen.iter().any(|&(t, _)| t == tick) {
                continue;
            }
            let shard = (mix(seed, n, 0x29) % u64::from(shards)) as u32;
            chosen.push((tick, shard));
        }
        chosen.sort_unstable();
        ChaosPlan { kills: chosen }
    }

    /// The shards scheduled to be killed at the start of `tick`.
    pub fn kills_at(&self, tick: u64) -> impl Iterator<Item = u32> + '_ {
        self.kills
            .iter()
            .filter(move |&&(t, _)| t == tick)
            .map(|&(_, s)| s)
    }
}

/// What IO faults to inject, derived from a seed and per-operation
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Mixing seed.
    pub seed: u64,
    /// Roughly one in this many appends fails with a *transient*
    /// `Interrupted` (exercising the bounded retry). `0` = never.
    pub transient_period: u64,
    /// Roughly one in this many appends is *torn*: a strict prefix of
    /// the frame reaches the file and the append reports failure
    /// (exercising torn-tail truncation and crash recovery). `0` =
    /// never.
    pub torn_period: u64,
    /// The first this-many appends always succeed — a grace window so a
    /// driver can write its birth records before the chaos starts.
    pub grace_appends: u64,
    /// `(n, cut)`: the `n`-th append (1-based, grace included) is torn
    /// after `cut % len` bytes, whatever the periods say.
    pub tear_at: Option<(u64, usize)>,
}

impl FaultPlan {
    /// A plan that never faults (pass-through shim).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_period: 0,
            torn_period: 0,
            grace_appends: 0,
            tear_at: None,
        }
    }

    /// A plan whose only fault tears the `n`-th append after
    /// `cut % len` bytes.
    pub fn tear_once(n: u64, cut: usize) -> Self {
        FaultPlan {
            tear_at: Some((n, cut)),
            ..FaultPlan::quiet(0)
        }
    }
}

/// A [`LogIo`] decorator that injects seeded faults into appends.
/// Reads, replaces and renames pass through untouched: the interesting
/// crash surface is the hot append path; a replace is already atomic
/// (staged write, fsync, rename).
#[derive(Debug)]
pub struct FaultIo<IO: LogIo> {
    inner: IO,
    plan: FaultPlan,
    appends: u64,
}

impl<IO: LogIo> FaultIo<IO> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: IO, plan: FaultPlan) -> Self {
        FaultIo {
            inner,
            plan,
            appends: 0,
        }
    }

    /// Appends attempted so far (including faulted ones).
    pub fn appends(&self) -> u64 {
        self.appends
    }
}

impl<IO: LogIo> LogIo for FaultIo<IO> {
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.appends += 1;
        let n = self.appends;
        let plan = self.plan;
        if let Some((_, cut)) = plan.tear_at.filter(|&(at, _)| at == n) {
            self.inner
                .append(path, &bytes[..cut % bytes.len().max(1)])?;
            return Err(std::io::Error::other("injected torn append"));
        }
        if n <= plan.grace_appends {
            return self.inner.append(path, bytes);
        }
        if plan.torn_period > 0
            && mix(plan.seed, n, 0xB).is_multiple_of(plan.torn_period)
            && bytes.len() > 1
        {
            // Torn write: a strict, non-empty prefix lands on disk and
            // the operation still reports failure — the classic
            // power-cut-mid-flush shape the log's scanner must absorb.
            let cut = 1 + (mix(plan.seed, n, 0xC) as usize % (bytes.len() - 1));
            self.inner.append(path, &bytes[..cut])?;
            return Err(std::io::Error::other("injected torn append"));
        }
        if plan.transient_period > 0 && mix(plan.seed, n, 0xA).is_multiple_of(plan.transient_period)
        {
            return Err(std::io::Error::from(std::io::ErrorKind::Interrupted));
        }
        self.inner.append(path, bytes)
    }

    fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.replace(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }

    fn exists(&mut self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// An in-memory [`LogIo`]: files are byte vectors keyed by path. Tests
/// and property runs use it to crash and recover logs without disk IO.
#[derive(Debug, Default, Clone)]
pub struct MemIo {
    files: BTreeMap<PathBuf, Vec<u8>>,
}

impl MemIo {
    /// A store with no files.
    pub fn new() -> Self {
        MemIo::default()
    }
}

impl LogIo for MemIo {
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.files
            .get(path)
            .cloned()
            .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::NotFound))
    }
    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.files
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }
    fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        let data = self
            .files
            .remove(from)
            .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::NotFound))?;
        self.files.insert(to.to_path_buf(), data);
        Ok(())
    }
    fn exists(&mut self, path: &Path) -> bool {
        self.files.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_respect_bounds() {
        let a = ChaosPlan::seeded(42, 4, 10, 3);
        let b = ChaosPlan::seeded(42, 4, 10, 3);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.kills.len(), 3);
        for &(tick, shard) in &a.kills {
            assert!((1..10).contains(&tick));
            assert!(shard < 4);
        }
        let ticks: Vec<u64> = a.kills.iter().map(|&(t, _)| t).collect();
        let mut unique = ticks.clone();
        unique.dedup();
        assert_eq!(ticks, unique, "at most one kill per tick");
        let c = ChaosPlan::seeded(43, 4, 10, 3);
        assert_ne!(a, c, "different seed, different plan");
        assert!(ChaosPlan::seeded(7, 4, 1, 3).kills.is_empty());
    }

    #[test]
    fn torn_appends_leave_a_strict_prefix_and_report_failure() {
        let mut io = FaultIo::new(
            MemIo::default(),
            FaultPlan {
                seed: 9,
                transient_period: 0,
                torn_period: 1,
                grace_appends: 0,
                tear_at: None,
            },
        );
        let path = Path::new("log");
        let err = io.append(path, b"0123456789").expect_err("always torn");
        assert!(err.to_string().contains("torn"));
        let on_disk = io.read(path).expect("prefix landed");
        assert!(!on_disk.is_empty() && on_disk.len() < 10);
        assert_eq!(&on_disk[..], &b"0123456789"[..on_disk.len()]);
    }

    #[test]
    fn transient_faults_are_deterministic_per_operation_index() {
        let run = |seed| {
            let mut io = FaultIo::new(
                MemIo::default(),
                FaultPlan {
                    seed,
                    transient_period: 3,
                    torn_period: 0,
                    grace_appends: 0,
                    tear_at: None,
                },
            );
            (0..30)
                .map(|_| io.append(Path::new("l"), b"x").is_err())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(5), run(5), "same seed, same fault pattern");
        assert!(run(5).iter().any(|&e| e), "some appends fault");
        assert!(run(5).iter().any(|&e| !e), "some appends succeed");
    }

    #[test]
    fn quiet_plan_passes_everything_through() {
        let mut io = FaultIo::new(MemIo::default(), FaultPlan::quiet(1));
        let path = Path::new("log");
        for _ in 0..100 {
            io.append(path, b"ab").expect("no faults");
        }
        assert_eq!(io.appends(), 100);
        assert_eq!(io.read(path).expect("read").len(), 200);
        io.replace(path, b"z").expect("replace");
        io.rename(path, Path::new("log2")).expect("rename");
        assert!(io.exists(Path::new("log2")));
    }

    #[test]
    fn tear_once_tears_exactly_the_chosen_append() {
        let mut io = FaultIo::new(MemIo::new(), FaultPlan::tear_once(2, 3));
        let path = Path::new("log");
        io.append(path, b"first").expect("append 1 is clean");
        io.append(path, b"second").expect_err("append 2 is torn");
        io.append(path, b"third").expect("append 3 is clean");
        assert_eq!(io.read(path).expect("read"), b"firstsecthird");
        // A cut past the end wraps around: always a strict prefix.
        let mut io = FaultIo::new(MemIo::new(), FaultPlan::tear_once(1, 7));
        io.append(path, b"ab").expect_err("torn");
        assert_eq!(io.read(path).expect("read"), b"a");
    }
}
