//! A counting in-memory [`LogIo`]: the shard logs' files live in memory,
//! and every call is counted with its bytes and busy time and, in the
//! traced pass, recorded as a span on the calling thread.
//!
//! The logged fleet measures the log's own work (snapshot encoding,
//! framing, CRC, copying the record into storage) and counts the fsyncs
//! the production [`StdIo`] would issue ([`IoCounts::fsyncs`]) rather
//! than waiting for them: on a shared virtual disk a sync's latency, and
//! the writeback behind page-cache writes, follow the other tenants' IO,
//! which no run length averages out.
//!
//! [`StdIo`]: mpdf_fleet::StdIo

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpdf_fleet::LogIo;

use crate::spans::{leaf, SharedSpans};

/// Cumulative shard-log IO counts. Statistics only (relaxed atomics).
#[derive(Debug, Default)]
pub struct IoStats {
    /// Whole-file reads (recovery).
    pub reads: AtomicU64,
    /// Bytes returned by reads.
    pub read_bytes: AtomicU64,
    /// Appends.
    pub appends: AtomicU64,
    /// Bytes appended.
    pub append_bytes: AtomicU64,
    /// Whole-file replaces (log creation, compaction).
    pub replaces: AtomicU64,
    /// Bytes written by replaces.
    pub replace_bytes: AtomicU64,
    /// Renames (compaction's `.bak` rotation).
    pub renames: AtomicU64,
    /// Nanoseconds spent inside the calls above.
    pub busy_ns: AtomicU64,
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoCounts {
    /// Whole-file reads.
    pub reads: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Appends.
    pub appends: u64,
    /// Bytes appended.
    pub append_bytes: u64,
    /// Replaces.
    pub replaces: u64,
    /// Bytes written by replaces.
    pub replace_bytes: u64,
    /// Renames.
    pub renames: u64,
    /// Busy nanoseconds.
    pub busy_ns: u64,
}

impl IoCounts {
    /// fsync calls the production `StdIo` would issue for these calls:
    /// one per append, two per replace (staged file, then parent
    /// directory), one per rename (parent directory).
    pub fn fsyncs(&self) -> u64 {
        self.appends + 2 * self.replaces + self.renames
    }

    /// Bytes written by appends and replaces.
    pub fn written_bytes(&self) -> u64 {
        self.append_bytes + self.replace_bytes
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            replaces: self.replaces - earlier.replaces,
            replace_bytes: self.replace_bytes - earlier.replace_bytes,
            renames: self.renames - earlier.renames,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

impl std::ops::AddAssign for IoCounts {
    fn add_assign(&mut self, other: IoCounts) {
        self.reads += other.reads;
        self.read_bytes += other.read_bytes;
        self.appends += other.appends;
        self.append_bytes += other.append_bytes;
        self.replaces += other.replaces;
        self.replace_bytes += other.replace_bytes;
        self.renames += other.renames;
        self.busy_ns += other.busy_ns;
    }
}

impl IoStats {
    /// Reads the current counts.
    pub fn counts(&self) -> IoCounts {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        IoCounts {
            reads: get(&self.reads),
            read_bytes: get(&self.read_bytes),
            appends: get(&self.appends),
            append_bytes: get(&self.append_bytes),
            replaces: get(&self.replaces),
            replace_bytes: get(&self.replace_bytes),
            renames: get(&self.renames),
            busy_ns: get(&self.busy_ns),
        }
    }
}

/// The files of one shard log, held in memory, plus counting. A file is
/// kept as the list of its writes, so an append copies its record once
/// and never reallocates the file.
#[derive(Debug)]
pub struct MemIo {
    files: HashMap<PathBuf, Vec<Vec<u8>>>,
    stats: Arc<IoStats>,
    spans: Option<SharedSpans>,
}

impl MemIo {
    /// An empty store adding to `stats`, recording spans into `spans`
    /// when set.
    pub fn new(stats: Arc<IoStats>, spans: Option<SharedSpans>) -> MemIo {
        MemIo {
            files: HashMap::new(),
            stats,
            spans,
        }
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let spans = self.spans.clone();
        let (out, ns) = leaf(spans.as_ref(), name, || f(self));
        self.stats.busy_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

fn not_found(path: &Path) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!("{} does not exist", path.display()),
    )
}

impl LogIo for MemIo {
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        let data = self.timed("bench.io.read", |io| {
            io.files.get(path).map(|writes| writes.concat())
        });
        let data = data.ok_or_else(|| not_found(path))?;
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .read_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.timed("bench.io.append", |io| {
            io.files
                .entry(path.to_path_buf())
                .or_default()
                .push(bytes.to_vec());
        });
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.stats
            .append_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.timed("bench.io.replace", |io| {
            io.files.insert(path.to_path_buf(), vec![bytes.to_vec()]);
        });
        self.stats.replaces.fetch_add(1, Ordering::Relaxed);
        self.stats
            .replace_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        let moved = self.timed("bench.io.rename", |io| {
            let writes = io.files.remove(from)?;
            io.files.insert(to.to_path_buf(), writes);
            Some(())
        });
        moved.ok_or_else(|| not_found(from))?;
        self.stats.renames.fetch_add(1, Ordering::Relaxed);
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
    fn files_behave_like_the_filesystem() {
        let stats = Arc::new(IoStats::default());
        let mut io = MemIo::new(Arc::clone(&stats), None);
        let (log, bak) = (Path::new("shard0.mpsl"), Path::new("shard0.mpsl.bak"));
        assert!(!io.exists(log));
        assert_eq!(
            io.read(log).unwrap_err().kind(),
            std::io::ErrorKind::NotFound
        );
        io.replace(log, b"head").unwrap();
        io.append(log, b"er").unwrap();
        io.append(log, b"!").unwrap();
        assert_eq!(io.read(log).unwrap(), b"header!");
        io.rename(log, bak).unwrap();
        assert!(!io.exists(log) && io.exists(bak));
        io.replace(log, b"new").unwrap();
        assert_eq!(io.read(log).unwrap(), b"new");
        assert_eq!(io.read(bak).unwrap(), b"header!");
        assert!(io.rename(Path::new("missing"), log).is_err());

        let c = stats.counts();
        assert_eq!((c.appends, c.replaces, c.renames, c.reads), (2, 2, 1, 3));
        assert_eq!((c.append_bytes, c.replace_bytes, c.read_bytes), (3, 7, 17));
        assert_eq!(c.fsyncs(), 2 + 2 * 2 + 1);
    }
}
