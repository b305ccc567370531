//! Append-only, CRC-framed, generation-numbered shard write-ahead logs.
//!
//! One log per shard multiplexes every session the shard runs — at
//! fleet scale this replaces file-per-session checkpointing (thousands
//! of tiny files and fsyncs) with one sequentially-appended file per
//! failure domain. The log records *inputs*, not state: each delivered
//! window is logged as its packets, and a link's full session snapshot
//! is written only at registration and at compaction. Session stepping
//! is deterministic, so a link's last snapshot plus a replay of its
//! later window records reproduces its state bit for bit.
//!
//! ## On-disk layout (all little-endian)
//!
//! ```text
//! header   magic    b"MPSL"        4 bytes
//!          version  u16            2   (LOG_VERSION = 3)
//!          shard    u32            4
//! record   sync     b"RC"          2
//!          gen      u64            8   (log-wide generation number)
//!          link     u64            8
//!          kind     u8             1   (1 snapshot, 2 window, 3 shape fault)
//!          len      u32            4   (payload byte count)
//!          payload  [len bytes]
//!          crc      u64            8   CRC-64/WE over gen..payload
//!
//! snapshot    opaque, defined by the caller (see below)
//! window      tick u64 ‖ mpdf_wifi::wire window (packets u32 ‖ frames)
//! shape fault tick u64 ‖ got antennas u64 ‖ got subcarriers u64
//! ```
//!
//! A snapshot payload is opaque to the log; each caller defines its
//! own. A fleet shard ([`crate::shard`]) writes `LinkMeta ‖ session
//! image`; a single-session checkpoint ([`crate::checkpoint`]), a log
//! holding one link, writes the bare session image. Either way the
//! record CRC is the only checksum on the image: it is encoded straight
//! into its frame (`encode_image_into`) and decoded with
//! `mpdf_session::checkpoint::decode_image` once the frame checks out.
//!
//! Recovery scans records in file order; the first frame that fails its
//! sync marker, length bound, kind byte, CRC, or whose generation is not
//! above its predecessor's ends the scan, and everything from there on
//! is truncated as a torn tail (a crash mid-append can only damage the
//! suffix). If the header itself is damaged, or no record survives
//! (a torn first record, or a file cut back to its header), the
//! previous-good `.bak` rotation — written by compaction — is recovered
//! instead, as long as it holds a record.
//!
//! All IO flows through the [`LogIo`] trait: production uses [`StdIo`]
//! (real files, full fsync discipline), the chaos harness swaps in
//! [`crate::chaos::FaultIo`] to inject seeded torn writes and transient
//! errors without touching this module's logic.

use std::error::Error;
use std::fmt;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::wire::{self, WireError};

/// Shard-log file magic.
pub const LOG_MAGIC: &[u8; 4] = b"MPSL";
/// Current shard-log format version. Version 2 snapshot records carried
/// the checkpoint file's own trailer; version 1 logged a snapshot per
/// delivery. Both are refused as [`LogError::UnsupportedVersion`].
pub const LOG_VERSION: u16 = 3;
/// Byte length of the file header.
pub const HEADER_LEN: usize = 10;
/// Per-record framing overhead (sync + gen + link + kind + len + crc).
pub const RECORD_OVERHEAD: usize = 2 + 8 + 8 + 1 + 4 + 8;
/// Largest admissible record payload; larger lengths in a frame are
/// treated as corruption, not allocation requests.
pub const MAX_RECORD_PAYLOAD: usize = 1 << 28;

const RECORD_SYNC: &[u8; 2] = b"RC";
/// Offset of the payload within a frame.
const PAYLOAD_AT: usize = RECORD_OVERHEAD - 8;

/// Errors produced by shard-log operations.
#[derive(Debug)]
pub enum LogError {
    /// Underlying IO failure (after the transient-retry budget).
    Io(std::io::Error),
    /// The file header is missing or malformed.
    BadHeader(String),
    /// The header's version field is unsupported.
    UnsupportedVersion(u16),
    /// The log belongs to a different shard.
    ShardMismatch {
        /// Shard id this log was opened for.
        expected: u32,
        /// Shard id stored in the file header.
        found: u32,
    },
    /// Append-side: a payload exceeds [`MAX_RECORD_PAYLOAD`].
    TooLarge {
        /// Offending payload length.
        len: usize,
    },
    /// Append-side: a window's packets cannot be wire-encoded.
    Wire(WireError),
    /// A CRC-valid record whose payload does not decode as its kind.
    BadRecord {
        /// Generation of the offending record.
        gen: u64,
        /// What failed to decode.
        what: String,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "shard log i/o error: {e}"),
            LogError::BadHeader(what) => write!(f, "bad shard log header: {what}"),
            LogError::UnsupportedVersion(v) => write!(f, "unsupported shard log version {v}"),
            LogError::ShardMismatch { expected, found } => {
                write!(f, "shard log is for shard {found}, expected {expected}")
            }
            LogError::TooLarge { len } => write!(
                f,
                "record payload of {len} bytes exceeds the {MAX_RECORD_PAYLOAD} byte cap"
            ),
            LogError::Wire(e) => write!(f, "window cannot be logged: {e}"),
            LogError::BadRecord { gen, what } => {
                write!(f, "shard log record {gen} does not decode: {what}")
            }
        }
    }
}

impl Error for LogError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            LogError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

impl From<WireError> for LogError {
    fn from(e: WireError) -> Self {
        LogError::Wire(e)
    }
}

/// Bytes each of [`crc64`]'s interleaved lanes covers per block.
pub const CRC_LANE_BYTES: usize = 1024;
/// Independent lanes [`crc64`] runs side by side within one block of
/// `CRC_LANES * CRC_LANE_BYTES` input bytes (its loop is written out
/// for four).
pub const CRC_LANES: usize = 4;

/// The ECMA-182 generator polynomial, MSB-first.
const CRC_POLY: u64 = 0x42F0_E1EB_A9EA_3693;

struct CrcTables {
    /// `slice[k][b]`: byte `b` followed by `k` zero bytes (slicing-by-8).
    slice: [[u64; 256]; 8],
    /// `shift[k][b]`: the register `b << 8k` advanced over
    /// [`CRC_LANE_BYTES`] zero bytes, i.e. multiplied by
    /// x^(8·CRC_LANE_BYTES) mod P.
    shift: [[u64; 256]; 8],
}

/// `x` through eight byte-indexed tables, row `k` taking byte `k` of `x`
/// counted from the least significant end.
#[inline(always)]
fn slice8(t: &[[u64; 256]; 8], x: u64) -> u64 {
    t[7][(x >> 56) as usize]
        ^ t[6][(x >> 48) as usize & 0xFF]
        ^ t[5][(x >> 40) as usize & 0xFF]
        ^ t[4][(x >> 32) as usize & 0xFF]
        ^ t[3][(x >> 24) as usize & 0xFF]
        ^ t[2][(x >> 16) as usize & 0xFF]
        ^ t[1][(x >> 8) as usize & 0xFF]
        ^ t[0][x as usize & 0xFF]
}

impl CrcTables {
    fn get() -> &'static CrcTables {
        static TABLES: OnceLock<CrcTables> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut slice = [[0u64; 256]; 8];
            for (i, entry) in slice[0].iter_mut().enumerate() {
                let mut crc = (i as u64) << 56;
                for _ in 0..8 {
                    crc = if crc & (1 << 63) != 0 {
                        (crc << 1) ^ CRC_POLY
                    } else {
                        crc << 1
                    };
                }
                *entry = crc;
            }
            let mut t = CrcTables {
                slice,
                shift: [[0u64; 256]; 8],
            };
            // Row k of either table is row k - 1 advanced over one more
            // zero byte; the shift table's first row needs the whole
            // slicing table.
            for k in 1..8 {
                for i in 0..256 {
                    t.slice[k][i] = t.zero_byte(t.slice[k - 1][i]);
                }
            }
            for i in 0..256 {
                t.shift[0][i] = t.serial(i as u64, &[0; CRC_LANE_BYTES]);
            }
            for k in 1..8 {
                for i in 0..256 {
                    t.shift[k][i] = t.zero_byte(t.shift[k - 1][i]);
                }
            }
            t
        })
    }

    /// The register advanced over one zero byte.
    fn zero_byte(&self, crc: u64) -> u64 {
        (crc << 8) ^ self.slice[0][(crc >> 56) as usize]
    }

    /// The register advanced over one 8-byte word.
    #[inline(always)]
    fn word(&self, crc: u64, word: &[u8]) -> u64 {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(word);
        slice8(&self.slice, crc ^ u64::from_be_bytes(bytes))
    }

    /// The register advanced over [`CRC_LANE_BYTES`] zero bytes.
    #[inline(always)]
    fn shift(&self, crc: u64) -> u64 {
        slice8(&self.shift, crc)
    }

    /// The serial loop: one dependency chain, eight bytes per step, then
    /// the remainder byte by byte.
    fn serial(&self, mut crc: u64, data: &[u8]) -> u64 {
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            crc = self.word(crc, word);
        }
        for &byte in words.remainder() {
            crc = self.zero_byte(crc ^ (u64::from(byte) << 56));
        }
        crc
    }
}

/// CRC-64 over the ECMA-182 polynomial (`0x42F0E1EBA9EA3693`),
/// MSB-first, with all-ones init and xorout (the CRC-64/WE profile) so
/// leading-zero damage and the empty input are distinguishable.
///
/// The input is walked in blocks of [`CRC_LANES`] × [`CRC_LANE_BYTES`]
/// bytes. Within a block four slicing-by-8 lanes run in one loop as
/// independent dependency chains: lane 0 carries the running CRC, lanes
/// 1–3 start from zero. CRC is linear, so the block's CRC is the lanes
/// merged with a precomputed table that multiplies by
/// x^(8·CRC_LANE_BYTES) mod P (`crc = shift(crc) ^ lane`, lane by lane).
/// The tail shorter than a block runs the serial slicing-by-8 loop.
pub fn crc64(data: &[u8]) -> u64 {
    let _stage = mpdf_obs::stage!("fleet.log.checksum");
    let t = CrcTables::get();
    let mut crc = !0u64;
    let mut blocks = data.chunks_exact(CRC_LANES * CRC_LANE_BYTES);
    for block in &mut blocks {
        let (l0, rest) = block.split_at(CRC_LANE_BYTES);
        let (l1, rest) = rest.split_at(CRC_LANE_BYTES);
        let (l2, l3) = rest.split_at(CRC_LANE_BYTES);
        let mut lanes = [crc, 0, 0, 0];
        let words = l0
            .chunks_exact(8)
            .zip(l1.chunks_exact(8))
            .zip(l2.chunks_exact(8))
            .zip(l3.chunks_exact(8));
        for (((w0, w1), w2), w3) in words {
            lanes = [
                t.word(lanes[0], w0),
                t.word(lanes[1], w1),
                t.word(lanes[2], w2),
                t.word(lanes[3], w3),
            ];
        }
        crc = t.shift(t.shift(t.shift(lanes[0]) ^ lanes[1]) ^ lanes[2]) ^ lanes[3];
    }
    !t.serial(crc, blocks.remainder())
}

/// Transient-IO retry budget: total attempts per operation before the
/// error is surfaced to the caller.
const IO_ATTEMPTS: u32 = 4;

/// True for error kinds that a bounded retry is allowed to absorb:
/// signal interruptions and spurious would-block reports. Everything
/// else (permissions, disk full, bad paths) fails immediately.
fn transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
    )
}

/// Runs an IO operation with a bounded deterministic retry on transient
/// errors. Backoff is attempt-scaled scheduler yields, not wall-clock
/// sleeps: no clock is read, so retries can never make control flow
/// time-dependent. Each retry is counted on `fleet.log.io_retries_total`.
///
/// # Errors
/// The first non-transient error, or the last transient one once the
/// [`IO_ATTEMPTS`] budget is spent.
fn retry_io<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if transient(e.kind()) && attempt < IO_ATTEMPTS => {
                mpdf_obs::counter!("fleet.log.io_retries_total").inc();
                for _ in 0..attempt {
                    std::thread::yield_now();
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Fsyncs the directory containing `path`, making a just-completed
/// rename of `path` itself durable (renames are directory mutations; the
/// file's own `sync_all` does not cover them).
///
/// # Errors
/// Opening or syncing the directory failed.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

/// The filesystem surface a shard log needs. Production uses [`StdIo`];
/// the chaos harness wraps any `LogIo` in a fault-injecting shim.
pub trait LogIo {
    /// Reads the whole file.
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Durably appends `bytes` (write + fsync).
    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Durably replaces the file's contents atomically (staged write,
    /// fsync, rename, directory fsync).
    fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Renames a file, fsyncing the parent directory.
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Whether the file exists.
    fn exists(&mut self, path: &Path) -> bool;
}

/// Real-filesystem [`LogIo`] with full durability discipline.
#[derive(Debug, Default, Clone)]
pub struct StdIo;

impl LogIo for StdIo {
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let staged = sibling(path, ".staged");
        let mut f = std::fs::File::create(&staged)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&staged, path)?;
        sync_parent_dir(path)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)?;
        sync_parent_dir(to)
    }

    fn exists(&mut self, path: &Path) -> bool {
        path.exists()
    }
}

/// What a [`ShardLog::open`]/[`ShardLog::recover`] pass found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecovery {
    /// Valid records scanned (file order).
    pub records: usize,
    /// Bytes truncated off a torn tail (0 for a clean log).
    pub torn_bytes: usize,
    /// Whether the primary was unusable and the `.bak` rotation was
    /// recovered instead.
    pub used_bak: bool,
}

/// The three record kinds of a v3 shard log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A caller-defined snapshot payload (see the module docs): a
    /// birth record or a compaction image.
    Snapshot,
    /// One delivered window's packets.
    Window,
    /// A delivery rejected by the shape gate: only its tick and shape.
    ShapeFault,
}

impl RecordKind {
    fn tag(self) -> u8 {
        match self {
            RecordKind::Snapshot => 1,
            RecordKind::Window => 2,
            RecordKind::ShapeFault => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<RecordKind> {
        match tag {
            1 => Some(RecordKind::Snapshot),
            2 => Some(RecordKind::Window),
            3 => Some(RecordKind::ShapeFault),
            _ => None,
        }
    }
}

/// One CRC-valid record of a recovered log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// Log-wide generation number.
    pub gen: u64,
    /// Link the record belongs to.
    pub link: u64,
    /// Record kind.
    pub kind: RecordKind,
    /// The raw payload.
    pub payload: &'a [u8],
}

/// A record's decoded payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry<'a> {
    /// A caller-defined snapshot payload (see the module docs).
    Snapshot(&'a [u8]),
    /// A delivered window.
    Window {
        /// The tick it was delivered at.
        tick: u64,
        /// Its packets.
        packets: Vec<CsiPacket>,
    },
    /// A delivery the shape gate rejected.
    ShapeFault {
        /// The tick it was delivered at.
        tick: u64,
        /// The offending packet's `(antennas, subcarriers)`.
        got: (usize, usize),
    },
}

fn read_u64(data: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&data[..8]);
    u64::from_le_bytes(bytes)
}

impl<'a> Record<'a> {
    /// Decodes the payload. Window packets are parsed with the total
    /// [`wire::decode_window`], so no payload can panic.
    ///
    /// # Errors
    /// [`LogError::BadRecord`] when the payload does not decode as its
    /// kind.
    pub fn entry(&self) -> Result<Entry<'a>, LogError> {
        let bad = |what: String| LogError::BadRecord {
            gen: self.gen,
            what,
        };
        let p = self.payload;
        match self.kind {
            RecordKind::Snapshot => Ok(Entry::Snapshot(p)),
            RecordKind::ShapeFault => {
                if p.len() != 24 {
                    return Err(bad(format!("shape fault payload of {} bytes", p.len())));
                }
                let got = (read_u64(&p[8..]), read_u64(&p[16..]));
                Ok(Entry::ShapeFault {
                    tick: read_u64(p),
                    got: (
                        usize::try_from(got.0).map_err(|_| bad("antennas".into()))?,
                        usize::try_from(got.1).map_err(|_| bad("subcarriers".into()))?,
                    ),
                })
            }
            RecordKind::Window => {
                if p.len() < 8 {
                    return Err(bad(format!("window payload of {} bytes", p.len())));
                }
                let (packets, used) =
                    wire::decode_window(&p[8..]).map_err(|e| bad(e.to_string()))?;
                if 8 + used != p.len() {
                    return Err(bad(format!("{} trailing bytes", p.len() - 8 - used)));
                }
                Ok(Entry::Window {
                    tick: read_u64(p),
                    packets,
                })
            }
        }
    }
}

/// The valid records of a recovered log, in log order.
#[derive(Debug, Default)]
pub struct LogImage {
    data: Vec<u8>,
    records: Vec<(u64, u64, RecordKind, Range<usize>)>,
}

impl LogImage {
    /// Number of valid records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `i`-th record in log order.
    pub fn get(&self, i: usize) -> Option<Record<'_>> {
        let (gen, link, kind, range) = self.records.get(i)?;
        Some(Record {
            gen: *gen,
            link: *link,
            kind: *kind,
            payload: &self.data[range.clone()],
        })
    }

    /// Iterates the records in log order.
    pub fn records(&self) -> impl Iterator<Item = Record<'_>> {
        (0..self.records.len()).filter_map(|i| self.get(i))
    }
}

pub(crate) fn header_bytes(shard: u32) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN);
    bytes.extend_from_slice(LOG_MAGIC);
    bytes.extend_from_slice(&LOG_VERSION.to_le_bytes());
    bytes.extend_from_slice(&shard.to_le_bytes());
    bytes
}

/// Frames one record into `out`; `write` appends the payload. On error
/// `out` is left as it was.
pub(crate) fn frame_record<E: From<LogError>>(
    out: &mut Vec<u8>,
    gen: u64,
    link: u64,
    kind: RecordKind,
    write: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
) -> Result<(), E> {
    let start = out.len();
    out.extend_from_slice(RECORD_SYNC);
    out.extend_from_slice(&gen.to_le_bytes());
    out.extend_from_slice(&link.to_le_bytes());
    out.push(kind.tag());
    out.extend_from_slice(&[0; 4]);
    let body = out.len();
    let written = write(out).and_then(|()| {
        let len = out.len() - body;
        if len > MAX_RECORD_PAYLOAD {
            return Err(LogError::TooLarge { len }.into());
        }
        Ok(len as u32)
    });
    let len = match written {
        Ok(len) => len,
        Err(e) => {
            out.truncate(start);
            return Err(e);
        }
    };
    out[body - 4..body].copy_from_slice(&len.to_le_bytes());
    let crc = crc64(&out[start + 2..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// The outcome of scanning a log file.
struct Scan {
    /// Byte length of the valid prefix (header included).
    end: usize,
    next_gen: u64,
    records: Vec<(u64, u64, RecordKind, Range<usize>)>,
    torn_bytes: usize,
}

fn scan(data: &[u8], shard: u32) -> Result<Scan, LogError> {
    if data.len() < HEADER_LEN {
        return Err(LogError::BadHeader(format!(
            "{} bytes is shorter than the {HEADER_LEN} byte header",
            data.len()
        )));
    }
    if &data[..4] != LOG_MAGIC {
        return Err(LogError::BadHeader("wrong magic".to_string()));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != LOG_VERSION {
        return Err(LogError::UnsupportedVersion(version));
    }
    let found = u32::from_le_bytes([data[6], data[7], data[8], data[9]]);
    if found != shard {
        return Err(LogError::ShardMismatch {
            expected: shard,
            found,
        });
    }
    let mut records = Vec::new();
    let mut last_gen = 0u64;
    let mut off = HEADER_LEN;
    while off < data.len() {
        let rest = &data[off..];
        if rest.len() < RECORD_OVERHEAD || &rest[..2] != RECORD_SYNC {
            break;
        }
        let gen = read_u64(&rest[2..]);
        let link = read_u64(&rest[10..]);
        let Some(kind) = RecordKind::from_tag(rest[18]) else {
            break;
        };
        let len = u32::from_le_bytes([rest[19], rest[20], rest[21], rest[22]]) as usize;
        if len > MAX_RECORD_PAYLOAD || rest.len() < RECORD_OVERHEAD + len {
            break;
        }
        let payload_end = PAYLOAD_AT + len;
        if read_u64(&rest[payload_end..]) != crc64(&rest[2..payload_end]) {
            break;
        }
        // Generations strictly increase across appends; a stale one is
        // a record from before a rewrite, not part of this log.
        if gen <= last_gen {
            break;
        }
        last_gen = gen;
        records.push((gen, link, kind, off + PAYLOAD_AT..off + payload_end));
        off += RECORD_OVERHEAD + len;
    }
    Ok(Scan {
        end: off,
        next_gen: last_gen + 1,
        records,
        torn_bytes: data.len() - off,
    })
}

/// A crash-recoverable per-shard write-ahead log.
///
/// Records are staged into an in-memory buffer and made durable by
/// [`ShardLog::flush`] in one [`LogIo::append`] — a group commit.
#[derive(Debug)]
pub struct ShardLog<IO: LogIo> {
    io: IO,
    path: PathBuf,
    bak: PathBuf,
    shard: u32,
    next_gen: u64,
    compact_every: usize,
    windows_since_compact: usize,
    pending: Vec<u8>,
    pending_windows: usize,
    /// The buffer compaction builds the new file in, kept between
    /// compactions like `pending`.
    compacted: Vec<u8>,
    /// A failed append may have left a torn tail; the next flush
    /// rewrites the primary from its valid prefix first.
    torn: bool,
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

impl<IO: LogIo> ShardLog<IO> {
    /// Opens (or creates) the shard log at `path`, recovering whatever
    /// state survives on disk. `compact_every` bounds log growth: after
    /// that many window records the shard rewrites the log as one
    /// snapshot per link (`0` disables compaction).
    ///
    /// # Errors
    /// IO failures, or typed corruption errors when neither the primary
    /// nor the `.bak` rotation has a readable header.
    pub fn open(
        io: IO,
        path: impl Into<PathBuf>,
        shard: u32,
        compact_every: usize,
    ) -> Result<(Self, LogRecovery), LogError> {
        let path = path.into();
        let bak = sibling(&path, ".bak");
        let mut log = ShardLog {
            io,
            path,
            bak,
            shard,
            next_gen: 1,
            compact_every,
            windows_since_compact: 0,
            pending: Vec::new(),
            pending_windows: 0,
            compacted: Vec::new(),
            torn: false,
        };
        let (recovery, _) = log.recover()?;
        Ok((log, recovery))
    }

    /// The primary log path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-reads the on-disk state, discarding anything staged — the
    /// moral equivalent of a process restart — and returns the valid
    /// records. Torn tails are truncated (counted on
    /// `fleet.log.torn_tails_total`); a primary with an unreadable
    /// header falls back to the `.bak` rotation, and so does one with no
    /// record when the `.bak` holds one (`fleet.log.bak_fallbacks_total`).
    /// Either way the primary is rewritten from the valid bytes already
    /// read. A record-less primary with no such `.bak` is a fresh, empty
    /// log.
    ///
    /// # Errors
    /// IO failures, or the *primary's* typed corruption error when the
    /// `.bak` fallback is also unusable.
    pub fn recover(&mut self) -> Result<(LogRecovery, LogImage), LogError> {
        // The log's position (`torn`, `next_gen`, the window count) is
        // reset only once the primary is known clean: a recovery that
        // fails midway leaves the repair pending and generations
        // increasing.
        self.pending.clear();
        self.pending_windows = 0;

        let primary = if self.io.exists(&self.path) {
            let data = retry_io(|| self.io.read(&self.path))?;
            Some(scan(&data, self.shard).map(|s| (data, s)))
        } else {
            None
        };
        let ((mut data, s), used_bak) = match primary {
            // A primary with no record at all, torn or cut back to its
            // header: a .bak that holds records is the log as it was
            // before its last compaction, which beats losing every link.
            // (Compaction never writes zero records, so an empty primary
            // beside such a .bak is always damage.) Without one, the
            // header survives as an empty log.
            Some(Ok(found)) if found.1.records.is_empty() => match self.recover_bak()? {
                Some(bak) if !bak.1.records.is_empty() => (bak, true),
                _ => (found, false),
            },
            Some(Ok(found)) => (found, false),
            // Primary unreadable at the header level (or missing): try
            // the previous-good rotation before giving up.
            Some(Err(primary_err)) => match self.recover_bak()? {
                Some(found) => (found, true),
                None => return Err(primary_err),
            },
            None => match self.recover_bak()? {
                Some(found) => (found, true),
                None => {
                    // Fresh log: durably write the header so appends have
                    // a valid file to extend.
                    let header = header_bytes(self.shard);
                    retry_io(|| self.io.replace(&self.path, &header))?;
                    self.torn = false;
                    self.next_gen = 1;
                    self.windows_since_compact = 0;
                    let recovery = LogRecovery {
                        records: 0,
                        torn_bytes: 0,
                        used_bak: false,
                    };
                    return Ok((recovery, LogImage::default()));
                }
            },
        };
        if s.torn_bytes > 0 {
            mpdf_obs::counter!("fleet.log.torn_tails_total").inc();
        }
        if used_bak {
            mpdf_obs::counter!("fleet.log.bak_fallbacks_total").inc();
        }
        data.truncate(s.end);
        if s.torn_bytes > 0 || used_bak {
            // Rebuild the primary from the surviving records so appends
            // extend a clean file. The .bak rotation is left untouched:
            // it still holds the last known-good full image.
            retry_io(|| self.io.replace(&self.path, &data))?;
        }
        self.torn = false;
        self.next_gen = s.next_gen;
        self.windows_since_compact = s
            .records
            .iter()
            .filter(|r| r.2 != RecordKind::Snapshot)
            .count();
        let recovery = LogRecovery {
            records: s.records.len(),
            torn_bytes: s.torn_bytes,
            used_bak,
        };
        Ok((
            recovery,
            LogImage {
                data,
                records: s.records,
            },
        ))
    }

    fn recover_bak(&mut self) -> Result<Option<(Vec<u8>, Scan)>, LogError> {
        if !self.io.exists(&self.bak) {
            return Ok(None);
        }
        let data = retry_io(|| self.io.read(&self.bak))?;
        Ok(scan(&data, self.shard).ok().map(|s| (data, s)))
    }

    fn stage<E: From<LogError>>(
        &mut self,
        link: u64,
        kind: RecordKind,
        write: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        frame_record(&mut self.pending, self.next_gen, link, kind, write)?;
        self.next_gen += 1;
        if kind != RecordKind::Snapshot {
            self.pending_windows += 1;
        }
        Ok(())
    }

    /// Stages a snapshot record: `write` appends its caller-defined
    /// payload (see the module docs) straight into the frame.
    ///
    /// # Errors
    /// `write`'s error, or [`LogError::TooLarge`]; nothing is staged on
    /// error.
    pub fn stage_snapshot<E: From<LogError>>(
        &mut self,
        link: u64,
        write: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.stage(link, RecordKind::Snapshot, write)
    }

    /// Stages a window record: the tick, then the packets as a wire
    /// window ([`wire::encode_window`]).
    ///
    /// # Errors
    /// [`LogError::Wire`] for a window the wire cannot carry,
    /// [`LogError::TooLarge`]; nothing is staged on error.
    pub fn stage_window(
        &mut self,
        link: u64,
        tick: u64,
        packets: &[CsiPacket],
    ) -> Result<(), LogError> {
        self.stage(link, RecordKind::Window, |out| {
            out.extend_from_slice(&tick.to_le_bytes());
            Ok(wire::encode_window(packets, out)?)
        })
    }

    /// Stages a shape-fault record: the tick and the offending shape.
    ///
    /// # Errors
    /// Never in practice; the signature matches the other stagers.
    pub fn stage_shape_fault(
        &mut self,
        link: u64,
        tick: u64,
        got: (usize, usize),
    ) -> Result<(), LogError> {
        self.stage(link, RecordKind::ShapeFault, |out| {
            out.extend_from_slice(&tick.to_le_bytes());
            out.extend_from_slice(&(got.0 as u64).to_le_bytes());
            out.extend_from_slice(&(got.1 as u64).to_le_bytes());
            Ok(())
        })
    }

    /// Makes every staged record durable in one append (a group
    /// commit). A no-op when nothing is staged.
    ///
    /// # Errors
    /// IO errors after the transient-retry budget. The staged records
    /// are dropped either way; on error the caller treats the shard as
    /// crashed and recovers from disk.
    pub fn flush(&mut self) -> Result<(), LogError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut batch = std::mem::take(&mut self.pending);
        let windows = std::mem::take(&mut self.pending_windows);
        if self.torn {
            // The batch's generations were allocated above every durable
            // one; keep allocating above them.
            let next_gen = self.next_gen;
            self.recover()?;
            self.next_gen = next_gen;
        }
        let result = retry_io(|| self.io.append(&self.path, &batch));
        let len = batch.len() as u64;
        batch.clear();
        self.pending = batch;
        if let Err(e) = result {
            self.torn = true;
            return Err(e.into());
        }
        mpdf_obs::counter!("fleet.log.appends_total").inc();
        mpdf_obs::counter!("fleet.log.bytes_total").add(len);
        self.windows_since_compact += windows;
        Ok(())
    }

    /// Whether `compact_every` window records have been logged since the
    /// last compaction.
    pub fn compaction_due(&self) -> bool {
        self.compact_every > 0 && self.windows_since_compact >= self.compact_every
    }

    /// Rewrites the log as one snapshot record per link, rotating the
    /// previous file to `.bak` (the last-good-generation fallback).
    /// `images` yields each link with a writer that appends its
    /// caller-defined snapshot payload (see the module docs) straight
    /// into the new file, which is built in a buffer the log keeps
    /// between compactions.
    ///
    /// # Errors
    /// A writer's error or [`LogError::TooLarge`], before anything is
    /// written; IO failures, where a crash between the rotation and the
    /// rewrite leaves the `.bak` recoverable.
    pub fn compact<E, W>(&mut self, images: impl IntoIterator<Item = (u64, W)>) -> Result<(), E>
    where
        E: From<LogError>,
        W: FnOnce(&mut Vec<u8>) -> Result<(), E>,
    {
        let mut bytes = std::mem::take(&mut self.compacted);
        let written = self.rewrite(&mut bytes, images);
        self.compacted = bytes;
        written
    }

    fn rewrite<E, W>(
        &mut self,
        bytes: &mut Vec<u8>,
        images: impl IntoIterator<Item = (u64, W)>,
    ) -> Result<(), E>
    where
        E: From<LogError>,
        W: FnOnce(&mut Vec<u8>) -> Result<(), E>,
    {
        bytes.clear();
        bytes.extend_from_slice(&header_bytes(self.shard));
        for (link, write) in images {
            frame_record(bytes, self.next_gen, link, RecordKind::Snapshot, write)?;
            self.next_gen += 1;
        }
        if self.io.exists(&self.path) {
            retry_io(|| self.io.rename(&self.path, &self.bak)).map_err(LogError::from)?;
        }
        retry_io(|| self.io.replace(&self.path, bytes)).map_err(LogError::from)?;
        self.torn = false;
        self.windows_since_compact = 0;
        mpdf_obs::counter!("fleet.log.compactions_total").inc();
        mpdf_obs::counter!("fleet.log.compacted_bytes_total").add(bytes.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultIo, FaultPlan, MemIo};
    use mpdf_rfmath::complex::Complex64;

    fn packet(seq: u64) -> CsiPacket {
        let data = (0..6)
            .map(|i| Complex64::new(seq as f64 + f64::from(i), -0.5 * f64::from(i)))
            .collect();
        CsiPacket::new(2, 3, data, seq, seq as f64 * 0.02)
    }

    fn open(io: MemIo, compact_every: usize) -> ShardLog<MemIo> {
        ShardLog::open(io, "shard0.mpsl", 0, compact_every)
            .unwrap()
            .0
    }

    /// What a restarted process finds: the opening scan's summary and
    /// the records.
    fn reopen(log: &ShardLog<MemIo>) -> (LogRecovery, LogImage) {
        let (mut fresh, rec) = ShardLog::open(log.io.clone(), "shard0.mpsl", 0, 0).unwrap();
        (rec, fresh.recover().unwrap().1)
    }

    /// A payload writer that appends `payload` as it is.
    fn bytes(payload: &[u8]) -> impl FnOnce(&mut Vec<u8>) -> Result<(), LogError> + '_ {
        move |out| {
            out.extend_from_slice(payload);
            Ok(())
        }
    }

    /// Appends a CRC-valid record with an explicit generation.
    fn raw_append(log: &mut ShardLog<MemIo>, gen: u64, link: u64) -> usize {
        let mut rec = Vec::new();
        frame_record(&mut rec, gen, link, RecordKind::Snapshot, bytes(b"stale")).unwrap();
        log.io.append(Path::new("shard0.mpsl"), &rec).unwrap();
        rec.len()
    }

    #[test]
    fn staged_records_commit_in_one_append_and_decode() {
        let mut log = ShardLog::open(FaultIo::new(MemIo::new(), FaultPlan::quiet(0)), "l", 0, 0)
            .unwrap()
            .0;
        let window = vec![packet(1), packet(2)];
        log.stage_snapshot(5, bytes(b"birth")).unwrap();
        log.stage_window(5, 7, &window).unwrap();
        log.stage_shape_fault(2, 7, (1, 30)).unwrap();
        log.flush().unwrap();
        log.flush().unwrap();
        assert_eq!(
            log.io.appends(),
            1,
            "one group commit; empty flushes are free"
        );

        let (rec, image) = log.recover().unwrap();
        assert_eq!((rec.records, rec.torn_bytes, rec.used_bak), (3, 0, false));
        let entries: Vec<(u64, u64, Entry<'_>)> = image
            .records()
            .map(|r| (r.gen, r.link, r.entry().unwrap()))
            .collect();
        assert_eq!(entries[0], (1, 5, Entry::Snapshot(b"birth")));
        let Entry::Window { tick, packets } = &entries[1].2 else {
            panic!("window record expected");
        };
        assert_eq!((entries[1].0, *tick), (2, 7));
        assert!(packets.iter().zip(&window).all(|(a, b)| a.bits_eq(b)));
        assert_eq!(packets.len(), 2);
        assert_eq!(
            entries[2],
            (
                3,
                2,
                Entry::ShapeFault {
                    tick: 7,
                    got: (1, 30)
                }
            )
        );
    }

    #[test]
    fn compaction_rewrites_snapshots_with_fresh_generations_and_rotates_bak() {
        let mut log = open(MemIo::new(), 2);
        log.stage_snapshot(1, bytes(b"one")).unwrap();
        log.stage_window(1, 0, &[packet(0)]).unwrap();
        log.flush().unwrap();
        assert!(!log.compaction_due());
        log.stage_window(1, 1, &[packet(1)]).unwrap();
        log.flush().unwrap();
        assert!(
            log.compaction_due(),
            "two window records since the last compaction"
        );
        log.compact([(1, bytes(b"one-v2")), (4, bytes(b"four"))])
            .unwrap();
        assert!(!log.compaction_due());
        assert!(log.io.exists(Path::new("shard0.mpsl.bak")));

        let (rec, image) = reopen(&log);
        assert_eq!(rec.records, 2);
        let gens: Vec<(u64, u64, &[u8])> = image
            .records()
            .map(|r| (r.gen, r.link, r.payload))
            .collect();
        assert_eq!(gens, vec![(4, 1, &b"one-v2"[..]), (5, 4, &b"four"[..])]);
        // The window count survives a reopen: it is read off the file.
        log.stage_window(4, 2, &[packet(2)]).unwrap();
        log.flush().unwrap();
        let mut again = open(log.io.clone(), 1);
        assert!(again.compaction_due());
        assert_eq!(again.recover().unwrap().1.len(), 3);
    }

    #[test]
    fn a_stale_generation_ends_the_scan() {
        let mut log = open(MemIo::new(), 0);
        log.stage_snapshot(1, bytes(b"a")).unwrap();
        log.stage_snapshot(2, bytes(b"b")).unwrap();
        log.flush().unwrap();
        // CRC-valid, but generation 2 was already used: a leftover from
        // before a rewrite, not part of this log.
        let stale = raw_append(&mut log, 2, 3);
        let (rec, image) = reopen(&log);
        assert_eq!((rec.records, rec.torn_bytes), (2, stale));
        assert_eq!(
            image.records().map(|r| r.link).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // A later, higher generation does not resurrect anything past it.
        raw_append(&mut log, 9, 4);
        let (rec, _) = reopen(&log);
        assert_eq!(rec.records, 2, "the scan stopped at the stale record");
    }

    #[test]
    fn a_failed_append_is_repaired_before_the_next_one() {
        let io = FaultIo::new(MemIo::new(), FaultPlan::tear_once(2, 17));
        let (mut log, _) = ShardLog::open(io, "l", 0, 0).unwrap();
        log.stage_snapshot(1, bytes(b"one")).unwrap();
        log.flush().unwrap();
        log.stage_window(1, 0, &[packet(0)]).unwrap();
        assert!(log.flush().is_err(), "append 2 is torn");
        log.stage_window(1, 1, &[packet(1)]).unwrap();
        log.flush().unwrap();
        let (rec, image) = log.recover().unwrap();
        assert_eq!((rec.records, rec.torn_bytes), (2, 0));
        let gens: Vec<u64> = image.records().map(|r| r.gen).collect();
        assert_eq!(gens, vec![1, 3], "generations stay strictly increasing");
    }

    /// A [`MemIo`] whose next append can be torn and whose next replace
    /// can fail, on demand.
    #[derive(Debug, Default)]
    struct Flaky {
        mem: MemIo,
        tear_next_append: bool,
        fail_next_replace: bool,
    }

    impl LogIo for Flaky {
        fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.mem.read(path)
        }
        fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            if std::mem::take(&mut self.tear_next_append) {
                self.mem.append(path, &bytes[..3])?;
                return Err(std::io::Error::other("torn append"));
            }
            self.mem.append(path, bytes)
        }
        fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            if std::mem::take(&mut self.fail_next_replace) {
                return Err(std::io::Error::other("replace failed"));
            }
            self.mem.replace(path, bytes)
        }
        fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.mem.rename(from, to)
        }
        fn exists(&mut self, path: &Path) -> bool {
            self.mem.exists(path)
        }
    }

    #[test]
    fn a_failed_repair_is_retried_before_the_next_append() {
        let (mut log, _) = ShardLog::open(Flaky::default(), "l", 0, 0).unwrap();
        log.stage_snapshot(1, bytes(b"one")).unwrap();
        log.flush().unwrap();
        log.io.tear_next_append = true;
        log.stage_snapshot(2, bytes(b"two")).unwrap();
        assert!(log.flush().is_err(), "torn append");
        log.io.fail_next_replace = true;
        log.stage_snapshot(3, bytes(b"three")).unwrap();
        assert!(log.flush().is_err(), "the tail repair fails");
        // The torn tail is still there: this flush must repair it first,
        // or its record would land behind garbage and be lost.
        log.stage_snapshot(4, bytes(b"four")).unwrap();
        log.flush().unwrap();
        let (rec, image) = log.recover().unwrap();
        assert_eq!(rec.torn_bytes, 0);
        let links: Vec<u64> = image.records().map(|r| r.link).collect();
        assert_eq!(links, vec![1, 4]);
    }

    #[test]
    fn wrong_shard_and_version_are_typed_errors() {
        let log = open(MemIo::new(), 0);
        let io = log.io.clone();
        assert!(matches!(
            ShardLog::open(io.clone(), "shard0.mpsl", 8, 0),
            Err(LogError::ShardMismatch {
                expected: 8,
                found: 0
            })
        ));
        // Earlier formats are refused: version 1 logged a snapshot per
        // window, version 2 kept each snapshot's own checksum trailer.
        for version in [1u16, 2] {
            let mut old = io.clone();
            let mut data = old.read(Path::new("shard0.mpsl")).unwrap();
            data[4..6].copy_from_slice(&version.to_le_bytes());
            old.replace(Path::new("shard0.mpsl"), &data).unwrap();
            assert!(matches!(
                ShardLog::open(old, "shard0.mpsl", 0, 0),
                Err(LogError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn undecodable_payloads_are_typed_errors() {
        let record = |kind, payload| Record {
            gen: 4,
            link: 1,
            kind,
            payload,
        };
        for (kind, payload) in [
            (RecordKind::ShapeFault, &b"short"[..]),
            (RecordKind::Window, &b"tiny"[..]),
            (
                RecordKind::Window,
                &[0u8, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0][..],
            ),
            (
                RecordKind::Window,
                &[0u8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1][..],
            ),
        ] {
            let err = record(kind, payload).entry().unwrap_err();
            assert!(matches!(err, LogError::BadRecord { gen: 4, .. }), "{err}");
        }
        let mut log = open(MemIo::new(), 0);
        let wide = CsiPacket::new(1, 300, vec![Complex64::new(0.0, 0.0); 300], 0, 0.0);
        assert!(matches!(
            log.stage_window(1, 0, &[wide]),
            Err(LogError::Wire(WireError::ShapeTooLarge { .. }))
        ));
        assert!(log.pending.is_empty(), "nothing staged on error");
        // A writer's own error stages nothing either.
        let refused = log.stage_snapshot(1, |out: &mut Vec<u8>| {
            out.extend_from_slice(b"half an image");
            Err(LogError::TooLarge { len: 13 })
        });
        assert!(matches!(refused, Err(LogError::TooLarge { len: 13 })));
        assert!(log.pending.is_empty(), "nothing staged on error");
    }

    #[test]
    fn compaction_reuses_its_buffer_and_a_failed_writer_leaves_the_log_alone() {
        let mut log = open(MemIo::new(), 1);
        log.stage_snapshot(1, bytes(b"one")).unwrap();
        log.stage_window(1, 0, &[packet(0)]).unwrap();
        log.flush().unwrap();
        log.compact([(1, bytes(&[7; 4096]))]).unwrap();
        let capacity = log.compacted.capacity();
        assert!(capacity >= HEADER_LEN + RECORD_OVERHEAD + 4096);
        log.compact([(1, bytes(b"small"))]).unwrap();
        assert_eq!(
            log.compacted.capacity(),
            capacity,
            "kept between compactions"
        );

        // A writer that fails aborts the compaction before any IO.
        let before = log.io.read(Path::new("shard0.mpsl")).unwrap();
        let failed = log.compact([(1, false), (2, true)].map(|(link, fail)| {
            (link, move |out: &mut Vec<u8>| {
                out.extend_from_slice(b"fine");
                if fail {
                    return Err(LogError::TooLarge { len: 0 });
                }
                Ok(())
            })
        }));
        assert!(failed.is_err());
        assert_eq!(log.io.read(Path::new("shard0.mpsl")).unwrap(), before);
        assert_eq!(log.compacted.capacity(), capacity, "kept after a failure");
    }

    /// The CRC-64/WE register advanced over `data` one bit at a time —
    /// the definition `crc64` must reproduce, with no table in sight.
    fn bytewise_register(mut crc: u64, data: &[u8]) -> u64 {
        for &byte in data {
            crc ^= u64::from(byte) << 56;
            for _ in 0..8 {
                crc = if crc & (1 << 63) != 0 {
                    (crc << 1) ^ 0x42F0_E1EB_A9EA_3693
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    fn bytewise(data: &[u8]) -> u64 {
        !bytewise_register(!0, data)
    }

    /// `len` seeded pseudo-random bytes (xorshift64).
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    const CRC_BLOCK: usize = CRC_LANES * CRC_LANE_BYTES;

    #[test]
    fn crc64_is_stable_sensitive_and_matches_the_bytewise_definition() {
        let a = crc64(b"123456789");
        assert_eq!(a, crc64(b"123456789"), "deterministic");
        assert_ne!(a, crc64(b"123456780"), "sensitive to content");
        assert_ne!(crc64(b""), crc64(b"\0"), "length-extension guarded");
        // The CRC-64/WE check value.
        assert_eq!(a, 0x62EC_59E3_F1A4_F00A);

        // Every length through three blocks plus a remainder: serial
        // inputs, whole blocks, and blocks followed by every tail.
        let data = seeded_bytes(1, 3 * CRC_BLOCK + CRC_LANE_BYTES + 9);
        let mut register = !0u64;
        for len in 0..=data.len() {
            assert_eq!(crc64(&data[..len]), !register, "len {len}");
            if let Some(&byte) = data.get(len) {
                register = bytewise_register(register, &[byte]);
            }
        }

        // Unaligned sub-slices: start offsets 1-7, lengths on either
        // side of every block boundary and a stride through the rest.
        for start in 1..8 {
            let data = &data[start..];
            let mut lens: Vec<usize> = (0..data.len()).step_by(61).collect();
            for blocks in 1..=3 {
                let edge = blocks * CRC_BLOCK;
                lens.extend([edge - 1, edge, edge + 1, edge + 7, edge + 8]);
            }
            for len in lens {
                let data = &data[..len];
                assert_eq!(crc64(data), bytewise(data), "start {start} len {len}");
            }
        }

        let mib = seeded_bytes(2, 1 << 20);
        assert_eq!(crc64(&mib), bytewise(&mib), "1 MiB");
    }

    #[test]
    fn the_shift_table_advances_the_register_over_one_lane_of_zeros() {
        let t = CrcTables::get();
        for (k, row) in t.shift.iter().enumerate() {
            for (b, &entry) in row.iter().enumerate() {
                let register = (b as u64) << (8 * k);
                assert_eq!(
                    entry,
                    t.serial(register, &[0; CRC_LANE_BYTES]),
                    "shift[{k}][{b}]"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn crc64_matches_the_bytewise_definition_on_random_input(
            data in proptest::collection::vec(0u8..=255, 0..=(64 << 10) + 7),
            start in 0usize..8,
        ) {
            let data = &data[start.min(data.len())..];
            proptest::prop_assert_eq!(crc64(data), bytewise(data), "len {}", data.len());
        }
    }

    #[test]
    fn transient_io_errors_are_retried_with_a_bounded_budget() {
        use std::io::{Error, ErrorKind};
        // Two interruptions, then success: absorbed.
        let mut calls = 0;
        let v = retry_io(|| {
            calls += 1;
            if calls < 3 {
                Err(Error::new(ErrorKind::Interrupted, "signal"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!((v, calls), (42, 3));

        // A persistent transient error exhausts the budget and surfaces.
        let mut calls = 0;
        let err = retry_io::<()>(|| {
            calls += 1;
            Err(Error::new(ErrorKind::WouldBlock, "busy"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
        assert_eq!(calls, IO_ATTEMPTS);

        // Non-transient errors fail on the first call.
        let mut calls = 0;
        let err = retry_io::<()>(|| {
            calls += 1;
            Err(Error::new(ErrorKind::PermissionDenied, "no"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);
        assert_eq!(calls, 1);
    }

    #[test]
    fn parent_dir_sync_accepts_bare_file_names() {
        sync_parent_dir(Path::new("no_directory_component")).unwrap();
        let dir = std::env::temp_dir();
        sync_parent_dir(&dir.join("child")).unwrap();
    }
}
