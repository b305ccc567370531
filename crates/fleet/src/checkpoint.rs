//! Single-session checkpoint files: a [`ShardLog`] that holds one link.
//!
//! A checkpoint is a shard log opened as shard 0 with compaction off,
//! whose only record is one `Snapshot` of link 0: the session image of
//! [`mpdf_session::checkpoint`], with no `LinkMeta` prefix. A save is a
//! compaction, so it gets the log's staged write, `.bak` rotation and
//! fallback; a load is a recovery and a decode of the last record. Files
//! from before this format (`MPSC` magic) are refused as a bad header,
//! and a checkpoint written as an older log version (v3 framed its
//! record with a CRC-64) as [`crate::LogError::UnsupportedVersion`].

use std::path::PathBuf;

use mpdf_core::profile::DetectorConfig;
use mpdf_session::checkpoint::{decode_image, encode_image_into, SnapshotParts};
use mpdf_session::runtime::SessionSnapshot;

use crate::log::{LogIo, ShardLog};
use crate::FleetError;

/// Opens the checkpoint at `path` and loads its snapshot, or `None`
/// when there is none yet: neither the file nor its `.bak` holds one (no
/// file, a bare header, or a first save that crashed or was damaged,
/// whose `.bak` is the bare header it rotated out).
///
/// # Errors
/// [`FleetError::Log`] when neither the file nor its `.bak` has a
/// readable header, [`FleetError::Checkpoint`] when the image does not
/// decode.
pub fn load<IO: LogIo>(
    io: IO,
    path: impl Into<PathBuf>,
    config: &DetectorConfig,
) -> Result<(ShardLog<IO>, Option<SessionSnapshot>), FleetError> {
    let (mut log, _) = ShardLog::open(io, path, 0, 0)?;
    let (_, image) = log.recover()?;
    let last = image.records().last();
    let snapshot = last.map(|r| decode_image(r.payload, config)).transpose()?;
    Ok((log, snapshot))
}

/// Durably replaces the checkpoint's snapshot with `parts`; the one it
/// replaces is kept as the `.bak`.
///
/// # Errors
/// [`FleetError::Checkpoint`] when the state cannot be encoded (nothing
/// is written), [`FleetError::Log`] on IO failure.
pub fn save<IO: LogIo>(
    log: &mut ShardLog<IO>,
    parts: &SnapshotParts<'_>,
) -> Result<(), FleetError> {
    log.compact([(0, |out: &mut Vec<u8>| {
        encode_image_into(parts, out).map_err(FleetError::from)
    })])
}
