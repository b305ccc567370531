//! Recovery edge cases for single-session checkpoints, the one-link
//! shard log of `mpdf_fleet::checkpoint`: truncating the primary at
//! *any* byte offset — a bare header included — falls back to the `.bak`
//! rotation, degenerate files (empty, a bare magic, garbage) with no
//! `.bak` are typed errors — never a panic, never a silently
//! half-restored snapshot — a checkpoint from an earlier format is
//! refused the same way, and a save that fails at any filesystem call
//! leaves exactly the old or the new snapshot behind.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::OnceLock;

use proptest::prelude::*;

use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::SubcarrierWeighting;
use mpdf_fleet::chaos::MemIo;
use mpdf_fleet::checkpoint::{load, save};
use mpdf_fleet::log::{crc64, HEADER_LEN};
use mpdf_fleet::{FleetError, LogError, LogIo, StdIo};
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::environment::Environment;
use mpdf_session::checkpoint::encode_image_into;
use mpdf_session::runtime::{SessionConfig, SessionRuntime, SessionSnapshot};
use mpdf_wifi::receiver::CsiReceiver;

fn runtime(seed: u64) -> (SessionRuntime<SubcarrierWeighting>, CsiReceiver) {
    let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
    let mut rx = CsiReceiver::new(link, seed).unwrap();
    let calibration = rx.capture_static(None, 150).unwrap();
    let rt = SessionRuntime::calibrate(
        &calibration,
        SubcarrierWeighting,
        DetectorConfig::default(),
        SessionConfig::default(),
    )
    .unwrap();
    (rt, rx)
}

/// Three successive states of one session, one window apart.
fn snapshots() -> &'static [SessionSnapshot; 3] {
    static SNAPSHOTS: OnceLock<[SessionSnapshot; 3]> = OnceLock::new();
    SNAPSHOTS.get_or_init(|| {
        let (mut rt, mut rx) = runtime(7);
        let mut next = || {
            let snap = rt.snapshot();
            let win = rx.capture_static(None, 25).unwrap();
            rt.step(&win).unwrap();
            snap
        };
        [next(), next(), next()]
    })
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpdf_ckpt_rec_{}_{tag}.ckpt", std::process::id()))
}

fn bak_of(path: &Path) -> PathBuf {
    let mut p = path.to_path_buf().into_os_string();
    p.push(".bak");
    PathBuf::from(p)
}

fn remove(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(bak_of(path)).ok();
}

/// Opens the checkpoint at `path` over real files and saves `snapshot`.
fn save_file(path: &Path, snapshot: &SessionSnapshot) {
    let (mut log, _) = load(StdIo, path, &DetectorConfig::default()).unwrap();
    save(&mut log, &snapshot.into()).unwrap();
}

fn load_file(path: &Path) -> Result<Option<SessionSnapshot>, FleetError> {
    load(StdIo, path, &DetectorConfig::default()).map(|(_, snap)| snap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two saves leave a good `.bak`; truncating the primary anywhere
    /// (including to zero bytes, or to exactly its header) restores the
    /// first snapshot from it.
    #[test]
    fn truncated_primary_at_any_offset_restores_the_bak(frac in 0.0f64..1.0) {
        let [first, second, _] = snapshots();
        let path = temp_path("trunc");
        remove(&path);
        save_file(&path, first);
        save_file(&path, second);

        // Truncate the primary at a proportional offset, zero included.
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * frac) as usize;
        // A full-length "truncation" would be the intact file; drop at
        // least one byte.
        let cut = cut.min(bytes.len() - 1);
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let restored = load_file(&path).unwrap();
        prop_assert_eq!(
            restored.as_ref(),
            Some(first),
            "fallback must restore the previous good snapshot"
        );
        remove(&path);
    }
}

/// The offset the proportional cuts above rarely hit: a primary cut back
/// to exactly its header holds no record, so the `.bak` is restored —
/// and a save after that keeps the restored snapshot as its `.bak`.
#[test]
fn a_primary_cut_to_its_header_restores_the_bak() {
    let [first, second, third] = snapshots();
    let path = temp_path("header");
    remove(&path);
    save_file(&path, first);
    save_file(&path, second);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..HEADER_LEN]).unwrap();

    let (mut log, loaded) = load(StdIo, &path, &DetectorConfig::default()).unwrap();
    assert_eq!(loaded.as_ref(), Some(first));
    save(&mut log, &third.into()).unwrap();
    assert_eq!(load_file(&path).unwrap().as_ref(), Some(third));
    // The next save rotated the restored snapshot, not the bare header.
    std::fs::remove_file(&path).unwrap();
    assert_eq!(load_file(&path).unwrap().as_ref(), Some(first));
    remove(&path);
}

#[test]
fn empty_and_garbage_checkpoints_are_typed_errors() {
    let path = temp_path("typed");
    remove(&path);
    for contents in [&[][..], &b"MPSL"[..], &b"definitely not a checkpoint"[..]] {
        std::fs::write(&path, contents).unwrap();
        let err = load_file(&path).unwrap_err();
        assert!(
            matches!(err, FleetError::Log(LogError::BadHeader(_))),
            "degenerate contents must be a typed header error, got {err}"
        );
        // Refused, not repaired: the file is left as it was.
        assert_eq!(std::fs::read(&path).unwrap(), contents);
    }
    remove(&path);
}

#[test]
fn a_missing_checkpoint_opens_empty_not_a_panic() {
    let path = temp_path("missing");
    remove(&path);
    assert_eq!(load_file(&path).unwrap(), None);
    // The open wrote a bare header: still empty on the next load.
    assert_eq!(std::fs::read(&path).unwrap().len(), HEADER_LEN);
    assert_eq!(load_file(&path).unwrap(), None);
    remove(&path);
}

/// A checkpoint as builds before the one-link log wrote it: an `MPSC`
/// image stamped format v2, followed by its CRC-64 trailer.
fn mpsc_v2_checkpoint(snapshot: &SessionSnapshot) -> Vec<u8> {
    let mut file = Vec::new();
    encode_image_into(&snapshot.into(), &mut file).unwrap();
    file[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert_eq!(&file[..6], b"MPSC\x02\x00");
    let trailer = crc64(&file);
    file.extend_from_slice(&trailer.to_le_bytes());
    file
}

#[test]
fn an_old_mpsc_checkpoint_is_refused_and_load_falls_back_to_the_bak() {
    let [first, second, _] = snapshots();
    let old = mpsc_v2_checkpoint(first);
    let path = temp_path("mpsc");
    remove(&path);
    // Alone, the old file is a typed header error.
    std::fs::write(&path, &old).unwrap();
    let err = load_file(&path).unwrap_err();
    assert!(
        matches!(&err, FleetError::Log(LogError::BadHeader(what)) if what == "wrong magic"),
        "got {err}"
    );
    // Beside a good `.bak`, load restores the `.bak`: two saves rotate a
    // good checkpoint into it, then the primary is overwritten.
    remove(&path);
    save_file(&path, first);
    save_file(&path, second);
    std::fs::write(&path, &old).unwrap();
    assert_eq!(load_file(&path).unwrap().as_ref(), Some(first));
    remove(&path);
}

/// An in-memory filesystem that counts its mutating calls (`replace`,
/// `rename`, `append`), shared by every log opened over it.
#[derive(Default)]
struct Disk {
    files: MemIo,
    mutations: u64,
}

/// A [`LogIo`] over a shared [`Disk`] whose `fail_at`-th mutating call
/// (counted on the disk, 1-based; `0` never fails) fails, before or
/// after taking effect, with a fatal or a transient error.
struct FailAt {
    disk: Rc<RefCell<Disk>>,
    fail_at: u64,
    after: bool,
    transient: bool,
}

impl FailAt {
    fn clean(disk: &Rc<RefCell<Disk>>) -> Self {
        FailAt::new(disk, 0, false, false)
    }

    fn new(disk: &Rc<RefCell<Disk>>, fail_at: u64, after: bool, transient: bool) -> Self {
        FailAt {
            disk: Rc::clone(disk),
            fail_at,
            after,
            transient,
        }
    }

    /// Runs one mutating call, failing it if it is the chosen one.
    fn mutate(
        &mut self,
        op: impl FnOnce(&mut MemIo) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut disk = self.disk.borrow_mut();
        disk.mutations += 1;
        if disk.mutations != self.fail_at {
            return op(&mut disk.files);
        }
        if self.after {
            op(&mut disk.files)?;
        }
        Err(if self.transient {
            std::io::Error::from(std::io::ErrorKind::Interrupted)
        } else {
            std::io::Error::other("injected failure")
        })
    }
}

impl LogIo for FailAt {
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.disk.borrow_mut().files.read(path)
    }
    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        // Failing before the effect tears the append after half its
        // bytes; failing after it lands the whole append.
        let landed = if self.after {
            bytes.len()
        } else {
            bytes.len() / 2
        };
        self.mutate(|files| files.append(path, &bytes[..landed]))
    }
    fn replace(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.mutate(|files| files.replace(path, bytes))
    }
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.mutate(|files| files.rename(from, to))
    }
    fn exists(&mut self, path: &Path) -> bool {
        self.disk.borrow_mut().files.exists(path)
    }
}

/// Loads the checkpoint through `io` and saves `saves` in turn,
/// stopping at the first error as a crashed process would. Returns the
/// loaded snapshot and the index of the save that failed, if any.
fn run_saves(io: FailAt, saves: &[&SessionSnapshot]) -> (Option<SessionSnapshot>, Option<usize>) {
    let (mut log, loaded) = load(io, "sess.ckpt", &DetectorConfig::default()).unwrap();
    let failed = saves
        .iter()
        .position(|snap| save(&mut log, &(*snap).into()).is_err());
    (loaded, failed)
}

/// A disk whose checkpoint holds `snapshot`.
fn disk_holding(snapshot: &SessionSnapshot) -> Rc<RefCell<Disk>> {
    let disk = Rc::new(RefCell::new(Disk::default()));
    assert_eq!(run_saves(FailAt::clean(&disk), &[snapshot]).1, None);
    disk.borrow_mut().mutations = 0;
    disk
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A checkpoint holding snapshot A is saved twice, with B and then C,
    /// while the k-th mutating filesystem call fails — for every k.
    /// Reopening then loads exactly the snapshot before the failed save
    /// or exactly the one it was writing: never a third state, never an
    /// error, never a panic. The recovered checkpoint takes saves again.
    #[test]
    fn a_save_failing_at_any_call_leaves_the_old_or_the_new_snapshot(
        after in 0u8..2,
        transient in 0u8..2,
    ) {
        let [a, b, c] = snapshots();
        // A fault-free pass counts the mutating calls of the two saves.
        let disk = disk_holding(a);
        let (loaded, failed) = run_saves(FailAt::clean(&disk), &[b, c]);
        prop_assert_eq!((loaded.as_ref(), failed), (Some(a), None));
        let calls = disk.borrow().mutations;
        prop_assert!(calls >= 4, "two saves rotate and replace: {} calls", calls);

        for k in 1..=calls {
            let disk = disk_holding(a);
            let io = FailAt::new(&disk, k, after == 1, transient == 1);
            let (_, failed) = run_saves(io, &[b, c]);
            // Only a transient failure can be absorbed by the retry.
            prop_assert!(transient == 1 || failed.is_some(), "k={} did not fail", k);
            let allowed: &[&SessionSnapshot] = match failed {
                None => &[c],
                Some(0) => &[a, b],
                Some(_) => &[b, c],
            };
            let (loaded, _) = run_saves(FailAt::clean(&disk), &[a]);
            let loaded = loaded.expect("a snapshot survives every failure");
            prop_assert!(
                allowed.contains(&&loaded),
                "k={} after={} transient={} failed={:?}: loaded a third state",
                k,
                after,
                transient,
                failed
            );
            // The recovered checkpoint took the save of A above.
            let (again, _) = run_saves(FailAt::clean(&disk), &[]);
            prop_assert_eq!(again.as_ref(), Some(a));
        }
    }
}
