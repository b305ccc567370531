//! Proof of the wire decoder's zero-alloc claim, through the real
//! global allocator: run with
//! `cargo test -p mpdf-eval --features alloc-profile --test wire_zero_alloc`.
//!
//! The splitter + `WireRecord::parse` path borrows the input buffer and
//! decodes I/Q in place, so walking an entire stream of valid frames —
//! and resyncing over corrupt ones — must perform **zero** heap
//! allocations. Materializing packets (`to_packet`) allocates, by
//! design; that cost is measured separately by the `stream/ingest_30sub`
//! benchmark, not bounded here. Likewise, a stored window whose packet
//! count its bytes cannot hold is refused before anything is allocated.
#![cfg(feature = "alloc-profile")]

use mpdf_obs::allocs::{self, CountingAllocator, StageScope};
use mpdf_rfmath::complex::Complex64;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::wire::{self, Split};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn stage_allocs(wanted: &str) -> u64 {
    allocs::stage_totals()
        .iter()
        .find(|(name, _, _)| *name == wanted)
        .map_or(0, |(_, a, _)| *a)
}

#[test]
fn splitting_and_validating_frames_allocates_nothing() {
    // Build the stream before accounting starts: 64 packets of the
    // paper's 3×30 shape, with garbage and a corrupt frame interleaved
    // so the resync path is exercised under measurement too.
    let mut stream = Vec::new();
    for seq in 0..64u64 {
        let data: Vec<Complex64> = (0..90)
            .map(|i| Complex64::new(seq as f64 + f64::from(i) * 0.5, -f64::from(i)))
            .collect();
        let packet = CsiPacket::new(3, 30, data, seq, seq as f64 * 0.02);
        wire::encode_frame(&packet, 40, &mut stream).expect("3x30 fits the wire");
    }
    // Prepend garbage, then corrupt the second frame's version byte: the
    // splitter must reject that header and resync forward to the third
    // frame. (Payload bytes are unchecked by design — no checksum — so
    // only header corruption drops a frame.)
    stream.splice(0..0, [0x00, 0x7F, 0xFF]);
    let second_frame = 3 + stream[3..].len() / 64 + 1;
    stream[second_frame] = 2;

    allocs::enable();
    let mut frames = 0u64;
    let mut rejects = 0u64;
    let mut checksum = 0.0f64;
    {
        // Attribute only this thread's allocations inside the scope to
        // the probe stage; the cell is interned by `enter` itself, so
        // that setup allocation lands outside the measurement.
        let _scope = StageScope::enter("test.wire_decode_probe");
        let mut splitter = wire::FrameSplitter::new(&stream);
        for item in &mut splitter {
            match item {
                Split::Frame(record) => {
                    frames += 1;
                    // Touch the in-place I/Q decode so it cannot be
                    // optimized out of the measurement.
                    let iq = record.iq(0, 0);
                    checksum += iq.re + iq.im;
                }
                Split::Garbage { .. } => rejects += 1,
            }
        }
        std::hint::black_box(splitter.consumed());
    }
    allocs::disable();

    std::hint::black_box(checksum);
    assert_eq!(frames, 63, "one frame lost to the corrupted byte");
    assert!(rejects >= 1, "garbage head must be reported");
    assert_eq!(
        stage_allocs("test.wire_decode_probe"),
        0,
        "frame splitting/validation must not touch the heap"
    );
}

#[test]
fn a_window_count_the_bytes_cannot_hold_allocates_nothing() {
    // A stored window declaring u32::MAX packets in front of one real
    // frame: the decoder must refuse it before sizing the packet vector.
    let data = vec![Complex64::new(1.0, -1.0); 90];
    let mut window = u32::MAX.to_le_bytes().to_vec();
    wire::encode_frame(&CsiPacket::new(3, 30, data, 0, 0.0), 0, &mut window).expect("fits");

    allocs::enable();
    let refused = {
        let _scope = StageScope::enter("test.window_count_probe");
        wire::decode_window(&window).is_err()
    };
    allocs::disable();

    assert!(refused);
    assert_eq!(stage_allocs("test.window_count_probe"), 0);
}
