//! Satellite coverage: N writer threads hammer counters and histograms
//! while a reader snapshots continuously. Totals are conserved and
//! batched pairs never tear.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use diesel_obs::Registry;
use diesel_util::MockClock;

const WRITERS: usize = 8;
const OPS_PER_WRITER: u64 = 20_000;

#[test]
fn totals_conserved_under_concurrent_writers() {
    let reg = Arc::new(Registry::new(Arc::new(MockClock::new())));
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let reg = reg.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let mut snaps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = reg.snapshot();
                // Batched pair: writers always bump both inside one
                // batch(), so a snapshot must never see them apart.
                assert_eq!(
                    snap.counter("pair.first"),
                    snap.counter("pair.second"),
                    "batched counters tore apart"
                );
                // Monotonic totals never exceed the eventual maximum.
                assert!(snap.counter("free.ops") <= WRITERS as u64 * OPS_PER_WRITER);
                snaps += 1;
            }
            snaps
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let reg = reg.clone();
            thread::spawn(move || {
                let first = reg.counter("pair.first", &[]);
                let second = reg.counter("pair.second", &[]);
                let free = reg.counter("free.ops", &[]);
                let lat = reg.histogram("op.latency", &[]);
                for i in 0..OPS_PER_WRITER {
                    reg.batch(|| {
                        first.inc();
                        second.inc();
                    });
                    free.inc();
                    lat.record_ns((w as u64 + 1) * 100 + i % 7);
                }
            })
        })
        .collect();

    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let snaps = reader.join().unwrap();
    assert!(snaps > 0, "reader never snapshotted");

    let total = WRITERS as u64 * OPS_PER_WRITER;
    let end = reg.snapshot();
    assert_eq!(end.counter("pair.first"), total);
    assert_eq!(end.counter("pair.second"), total);
    assert_eq!(end.counter("free.ops"), total);
    assert_eq!(end.histogram_summary("op.latency").count, total);
}
