//! Concurrency stress: many real threads writing, reading, deleting and
//! snapshotting against one server simultaneously. The invariants under
//! test: no lost files, no torn reads (every read returns either the
//! exact written bytes or a clean not-found), and consistent dataset
//! counters afterwards.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use diesel_dlt::chunk::ChunkBuilderConfig;
use diesel_dlt::core::{ClientConfig, DieselClient, DieselServer};
use diesel_dlt::kv::{ClusterConfig, KvCluster, ShardedKv};
use diesel_dlt::store::MemObjectStore;

fn content_for(writer: usize, i: usize) -> Vec<u8> {
    let len = 50 + (writer * 31 + i * 7) % 300;
    (0..len).map(|j| ((writer * 131 + i * 17 + j) % 256) as u8).collect()
}

#[test]
fn parallel_writers_then_parallel_readers() {
    let kv = Arc::new(KvCluster::new(ClusterConfig { instances: 8, shards_per_instance: 16 }));
    let store = Arc::new(MemObjectStore::new());
    // Three stateless front-ends over one KV and one store; each client
    // picks one by index, so every front-end serves writers and readers.
    let servers: Arc<[_]> =
        (0..3).map(|_| Arc::new(DieselServer::new(kv.clone(), store.clone()))).collect();

    const WRITERS: usize = 6;
    const FILES_EACH: usize = 150;

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let servers = servers.clone();
            std::thread::spawn(move || {
                let c = DieselClient::connect_with(
                    servers[w % servers.len()].clone(),
                    "stress",
                    ClientConfig {
                        chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
                    },
                );
                for i in 0..FILES_EACH {
                    c.put(&format!("w{w}/f{i:04}"), &content_for(w, i)).unwrap();
                }
                c.flush().unwrap();
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }

    // Every front-end sees the complete dataset.
    for server in servers.iter() {
        let rec = server.meta().dataset_record("stress").unwrap();
        assert_eq!(rec.file_count as usize, WRITERS * FILES_EACH);
    }

    // Parallel readers over parallel snapshot downloads.
    let readers: Vec<_> = (0..8)
        .map(|r| {
            let servers = servers.clone();
            std::thread::spawn(move || {
                let c = DieselClient::connect(servers[r % servers.len()].clone(), "stress");
                c.download_meta().unwrap();
                for w in 0..WRITERS {
                    for i in (r % 3..FILES_EACH).step_by(3) {
                        let got = c.get(&format!("w{w}/f{i:04}")).unwrap();
                        assert_eq!(got.as_ref(), &content_for(w, i)[..], "w{w}/f{i:04}");
                    }
                }
            })
        })
        .collect();
    for t in readers {
        t.join().unwrap();
    }
}

#[test]
fn readers_race_deleters_without_torn_results() {
    let server =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())));
    let writer = DieselClient::connect_with(
        server.clone(),
        "race",
        ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
        },
    );
    const FILES: usize = 400;
    for i in 0..FILES {
        writer.put(&format!("f{i:04}"), &content_for(0, i)).unwrap();
    }
    writer.flush().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    // Deleter removes every 4th file while readers hammer everything.
    let deleter = {
        let server = server.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            for i in (0..FILES).step_by(4) {
                server.delete_file("race", &format!("f{i:04}"), 9_000_000 + i as u64).unwrap();
            }
            stop.store(true, Ordering::Release);
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let server = server.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut rounds = 0usize;
                while !stop.load(Ordering::Acquire) || rounds == 0 {
                    for i in (r..FILES).step_by(5) {
                        match server.read_file("race", &format!("f{i:04}")) {
                            // Either the exact bytes…
                            Ok(data) => assert_eq!(
                                data.as_ref(),
                                &content_for(0, i)[..],
                                "torn read of f{i:04}"
                            ),
                            // …or a clean metadata/deleted error.
                            Err(e) => {
                                let msg = e.to_string();
                                assert!(
                                    msg.contains("no such file") || msg.contains("deleted"),
                                    "unexpected error for f{i:04}: {msg}"
                                );
                            }
                        }
                    }
                    rounds += 1;
                }
            })
        })
        .collect();
    deleter.join().unwrap();
    for t in readers {
        t.join().unwrap();
    }

    // Post-conditions: exactly the undeleted files remain.
    let rec = server.meta().dataset_record("race").unwrap();
    assert_eq!(rec.file_count as usize, FILES - FILES.div_ceil(4));
    for i in 0..FILES {
        let res = server.read_file("race", &format!("f{i:04}"));
        if i % 4 == 0 {
            assert!(res.is_err());
        } else {
            assert!(res.is_ok(), "f{i:04} lost");
        }
    }
}

#[test]
fn snapshot_downloads_race_ingest_safely() {
    // Snapshots taken while writes are in flight must be internally
    // consistent: every file they list must be readable at the listed
    // location, even if the snapshot is already stale.
    let server =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())));
    let stop = Arc::new(AtomicBool::new(false));
    // Force the race instead of hoping for it: after its first flush the
    // ingester waits until the snapshotter has taken one snapshot.
    let (taken_tx, taken_rx) = std::sync::mpsc::channel();
    let ingester = {
        let server = server.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let c = DieselClient::connect_with(
                server,
                "live",
                ClientConfig {
                    chunk: ChunkBuilderConfig { target_chunk_size: 2048, ..Default::default() },
                },
            );
            for i in 0..600 {
                c.put(&format!("f{i:04}"), &content_for(1, i)).unwrap();
                if i % 50 == 49 {
                    c.flush().unwrap();
                }
                if i == 49 {
                    // An error means the snapshotter is gone; its join
                    // below reports why.
                    let _ = taken_rx.recv();
                }
            }
            c.flush().unwrap();
            stop.store(true, Ordering::Release);
        })
    };
    let snapshotter = {
        let server = server.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut taken = 0;
            while !stop.load(Ordering::Acquire) {
                if let Ok(snap) = server.build_snapshot("live") {
                    for f in snap.files.iter().step_by(7) {
                        let data = server.read_by_meta("live", &f.meta).unwrap();
                        let i: usize = f.path[1..].parse().unwrap();
                        assert_eq!(data.as_ref(), &content_for(1, i)[..], "{}", f.path);
                    }
                    taken += 1;
                    if taken == 1 {
                        let _ = taken_tx.send(());
                    }
                }
            }
            taken
        })
    };
    ingester.join().unwrap();
    let taken = snapshotter.join().unwrap();
    assert!(taken > 0, "snapshotter should have raced at least once");
    let final_snap = server.build_snapshot("live").unwrap();
    assert_eq!(final_snap.files.len(), 600);
}
