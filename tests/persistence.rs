//! Persistence across "process restarts": with a directory-backed
//! object store, chunks survive on disk; the in-memory KV database is
//! derived state that every fresh server rebuilds by scanning them —
//! the deployment story §4.1.2 enables.

use std::sync::Arc;

use diesel_dlt::chunk::{ChunkBuilderConfig, ChunkHeader};
use diesel_dlt::core::{ClientConfig, DieselClient, DieselServer};
use diesel_dlt::kv::ShardedKv;
use diesel_dlt::store::{DirObjectStore, ObjectStore};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("diesel-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn dataset_survives_server_restart_on_disk() {
    let root = tmpdir("restart");
    let mut expect = Vec::new();

    // "Process 1": write the dataset to disk-backed storage.
    {
        let store = Arc::new(DirObjectStore::open(&root).unwrap());
        let server = Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), store));
        let client = DieselClient::connect_with(
            server,
            "ds",
            ClientConfig {
                chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
            },
        )
        .with_deterministic_identity(1, 1, 500);
        for i in 0..80usize {
            let name = format!("c{}/f{i:03}", i % 4);
            let data: Vec<u8> = (0..(64 + i)).map(|j| ((i * 13 + j) % 256) as u8).collect();
            client.put(&name, &data).unwrap();
            expect.push((name, data));
        }
        client.flush().unwrap();
        // Server process "exits": its KV state is gone with it.
    }

    // "Process 2": brand-new server, empty KV, same directory.
    {
        let store = Arc::new(DirObjectStore::open(&root).unwrap());
        let server = Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), store));
        assert!(server.meta().dataset_record("ds").is_err(), "fresh KV is empty");
        let report = server.recover_metadata_full("ds").unwrap();
        assert_eq!(report.files_recovered as usize, expect.len());

        let client = DieselClient::connect(server.clone(), "ds");
        client.download_meta().unwrap();
        for (name, data) in &expect {
            assert_eq!(client.get(name).unwrap().as_ref(), &data[..], "{name}");
        }
        // Housekeeping works against the recovered state too.
        server.delete_file("ds", &expect[0].0, 1_000_000_000).unwrap();
        let purge = server.purge_dataset("ds", 1_000_000_001).unwrap();
        assert!(purge.chunks_compacted >= 1);
        // The client's snapshot is now stale (compaction moved files to
        // a new chunk); `get` falls back to server-side metadata, and a
        // snapshot re-download restores the fast path.
        assert_eq!(client.get(&expect[1].0).unwrap().as_ref(), &expect[1].1[..]);
        client.download_meta().unwrap();
        assert_eq!(client.get(&expect[2].0).unwrap().as_ref(), &expect[2].1[..]);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn snapshot_file_round_trips_between_processes() {
    let root = tmpdir("snap");
    std::fs::create_dir_all(&root).unwrap();
    let snap_path = root.join("ds.snapshot");

    let store = Arc::new(DirObjectStore::open(root.join("objects")).unwrap());
    let server = Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), store));
    let writer = DieselClient::connect(server.clone(), "ds");
    for i in 0..30usize {
        writer.put(&format!("f{i}"), &[1u8; 64]).unwrap();
    }
    writer.flush().unwrap();
    writer.save_meta(&snap_path).unwrap();

    // Another worker on "another node" (fresh client) loads it from the
    // shared filesystem, as §4.1.3 recommends, and reads data without
    // ever asking the server for metadata.
    let reader = DieselClient::connect(server.clone(), "ds");
    reader.load_meta(&snap_path).unwrap();
    assert!(reader.has_meta());
    assert_eq!(reader.ls("").unwrap().len(), 30);
    assert_eq!(reader.get("f17").unwrap().len(), 64);
    let _ = std::fs::remove_dir_all(&root);
}

/// A crash mid-write can leave a chunk object shorter than the header and
/// payload it declares. Recovery skips that one chunk, leaves it on disk
/// and counts it; every file of the other chunks still reads back
/// byte-identical. Cut once inside the header and once inside the payload.
#[test]
fn a_torn_chunk_is_quarantined_and_the_rest_recovers() {
    for (tag, cut) in [("torn-header", 40usize), ("torn-payload", usize::MAX)] {
        let root = tmpdir(tag);
        let mut expect = Vec::new();
        let store = Arc::new(DirObjectStore::open(&root).unwrap());
        {
            let server = Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), store.clone()));
            let client = DieselClient::connect_with(
                server,
                "ds",
                ClientConfig {
                    chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
                },
            )
            .with_deterministic_identity(1, 1, 500);
            for i in 0..80usize {
                let name = format!("c{}/f{i:03}", i % 4);
                let data: Vec<u8> = (0..(64 + i)).map(|j| ((i * 7 + j) % 256) as u8).collect();
                client.put(&name, &data).unwrap();
                expect.push((name, data));
            }
            client.flush().unwrap();
        }

        let keys = store.list_prefix("ds/");
        assert!(keys.len() >= 3, "multi-chunk dataset: {keys:?}");
        let victim = &keys[keys.len() / 2];
        let whole = store.get(victim).unwrap();
        let torn: Vec<String> =
            ChunkHeader::decode(&whole).unwrap().files.into_iter().map(|f| f.name).collect();
        let keep = cut.min(whole.len() - 1);
        store.put(victim, whole.slice(..keep)).unwrap();

        let server = Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), store.clone()));
        let report = server.recover_metadata_full("ds").unwrap();
        assert_eq!(report.chunks_quarantined, 1, "{tag}");
        assert_eq!(report.chunks_scanned as usize, keys.len() - 1, "{tag}");
        assert_eq!(store.size_of(victim), Some(keep), "{tag}: recovery deletes nothing");

        let client = DieselClient::connect(server, "ds");
        client.download_meta().unwrap();
        for (name, data) in &expect {
            if torn.contains(name) {
                assert!(client.get(name).is_err(), "{tag}: {name} was in the torn chunk");
            } else {
                assert_eq!(client.get(name).unwrap().as_ref(), &data[..], "{tag}: {name}");
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
