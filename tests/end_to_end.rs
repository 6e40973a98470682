//! End-to-end integration: the full write → snapshot → shuffle →
//! cached-read → train pipeline across every crate.

use std::sync::Arc;

use diesel_dlt::cache::{CacheConfig, CachePolicy, TaskCache, Topology};
use diesel_dlt::chunk::ChunkBuilderConfig;
use diesel_dlt::core::{ClientConfig, DieselClient, DieselServer};
use diesel_dlt::kv::{ClusterConfig, KvCluster, ShardedKv};
use diesel_dlt::shuffle::ShuffleKind;
use diesel_dlt::store::{MemObjectStore, ObjectStore};
use diesel_dlt::train::loader::upload_samples;
use diesel_dlt::train::{train, DataLoader, Mlp, MlpConfig, SyntheticSpec, TrainConfig};

type Server = DieselServer<ShardedKv, MemObjectStore>;

fn small_chunk_server() -> Arc<Server> {
    Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())))
}

fn client(
    server: &Arc<Server>,
    dataset: &str,
    chunk_size: usize,
) -> DieselClient<ShardedKv, MemObjectStore> {
    DieselClient::connect_with(
        server.clone(),
        dataset,
        ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: chunk_size, ..Default::default() },
        },
    )
    .with_deterministic_identity(1, 1, 100)
}

#[test]
fn write_snapshot_read_pipeline() {
    let server = small_chunk_server();
    let c = client(&server, "ds", 4096);
    let mut expect = Vec::new();
    for i in 0..200usize {
        let name = format!("cls{}/f{i:04}", i % 7);
        let data: Vec<u8> = (0..(50 + i % 300)).map(|j| ((i * 31 + j) % 256) as u8).collect();
        c.put(&name, &data).unwrap();
        expect.push((name, data));
    }
    c.flush().unwrap();

    // A second client (another worker) loads the snapshot from disk.
    let snap_path = std::env::temp_dir().join(format!("e2e-snap-{}.bin", std::process::id()));
    c.save_meta(&snap_path).unwrap();
    let reader = client(&server, "ds", 4096);
    reader.load_meta(&snap_path).unwrap();
    let _ = std::fs::remove_file(&snap_path);

    // Every file identical, via both metadata paths.
    for (name, data) in &expect {
        assert_eq!(reader.get(name).unwrap().as_ref(), &data[..], "{name}");
        assert_eq!(reader.stat(name).unwrap().length as usize, data.len());
    }
    // Directory structure.
    assert_eq!(reader.ls("").unwrap().len(), 7);
    assert_eq!(
        reader.ls("cls3").unwrap().len(),
        expect.iter().filter(|(n, _)| n.starts_with("cls3/")).count()
    );
}

#[test]
fn merged_server_reads_match_api_reads() {
    let server = small_chunk_server();
    let c = client(&server, "ds", 2048);
    let mut names = Vec::new();
    for i in 0..120usize {
        let name = format!("f{i:03}");
        c.put(&name, &[(i % 251) as u8; 100]).unwrap();
        names.push(name);
    }
    c.flush().unwrap();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let merged = server.read_files_merged("ds", &refs).unwrap();
    for (i, name) in names.iter().enumerate() {
        assert_eq!(merged[i], server.read_file("ds", name).unwrap(), "{name}");
    }
}

#[test]
fn cached_and_server_reads_agree_through_shuffle() {
    let server = small_chunk_server();
    let c = client(&server, "ds", 4096);
    for i in 0..150usize {
        c.put(&format!("d{}/f{i:04}", i % 3), &[(i % 256) as u8; 200]).unwrap();
    }
    c.flush().unwrap();
    c.download_meta().unwrap();

    let chunks = server.meta().chunk_ids("ds").unwrap();
    let cache = Arc::new(
        TaskCache::new(
            Topology::uniform(2, 2).unwrap(),
            server.store().clone(),
            "ds",
            chunks,
            CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::OnDemand },
        )
        .unwrap(),
    );
    c.attach_cache(cache.clone());
    c.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });

    let order = c.epoch_file_list(7, 0).unwrap();
    for name in &order {
        assert_eq!(c.get(name).unwrap(), server.read_file("ds", name).unwrap(), "{name}");
    }
    assert_eq!(order.len(), 150);
    // The cache served every client read, filling each chunk once.
    assert_eq!(cache.metrics().file_reads(), 150);
    assert_eq!(cache.metrics().chunk_loads(), server.meta().chunk_ids("ds").unwrap().len() as u64);
}

#[test]
fn training_through_full_stack_converges() {
    let spec = SyntheticSpec::cifar_like();
    let train_set = spec.generate(800);
    let eval_set = spec.generate_eval(200);
    let server = small_chunk_server();
    let c = client(&server, "synth", 8192);
    upload_samples(&c, &train_set).unwrap();
    c.download_meta().unwrap();
    c.enable_shuffle(ShuffleKind::ChunkWise { group_size: 3 });

    let chunks = server.meta().chunk_ids("synth").unwrap();
    let cache = Arc::new(
        TaskCache::new(
            Topology::uniform(2, 2).unwrap(),
            server.store().clone(),
            "synth",
            chunks,
            CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
        )
        .unwrap(),
    );
    cache.prefetch_all().unwrap();
    c.attach_cache(cache);

    let loader = DataLoader::new(Arc::new(c), 32, 5);
    let mut model = Mlp::new(
        MlpConfig {
            input_dim: spec.dim,
            hidden: vec![48],
            classes: spec.classes,
            lr: 0.08,
            momentum: 0.9,
        },
        3,
    );
    let metrics =
        train(&mut model, &loader, &eval_set, &TrainConfig { epochs: 6, topk: (1, 5) }).unwrap();
    assert!(metrics.last().unwrap().topk > 0.8, "top-5 {:?}", metrics.last());
    assert!(metrics.last().unwrap().loss < metrics.first().unwrap().loss);
}

#[test]
fn kv_cluster_backend_works_end_to_end() {
    // Same pipeline but with the slot-routed cluster instead of one
    // instance — exercises routing + mput batching under real load.
    let kv = Arc::new(KvCluster::new(ClusterConfig { instances: 8, shards_per_instance: 8 }));
    let server = Arc::new(DieselServer::new(kv, Arc::new(MemObjectStore::new())));
    let c = DieselClient::connect_with(
        server.clone(),
        "ds",
        ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
        },
    );
    for i in 0..300usize {
        c.put(&format!("p{}/f{i}", i % 5), &[i as u8; 64]).unwrap();
    }
    c.flush().unwrap();
    c.download_meta().unwrap();
    for i in (0..300).step_by(17) {
        assert_eq!(c.get(&format!("p{}/f{i}", i % 5)).unwrap().len(), 64);
    }
}

#[test]
fn dataset_lifecycle_put_delete_purge_recover() {
    let server = small_chunk_server();
    let c = client(&server, "ds", 2048);
    for i in 0..60usize {
        c.put(&format!("f{i:02}"), &[i as u8; 300]).unwrap();
    }
    c.flush().unwrap();

    // Delete a third of the files.
    for i in (0..60).step_by(3) {
        server.delete_file("ds", &format!("f{i:02}"), 999_000_000).unwrap();
    }
    let store_before = server.store().total_bytes();
    let purge = server.purge_dataset("ds", 999_000_001).unwrap();
    assert!(purge.bytes_reclaimed >= 20 * 300);
    assert!(server.store().total_bytes() < store_before);

    // Wipe the KV and rebuild from the purged chunks: deleted files must
    // stay gone, survivors must be intact.
    server.meta().kv().clear();
    server.recover_metadata_full("ds").unwrap();
    for i in 0..60usize {
        let name = format!("f{i:02}");
        if i % 3 == 0 {
            assert!(server.read_file("ds", &name).is_err(), "{name} should be gone");
        } else {
            assert_eq!(server.read_file("ds", &name).unwrap().as_ref(), &vec![i as u8; 300][..]);
        }
    }
    let rec = server.meta().dataset_record("ds").unwrap();
    assert_eq!(rec.file_count, 40);
}
