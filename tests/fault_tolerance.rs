//! Fault-tolerance integration tests: the failure scenarios of §4.1.2
//! (metadata loss) and §4.2 (cache node loss), driven through the full
//! stack, plus concurrent-access safety.

use std::sync::Arc;

use diesel_dlt::cache::{CacheConfig, CachePolicy, TaskCache, Topology};
use diesel_dlt::chunk::ChunkBuilderConfig;
use diesel_dlt::core::{ClientConfig, DieselClient, DieselServer};
use diesel_dlt::kv::{ClusterConfig, KvCluster, KvStore};
use diesel_dlt::obs::Registry;
use diesel_dlt::store::{MemObjectStore, ObjectStore};

type ClusterServer = DieselServer<KvCluster, MemObjectStore>;

fn cluster_server(instances: usize) -> (Arc<KvCluster>, Arc<ClusterServer>) {
    let kv = Arc::new(KvCluster::new(ClusterConfig { instances, shards_per_instance: 8 }));
    let server = Arc::new(DieselServer::new(kv.clone(), Arc::new(MemObjectStore::new())));
    (kv, server)
}

fn populate(server: &Arc<ClusterServer>, files: usize) -> Vec<String> {
    let c = DieselClient::connect_with(
        server.clone(),
        "ds",
        ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
        },
    )
    .with_deterministic_identity(3, 3, 5_000);
    let mut names = Vec::new();
    for i in 0..files {
        let name = format!("c{}/f{i:05}", i % 4);
        c.put(&name, &[(i % 251) as u8; 200]).unwrap();
        names.push(name);
    }
    c.flush().unwrap();
    names
}

#[test]
fn metadata_survives_any_single_instance_loss() {
    for victim in 0..4usize {
        let (kv, server) = cluster_server(4);
        let names = populate(&server, 200);
        let keys_before = kv.len();

        kv.fail_instance(victim);
        kv.recover_instance(victim); // back, but empty
        assert!(kv.len() < keys_before, "victim {victim} lost nothing?");

        server.recover_metadata_full("ds").unwrap();
        assert!(kv.len() >= keys_before, "victim {victim}: keys not restored");
        for n in &names {
            assert_eq!(
                server.read_file("ds", n).unwrap().len(),
                200,
                "file {n} unreadable after instance {victim} recovery"
            );
        }
    }
}

#[test]
fn repeated_power_loss_is_idempotent() {
    let (kv, server) = cluster_server(4);
    let names = populate(&server, 150);
    let snapshot1 = server.build_snapshot("ds").unwrap();
    for round in 0..3 {
        kv.power_loss();
        server.recover_metadata_full("ds").unwrap();
        let snap = server.build_snapshot("ds").unwrap();
        assert_eq!(snap.chunks, snapshot1.chunks, "round {round}: chunk set drifted");
        assert_eq!(snap.files, snapshot1.files, "round {round}: file set drifted");
    }
    for n in names.iter().step_by(13) {
        assert!(server.read_file("ds", n).is_ok());
    }
}

#[test]
fn reads_continue_during_kv_instance_outage_with_snapshot() {
    // The whole point of snapshots: metadata loss does not block reads,
    // because clients never consult the KV database on the read path.
    let (kv, server) = cluster_server(4);
    let names = populate(&server, 200);
    let client = DieselClient::connect(server.clone(), "ds");
    client.download_meta().unwrap();

    kv.fail_instance(0);
    kv.fail_instance(1);
    for n in &names {
        assert_eq!(client.get(n).unwrap().len(), 200, "{n} must read during outage");
        assert!(client.stat(n).is_ok());
    }
    // Server-side metadata lookups, by contrast, partially fail.
    let failures = names.iter().filter(|n| server.meta().file_meta("ds", n).is_err()).count();
    assert!(failures > 0, "some server-side lookups should hit the dead instances");
}

#[test]
fn cache_failures_cascade_correctly() {
    let (_, server) = cluster_server(2);
    let names = populate(&server, 240);
    let client = DieselClient::connect(server.clone(), "ds");
    client.download_meta().unwrap();

    let chunks = server.meta().chunk_ids("ds").unwrap();
    let cache = Arc::new(
        TaskCache::new(
            Topology::uniform(4, 2).unwrap(),
            server.store().clone(),
            "ds",
            chunks,
            CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
        )
        .unwrap(),
    );
    cache.prefetch_all().unwrap();
    client.attach_cache(cache.clone());

    // Kill nodes one after another; reads must always succeed (fallback)
    // and the fraction served by the cache must shrink monotonically.
    let mut prev_hits = u64::MAX;
    for victim in 0..4usize {
        cache.kill_node(victim);
        let before = cache.metrics().chunk_hits();
        for n in &names {
            assert_eq!(client.get(n).unwrap().len(), 200);
        }
        let hits = cache.metrics().chunk_hits() - before;
        assert!(hits < prev_hits, "hits must shrink as nodes die");
        prev_hits = hits;
    }
    // All nodes dead: everything still reads via the server.
    let before = cache.metrics().chunk_hits();
    for n in &names {
        assert_eq!(client.get(n).unwrap().len(), 200);
    }
    assert_eq!(cache.metrics().chunk_hits() - before, 0);

    // Recover everything; cache serves again.
    for node in 0..4 {
        cache.recover_node(node).unwrap();
    }
    let before = cache.metrics().chunk_hits();
    for n in &names {
        client.get(n).unwrap();
    }
    assert_eq!(cache.metrics().chunk_hits() - before, names.len() as u64);
}

#[test]
fn concurrent_readers_during_node_failure() {
    let (_, server) = cluster_server(2);
    let names = Arc::new(populate(&server, 200));
    let chunks = server.meta().chunk_ids("ds").unwrap();
    let cache = Arc::new(
        TaskCache::new(
            Topology::uniform(3, 2).unwrap(),
            server.store().clone(),
            "ds",
            chunks,
            CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
        )
        .unwrap(),
    );
    cache.prefetch_all().unwrap();

    let make_client = || {
        let c = DieselClient::connect(server.clone(), "ds");
        c.download_meta().unwrap();
        c.attach_cache(cache.clone());
        Arc::new(c)
    };
    let mut handles = Vec::new();
    for t in 0..6 {
        let c = make_client();
        let names = names.clone();
        let cache = cache.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..5 {
                if t == 0 && round == 2 {
                    cache.kill_node(1); // fault injected mid-flight
                }
                for n in names.iter() {
                    assert_eq!(c.get(n).unwrap().len(), 200);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// Populate `dataset` on `server` with `files` 200-byte files using a
/// per-tenant deterministic identity, so tenants never share chunk ids.
fn populate_tenant(
    server: &Arc<ClusterServer>,
    dataset: &str,
    files: usize,
    seed: u64,
) -> Vec<String> {
    let c = DieselClient::connect_with(
        server.clone(),
        dataset,
        ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
        },
    )
    .with_deterministic_identity(seed, seed as u32, 5_000 + seed as u32);
    let mut names = Vec::new();
    for i in 0..files {
        let name = format!("c{}/f{i:05}", i % 4);
        c.put(&name, &[(i % 251) as u8; 200]).unwrap();
        names.push(name);
    }
    c.flush().unwrap();
    names
}

#[test]
fn tenant_a_corruption_leaves_tenant_b_byte_identical() {
    // The §4.2 failure-containment story with two tenants: tenant A
    // loses its cache nodes *and* its backing chunks are corrupted
    // mid-epoch. Tenant B — its own `TaskCache` over the same backing
    // store, counting into the same registry — must keep serving
    // byte-identical batches from fully resident chunks, untouched by
    // A's chaos.
    let (_, server) = cluster_server(2);
    let names_a = populate_tenant(&server, "tenant-a", 160, 3);
    let names_b = populate_tenant(&server, "tenant-b", 160, 7);

    let registry = Arc::new(Registry::default());
    let cache_for = |dataset: &str| {
        Arc::new(
            TaskCache::with_registry(
                Topology::uniform(4, 2).unwrap(),
                server.store().clone(),
                dataset,
                server.meta().chunk_ids(dataset).unwrap(),
                CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
                registry.clone(),
            )
            .unwrap(),
        )
    };
    let cache_a = cache_for("tenant-a");
    let cache_b = cache_for("tenant-b");
    cache_a.prefetch_all().unwrap();
    cache_b.prefetch_all().unwrap();

    let client_a = DieselClient::connect(server.clone(), "tenant-a");
    client_a.download_meta().unwrap();
    client_a.attach_cache(cache_a.clone());
    let client_b = DieselClient::connect(server.clone(), "tenant-b");
    client_b.download_meta().unwrap();
    client_b.attach_cache(cache_b.clone());

    // Reference epoch for tenant B before any fault.
    let baseline: Vec<Vec<u8>> =
        names_b.iter().map(|n| client_b.get(n).unwrap().to_vec()).collect();
    let loads_before = cache_b.metrics().chunk_loads();
    assert!((cache_b.resident_fraction() - 1.0).abs() < 1e-9);

    // Mid-epoch chaos in tenant A: half way through B's sweep, kill all
    // of A's cache nodes and overwrite A's backing chunks with garbage.
    let mid = names_b.len() / 2;
    let mut epoch: Vec<Vec<u8>> = Vec::new();
    for (i, n) in names_b.iter().enumerate() {
        if i == mid {
            for node in 0..4 {
                cache_a.kill_node(node);
            }
            for id in server.meta().chunk_ids("tenant-a").unwrap() {
                let key = diesel_dlt::meta::recovery::chunk_object_key("tenant-a", id);
                server.store().put(&key, vec![0xde; 64].into()).unwrap();
            }
        }
        epoch.push(client_b.get(n).unwrap().to_vec());
    }
    assert_eq!(epoch, baseline, "tenant B's batches must be byte-identical through A's failure");

    // B's residency and load counters are untouched: nothing was evicted
    // or re-fetched because of A.
    assert!((cache_b.resident_fraction() - 1.0).abs() < 1e-9, "B's residency must be untouched");
    assert_eq!(cache_b.metrics().chunk_loads(), loads_before);
    assert_eq!(cache_b.metrics().evictions(), 0);

    // Tenant A, by contrast, really is broken: its cache is dead and the
    // server-side fallback now reads corrupted chunks.
    assert!(names_a.iter().any(|n| client_a.get(n).is_err()), "tenant A should be failing");
}

#[test]
fn partial_timestamp_recovery_leaves_old_chunks_untouched() {
    let (kv, server) = cluster_server(4);
    // Two write generations with distinct chunk-ID timestamps.
    for (gen, ts) in [(0u32, 1_000u32), (1, 2_000)] {
        let c = DieselClient::connect_with(
            server.clone(),
            "ds",
            ClientConfig {
                chunk: ChunkBuilderConfig { target_chunk_size: 2048, ..Default::default() },
            },
        )
        .with_deterministic_identity(gen as u64 + 1, gen + 1, ts);
        for i in 0..40 {
            c.put(&format!("g{gen}/f{i:03}"), &[gen as u8; 128]).unwrap();
        }
        c.flush().unwrap();
    }
    // Lose only generation-1 metadata.
    kv.power_loss();
    // First restore everything, then corrupt gen-1 again to prove the
    // partial scan touches only recent chunks.
    server.recover_metadata_full("ds").unwrap();
    let kv_full = kv.len();
    for i in 0..40 {
        kv.delete(&format!("f/ds/g1/f{i:03}")).unwrap();
    }
    let report = server.recover_metadata_since("ds", 1_500).unwrap();
    assert_eq!(report.files_recovered, 40, "only generation 1 rescanned");
    assert_eq!(kv.len(), kv_full);
    assert!(server.read_file("ds", "g1/f039").is_ok());
    assert!(server.read_file("ds", "g0/f000").is_ok());
}
