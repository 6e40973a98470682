//! Distributed training end-to-end: a synthetic classification dataset
//! stored in DIESEL, cached by a 4-node task-grained distributed cache,
//! read in chunk-wise shuffled order, feeding a real SGD trainer.
//!
//! ```text
//! cargo run --release --example distributed_training
//! ```

use std::sync::Arc;

use diesel_dlt::cache::{CacheConfig, CachePolicy, TaskCache, Topology};
use diesel_dlt::core::{ClientConfig, DieselClient, DieselServer};
use diesel_dlt::kv::ShardedKv;
use diesel_dlt::shuffle::ShuffleKind;
use diesel_dlt::store::MemObjectStore;
use diesel_dlt::train::loader::upload_samples;
use diesel_dlt::train::{train, DataLoader, Mlp, MlpConfig, SyntheticSpec, TrainConfig};

fn main() {
    // Dataset: 4000 training samples, 20 classes (an "ImageNet-like"
    // miniature; see DESIGN.md for the substitution rationale).
    let spec = SyntheticSpec::imagenet_like();
    let train_set = spec.generate(4000);
    let eval_set = spec.generate_eval(800);

    let server =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())));
    let client = DieselClient::connect_with(
        server.clone(),
        "synth-imagenet",
        ClientConfig {
            chunk: diesel_dlt::chunk::ChunkBuilderConfig {
                target_chunk_size: 32 << 10, // small chunks so the demo has many
                ..Default::default()
            },
        },
    );
    upload_samples(&client, &train_set).unwrap();
    client.download_meta().unwrap();

    // Task-grained distributed cache over 4 "nodes" with 4 I/O workers
    // each: topology gives p*(n-1) connections instead of a full mesh.
    let chunks = server.meta().chunk_ids("synth-imagenet").unwrap();
    let topology = Topology::uniform(4, 4).unwrap();
    println!(
        "topology: {} clients on {} nodes -> {} connections (full mesh would need {})",
        topology.client_count(),
        topology.node_count(),
        topology.diesel_connection_count(),
        topology.full_mesh_connection_count()
    );
    let cache = Arc::new(
        TaskCache::new(
            topology,
            server.store().clone(),
            "synth-imagenet",
            chunks.clone(),
            CacheConfig { capacity_bytes_per_node: 64 << 20, policy: CachePolicy::Oneshot },
        )
        .unwrap(),
    );
    let loaded = cache.prefetch_all().unwrap();
    println!(
        "oneshot prefetch: {} chunks / {} KiB loaded chunk-wise from the object store",
        loaded.chunks_loaded,
        loaded.bytes_loaded >> 10
    );
    client.attach_cache(cache.clone());

    // Chunk-wise shuffle: random-enough order, chunk-local reads.
    client.enable_shuffle(ShuffleKind::ChunkWise { group_size: 8 });
    let plan = client.epoch_plan(1234, 0).unwrap();
    println!(
        "epoch plan: {} files in {} groups; peak working set {} KiB (dataset {} KiB)",
        plan.len(),
        plan.group_starts.len(),
        plan.peak_working_set_bytes(&build_table(&client)) >> 10,
        (train_set.len() * (2 + spec.dim * 4)) >> 10,
    );

    // Train a real model through the whole stack.
    let loader = DataLoader::new(Arc::new(attach(server, &cache)), 64, 1234);
    let mut model = Mlp::new(
        MlpConfig {
            input_dim: spec.dim,
            hidden: vec![96],
            classes: spec.classes,
            lr: 0.06,
            momentum: 0.9,
        },
        7,
    );
    let metrics =
        train(&mut model, &loader, &eval_set, &TrainConfig { epochs: 10, topk: (1, 5) }).unwrap();
    println!("epoch  loss    top-1   top-5");
    for m in &metrics {
        println!(
            "{:>5}  {:>6.3}  {:>5.1}%  {:>5.1}%",
            m.epoch,
            m.loss,
            m.top1 * 100.0,
            m.topk * 100.0
        );
    }
    let m = cache.metrics();
    println!(
        "cache: {} file reads, {} chunk hits, {} chunk loads from backing store",
        m.file_reads(),
        m.chunk_hits(),
        m.chunk_loads()
    );
    assert!(metrics.last().unwrap().topk > 0.6, "training should learn something");
    println!("distributed training OK");
}

fn attach(
    server: Arc<DieselServer<ShardedKv, MemObjectStore>>,
    cache: &Arc<TaskCache<MemObjectStore>>,
) -> DieselClient<ShardedKv, MemObjectStore> {
    let c = DieselClient::connect(server, "synth-imagenet");
    c.download_meta().unwrap();
    c.enable_shuffle(ShuffleKind::ChunkWise { group_size: 8 });
    c.attach_cache(cache.clone());
    c
}

fn build_table(client: &DieselClient<ShardedKv, MemObjectStore>) -> diesel_dlt::meta::FileTable {
    // Reconstruct the table the client uses internally, for reporting.
    let snap = client.server().build_snapshot("synth-imagenet").unwrap();
    diesel_dlt::meta::FileTable::new(snap)
}
