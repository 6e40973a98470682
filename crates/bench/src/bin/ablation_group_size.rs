//! Ablation: the chunk-wise shuffle group size (DESIGN.md §5).
//!
//! Group size G trades memory and I/O efficiency against order
//! randomness. This sweep measures, *for real* on a miniature dataset:
//!
//! * order-quality metrics (normalized displacement → 1/3 is uniform;
//!   same-chunk adjacency; epoch-to-epoch correlation);
//! * the peak working set (bytes a client must cache);
//! * chunk loads per epoch under a constrained task cache (read
//!   amplification).

use std::sync::Arc;

use diesel_bench::Table;
use diesel_cache::{CacheConfig, CachePolicy, TaskCache, Topology};
use diesel_core::{ClientConfig, DieselClient, DieselServer};
use diesel_kv::ShardedKv;
use diesel_meta::FileTable;
use diesel_shuffle::quality::{
    chunk_run_fraction, epoch_correlation, mean_normalized_displacement,
};
use diesel_shuffle::{canonical_order, epoch_order, ShuffleKind};
use diesel_store::MemObjectStore;

const FILES: usize = 3000;
const FILE_SIZE: usize = 400;
const CHUNK_SIZE: usize = 8 << 10;

fn main() {
    let server =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())));
    let client = DieselClient::connect_with(
        server.clone(),
        "ds",
        ClientConfig {
            chunk: diesel_chunk::ChunkBuilderConfig {
                target_chunk_size: CHUNK_SIZE,
                ..Default::default()
            },
        },
    )
    .with_deterministic_identity(1, 1, 50);
    for i in 0..FILES {
        client.put(&format!("f{i:05}"), &vec![(i % 251) as u8; FILE_SIZE]).unwrap();
    }
    client.flush().unwrap();
    client.download_meta().unwrap();
    let chunks = server.meta().chunk_ids("ds").unwrap();
    let nchunks = chunks.len();

    // Build the same table the client uses, for the quality metrics.
    let index = FileTable::new(server.build_snapshot("ds").unwrap());
    let canonical = canonical_order(&index);

    let mut table = Table::new(
        format!("Ablation: shuffle group size ({FILES} files in {nchunks} chunks)"),
        &[
            "strategy",
            "displacement (1/3=uniform)",
            "same-chunk adjacency",
            "epoch corr",
            "working set KiB",
            "chunk loads/epoch @15% cache",
        ],
    );

    let mut strategies: Vec<(String, ShuffleKind)> =
        vec![("dataset shuffle".into(), ShuffleKind::DatasetShuffle)];
    for g in [1usize, 2, 4, 8, 16, nchunks] {
        strategies.push((format!("chunk-wise g={g}"), ShuffleKind::ChunkWise { group_size: g }));
    }

    for (label, kind) in strategies {
        let e1 = epoch_order(&index, kind, 7, 1);
        let e2 = epoch_order(&index, kind, 7, 2);
        let disp = mean_normalized_displacement(&e1, &canonical);
        let runs = chunk_run_fraction(&e1);
        let corr = epoch_correlation(&e1, &e2);
        let ws = e1.peak_working_set_bytes(&index);

        // Real read-amplification run: fresh cache at 15% of the dataset.
        client.enable_shuffle(kind);
        let cache = Arc::new(
            TaskCache::new(
                Topology::uniform(2, 2).unwrap(),
                server.store().clone(),
                "ds",
                chunks.clone(),
                CacheConfig {
                    capacity_bytes_per_node: (FILES * FILE_SIZE) as u64 / 13,
                    policy: CachePolicy::OnDemand,
                },
            )
            .unwrap(),
        );
        client.attach_cache(cache.clone());
        let order = client.epoch_file_list(7, 1).unwrap();
        for path in &order {
            client.get(path).unwrap();
        }
        let loads = cache.metrics().chunk_loads();

        table.row(&[
            label,
            format!("{disp:.3}"),
            format!("{:.1}%", runs * 100.0),
            format!("{corr:+.3}"),
            format!("{}", ws >> 10),
            loads.to_string(),
        ]);
    }
    table.emit("ablation_group_size");
    diesel_bench::report::note(
        "ablation_group_size",
        "take-away: even tiny groups keep displacement near the uniform 1/3 (chunks are \
         shuffled globally before grouping) and epochs decorrelated; what grows with \
         small G is chunk adjacency — exactly the locality that cuts per-epoch chunk \
         loads from many times the chunk count (dataset shuffle, thrashing) down to \
         once per chunk. A group spanning every chunk degenerates back into the \
         thrashing baseline: the paper's 'hundreds of chunks per group' keeps adjacency \
         low while the working set stays ~G x 4 MB.",
    );
}
