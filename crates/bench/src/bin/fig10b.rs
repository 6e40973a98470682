//! Figure 10b — metadata QPS with the snapshot enabled: every stat is a
//! local hashmap hit, so QPS grows linearly with client count.
//!
//! Unlike the other cluster figures this one is **measured for real**:
//! we build an ImageNet-scale [`FileTable`] from a snapshot and hammer
//! `stat()` from real threads, then scale by node count (nodes share
//! nothing, so scaling is exactly linear — the paper measures 8.83 M QPS
//! on one node and 88.77 M on ten).

use std::sync::Arc;

use diesel_bench::report::fmt_count;
use diesel_bench::Table;
use diesel_chunk::{ChunkId, MachineId};
use diesel_meta::records::FileMeta;
use diesel_meta::snapshot::SnapshotFile;
use diesel_meta::{FileTable, MetaSnapshot};
use diesel_util::{Clock, SystemClock};

const FILES: usize = 200_000;
const THREADS_PER_NODE: usize = 16;
const LOOKUPS_PER_THREAD: usize = 200_000;

fn build_table() -> (FileTable, Vec<String>) {
    let chunk = ChunkId::new(1, MachineId::from_seed(1), 1, 0);
    let files: Vec<SnapshotFile> = (0..FILES)
        .map(|i| SnapshotFile {
            path: format!("train/class{:03}/img{i:07}.jpg", i % 1000),
            meta: FileMeta {
                chunk,
                index_in_chunk: i as u32,
                offset: i as u64 * 110_000,
                length: 110_000,
                uploaded_ms: 1,
            },
        })
        .collect();
    let snap = MetaSnapshot {
        dataset: "imagenet-scale".into(),
        updated_ms: 1,
        chunks: vec![chunk],
        files,
    };
    let paths = snap.files.iter().map(|f| f.path.clone()).collect();
    (FileTable::new(snap), paths)
}

fn main() {
    let (table, paths) = build_table();
    let table = Arc::new(table);
    let paths = Arc::new(paths);

    // Real multithreaded stat throughput on "one node".
    let clock = SystemClock::new();
    let handles: Vec<_> = (0..THREADS_PER_NODE)
        .map(|t| {
            let table = table.clone();
            let paths = paths.clone();
            std::thread::spawn(move || {
                let mut hits = 0u64;
                for i in 0..LOOKUPS_PER_THREAD {
                    let p = &paths[(t * 1_000_003 + i * 37) % paths.len()];
                    if table.stat(p).is_some() {
                        hits += 1;
                    }
                }
                hits
            })
        })
        .collect();
    let hits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = clock.now_ns() as f64 / 1e9;
    assert_eq!(hits as usize, THREADS_PER_NODE * LOOKUPS_PER_THREAD);
    let per_node_qps = hits as f64 / elapsed;

    let mut table = Table::new(
        "Fig. 10b: snapshot-enabled metadata QPS vs client nodes (measured, linear scaling)",
        &["client nodes", "QPS", "paper (1 node=8.83M, 10 nodes=88.77M)"],
    );
    for nodes in 1..=10usize {
        let qps = per_node_qps * nodes as f64;
        let paper = 8.83e6 * nodes as f64;
        table.row(&[nodes.to_string(), fmt_count(qps), fmt_count(paper)]);
    }
    table.emit("fig10b");
    diesel_bench::report::note(
        "fig10b",
        &format!(
            "one-node measurement: {} stats/s over {} threads on a {}-file table; \
             nodes share nothing, so multi-node scaling is exactly linear. \
             Against the Lustre MDS ceiling (~68k QPS) the 10-node figure is {:.0}x \
             (paper reports ~1300x).",
            fmt_count(per_node_qps),
            THREADS_PER_NODE,
            FILES,
            per_node_qps * 10.0 / 68_000.0
        ),
    );
}
