//! Quickstart: deploy DIESEL, import a directory with DLCMD, read it
//! back through the libDIESEL API, then delete and purge.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use diesel_dlt::core::dlcmd;
use diesel_dlt::core::{DieselClient, DieselServer};
use diesel_dlt::kv::ShardedKv;
use diesel_dlt::store::MemObjectStore;

fn main() {
    // 1. Stage a small dataset on local disk (what a user would have
    //    downloaded or collected).
    let staging = std::env::temp_dir().join(format!("diesel-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&staging);
    for class in ["cat", "dog", "fox"] {
        let dir = staging.join("train").join(class);
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..40 {
            let body: Vec<u8> = format!("{class}-image-{i}").into_bytes().repeat(200);
            std::fs::write(dir.join(format!("img{i:03}.jpg")), body).unwrap();
        }
    }
    println!("staged 120 files under {}", staging.display());

    // 2. Deploy the DIESEL server over a KV metadata store and an object
    //    store (in production: Redis cluster + Ceph/Lustre; here the
    //    in-memory substrates).
    let server =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())));

    // 3. DLCMD: import the directory (files are packed into >=4 MB
    //    chunks client-side — 120 small files become a couple of chunk
    //    objects, not 120 object-store writes).
    let client = DieselClient::connect(server.clone(), "pets");
    let report = dlcmd::import_directory(&client, &staging).unwrap();
    let (chunks, files, bytes) = dlcmd::usage(&server, "pets").unwrap();
    println!(
        "imported {} files / {} bytes into {chunks} chunk(s) ({files} files registered)",
        report.files, report.bytes
    );
    assert_eq!(report.files, files);
    assert_eq!(report.bytes, bytes);

    // 4. Download the metadata snapshot: every stat/ls afterwards is a
    //    local O(1) lookup — no metadata server on the read path.
    client.download_meta().unwrap();
    let classes = client.ls("train").unwrap();
    println!(
        "train/ contains {} classes: {:?}",
        classes.len(),
        classes.iter().map(|e| e.name.as_str()).collect::<Vec<_>>()
    );
    let meta = client.stat("train/cat/img007.jpg").unwrap();
    println!(
        "stat train/cat/img007.jpg -> {} bytes in chunk {} at offset {}",
        meta.length, meta.chunk, meta.offset
    );

    // 5. Read through the API — here from a second worker that loads the
    //    snapshot from a file (DL_save_meta / DL_load_meta) instead of
    //    downloading it; the load checks it is fresh against the server.
    let snap_path = staging.join("pets.snapshot");
    client.save_meta(&snap_path).unwrap();
    let worker = DieselClient::connect(server.clone(), "pets");
    worker.load_meta(&snap_path).unwrap();
    assert_eq!(worker.file_list().unwrap().len() as u64, files);
    let body = worker.get("train/dog/img000.jpg").unwrap();
    assert!(body.starts_with(b"dog-image-0"));

    // 6. Housekeeping: delete a file, purge the hole, verify space
    //    reclaimed.
    let before = server.store().iter_total();
    client.delete("train/cat/img000.jpg").unwrap();
    let purge = server.purge_dataset("pets", 1).unwrap();
    let after = server.store().iter_total();
    println!(
        "deleted 1 file; purge compacted {} chunk(s), reclaimed {} bytes ({} -> {} stored bytes)",
        purge.chunks_compacted, purge.bytes_reclaimed, before, after
    );

    let _ = std::fs::remove_dir_all(&staging);
    println!("quickstart OK");
}

/// Tiny extension trait so the example can print stored bytes tersely.
trait TotalBytes {
    fn iter_total(&self) -> u64;
}
impl TotalBytes for Arc<MemObjectStore> {
    fn iter_total(&self) -> u64 {
        use diesel_dlt::store::ObjectStore;
        self.total_bytes()
    }
}
