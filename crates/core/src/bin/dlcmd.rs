//! `dlcmd` — DIESEL's dataset management CLI (§5: "similar to s3cmd in
//! Amazon S3").
//!
//! Datasets live as self-contained chunks in a directory-backed object
//! store, so each invocation starts a fresh in-memory metadata database
//! and rebuilds it by scanning chunk headers (§4.1.2) — the CLI *is* a
//! demonstration of DIESEL's recovery-first metadata design.
//!
//! ```text
//! dlcmd --store /data/diesel put   ./imagenet  imagenet-1k
//! dlcmd --store /data/diesel ls    imagenet-1k train/cat
//! dlcmd --store /data/diesel stat  imagenet-1k train/cat/001.jpg
//! dlcmd --store /data/diesel cat   imagenet-1k train/cat/001.jpg > out.jpg
//! dlcmd --store /data/diesel get   imagenet-1k ./restore
//! dlcmd --store /data/diesel du    imagenet-1k
//! dlcmd --store /data/diesel rm    imagenet-1k train/cat/001.jpg
//! dlcmd --store /data/diesel purge imagenet-1k
//! dlcmd --store /data/diesel snapshot imagenet-1k ./imagenet.snap
//! dlcmd --store /data/diesel datasets
//! dlcmd --store /data/diesel stats
//! dlcmd --store /data/diesel trace imagenet-1k ./trace.json
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use diesel_core::dlcmd;
use diesel_core::{DieselClient, DieselServer, ServerRequest, ServerResponse};
use diesel_kv::ShardedKv;
use diesel_meta::EntryKind;
use diesel_store::{DirObjectStore, ObjectStore};
use diesel_util::{Clock, SystemClock};

type Server = DieselServer<ShardedKv, DirObjectStore>;
type Client = DieselClient<ShardedKv, DirObjectStore>;

fn usage() -> ExitCode {
    eprintln!(
        "usage: dlcmd --store <dir> <command> [args]\n\
         commands:\n  \
           put <local-dir> <dataset>      import a directory tree\n  \
           get <dataset> <local-dir>      export the dataset\n  \
           ls <dataset> [path]            list a directory\n  \
           stat <dataset> <path>          show file metadata\n  \
           cat <dataset> <path>           print file contents to stdout\n  \
           rm <dataset> <path>            delete a file\n  \
           du <dataset>                   dataset usage summary\n  \
           purge <dataset>                compact chunks with holes\n  \
           snapshot <dataset> <out-file>  save the metadata snapshot\n  \
           datasets                       list datasets in the store\n  \
           stats                          dump server observability metrics\n  \
           trace <dataset> [out.json]     trace a full read sweep; print the\n  \
                                          critical-path summary and optionally\n  \
                                          write chrome-trace JSON"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Cli::Usage) => usage(),
        Err(Cli::Failed(msg)) => {
            eprintln!("dlcmd: {msg}");
            ExitCode::FAILURE
        }
    }
}

enum Cli {
    Usage,
    Failed(String),
}

impl<E: std::fmt::Display> From<E> for Cli {
    fn from(e: E) -> Self {
        Cli::Failed(e.to_string())
    }
}

fn run(args: &[String]) -> Result<(), Cli> {
    let mut it = args.iter();
    let mut store_dir: Option<&str> = None;
    let mut rest: Vec<&str> = Vec::new();
    while let Some(a) = it.next() {
        if a == "--store" {
            store_dir = Some(it.next().ok_or(Cli::Usage)?.as_str());
        } else if a == "--help" || a == "-h" {
            return Err(Cli::Usage);
        } else {
            rest.push(a.as_str());
        }
    }
    let Some(store_dir) = store_dir else { return Err(Cli::Usage) };
    let (cmd, rest) = rest.split_first().ok_or(Cli::Usage)?;

    let store = Arc::new(DirObjectStore::open(store_dir)?);
    let server: Arc<Server> =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), store.clone()));

    // Discover datasets from chunk keys (`<dataset>/<chunk-id>`), then
    // rebuild the metadata database from the self-contained chunks. A
    // torn chunk is skipped, not fatal, so the verbs that repair the
    // store still run; a dataset left with no chunk is not listed.
    let mut datasets: Vec<String> = store
        .list_prefix("")
        .into_iter()
        .filter_map(|k| k.split_once('/').map(|(d, _)| d.to_owned()))
        .collect();
    datasets.sort();
    datasets.dedup();
    let mut recovered = Vec::with_capacity(datasets.len());
    for ds in datasets {
        let report = server.recover_metadata_full(&ds)?;
        if report.chunks_quarantined > 0 {
            eprintln!("dlcmd: {ds}: {} torn chunk(s) quarantined", report.chunks_quarantined);
        }
        if report.chunks_scanned > 0 {
            recovered.push(ds);
        }
    }
    let datasets = recovered;

    // Every verb goes through a client or the server's request dispatch,
    // which refuses a dataset name that would alias another dataset's
    // keys: `ds/a` must not answer for `ds`'s files.
    match (*cmd, rest) {
        ("datasets", []) => {
            for ds in &datasets {
                let (chunks, files, bytes) = dlcmd::usage(&server, ds)?;
                println!("{ds}\t{chunks} chunks\t{files} files\t{bytes} bytes");
            }
            Ok(())
        }
        ("put", [local, dataset]) => {
            let client = DieselClient::connect(server.clone(), *dataset);
            let report = dlcmd::import_directory(&client, local)?;
            println!("imported {} files / {} bytes into {dataset}", report.files, report.bytes);
            Ok(())
        }
        ("get", [dataset, local]) => {
            let n = dlcmd::export_directory(&loaded(&server, dataset)?, local)?;
            println!("exported {n} files to {local}");
            Ok(())
        }
        ("ls", [dataset]) | ("ls", [dataset, _]) => {
            let path = rest.get(1).copied().unwrap_or("");
            for e in loaded(&server, dataset)?.ls(path)? {
                match e.kind {
                    EntryKind::Dir => println!("d {:>10}  {}/", "-", e.name),
                    EntryKind::File => println!("f {:>10}  {}", e.size, e.name),
                }
            }
            Ok(())
        }
        ("stat", [dataset, path]) => {
            let m = loaded(&server, dataset)?.stat(path)?;
            println!("path:     {path}");
            println!("size:     {} bytes", m.length);
            println!("chunk:    {}", m.chunk);
            println!("offset:   {}", m.offset);
            println!("uploaded: {} (unix ms)", m.uploaded_ms);
            Ok(())
        }
        ("cat", [dataset, path]) => {
            let data = loaded(&server, dataset)?.get(path)?;
            std::io::stdout().write_all(&data)?;
            Ok(())
        }
        ("rm", [dataset, path]) => {
            DieselClient::connect(server.clone(), *dataset).delete(path)?;
            println!("deleted {path} (run `purge` to reclaim space)");
            Ok(())
        }
        ("du", [dataset]) => {
            let (chunks, files, bytes) = dlcmd::usage(&server, dataset)?;
            println!("{dataset}: {files} files, {bytes} bytes in {chunks} chunks");
            println!("stored: {} bytes on disk", store.total_bytes());
            Ok(())
        }
        ("purge", [dataset]) => {
            let now_ms = SystemClock::new().epoch_ms();
            let request = ServerRequest::PurgeDataset { dataset: dataset.to_string(), now_ms };
            let reply = server.handle(request)?;
            let ServerResponse::Purge(r) = reply else {
                return Err(Cli::Failed(format!("server replied {reply:?} to a purge")));
            };
            println!(
                "compacted {} chunks, removed {}, reclaimed {} bytes",
                r.chunks_compacted, r.chunks_removed, r.bytes_reclaimed
            );
            Ok(())
        }
        ("stats", []) => {
            // Go through the wire request rather than reading the
            // registry directly: this is exactly what a remote
            // `ServerRequest::Stats` sees, with KV/store backend metrics
            // merged into one consistent snapshot.
            let snap = server.handle(ServerRequest::Stats)?.into_stats()?;
            print!("{}", snap.render());
            Ok(())
        }
        ("trace", [dataset]) | ("trace", [dataset, _]) => {
            let out = rest.get(1).copied();
            // A fresh server with an always-on tracer shared with the
            // client: the sweep's spans — client, server, kv, store —
            // all land in one buffer, drained over the wire exactly
            // like a remote `ServerRequest::Trace` would.
            let traced = DieselServer::new(Arc::new(ShardedKv::new()), store.clone());
            let tracer = diesel_obs::Tracer::enabled(traced.registry());
            let traced: Arc<Server> = Arc::new(traced.with_tracer(tracer.clone()));
            traced.recover_metadata_full(dataset)?;
            let client =
                DieselClient::connect(traced.clone(), *dataset).with_tracer(tracer.clone());
            client.download_meta()?;
            tracer.drain(); // trace only the read sweep
            for f in client.file_list()? {
                client.get(&f)?;
            }
            let spans = client.drain_trace()?;
            if let Some(out) = out {
                std::fs::write(out, diesel_obs::chrome_trace_json(&spans))?;
                println!("wrote {} spans to {out}", spans.len());
            }
            print!("{}", diesel_obs::critical_path(&spans));
            Ok(())
        }
        ("snapshot", [dataset, out]) => {
            let request = ServerRequest::BuildSnapshot { dataset: dataset.to_string() };
            let snap = server.handle(request)?.into_snapshot()?;
            let bytes = snap.encode();
            std::fs::write(out, &bytes)?;
            println!(
                "snapshot of {dataset}: {} chunks, {} files, {} bytes -> {out}",
                snap.chunks.len(),
                snap.files.len(),
                bytes.len()
            );
            Ok(())
        }
        _ => Err(Cli::Usage),
    }
}

/// A client of `dataset` with its snapshot loaded: `get`, `ls`, `stat`
/// and `cat` answer from that one table.
fn loaded(server: &Arc<Server>, dataset: &str) -> Result<Client, Cli> {
    let client = DieselClient::connect(server.clone(), dataset);
    client.download_meta()?;
    Ok(client)
}
