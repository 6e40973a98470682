//! DLCMD — the dataset management tool (§5: "a separate command-line
//! tool (DLCMD, similar to s3cmd in Amazon S3) is provided to write and
//! manage the datasets in DIESEL").
//!
//! These functions are the verbs that walk a local tree or summarise a
//! dataset (`put`, `get`, `du`); the `dlcmd` binary wires them to a CLI
//! beside the verbs it runs through a `DieselClient` or the server's
//! request dispatch.

use std::path::{Component, Path};

use diesel_kv::KvStore;
use diesel_store::ObjectStore;

use crate::api::ServerRequest;
use crate::client::DieselClient;
use crate::server::DieselServer;
use crate::{DieselError, Result};

/// Outcome of an import.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Files uploaded.
    pub files: u64,
    /// Bytes uploaded.
    pub bytes: u64,
}

/// `dlcmd put -r <dir> diesel://<dataset>/` — walk a local directory
/// tree and upload every regular file, preserving relative paths.
pub fn import_directory<K: KvStore + 'static, S: ObjectStore + 'static>(
    client: &DieselClient<K, S>,
    root: impl AsRef<Path>,
) -> Result<ImportReport> {
    let root = root.as_ref();
    let mut report = ImportReport::default();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| DieselError::Client(format!("read_dir {dir:?}: {e}")))?;
        // Sort for deterministic chunk packing.
        let mut entries: Vec<_> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.is_file() {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| DieselError::Client(e.to_string()))?
                    .to_string_lossy()
                    .replace('\\', "/");
                let data = std::fs::read(&path)
                    .map_err(|e| DieselError::Client(format!("read {path:?}: {e}")))?;
                report.bytes += data.len() as u64;
                report.files += 1;
                client.put(&rel, &data)?;
            }
        }
    }
    client.flush()?;
    Ok(report)
}

/// `dlcmd get -r diesel://<dataset>/ <dir>` — download every file of the
/// dataset into a local directory tree. Dataset paths are not trusted to
/// stay inside `dest`: if any has a component other than a plain name
/// (`..`, a root, a drive prefix), the export fails before it writes
/// anything.
pub fn export_directory<K: KvStore + 'static, S: ObjectStore + 'static>(
    client: &DieselClient<K, S>,
    dest: impl AsRef<Path>,
) -> Result<u64> {
    let dest = dest.as_ref();
    let paths = client.file_list()?;
    if let Some(bad) =
        paths.iter().find(|p| !Path::new(p).components().all(|c| matches!(c, Component::Normal(_))))
    {
        return Err(DieselError::Client(format!("refusing to export {bad:?} outside {dest:?}")));
    }
    let mut count = 0;
    for path in paths {
        let data = client.get(&path)?;
        let target = dest.join(&path);
        if let Some(parent) = target.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| DieselError::Client(format!("mkdir {parent:?}: {e}")))?;
        }
        std::fs::write(&target, &data)
            .map_err(|e| DieselError::Client(format!("write {target:?}: {e}")))?;
        count += 1;
    }
    Ok(count)
}

/// `dlcmd du diesel://<dataset>` — dataset usage summary: the chunk,
/// file and byte counts of the dataset's record, asked of the server as
/// a request.
pub fn usage<K: KvStore, S: ObjectStore>(
    server: &DieselServer<K, S>,
    dataset: &str,
) -> Result<(u64, u64, u64)> {
    let request = ServerRequest::DatasetRecord { dataset: dataset.to_owned() };
    let rec = server.handle(request)?.into_record()?;
    Ok((rec.chunk_count, rec.file_count, rec.total_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientConfig;
    use diesel_chunk::ChunkBuilderConfig;
    use diesel_kv::ShardedKv;
    use diesel_store::MemObjectStore;
    use std::sync::Arc;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dlcmd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn import_export_roundtrip() {
        // Build a little tree on disk.
        let src = tempdir("src");
        std::fs::create_dir_all(src.join("a/b")).unwrap();
        std::fs::write(src.join("top.bin"), b"top").unwrap();
        std::fs::write(src.join("a/one.bin"), vec![1u8; 500]).unwrap();
        std::fs::write(src.join("a/b/two.bin"), vec![2u8; 999]).unwrap();

        let server = Arc::new(DieselServer::new(
            Arc::new(ShardedKv::new()),
            Arc::new(MemObjectStore::new()),
        ));
        let client = DieselClient::connect_with(
            server.clone(),
            "ds",
            ClientConfig {
                chunk: ChunkBuilderConfig { target_chunk_size: 1024, ..Default::default() },
            },
        )
        .with_deterministic_identity(1, 1, 100);

        let report = import_directory(&client, &src).unwrap();
        assert_eq!(report.files, 3);
        assert_eq!(report.bytes, 3 + 500 + 999);
        let (chunks, files, bytes) = usage(&server, "ds").unwrap();
        assert_eq!(files, 3);
        assert_eq!(bytes, 1502);
        assert!(chunks >= 2, "1 KB chunks force a split");

        client.download_meta().unwrap();
        assert_eq!(client.get("a/b/two.bin").unwrap().as_ref(), &vec![2u8; 999][..]);

        let dst = tempdir("dst");
        let n = export_directory(&client, &dst).unwrap();
        assert_eq!(n, 3);
        assert_eq!(std::fs::read(dst.join("top.bin")).unwrap(), b"top");
        assert_eq!(std::fs::read(dst.join("a/one.bin")).unwrap(), vec![1u8; 500]);

        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&dst);
    }

    #[test]
    fn export_refuses_paths_that_leave_the_destination() {
        let root = tempdir("escape");
        let dst = root.join("dst");
        let absolute = root.join("absolute.bin");
        let absolute = absolute.to_str().unwrap();
        let server = Arc::new(DieselServer::new(
            Arc::new(ShardedKv::new()),
            Arc::new(MemObjectStore::new()),
        ));
        for (dataset, hostile) in [("dotdot", "../escaped.bin"), ("absolute", absolute)] {
            let client = DieselClient::connect(server.clone(), dataset);
            client.put("ok/inside.bin", b"inside").unwrap();
            client.put(hostile, b"outside").unwrap();
            client.flush().unwrap();
            client.download_meta().unwrap();
            let got = export_directory(&client, &dst);
            assert!(matches!(got, Err(DieselError::Client(_))), "{hostile}: {got:?}");
            assert!(!dst.join("ok/inside.bin").exists(), "{hostile}: nothing is written");
        }
        assert!(!root.join("escaped.bin").exists());
        assert!(!Path::new(absolute).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn import_missing_directory_errors() {
        let server = Arc::new(DieselServer::new(
            Arc::new(ShardedKv::new()),
            Arc::new(MemObjectStore::new()),
        ));
        let client = DieselClient::connect(server, "ds");
        assert!(import_directory(&client, "/definitely/not/here").is_err());
    }
}
