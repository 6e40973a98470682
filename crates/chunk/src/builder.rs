//! Packing small files into chunks (the client-side write path of Fig. 3).
//!
//! `ChunkBuilder` accumulates files until the configured target size is
//! reached, then seals a self-contained chunk. A higher-level
//! [`ChunkWriter`] streams an arbitrary sequence of files into a sequence
//! of chunks, minting IDs from a [`ChunkIdGenerator`].

use diesel_util::Clock;

use crate::bitmap::DeletionBitmap;
use crate::crc::crc32;
use crate::format::{ChunkHeader, FileEntry, MAX_NAME_LEN};
use crate::id::{ChunkId, ChunkIdGenerator};
use crate::{ChunkError, Result, DEFAULT_CHUNK_SIZE};

/// Configuration for chunk building.
#[derive(Debug, Clone)]
pub struct ChunkBuilderConfig {
    /// Seal the chunk once payload + header would exceed this size.
    /// DIESEL uses ≥ 4 MB chunks; the default is [`DEFAULT_CHUNK_SIZE`].
    pub target_chunk_size: usize,
    /// Hard cap for a single file (a file larger than the payload capacity
    /// gets its own oversized chunk rather than being split — matching the
    /// paper, which packs whole files).
    pub max_file_size: usize,
}

impl Default for ChunkBuilderConfig {
    fn default() -> Self {
        ChunkBuilderConfig { target_chunk_size: DEFAULT_CHUNK_SIZE, max_file_size: 256 << 20 }
    }
}

/// Builds one chunk by appending files.
///
/// # Examples
///
/// ```
/// use diesel_chunk::{ChunkBuilder, ChunkIdGenerator, ChunkView};
///
/// let mut builder = ChunkBuilder::with_default_config();
/// builder.add_file("train/cat/1.jpg", b"jpeg bytes").unwrap();
/// builder.add_file("train/dog/2.jpg", b"more bytes").unwrap();
///
/// let ids = ChunkIdGenerator::deterministic(1, 1, 1_600_000_000);
/// let (header, bytes) = builder.seal(ids.next_id(), 42);
/// assert_eq!(header.file_count(), 2);
///
/// // The chunk is self-contained: parse it back with no other state.
/// let view = ChunkView::parse(bytes.into()).unwrap();
/// assert_eq!(view.read_file("train/cat/1.jpg").unwrap(), b"jpeg bytes"[..]);
/// ```
#[derive(Debug)]
pub struct ChunkBuilder {
    config: ChunkBuilderConfig,
    files: Vec<FileEntry>,
    payload: Vec<u8>,
}

impl ChunkBuilder {
    /// An empty builder with the given config.
    pub fn new(config: ChunkBuilderConfig) -> Self {
        ChunkBuilder { config, files: Vec::new(), payload: Vec::new() }
    }

    /// An empty builder with default (4 MB) sizing.
    pub fn with_default_config() -> Self {
        Self::new(ChunkBuilderConfig::default())
    }

    /// Number of files appended so far.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Current payload size in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Estimated total chunk size (header + payload) if sealed now.
    pub fn estimated_len(&self) -> usize {
        ChunkHeader::wire_len(&self.files) + self.payload.len()
    }

    /// Would appending a file of `name_len`/`data_len` exceed the target?
    pub fn would_overflow(&self, name_len: usize, data_len: usize) -> bool {
        if self.files.is_empty() {
            return false; // always accept at least one file
        }
        let entry_overhead = 2 + name_len + 20;
        self.estimated_len() + entry_overhead + data_len + 8 /* bitmap slack */
            > self.config.target_chunk_size
    }

    /// The typed error [`add_file`](Self::add_file) would return for this
    /// name and size, checked without buffering anything.
    pub fn check_file(&self, name: &str, data_len: usize) -> Result<()> {
        if name.len() > MAX_NAME_LEN {
            return Err(ChunkError::NameTooLong { len: name.len(), max: MAX_NAME_LEN });
        }
        if data_len > self.config.max_file_size {
            return Err(ChunkError::FileTooLarge {
                size: data_len,
                max: self.config.max_file_size,
            });
        }
        Ok(())
    }

    /// Append a file. Returns its index within the chunk.
    pub fn add_file(&mut self, name: &str, data: &[u8]) -> Result<usize> {
        self.check_file(name, data.len())?;
        let idx = self.files.len();
        self.files.push(FileEntry {
            name: name.to_owned(),
            offset: self.payload.len() as u64,
            length: data.len() as u64,
            crc32: crc32(data),
        });
        if idx == 0 {
            // Reserve the whole sealed chunk, header included, so `seal`
            // builds it in this one allocation. A target too large to
            // reserve falls back to growing as files arrive.
            let whole = self.config.target_chunk_size.max(self.estimated_len() + data.len());
            let _ = self.payload.try_reserve_exact(whole);
        }
        // The write path's deliberate copy: aggregating small files
        // into the chunk's contiguous payload (DESIGN.md §11).
        diesel_obs::record_copy("ingest", data.len() as u64);
        self.payload.extend_from_slice(data);
        Ok(idx)
    }

    /// True when the builder holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Seal the chunk: serialize `header ‖ payload` and return the bytes
    /// along with the decoded header. `updated_ms` stamps the chunk's
    /// update time (Fig. 5b metadata).
    ///
    /// The chunk is built in the payload's own allocation: the payload
    /// moves up behind the header in place, so sealing allocates and
    /// page-faults no second chunk-sized buffer.
    pub fn seal(self, id: ChunkId, updated_ms: u64) -> (ChunkHeader, Vec<u8>) {
        let header_len = ChunkHeader::wire_len(&self.files);
        let payload_len = self.payload.len();
        let header = ChunkHeader {
            id,
            updated_ms,
            bitmap: DeletionBitmap::new(self.files.len()),
            files: self.files,
            payload_len: payload_len as u64,
            header_len: header_len as u32,
        };
        let mut encoded = Vec::new();
        header.encode(&mut encoded);
        let mut buf = self.payload;
        buf.resize(header_len + payload_len, 0);
        // Making room for the header moves the payload once more; from
        // here on the buffer travels as shared `Bytes`.
        diesel_obs::record_copy("seal", payload_len as u64);
        buf.copy_within(..payload_len, header_len);
        #[expect(clippy::indexing_slicing, reason = "buf was just resized past header_len")]
        let front = &mut buf[..header_len];
        front.copy_from_slice(&encoded);
        (header, buf)
    }
}

/// A sealed chunk ready to ship to the DIESEL server.
///
/// `bytes` is already the payload plane's shared
/// [`Bytes`](diesel_util::Bytes) currency: shipping, storing and
/// caching the chunk from here on are refcount bumps on this one
/// allocation.
#[derive(Debug, Clone)]
pub struct SealedChunk {
    /// Decoded header (also embedded at the front of `bytes`).
    pub header: ChunkHeader,
    /// Full chunk bytes (`header ‖ payload`).
    pub bytes: diesel_util::Bytes,
}

/// Streams files into a sequence of chunks.
///
/// This is what `libDIESEL`/`DLCMD` run client-side during the write flow
/// (Fig. 3): files are buffered locally and flushed as ≥ 4 MB chunks.
pub struct ChunkWriter<'a> {
    config: ChunkBuilderConfig,
    ids: &'a ChunkIdGenerator,
    clock_ms: Box<dyn Fn() -> u64 + Send + 'a>,
    current: ChunkBuilder,
    sealed: Vec<SealedChunk>,
}

impl<'a> std::fmt::Debug for ChunkWriter<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkWriter")
            .field("config", &self.config)
            .field("pending_files", &self.current.file_count())
            .field("sealed", &self.sealed.len())
            .finish()
    }
}

impl<'a> ChunkWriter<'a> {
    /// A writer minting IDs from `ids`, stamping chunks with wall-clock ms
    /// read from a [`diesel_util::SystemClock`].
    pub fn new(config: ChunkBuilderConfig, ids: &'a ChunkIdGenerator) -> Self {
        let clock = diesel_util::SystemClock::new();
        Self::with_clock_fn(config, ids, move || clock.epoch_ms())
    }

    /// A writer stamping chunks from an explicit timestamp source (the
    /// determinism seam): pass a closure over a shared
    /// [`Clock`] so rebuilt datasets carry identical
    /// timestamps.
    pub fn with_clock_fn(
        config: ChunkBuilderConfig,
        ids: &'a ChunkIdGenerator,
        clock_ms: impl Fn() -> u64 + Send + 'a,
    ) -> Self {
        ChunkWriter {
            config: config.clone(),
            ids,
            clock_ms: Box::new(clock_ms),
            current: ChunkBuilder::new(config),
            sealed: Vec::new(),
        }
    }

    /// Replace the timestamp source (deterministic tests / simulations).
    pub fn with_clock(mut self, clock_ms: impl Fn() -> u64 + Send + 'a) -> Self {
        self.clock_ms = Box::new(clock_ms);
        self
    }

    /// Add a file; seals and starts a new chunk when the current one is full.
    pub fn add_file(&mut self, name: &str, data: &[u8]) -> Result<()> {
        self.current.check_file(name, data.len())?;
        if self.current.would_overflow(name.len(), data.len()) {
            self.seal_current();
        }
        self.current.add_file(name, data)?;
        Ok(())
    }

    fn seal_current(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let builder = std::mem::replace(&mut self.current, ChunkBuilder::new(self.config.clone()));
        let (header, bytes) = builder.seal(self.ids.next_id(), (self.clock_ms)());
        self.sealed.push(SealedChunk { header, bytes: bytes.into() });
    }

    /// Seal any partial chunk and return all sealed chunks
    /// (the `DL_flush` operation).
    pub fn finish(mut self) -> Vec<SealedChunk> {
        self.seal_current();
        self.sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ChunkView;

    fn gen() -> ChunkIdGenerator {
        ChunkIdGenerator::deterministic(1, 1, 1000)
    }

    #[test]
    fn single_chunk_roundtrip() {
        let mut b = ChunkBuilder::with_default_config();
        b.add_file("x/a", b"hello").unwrap();
        b.add_file("x/b", b"world!").unwrap();
        let ids = gen();
        let (header, bytes) = b.seal(ids.next_id(), 777);
        assert_eq!(header.updated_ms, 777);
        assert_eq!(header.file_count(), 2);
        let v = ChunkView::parse(bytes.into()).unwrap();
        assert_eq!(v.read_file("x/a").unwrap(), b"hello"[..]);
        assert_eq!(v.read_file("x/b").unwrap(), b"world!"[..]);
    }

    #[test]
    fn writer_splits_at_target_size() {
        let ids = gen();
        let cfg = ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() };
        let mut w = ChunkWriter::new(cfg, &ids).with_clock(|| 1);
        let data = vec![0xabu8; 1000];
        for i in 0..20 {
            w.add_file(&format!("f{i:03}"), &data).unwrap();
        }
        let chunks = w.finish();
        assert!(chunks.len() > 1, "20 KB of files must not fit one 4 KB chunk");
        let total_files: usize = chunks.iter().map(|c| c.header.file_count()).sum();
        assert_eq!(total_files, 20);
        for c in &chunks {
            assert!(c.bytes.len() <= 4096 + 1100, "chunk {} too big", c.bytes.len());
            // Chunks must be independently parseable (self-contained).
            ChunkView::parse(c.bytes.clone()).unwrap();
        }
        // IDs must be strictly increasing (sortable write order).
        for w in chunks.windows(2) {
            assert!(w[0].header.id < w[1].header.id);
        }
    }

    #[test]
    fn oversized_file_gets_own_chunk() {
        let ids = gen();
        let cfg = ChunkBuilderConfig { target_chunk_size: 1024, ..Default::default() };
        let mut w = ChunkWriter::new(cfg, &ids).with_clock(|| 1);
        w.add_file("small", b"abc").unwrap();
        w.add_file("big", &[7u8; 10_000]).unwrap();
        w.add_file("small2", b"xyz").unwrap();
        let chunks = w.finish();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[1].header.files[0].name, "big");
        assert_eq!(chunks[1].header.payload_len, 10_000);
    }

    #[test]
    fn file_too_large_is_rejected() {
        let cfg = ChunkBuilderConfig { target_chunk_size: 1024, max_file_size: 100 };
        let mut b = ChunkBuilder::new(cfg);
        let err = b.add_file("f", &[0u8; 101]).unwrap_err();
        assert!(matches!(err, ChunkError::FileTooLarge { size: 101, max: 100 }));
    }

    #[test]
    fn overlong_name_is_rejected_before_buffering() {
        let mut b = ChunkBuilder::with_default_config();
        b.add_file("ok", b"1").unwrap();
        let long = "n".repeat(MAX_NAME_LEN + 1);
        let err = b.add_file(&long, b"data").unwrap_err();
        assert_eq!(err, ChunkError::NameTooLong { len: MAX_NAME_LEN + 1, max: MAX_NAME_LEN });
        assert_eq!((b.file_count(), b.payload_len()), (1, 1));
        // The longest legal name still round-trips through the header.
        let longest = "m".repeat(MAX_NAME_LEN);
        b.add_file(&longest, b"x").unwrap();
        let (_, bytes) = b.seal(gen().next_id(), 0);
        let v = ChunkView::parse(bytes.into()).unwrap();
        assert_eq!(v.read_file(&longest).unwrap(), b"x"[..]);
    }

    #[test]
    fn seal_builds_the_chunk_in_the_reserved_allocation() {
        let cfg = ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() };
        let mut b = ChunkBuilder::new(cfg);
        b.add_file("a", &[1u8; 100]).unwrap();
        b.add_file("b", &[2u8; 200]).unwrap();
        let (header, bytes) = b.seal(gen().next_id(), 0);
        assert_eq!(bytes.len(), header.chunk_len());
        assert_eq!(bytes.capacity(), 4096, "sealing must not reallocate");
    }

    /// The sealed bytes of fixed inputs, pinned by length and CRC-32:
    /// any change to the chunk format or to how a chunk is built fails
    /// here. Covers a zero-length file and a file larger than the target.
    #[test]
    fn sealed_chunk_bytes_are_pinned() {
        let cfg = ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() };
        let mut b = ChunkBuilder::new(cfg);
        b.add_file("train/cat/001.jpg", b"meow").unwrap();
        b.add_file("train/empty", b"").unwrap();
        let big: Vec<u8> =
            (0..10_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        b.add_file("train/dog/big.bin", &big).unwrap();
        b.add_file("val/z.txt", b"tail").unwrap();
        let ids = ChunkIdGenerator::deterministic(7, 3, 1_600_000_000);
        let (_, bytes) = b.seal(ids.next_id(), 1_600_000_000_123);
        assert_eq!((bytes.len(), crc32(&bytes)), (10_212, 0xecb5_fcc3));
        let v = ChunkView::parse(bytes.into()).unwrap();
        assert_eq!(v.verify_all(), Vec::<String>::new());
    }

    #[test]
    fn empty_writer_produces_no_chunks() {
        let ids = gen();
        let w = ChunkWriter::new(Default::default(), &ids);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn same_mock_clock_builds_identical_chunk_ids() {
        // §4.1.2: recovery scans order chunks by the timestamp embedded
        // in the ID, so a rebuild driven by the same clock must
        // reproduce IDs — and therefore whole chunks — bit for bit.
        let build = || {
            let clock = std::sync::Arc::new(diesel_util::MockClock::at_epoch_ms(1_600_000_000_000));
            let ids = ChunkIdGenerator::with_clock(
                crate::id::MachineId::from_seed(7),
                4242,
                clock.clone(),
            );
            let cfg = ChunkBuilderConfig { target_chunk_size: 2048, ..Default::default() };
            let mut w = ChunkWriter::with_clock_fn(cfg, &ids, move || clock.epoch_ms());
            for i in 0..10u8 {
                let data = vec![i; 700];
                w.add_file(&format!("f{i}"), &data).unwrap();
            }
            w.finish()
        };
        let (a, b) = (build(), build());
        assert!(a.len() >= 3, "several chunks sealed: {}", a.len());
        let ids_a: Vec<ChunkId> = a.iter().map(|c| c.header.id).collect();
        let ids_b: Vec<ChunkId> = b.iter().map(|c| c.header.id).collect();
        assert_eq!(ids_a, ids_b, "chunk IDs must be reproducible");
        let bytes_a: Vec<&[u8]> = a.iter().map(|c| c.bytes.as_slice()).collect();
        let bytes_b: Vec<&[u8]> = b.iter().map(|c| c.bytes.as_slice()).collect();
        assert_eq!(bytes_a, bytes_b, "entire chunks must be byte-identical");
    }

    #[test]
    fn zero_length_files_are_supported() {
        let mut b = ChunkBuilder::with_default_config();
        b.add_file("empty", b"").unwrap();
        b.add_file("after", b"data").unwrap();
        let ids = gen();
        let (_, bytes) = b.seal(ids.next_id(), 0);
        let v = ChunkView::parse(bytes.into()).unwrap();
        assert_eq!(v.read_file("empty").unwrap(), b""[..]);
        assert_eq!(v.read_file("after").unwrap(), b"data"[..]);
    }
}
