//! Seeded dataset generation and byte verification.
//!
//! Every file is a `diesel_train::Sample` on the wire
//! (`label u16 ‖ dim × f32`), so [`DataLoader`](diesel_train::DataLoader)
//! can decode it, and every byte is a cheap function of `(seed, index)`,
//! so the reader can check what it was handed without keeping a copy:
//!
//! ```text
//! bytes 0..2   label        = mix(seed, index) % 1000        (u16 LE)
//! word  0      index                                         (u32 LE)
//! words 1..    xorshift64 stream seeded by mix(seed, index), exponent bit 30 cleared
//! ```
//!
//! Clearing bit 30 keeps every word a finite `f32`, so the payload
//! survives the loader's `f32` round trip bit for bit. A file's
//! *checksum* is the wrapping sum of its words; the index in word 0
//! makes two different files differ in checksum even when a bug swaps
//! them.

/// Files per batch, everywhere in the benchmark.
pub const BATCH: usize = 64;

/// SplitMix64 finalizer: decorrelates `(seed, index)` pairs.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z =
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cheap PRNG behind file bytes and file sizes.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Every payload word is a finite `f32`: exponent bit 30 is cleared.
const FINITE: u32 = !(1 << 30);

/// What the verifier knows about one generated file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSpec {
    /// Dataset-relative path, image-folder style.
    pub path: String,
    /// Total length in bytes (`2 + 4 × words`).
    pub len: u32,
    /// The `Sample` label in the first two bytes.
    pub label: u16,
    /// Wrapping sum of the payload words.
    pub sum: u64,
}

/// How file sizes are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizes {
    /// Every file has exactly this many bytes.
    Fixed(u32),
    /// Log-uniform in `[lo, hi]` bytes (the Table 2 / Fig. 9 regime).
    /// The sizes are the distribution's evenly spaced quantiles and the
    /// seed only decides which file gets which, so every seed yields
    /// the same total bytes and the same mean file size.
    LogUniform(u32, u32),
}

/// A generated dataset: the specs the verifier checks against. The
/// bytes themselves are regenerated on demand by [`Dataset::fill`].
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The seed every byte derives from.
    pub seed: u64,
    /// One spec per file, by index.
    pub files: Vec<FileSpec>,
}

/// Round a byte length to the `Sample` wire shape `2 + 4k`, `k ≥ 1`.
fn sample_len(bytes: u32) -> u32 {
    2 + 4 * (bytes.saturating_sub(2) / 4).max(1)
}

/// The path of file `index` with label `label`.
pub fn file_path(label: u16, index: usize) -> String {
    format!("train/c{label:03}/f{index:07}.bin")
}

/// Recover the file index from a path made by [`file_path`].
pub fn index_of(path: &str) -> Option<usize> {
    let digits = path.strip_suffix(".bin")?;
    digits.get(digits.len().checked_sub(7)?..)?.parse().ok()
}

impl Dataset {
    /// Generate the specs of `count` files; `salt` separates datasets
    /// that share a seed.
    pub fn generate(seed: u64, salt: u64, count: usize, sizes: Sizes) -> Self {
        let seed = mix(seed, salt);
        let mut lens: Vec<u32> = (0..count)
            .map(|k| match sizes {
                Sizes::Fixed(n) => sample_len(n),
                Sizes::LogUniform(lo, hi) => {
                    let (lo, hi) = (f64::from(lo).ln(), f64::from(hi).ln());
                    sample_len((lo + (hi - lo) * (k as f64 + 0.5) / count as f64).exp() as u32)
                }
            })
            .collect();
        // Fisher–Yates: the seed permutes the fixed multiset of sizes.
        let mut rng = XorShift::new(mix(seed, u64::MAX));
        for i in (1..count).rev() {
            lens.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let mut scratch = Vec::new();
        let files = lens
            .into_iter()
            .enumerate()
            .map(|(index, len)| {
                let label = (mix(seed, index as u64) % 1000) as u16;
                let sum = fill_bytes(seed, index, label, len, &mut scratch);
                FileSpec { path: file_path(label, index), len, label, sum }
            })
            .collect();
        Dataset { seed, files }
    }

    /// Write file `index`'s bytes into `out` (cleared first).
    pub fn fill(&self, index: usize, out: &mut Vec<u8>) {
        let spec = &self.files[index];
        fill_bytes(self.seed, index, spec.label, spec.len, out);
    }

    /// Check one delivered file against its spec.
    pub fn check(&self, index: usize, data: &[u8]) -> bool {
        let Some(spec) = self.files.get(index) else { return false };
        data.len() == spec.len as usize
            && data[..2] == spec.label.to_le_bytes()
            && checksum(&data[2..]) == spec.sum
    }

    /// Check one row of a decoded loader batch (the label travels
    /// beside the features; word 0 of the features names the file).
    /// Returns the file's index when the row is intact.
    pub fn check_row(&self, label: usize, features: &[f32]) -> Option<usize> {
        let index = features.first()?.to_bits() as usize;
        let spec = self.files.get(index)?;
        let sum = features.iter().fold(0u64, |s, f| s.wrapping_add(u64::from(f.to_bits())));
        (spec.len as usize == 2 + 4 * features.len()
            && label == usize::from(spec.label)
            && sum == spec.sum)
            .then_some(index)
    }
}

/// Generate one file's bytes into `out`; returns the checksum.
fn fill_bytes(seed: u64, index: usize, label: u16, len: u32, out: &mut Vec<u8>) -> u64 {
    out.clear();
    out.reserve(len as usize);
    out.extend_from_slice(&label.to_le_bytes());
    let words = (len as usize - 2) / 4;
    let first = index as u32;
    out.extend_from_slice(&first.to_le_bytes());
    let mut sum = u64::from(first);
    let mut rng = XorShift::new(mix(seed ^ 0xF11E, index as u64));
    let mut left = words - 1;
    while left >= 2 {
        let x = rng.next();
        let (a, b) = (x as u32 & FINITE, (x >> 32) as u32 & FINITE);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        sum = sum.wrapping_add(u64::from(a)).wrapping_add(u64::from(b));
        left -= 2;
    }
    if left == 1 {
        let a = rng.next() as u32 & FINITE;
        out.extend_from_slice(&a.to_le_bytes());
        sum = sum.wrapping_add(u64::from(a));
    }
    sum
}

/// Wrapping sum of the little-endian `u32` words of `payload`.
pub fn checksum(payload: &[u8]) -> u64 {
    payload
        .chunks_exact(4)
        .fold(0u64, |s, w| s.wrapping_add(u64::from(u32::from_le_bytes([w[0], w[1], w[2], w[3]]))))
}

/// Per-epoch "every file exactly once" check.
#[derive(Debug)]
pub struct Seen {
    bits: Vec<u64>,
    count: usize,
    duplicates: u64,
}

impl Seen {
    /// An empty set over `files` indices.
    pub fn new(files: usize) -> Self {
        Seen { bits: vec![0; files.div_ceil(64)], count: 0, duplicates: 0 }
    }

    /// Record that `index` was delivered.
    pub fn mark(&mut self, index: usize) {
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.count += 1;
        } else {
            self.duplicates += 1;
        }
    }

    /// Files delivered twice plus files never delivered, out of
    /// `files`; resets the set for the next epoch.
    pub fn finish_epoch(&mut self, files: usize) -> u64 {
        let wrong = self.duplicates + (files - self.count) as u64;
        self.bits.fill(0);
        self.count = 0;
        self.duplicates = 0;
        wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_train::Sample;

    #[test]
    fn same_seed_same_dataset_other_seed_other_dataset() {
        let sizes = Sizes::LogUniform(4096, 131_072);
        let a = Dataset::generate(11, 1, 200, sizes);
        let b = Dataset::generate(11, 1, 200, sizes);
        let c = Dataset::generate(12, 1, 200, sizes);
        assert_eq!(a.files, b.files);
        assert_ne!(a.files, c.files);
        let total = |d: &Dataset| d.files.iter().map(|f| u64::from(f.len)).sum::<u64>();
        assert_eq!(total(&a), total(&c), "the seed permutes sizes, it does not redraw them");
        let (mut x, mut y, mut z) = (Vec::new(), Vec::new(), Vec::new());
        for i in [0, 7, 199] {
            a.fill(i, &mut x);
            b.fill(i, &mut y);
            c.fill(i, &mut z);
            assert_eq!(x, y, "file {i} must be byte-identical for one seed");
            assert_ne!(x, z, "file {i} must differ across seeds");
        }
    }

    #[test]
    fn sizes_follow_the_requested_distribution() {
        let fixed = Dataset::generate(3, 0, 50, Sizes::Fixed(4094));
        assert!(fixed.files.iter().all(|f| f.len == 4094));
        let mixed = Dataset::generate(3, 1, 4000, Sizes::LogUniform(4096, 131_072));
        assert!(mixed.files.iter().all(|f| (4094..=131_072).contains(&f.len) && f.len % 4 == 2));
        // Log-uniform: about half the files sit below the geometric mean.
        let below = mixed.files.iter().filter(|f| f.len < 23_170).count();
        assert!((1700..2300).contains(&below), "{below} of 4000 below the geometric mean");
    }

    #[test]
    fn generated_bytes_verify_decode_and_detect_a_bit_flip() {
        let ds = Dataset::generate(5, 2, 20, Sizes::Fixed(4094));
        let mut buf = Vec::new();
        ds.fill(9, &mut buf);
        assert!(ds.check(9, &buf));
        assert!(!ds.check(8, &buf), "word 0 pins the bytes to their index");
        // The loader's view: decode to f32 features and check the row.
        let sample = Sample::decode(&buf).expect("wire format");
        assert_eq!(ds.check_row(sample.label, &sample.features), Some(9));
        assert!(sample.features.iter().all(|f| f.is_finite()));
        for bit in [0usize, 17, 8 * 2000 + 3, 8 * 4093 + 7] {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(!ds.check(9, &bad), "flip of bit {bit} must be caught");
        }
        assert!(!ds.check(9, &buf[..buf.len() - 4]), "truncation must be caught");
    }

    #[test]
    fn paths_round_trip_to_indices() {
        assert_eq!(index_of(&file_path(42, 1234)), Some(1234));
        assert_eq!(index_of("train/x.bin"), None);
    }

    #[test]
    fn seen_counts_missing_and_duplicate_files() {
        let mut seen = Seen::new(100);
        (0..100).for_each(|i| seen.mark(i));
        assert_eq!(seen.finish_epoch(100), 0);
        (0..99).for_each(|i| seen.mark(i));
        seen.mark(5);
        assert_eq!(seen.finish_epoch(100), 2, "one duplicate, one missing");
    }
}
