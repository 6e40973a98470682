//! Analytic storage device cost models, calibrated against the paper's
//! Table 2.
//!
//! Table 2 measures an SSD-based storage cluster: 1 KB files read at
//! ~34 k files/s (33.5 MB/s) while 4 MB reads sustain ~3.2 GB/s. The
//! two-parameter model `t(S) = overhead + S / bandwidth` reproduces the
//! whole table within ~15 % (most rows within 5 %) — small reads are
//! overhead-bound, large reads bandwidth-bound, which is exactly the
//! asymmetry DIESEL's chunk design exploits. The Table 2 experiment
//! binary prints the fit against the paper's rows.

use diesel_simnet::SimTime;

/// An analytic model of one storage device/cluster front.
#[derive(Debug, Clone)]
pub struct DeviceModel {
    /// Human-readable device name for reports.
    pub name: &'static str,
    /// Fixed per-request service overhead (seek + request processing).
    pub per_request_overhead: SimTime,
    /// Streaming bandwidth in bytes/second.
    pub bytes_per_sec: f64,
    /// Internal parallelism: how many requests the device services
    /// concurrently at full speed (queue pairs / spindles / OSTs).
    pub parallelism: usize,
}

impl DeviceModel {
    /// The paper's NVMe-SSD storage cluster (Table 2 fit):
    /// overhead ≈ 28 µs, bandwidth ≈ 3.3 GB/s.
    pub fn nvme_ssd_cluster() -> Self {
        DeviceModel {
            name: "nvme-ssd-cluster",
            per_request_overhead: SimTime::from_micros(28),
            bytes_per_sec: 3.35e9,
            parallelism: 1,
        }
    }

    /// An HDD-based tier (the "slower object-storage" of Fig. 4):
    /// seek-dominated small reads, modest streaming bandwidth.
    pub fn hdd_array() -> Self {
        DeviceModel {
            name: "hdd-array",
            per_request_overhead: SimTime::from_millis(6),
            bytes_per_sec: 400.0e6,
            parallelism: 4,
        }
    }

    /// Service time for one request of `bytes`.
    pub fn service_time(&self, bytes: u64) -> SimTime {
        self.per_request_overhead + SimTime::for_bytes(bytes, self.bytes_per_sec)
    }

    /// Steady-state throughput in requests/second for uniform requests of
    /// `bytes` (the quantity Table 2 reports as Files/Second).
    pub fn files_per_sec(&self, bytes: u64) -> f64 {
        self.parallelism as f64 / self.service_time(bytes).as_secs_f64()
    }

    /// Steady-state bandwidth in MB/s for uniform requests of `bytes`.
    pub fn bandwidth_mb_per_sec(&self, bytes: u64) -> f64 {
        self.files_per_sec(bytes) * bytes as f64 / 1e6
    }

    /// Equivalent 4K-IOPS (Table 2's last column): files/s × (size / 4 KB).
    pub fn equivalent_4k_iops(&self, bytes: u64) -> f64 {
        self.files_per_sec(bytes) * bytes as f64 / 4096.0
    }
}

/// The rows of the paper's Table 2, for calibration tests and the
/// `table2` experiment binary: `(file size bytes, MB/s, files/s)`.
pub const TABLE2_PAPER_ROWS: [(u64, f64, f64); 7] = [
    (1 << 10, 33.54, 34353.45),
    (4 << 10, 128.28, 32841.47),
    (16 << 10, 464.44, 29724.48),
    (64 << 10, 1317.04, 21072.64),
    (256 << 10, 2725.93, 10903.72),
    (1 << 20, 3104.26, 3104.26),
    (4 << 20, 3197.68, 799.42),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_model_reproduces_table2_shape() {
        let m = DeviceModel::nvme_ssd_cluster();
        for (size, _mb, paper_files) in TABLE2_PAPER_ROWS {
            let ours = m.files_per_sec(size);
            let err = (ours - paper_files).abs() / paper_files;
            assert!(
                err < 0.20,
                "size {size}: model {ours:.0} vs paper {paper_files:.0} files/s ({:.0}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn large_reads_multiply_effective_iops() {
        // Table 2's headline: 4 MB reads deliver ~25× the equivalent
        // 4K-IOPS of 4 KB reads.
        let m = DeviceModel::nvme_ssd_cluster();
        let ratio = m.equivalent_4k_iops(4 << 20) / m.equivalent_4k_iops(4 << 10);
        assert!(ratio > 20.0 && ratio < 30.0, "ratio = {ratio:.1}");
    }

    #[test]
    fn bandwidth_monotone_in_size() {
        let m = DeviceModel::nvme_ssd_cluster();
        let mut prev = 0.0;
        for size in [1u64 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 20, 1 << 22] {
            let bw = m.bandwidth_mb_per_sec(size);
            assert!(bw > prev, "bandwidth must increase with request size");
            prev = bw;
        }
        // And saturates near the device limit.
        assert!(prev > 3000.0 && prev < 3350.0, "peak bw {prev:.0} MB/s");
    }

    #[test]
    fn hdd_much_slower_than_ssd_on_small_reads() {
        let ssd = DeviceModel::nvme_ssd_cluster();
        let hdd = DeviceModel::hdd_array();
        let ratio = ssd.files_per_sec(4096) / hdd.files_per_sec(4096);
        assert!(ratio > 20.0, "ssd/hdd small-read ratio = {ratio:.0}");
    }
}
