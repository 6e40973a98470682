//! Flight recorder: registry sampling into a bounded, delta-encoded
//! ring of frames.
//!
//! A [`Registry`] snapshot is a single frame — it can say *how many*
//! cache hits have ever happened, but not whether the hit rate cratered
//! for thirty seconds while a node recovered. The [`FlightRecorder`] closes
//! that gap: every [`tick`](FlightRecorder::tick) scrapes the registry
//! and appends one [`Frame`], keeping a bounded window of recent
//! history inside the process itself. Nothing in the tree ticks it on a
//! timer: `dlcmd top`/`slo` tick it around a read sweep and the simnet
//! telemetry replay ticks it on simulated time.
//!
//! # Frame format
//!
//! Frames are delta-encoded against the previous tick, so a steady
//! process records almost nothing:
//!
//! * **counters** — stored as the per-tick delta; zero deltas omitted.
//! * **gauges** — stored as the absolute value; unchanged gauges
//!   omitted (the latest value is always available from the baseline).
//! * **histograms** — stored as per-bucket count deltas (sparse
//!   `(bucket, +n)` pairs), so a window of frames sums back into an
//!   exact [`Histogram`] via [`Histogram::from_bucket_counts`].
//!
//! Memory is hard-capped twice over: at most [`RecorderConfig::max_frames`]
//! frames and at most [`RecorderConfig::max_bytes`] of estimated frame
//! payload; the oldest frames are evicted first. Everything is driven
//! by the registry's injected [`Clock`], so a recording produced under
//! `MockClock` is byte-identical across runs ([`FlightRecorder::encode`]
//! is the canonical serialization CI asserts on).
//!
//! # Window queries
//!
//! [`delta`](FlightRecorder::delta) / [`rate`](FlightRecorder::rate) /
//! [`percentile_over`](FlightRecorder::percentile_over) answer "over
//! the last W of recorder time" questions for any full metric id
//! (`name{k=v,…}`). Windows are anchored at the newest frame, so the
//! queries are deterministic functions of the recording alone.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use diesel_util::{Clock, Mutex};

use crate::histogram::{Histogram, NBUCKETS};
use crate::registry::Registry;

/// Default frame bound: 10 min of history at one tick per second.
pub const DEFAULT_MAX_FRAMES: usize = 600;
/// Default memory hard-cap on buffered frames (estimated payload).
pub const DEFAULT_MAX_BYTES: usize = 4 << 20;

/// Recorder tuning: retention caps.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Maximum frames retained (oldest evicted).
    pub max_frames: usize,
    /// Maximum estimated bytes across retained frames (oldest evicted).
    pub max_bytes: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig { max_frames: DEFAULT_MAX_FRAMES, max_bytes: DEFAULT_MAX_BYTES }
    }
}

/// One recorded tick: what changed since the previous tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Clock reading (`now_ns`) when the tick was sampled.
    pub t_ns: u64,
    /// Non-zero counter deltas, sorted by metric id.
    pub counters: Vec<(String, u64)>,
    /// Changed gauge values (absolute), sorted by metric id.
    pub gauges: Vec<(String, u64)>,
    /// Sparse histogram bucket deltas, sorted by metric id.
    pub hists: Vec<(String, Vec<(u32, u64)>)>,
    /// Estimated payload size used for the memory cap.
    bytes: usize,
}

impl Frame {
    fn estimate_bytes(&self) -> usize {
        let mut n = 24;
        for (id, _) in &self.counters {
            n += id.len() + 16;
        }
        for (id, _) in &self.gauges {
            n += id.len() + 16;
        }
        for (id, buckets) in &self.hists {
            n += id.len() + 16 + buckets.len() * 12;
        }
        n
    }
}

/// Absolute values as of the newest frame — the delta baseline.
struct Baseline {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Vec<u64>>,
}

struct Ring {
    frames: VecDeque<Frame>,
    base: Baseline,
    bytes: usize,
    evicted: u64,
}

/// The flight recorder. Cheap to share behind an `Arc`; one per
/// registry.
pub struct FlightRecorder {
    registry: Arc<Registry>,
    clock: Arc<dyn Clock>,
    cfg: RecorderConfig,
    frames: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder sampling `registry` on its own injected clock.
    pub fn new(registry: Arc<Registry>, cfg: RecorderConfig) -> Self {
        let clock = Arc::clone(registry.clock());
        FlightRecorder {
            registry,
            clock,
            cfg,
            frames: Mutex::named(
                "obs.recorder_frames",
                Ring {
                    frames: VecDeque::new(),
                    base: Baseline {
                        counters: BTreeMap::new(),
                        gauges: BTreeMap::new(),
                        hists: BTreeMap::new(),
                    },
                    bytes: 0,
                    evicted: 0,
                },
            ),
        }
    }

    /// Sample the registry once: append one delta frame and advance the
    /// baseline.
    pub fn tick(&self) {
        let t_ns = self.clock.now_ns();
        // Snapshot before touching the ring lock: snapshot() nests
        // gate → inner → events internally and must never sit inside
        // the recorder's own mutex.
        let snap = self.registry.snapshot();
        let mut ring = self.frames.lock();
        let mut frame =
            Frame { t_ns, counters: Vec::new(), gauges: Vec::new(), hists: Vec::new(), bytes: 0 };
        for (id, &v) in &snap.counters {
            let prev = ring.base.counters.get(id).copied().unwrap_or(0);
            let delta = v.saturating_sub(prev);
            if delta > 0 {
                frame.counters.push((id.clone(), delta));
            }
            ring.base.counters.insert(id.clone(), v);
        }
        for (id, &v) in &snap.gauges {
            if ring.base.gauges.get(id).copied() != Some(v) {
                frame.gauges.push((id.clone(), v));
                ring.base.gauges.insert(id.clone(), v);
            }
        }
        for (id, h) in &snap.histograms {
            let counts = h.bucket_counts();
            let deltas: Vec<(u32, u64)> = match ring.base.hists.get(id) {
                Some(prev) => counts
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &c)| {
                        let d = c.saturating_sub(prev.get(i).copied().unwrap_or(0));
                        (d > 0).then_some((i as u32, d))
                    })
                    .collect(),
                None => counts
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &c)| (c > 0).then_some((i as u32, c)))
                    .collect(),
            };
            if !deltas.is_empty() {
                frame.hists.push((id.clone(), deltas));
            }
            // diesel-lint: allow(R6) u64 bucket counts for delta baselines, not payload bytes
            ring.base.hists.insert(id.clone(), counts.to_vec());
        }
        frame.bytes = frame.estimate_bytes();
        ring.bytes += frame.bytes;
        ring.frames.push_back(frame);
        while ring.frames.len() > 1
            && (ring.frames.len() > self.cfg.max_frames || ring.bytes > self.cfg.max_bytes)
        {
            if let Some(old) = ring.frames.pop_front() {
                ring.bytes -= old.bytes;
                ring.evicted += 1;
            }
        }
    }

    /// Estimated bytes across retained frames.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.frames.lock().bytes
    }

    /// Clock reading of the newest frame (`None` before the first tick).
    pub fn latest_t_ns(&self) -> Option<u64> {
        self.frames.lock().frames.back().map(|f| f.t_ns)
    }

    /// Sum of a counter's deltas over the trailing `window_ns` of
    /// recorder time (anchored at the newest frame). `id` is the full
    /// metric id, e.g. `server.file_reads{dataset=imagenet}`.
    pub fn delta(&self, id: &str, window_ns: u64) -> u64 {
        let ring = self.frames.lock();
        let Some(end) = ring.frames.back().map(|f| f.t_ns) else {
            return 0;
        };
        let start = end.saturating_sub(window_ns);
        ring.frames
            .iter()
            .filter(|f| f.t_ns > start)
            .flat_map(|f| f.counters.iter())
            .filter(|(fid, _)| fid == id)
            .map(|(_, d)| d)
            .sum()
    }

    /// Per-second rate of a counter over the trailing window.
    pub fn rate(&self, id: &str, window_ns: u64) -> f64 {
        if window_ns == 0 {
            return 0.0;
        }
        self.delta(id, window_ns) as f64 * 1e9 / window_ns as f64
    }

    /// Exact histogram of the observations that landed in the trailing
    /// window (bucket deltas summed across frames).
    pub fn histogram_over(&self, id: &str, window_ns: u64) -> Histogram {
        let ring = self.frames.lock();
        let Some(end) = ring.frames.back().map(|f| f.t_ns) else {
            return Histogram::new();
        };
        let start = end.saturating_sub(window_ns);
        let mut counts = [0u64; NBUCKETS];
        for frame in ring.frames.iter().filter(|f| f.t_ns > start) {
            for (fid, deltas) in &frame.hists {
                if fid == id {
                    for &(bucket, d) in deltas {
                        if let Some(slot) = counts.get_mut(bucket as usize) {
                            *slot += d;
                        }
                    }
                }
            }
        }
        drop(ring);
        Histogram::from_bucket_counts(&counts)
    }

    /// Quantile (in nanoseconds) of a histogram series over the
    /// trailing window; 0 when no observation landed in it.
    pub fn percentile_over(&self, id: &str, q: f64, window_ns: u64) -> u64 {
        self.histogram_over(id, window_ns).quantile_ns(q)
    }

    /// Canonical text serialization of the retained frames — the byte
    /// string CI asserts is identical across identical `MockClock`
    /// runs. One `frame t_ns=…` header per tick, entries sorted by
    /// metric id within each section.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let ring = self.frames.lock();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "diesel-recorder v1 frames={} evicted={}",
            ring.frames.len(),
            ring.evicted
        );
        for frame in &ring.frames {
            let _ = writeln!(out, "frame t_ns={}", frame.t_ns);
            for (id, d) in &frame.counters {
                let _ = writeln!(out, "  c {id} +{d}");
            }
            for (id, v) in &frame.gauges {
                let _ = writeln!(out, "  g {id} ={v}");
            }
            for (id, deltas) in &frame.hists {
                let cells: Vec<String> = deltas.iter().map(|(b, d)| format!("{b}:+{d}")).collect();
                let _ = writeln!(out, "  h {id} {}", cells.join(","));
            }
        }
        out
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring = self.frames.lock();
        f.debug_struct("FlightRecorder")
            .field("frames", &ring.frames.len())
            .field("bytes", &ring.bytes)
            .field("evicted", &ring.evicted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_util::MockClock;

    fn recorder(cfg: RecorderConfig) -> (Arc<MockClock>, Arc<Registry>, FlightRecorder) {
        let clock = Arc::new(MockClock::new());
        let reg = Arc::new(Registry::new(clock.clone() as Arc<dyn Clock>));
        let rec = FlightRecorder::new(Arc::clone(&reg), cfg);
        (clock, reg, rec)
    }

    #[test]
    fn frames_are_delta_encoded_and_windows_query_back() {
        let (clock, reg, rec) = recorder(RecorderConfig::default());
        let reads = reg.counter("server.file_reads", &[("dataset", "a")]);
        let lat = reg.histogram("server.read_latency", &[("dataset", "a")]);
        let depth = reg.gauge("server.queue_depth", &[]);

        reads.add(5);
        lat.record_ns(1_000);
        depth.set(3);
        clock.advance(1_000_000_000);
        rec.tick();

        reads.add(7);
        lat.record_ns(1_000_000);
        clock.advance(1_000_000_000);
        rec.tick();

        // Unchanged gauge is omitted from the second frame.
        let text = rec.encode();
        assert_eq!(text.matches("g server.queue_depth =3").count(), 1, "{text}");
        assert!(text.starts_with("diesel-recorder v1 frames=2 evicted=0\n"), "{text}");

        // Window spanning both frames sums both deltas; a 1 s window
        // anchored at the newest frame sees only the second.
        let id = "server.file_reads{dataset=a}";
        assert_eq!(rec.delta(id, 3_000_000_000), 12);
        assert_eq!(rec.delta(id, 1_000_000_000), 7);
        assert!((rec.rate(id, 1_000_000_000) - 7.0).abs() < 1e-9);

        let hid = "server.read_latency{dataset=a}";
        let h = rec.histogram_over(hid, 3_000_000_000);
        assert_eq!(h.summary().count, 2);
        assert_eq!(rec.percentile_over(hid, 0.99, 1_000_000_000), 1_000_000);
    }

    #[test]
    fn caps_evict_oldest_frames() {
        let cfg = RecorderConfig { max_frames: 3, ..RecorderConfig::default() };
        let (clock, reg, rec) = recorder(cfg);
        let c = reg.counter("x.ops", &[]);
        for i in 0..5u64 {
            c.add(i + 1);
            clock.advance(1_000_000_000);
            rec.tick();
        }
        assert!(rec.encode().starts_with("diesel-recorder v1 frames=3 evicted=2\n"));
        // Only the last three deltas (3+4+5) remain queryable.
        assert_eq!(rec.delta("x.ops", u64::MAX), 12);

        let tight = RecorderConfig { max_bytes: 1024, ..RecorderConfig::default() };
        let (clock, reg, rec) = recorder(tight);
        for i in 0..64u64 {
            reg.counter("series.with.a.rather.long.metric.name", &[("n", &i.to_string())]).inc();
            clock.advance(1_000_000_000);
            rec.tick();
        }
        assert!(rec.bytes() <= 1024, "bytes={}", rec.bytes());
        assert!(!rec.encode().contains(" evicted=0\n"));
    }

    #[test]
    fn identical_mock_runs_encode_identically() {
        let run = || {
            let (clock, reg, rec) = recorder(RecorderConfig::default());
            for i in 1..=4u64 {
                reg.counter("kv.gets", &[("instance", "0")]).add(i);
                reg.histogram("kv.get_latency", &[]).record_ns(i * 500);
                reg.gauge("cache.bytes_resident", &[]).set(i * 4096);
                clock.advance(250_000_000);
                rec.tick();
            }
            rec.encode()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.starts_with("diesel-recorder v1 frames=4 evicted=0\n"), "{a}");
    }
}
