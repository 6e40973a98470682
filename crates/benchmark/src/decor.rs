//! Benchmark-owned decorators: every layer is measured from outside,
//! through the public traits it already implements.
//!
//! * [`MeteredStore`] wraps an [`ObjectStore`]: operation and byte
//!   counts always; wall time and a `store.*` span per call on a traced
//!   rig; and, when switched on, the modelled device delay the
//!   `constrained_loader` workload needs (off during set-up).
//! * [`MeteredKv`] wraps a [`KvStore`] the same way.
//! * [`MeteredConn`] wraps a server channel: calls and channel-inclusive
//!   time, with chunk ingests kept apart.
//!
//! Counting is two relaxed atomic adds per call and is always on, so
//! count metrics come from untraced phases. Timing costs two clock
//! reads per call and is only on for a traced rig.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use diesel_core::{ServerReply, ServerRequest};
use diesel_kv::KvStore;
use diesel_net::{Endpoint, Service};
use diesel_obs::{trace, RegistrySnapshot};
use diesel_store::{Bytes, DeviceModel, ObjectStore};
use diesel_util::Clock;

/// Switches shared by every decorator of one rig.
pub struct Ctl {
    /// The clock all timings (and the tracer) read.
    pub clock: Arc<dyn Clock>,
    /// Time each call (traced rigs only; fixed at construction).
    pub timed: bool,
    /// Emit a span per call while a tracer is ambient.
    pub spans: AtomicBool,
    /// Spend the store's modelled device time.
    pub delay: AtomicBool,
}

impl Ctl {
    /// Switches for one rig; spans and delay start off.
    pub fn new(clock: Arc<dyn Clock>, timed: bool) -> Arc<Self> {
        Arc::new(Ctl { clock, timed, spans: AtomicBool::new(false), delay: AtomicBool::new(false) })
    }

    /// Run `call`, counting it (and `bytes_of` its result) into `meter`;
    /// on a timed rig also time it and wrap it in a span named `span`.
    fn observe<T>(
        &self,
        meter: &Meter,
        span: &str,
        call: impl FnOnce() -> T,
        bytes_of: impl FnOnce(&T) -> u64,
    ) -> T {
        if !self.timed {
            let out = call();
            meter.add(bytes_of(&out), 0);
            return out;
        }
        let _span = if self.spans.load(Relaxed) && trace::active() {
            trace::span(span, &[])
        } else {
            trace::SpanGuard::default()
        };
        let t0 = self.clock.now_ns();
        let out = call();
        meter.add(bytes_of(&out), self.clock.now_ns().saturating_sub(t0));
        out
    }
}

/// Calls, bytes and nanoseconds of one kind of operation.
#[derive(Debug, Default)]
pub struct Meter {
    ops: AtomicU64,
    bytes: AtomicU64,
    ns: AtomicU64,
}

/// A point-in-time reading of a [`Meter`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MeterSnap {
    /// Calls made.
    pub ops: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Nanoseconds spent (0 on an untimed rig).
    pub ns: u64,
}

impl Meter {
    fn add(&self, bytes: u64, ns: u64) {
        self.ops.fetch_add(1, Relaxed);
        self.bytes.fetch_add(bytes, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
    }

    /// The current reading.
    pub fn snap(&self) -> MeterSnap {
        MeterSnap {
            ops: self.ops.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            ns: self.ns.load(Relaxed),
        }
    }
}

impl std::ops::Sub for MeterSnap {
    type Output = MeterSnap;
    fn sub(self, before: MeterSnap) -> MeterSnap {
        MeterSnap {
            ops: self.ops - before.ops,
            bytes: self.bytes - before.bytes,
            ns: self.ns - before.ns,
        }
    }
}

/// An [`ObjectStore`] that counts, optionally times, and optionally
/// delays every data-moving call.
pub struct MeteredStore<S> {
    inner: Arc<S>,
    ctl: Arc<Ctl>,
    device: Option<DeviceModel>,
    /// Whole-object reads.
    pub gets: Meter,
    /// Ranged reads.
    pub ranges: Meter,
    /// Writes.
    pub puts: Meter,
}

impl<S: ObjectStore> MeteredStore<S> {
    /// Wrap `inner`; with a `device`, calls sleep its service time
    /// while [`Ctl::delay`] is on.
    pub fn new(inner: Arc<S>, ctl: Arc<Ctl>, device: Option<DeviceModel>) -> Self {
        MeteredStore {
            inner,
            ctl,
            device,
            gets: Meter::default(),
            ranges: Meter::default(),
            puts: Meter::default(),
        }
    }

    fn charge(&self, bytes: u64) {
        if let Some(device) = &self.device {
            if self.ctl.delay.load(Relaxed) {
                self.ctl.clock.sleep_ns(device.service_time(bytes).as_nanos());
            }
        }
    }
}

fn result_len<E>(r: &Result<Bytes, E>) -> u64 {
    r.as_ref().map_or(0, |b| b.len() as u64)
}

impl<S: ObjectStore> ObjectStore for MeteredStore<S> {
    fn put(&self, key: &str, value: Bytes) -> diesel_store::Result<()> {
        let len = value.len() as u64;
        self.ctl.observe(
            &self.puts,
            "store.put",
            || {
                self.charge(len);
                self.inner.put(key, value)
            },
            |_| len,
        )
    }

    fn get(&self, key: &str) -> diesel_store::Result<Bytes> {
        self.ctl.observe(
            &self.gets,
            "store.get",
            || {
                let data = self.inner.get(key)?;
                self.charge(data.len() as u64);
                Ok(data)
            },
            result_len,
        )
    }

    fn get_range(&self, key: &str, offset: u64, len: usize) -> diesel_store::Result<Bytes> {
        self.ctl.observe(
            &self.ranges,
            "store.get_range",
            || {
                let data = self.inner.get_range(key, offset, len)?;
                self.charge(data.len() as u64);
                Ok(data)
            },
            result_len,
        )
    }

    fn delete(&self, key: &str) -> diesel_store::Result<bool> {
        self.inner.delete(key)
    }

    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }

    fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.inner.list_prefix(prefix)
    }

    fn size_of(&self, key: &str) -> Option<usize> {
        self.inner.size_of(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn obs_snapshot(&self) -> Option<RegistrySnapshot> {
        self.inner.obs_snapshot()
    }
}

/// A [`KvStore`] that counts and optionally times every call. Batched
/// calls count one operation per key.
pub struct MeteredKv<K> {
    inner: Arc<K>,
    ctl: Arc<Ctl>,
    /// Point and batched reads.
    pub gets: Meter,
    /// Writes (`put`, `mput`, `update`).
    pub puts: Meter,
}

impl<K: KvStore> MeteredKv<K> {
    /// Wrap `inner`.
    pub fn new(inner: Arc<K>, ctl: Arc<Ctl>) -> Self {
        MeteredKv { inner, ctl, gets: Meter::default(), puts: Meter::default() }
    }
}

impl<K: KvStore> KvStore for MeteredKv<K> {
    fn get(&self, key: &str) -> diesel_kv::Result<Option<Bytes>> {
        self.ctl.observe(&self.gets, "kv.get", || self.inner.get(key), |_| 0)
    }

    fn put(&self, key: &str, value: Bytes) -> diesel_kv::Result<()> {
        self.ctl.observe(&self.puts, "kv.put", || self.inner.put(key, value), |_| 0)
    }

    fn delete(&self, key: &str) -> diesel_kv::Result<bool> {
        self.inner.delete(key)
    }

    fn mget(&self, keys: &[&str]) -> diesel_kv::Result<Vec<Option<Bytes>>> {
        let out = self.ctl.observe(&self.gets, "kv.mget", || self.inner.mget(keys), |_| 0);
        self.gets.ops.fetch_add(keys.len().saturating_sub(1) as u64, Relaxed);
        out
    }

    fn mput(&self, pairs: Vec<(String, Bytes)>) -> diesel_kv::Result<()> {
        let extra = pairs.len().saturating_sub(1) as u64;
        let out = self.ctl.observe(&self.puts, "kv.mput", || self.inner.mput(pairs), |_| 0);
        self.puts.ops.fetch_add(extra, Relaxed);
        out
    }

    fn update(
        &self,
        key: &str,
        f: &mut dyn FnMut(Option<Bytes>) -> Option<Bytes>,
    ) -> diesel_kv::Result<()> {
        self.ctl.observe(&self.puts, "kv.update", || self.inner.update(key, f), |_| 0)
    }

    fn pscan(&self, prefix: &str) -> diesel_kv::Result<Vec<(String, Bytes)>> {
        self.inner.pscan(prefix)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn obs_snapshot(&self) -> Option<RegistrySnapshot> {
        self.inner.obs_snapshot()
    }
}

/// Calls through a server channel (or into a server handler), with
/// chunk ingests kept apart from everything else.
#[derive(Debug, Default)]
pub struct ConnMeter {
    /// Every request.
    pub all: Meter,
    /// `IngestChunk` requests only.
    pub ingest: Meter,
}

impl ConnMeter {
    /// Run `call` on `req`, metering it; `ctl` decides whether it is
    /// timed. Used both around a channel (channel-inclusive time) and
    /// inside a `ThreadServer` handler closure (handler-inclusive time).
    pub fn observe<T>(
        &self,
        ctl: &Ctl,
        req: ServerRequest,
        call: impl FnOnce(ServerRequest) -> T,
    ) -> T {
        let ingest = matches!(req, ServerRequest::IngestChunk { .. });
        let t0 = if ctl.timed { ctl.clock.now_ns() } else { 0 };
        let out = call(req);
        let ns = if ctl.timed { ctl.clock.now_ns().saturating_sub(t0) } else { 0 };
        self.all.add(0, ns);
        if ingest {
            self.ingest.add(0, ns);
        }
        out
    }
}

/// A server channel that meters every call into a [`ConnMeter`].
pub struct MeteredConn<S> {
    inner: S,
    ctl: Arc<Ctl>,
    meter: Arc<ConnMeter>,
}

impl<S> MeteredConn<S> {
    /// Wrap `inner`, feeding `meter`.
    pub fn new(inner: S, ctl: Arc<Ctl>, meter: Arc<ConnMeter>) -> Self {
        MeteredConn { inner, ctl, meter }
    }
}

impl<S: Service<ServerRequest, ServerReply>> Service<ServerRequest, ServerReply>
    for MeteredConn<S>
{
    fn call(&self, req: ServerRequest) -> diesel_net::Result<ServerReply> {
        self.meter.observe(&self.ctl, req, |req| self.inner.call(req))
    }

    fn endpoint(&self) -> Endpoint {
        self.inner.endpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_kv::ShardedKv;
    use diesel_store::MemObjectStore;
    use diesel_util::MockClock;

    #[test]
    fn store_decorator_counts_always_and_delays_only_when_switched_on() {
        let clock = Arc::new(MockClock::new());
        let ctl = Ctl::new(clock.clone(), true);
        let store = MeteredStore::new(
            Arc::new(MemObjectStore::new()),
            ctl.clone(),
            Some(DeviceModel::hdd_array()),
        );
        store.put("k", Bytes::from(vec![1u8; 1000])).unwrap();
        assert_eq!(clock.now_ns(), 0, "delay is off during set-up");
        ctl.delay.store(true, Relaxed);
        assert_eq!(store.get("k").unwrap().len(), 1000);
        assert_eq!(store.get_range("k", 10, 20).unwrap().len(), 20);
        let device = DeviceModel::hdd_array();
        let modelled = device.service_time(1000).as_nanos() + device.service_time(20).as_nanos();
        assert_eq!(clock.now_ns(), modelled);
        assert_eq!(store.puts.snap(), MeterSnap { ops: 1, bytes: 1000, ns: 0 });
        assert_eq!(store.gets.snap().bytes, 1000);
        assert_eq!(
            store.ranges.snap(),
            MeterSnap { ops: 1, bytes: 20, ns: device.service_time(20).as_nanos() }
        );
    }

    #[test]
    fn kv_decorator_counts_one_operation_per_key() {
        let ctl = Ctl::new(Arc::new(MockClock::new()), false);
        let kv = MeteredKv::new(Arc::new(ShardedKv::new()), ctl);
        kv.mput(vec![("a".into(), vec![1].into()), ("b".into(), vec![2].into())]).unwrap();
        kv.put("c", vec![3].into()).unwrap();
        assert_eq!(kv.mget(&["a", "b", "zz"]).unwrap().iter().flatten().count(), 2);
        assert!(kv.get("c").unwrap().is_some());
        assert_eq!(kv.puts.snap().ops, 3);
        assert_eq!(kv.gets.snap().ops, 4);
    }
}
