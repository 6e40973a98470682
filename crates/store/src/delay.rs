//! A latency-injecting [`ObjectStore`] wrapper.
//!
//! Every data-moving operation sleeps for the [`DeviceModel`] service
//! time on the store's [`Clock`] before returning. Two uses:
//!
//! * With [`SystemClock`](diesel_util::SystemClock), benchmarks see real
//!   wall-clock storage latency, so a pipelined read path's overlap of
//!   I/O and compute shows up as measured speedup (Fig. 10a in
//!   miniature).
//! * With [`MockClock`](diesel_util::MockClock), the same delays advance
//!   virtual time instantly, so tests can assert the *cost* of a read
//!   plan (how much device time it consumed) without waiting it out.

use std::sync::Arc;

use diesel_util::Clock;

use crate::{Bytes, DeviceModel, ObjectStore, Result};

/// An [`ObjectStore`] that delays each data-moving call by its modeled
/// service time. Metadata calls (`contains`, `list_prefix`, …) are free,
/// matching the paper's focus on data-path cost.
pub struct DelayedStore<S> {
    inner: Arc<S>,
    model: DeviceModel,
    clock: Arc<dyn Clock>,
}

impl<S: ObjectStore> DelayedStore<S> {
    /// Wrap `inner`, charging `model` service times against `clock`.
    pub fn new(inner: Arc<S>, model: DeviceModel, clock: Arc<dyn Clock>) -> Self {
        DelayedStore { inner, model, clock }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<S> {
        &self.inner
    }

    /// The device model driving the delays.
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    fn charge(&self, bytes: u64) {
        self.clock.sleep_ns(self.model.service_time(bytes).as_nanos());
    }
}

impl<S: ObjectStore> ObjectStore for DelayedStore<S> {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.charge(value.len() as u64);
        self.inner.put(key, value)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        let data = self.inner.get(key)?;
        self.charge(data.len() as u64);
        Ok(data)
    }

    fn get_range(&self, key: &str, offset: u64, len: usize) -> Result<Bytes> {
        let data = self.inner.get_range(key, offset, len)?;
        self.charge(data.len() as u64);
        Ok(data)
    }

    fn delete(&self, key: &str) -> Result<bool> {
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

    fn obs_snapshot(&self) -> Option<diesel_obs::RegistrySnapshot> {
        self.inner.obs_snapshot()
    }
}

impl<S> std::fmt::Debug for DelayedStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelayedStore").field("model", &self.model.name).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemObjectStore;
    use diesel_util::{MockClock, SystemClock};

    #[test]
    fn delays_scale_with_request_size_on_a_mock_clock() {
        let clock = Arc::new(MockClock::new());
        let mem = Arc::new(MemObjectStore::new());
        let ds = DelayedStore::new(mem, DeviceModel::hdd_array(), clock.clone());
        let t0 = clock.now_ns();
        ds.put("k", Bytes::from(vec![7u8; 4 << 20])).unwrap();
        let put_cost = clock.now_ns() - t0;
        let small = DeviceModel::hdd_array().service_time(0).as_nanos();
        assert!(put_cost > small, "4 MB put must cost more than the bare overhead");
        let t1 = clock.now_ns();
        let got = ds.get_range("k", 0, 1024).unwrap();
        assert_eq!(got.len(), 1024);
        let range_cost = clock.now_ns() - t1;
        assert!(range_cost < put_cost, "1 KB range read must be cheaper than 4 MB put");
    }

    #[test]
    fn metadata_calls_are_free_and_delegate() {
        let clock = Arc::new(MockClock::new());
        let mem = Arc::new(MemObjectStore::new());
        let ds = DelayedStore::new(mem, DeviceModel::nvme_ssd_cluster(), clock.clone());
        ds.put("a/1", Bytes::from(vec![1u8; 64])).unwrap();
        let after_put = clock.now_ns();
        assert!(ds.contains("a/1"));
        assert_eq!(ds.list_prefix("a/"), vec!["a/1".to_owned()]);
        assert_eq!(ds.size_of("a/1"), Some(64));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.total_bytes(), 64);
        assert_eq!(clock.now_ns(), after_put, "metadata calls must not consume time");
        assert!(ds.delete("a/1").unwrap());
        assert!(ds.is_empty());
    }

    #[test]
    fn works_on_a_real_clock() {
        let mem = Arc::new(MemObjectStore::new());
        let ds = DelayedStore::new(mem, DeviceModel::local_nvme(), Arc::new(SystemClock::new()));
        ds.put("k", Bytes::from(vec![3u8; 128])).unwrap();
        assert_eq!(ds.get("k").unwrap().len(), 128);
    }
}
