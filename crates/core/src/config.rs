//! Cluster configuration service — the ETCD of Fig. 2 ("the system
//! configurations are stored in an ETCD server").
//!
//! DIESEL needs only a small slice of etcd: versioned key-value storage
//! with compare-and-swap (for coordinated updates like "which server
//! list is current") and blocking watches (clients discovering
//! configuration changes, e.g. a new metadata snapshot being announced).
//! [`ConfigService`] provides exactly that, in-process.

use diesel_util::{Clock, Condvar, Mutex, SystemClock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A configuration entry with its revision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigEntry {
    /// The value.
    pub value: String,
    /// Monotonic revision at which this value was written (global
    /// counter, like etcd's mod_revision).
    pub revision: u64,
}

#[derive(Debug, Default)]
struct State {
    entries: HashMap<String, ConfigEntry>,
    revision: u64,
}

/// An in-process etcd stand-in: versioned KV + CAS + watch.
///
/// Deadlines are measured on an injected [`Clock`], so watch timeouts
/// are testable with a `MockClock`: a watcher's one-hour timeout
/// expires the moment a test advances virtual time by an hour, without
/// the test sleeping.
pub struct ConfigService {
    state: Mutex<State>,
    changed: Condvar,
    clock: Arc<dyn Clock>,
}

/// How long each individual condvar wait may block in real time. The
/// watch deadline itself is virtual (clock-based); this quantum only
/// bounds how stale a virtual-clock reading can get between wakeups.
const WATCH_QUANTUM: Duration = Duration::from_millis(5);

impl ConfigService {
    /// An empty service on the system clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(SystemClock::new()))
    }

    /// An empty service measuring watch deadlines on `clock`.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        ConfigService {
            state: Mutex::named("core.config", State::default()),
            changed: Condvar::new(),
            clock,
        }
    }

    /// Current global revision.
    pub fn revision(&self) -> u64 {
        self.state.lock().revision
    }

    /// Read a key.
    pub fn get(&self, key: &str) -> Option<ConfigEntry> {
        self.state.lock().entries.get(key).cloned()
    }

    /// Unconditional write; returns the new revision.
    pub fn put(&self, key: &str, value: impl Into<String>) -> u64 {
        let mut st = self.state.lock();
        st.revision += 1;
        let rev = st.revision;
        st.entries.insert(key.to_owned(), ConfigEntry { value: value.into(), revision: rev });
        drop(st);
        self.changed.notify_all();
        rev
    }

    /// Compare-and-swap: write only if the key's current revision is
    /// `expected_revision` (`None` = key must not exist). Returns
    /// `Ok(new_revision)` or `Err(current entry)` on conflict.
    pub fn cas(
        &self,
        key: &str,
        expected_revision: Option<u64>,
        value: impl Into<String>,
    ) -> Result<u64, Option<ConfigEntry>> {
        let mut st = self.state.lock();
        let current = st.entries.get(key).cloned();
        match (&current, expected_revision) {
            (None, None) => {}
            (Some(e), Some(rev)) if e.revision == rev => {}
            _ => return Err(current),
        }
        st.revision += 1;
        let rev = st.revision;
        st.entries.insert(key.to_owned(), ConfigEntry { value: value.into(), revision: rev });
        drop(st);
        self.changed.notify_all();
        Ok(rev)
    }

    /// Delete a key; returns whether it existed.
    pub fn delete(&self, key: &str) -> bool {
        let mut st = self.state.lock();
        let existed = st.entries.remove(key).is_some();
        if existed {
            st.revision += 1;
            drop(st);
            self.changed.notify_all();
        }
        existed
    }

    /// Block until `key` has a revision greater than `after_revision`
    /// (or the timeout passes on this service's [`Clock`]). Returns the
    /// entry that satisfied the watch, or `None` on timeout.
    pub fn watch(&self, key: &str, after_revision: u64, timeout: Duration) -> Option<ConfigEntry> {
        let deadline_ns = self.clock.now_ns().saturating_add(timeout.as_nanos() as u64);
        let mut st = self.state.lock();
        loop {
            // Entry check precedes the deadline check so a write landing
            // exactly at the deadline is still observed.
            if let Some(e) = st.entries.get(key) {
                if e.revision > after_revision {
                    return Some(e.clone());
                }
            }
            if self.clock.now_ns() >= deadline_ns {
                return None;
            }
            let (guard, _timed_out) = self.changed.wait_timeout(st, WATCH_QUANTUM);
            st = guard;
        }
    }

    /// All keys with a given prefix, sorted.
    pub fn list_prefix(&self, prefix: &str) -> Vec<(String, ConfigEntry)> {
        let st = self.state.lock();
        let mut out: Vec<(String, ConfigEntry)> = st
            .entries
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// The well-known configuration keys DIESEL components use.
pub mod keys {
    /// Value: comma-separated DIESEL server addresses.
    pub const SERVERS: &str = "diesel/servers";
    /// Per-dataset snapshot announcement (`diesel/snapshot/<dataset>` →
    /// update timestamp the latest snapshot covers).
    pub fn snapshot(dataset: &str) -> String {
        format!("diesel/snapshot/{dataset}")
    }
    /// Per-dataset chunk target size override.
    pub fn chunk_size(dataset: &str) -> String {
        format!("diesel/chunk_size/{dataset}")
    }
}

impl Default for ConfigService {
    fn default() -> Self {
        ConfigService::new()
    }
}

impl std::fmt::Debug for ConfigService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("ConfigService")
            .field("revision", &st.revision)
            .field("entries", &st.entries.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_util::MockClock;

    #[test]
    fn put_get_delete_with_revisions() {
        let c = ConfigService::new();
        assert_eq!(c.get("a"), None);
        let r1 = c.put("a", "1");
        let r2 = c.put("a", "2");
        assert!(r2 > r1);
        let e = c.get("a").unwrap();
        assert_eq!(e.value, "2");
        assert_eq!(e.revision, r2);
        assert!(c.delete("a"));
        assert!(!c.delete("a"));
        assert_eq!(c.get("a"), None);
        assert_eq!(c.revision(), 3, "delete bumps the revision");
    }

    #[test]
    fn cas_enforces_expected_revision() {
        let c = ConfigService::new();
        // Create-if-absent.
        let r1 = c.cas("servers", None, "s1").unwrap();
        assert!(c.cas("servers", None, "s2").is_err(), "already exists");
        // Update at the right revision.
        let r2 = c.cas("servers", Some(r1), "s1,s2").unwrap();
        assert!(r2 > r1);
        // Stale update loses and learns the current entry.
        let err = c.cas("servers", Some(r1), "stale").unwrap_err().unwrap();
        assert_eq!(err.value, "s1,s2");
        assert_eq!(c.get("servers").unwrap().value, "s1,s2");
    }

    #[test]
    fn watch_wakes_on_write() {
        let c = Arc::new(ConfigService::new());
        let rev0 = c.put(&keys::snapshot("ds"), "100");
        let watcher = {
            let c = c.clone();
            std::thread::spawn(move || c.watch(&keys::snapshot("ds"), rev0, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(30));
        c.put(&keys::snapshot("ds"), "200");
        let seen = watcher.join().unwrap().expect("watch must fire");
        assert_eq!(seen.value, "200");
    }

    #[test]
    fn watch_times_out_quietly() {
        let c = ConfigService::new();
        c.put("k", "v");
        let rev = c.get("k").unwrap().revision;
        assert!(c.watch("k", rev, Duration::from_millis(40)).is_none());
        // Watching from before the current revision returns immediately.
        assert!(c.watch("k", rev - 1, Duration::from_millis(1)).is_some());
    }

    #[test]
    fn watch_deadline_is_virtual_with_a_mock_clock() {
        let clock = Arc::new(MockClock::new());
        let c = Arc::new(ConfigService::with_clock(clock.clone()));
        c.put("k", "v");
        let rev = c.get("k").unwrap().revision;
        // A one-hour watch on virtual time: no wall-clock sleep, the
        // watcher returns once the mock clock crosses the deadline.
        let watcher = {
            let c = c.clone();
            std::thread::spawn(move || c.watch("k", rev, Duration::from_secs(3600)))
        };
        // The watcher fixes its deadline when its thread first runs,
        // which may be after an advance: keep advancing until it is out.
        while !watcher.is_finished() {
            clock.advance(3600 * 1_000_000_000 + 1);
            std::thread::yield_now();
        }
        assert!(watcher.join().unwrap().is_none(), "virtual deadline must expire");
    }

    #[test]
    fn watch_on_a_mock_clock_still_wakes_on_write() {
        let clock = Arc::new(MockClock::new());
        let c = Arc::new(ConfigService::with_clock(clock));
        let rev0 = c.put("k", "old");
        let watcher = {
            let c = c.clone();
            std::thread::spawn(move || c.watch("k", rev0, Duration::from_secs(3600)))
        };
        std::thread::sleep(Duration::from_millis(20));
        c.put("k", "new");
        let seen = watcher.join().unwrap().expect("watch must fire without clock advance");
        assert_eq!(seen.value, "new");
    }

    #[test]
    fn list_prefix_sorted() {
        let c = ConfigService::new();
        c.put(&keys::snapshot("b"), "2");
        c.put(&keys::snapshot("a"), "1");
        c.put(keys::SERVERS, "s");
        let snaps = c.list_prefix("diesel/snapshot/");
        assert_eq!(snaps.len(), 2);
        assert!(snaps[0].0.ends_with("/a"));
    }

    #[test]
    fn concurrent_cas_elects_exactly_one_winner() {
        let c = Arc::new(ConfigService::new());
        let winners: Vec<_> = (0..8)
            .map(|i| {
                let c = c.clone();
                std::thread::spawn(move || c.cas("leader", None, format!("node-{i}")).is_ok())
            })
            .collect();
        let won: usize = winners.into_iter().map(|h| h.join().unwrap()).filter(|&w| w).count();
        assert_eq!(won, 1, "exactly one leader");
    }
}
