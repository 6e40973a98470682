//! Poison-recovering, lock-order-witnessed synchronization primitives.
//!
//! A panic while holding a std lock poisons it, and every later
//! `.lock().unwrap()` turns one bug into a cascade of panics across
//! unrelated threads — exactly what a storage server must not do. These
//! wrappers take the other position: the data may be mid-update, but
//! DIESEL's lock-protected state is always structurally valid (maps,
//! queues, counters), so recovering the guard and continuing is strictly
//! better than crashing the process.
//!
//! On top of poison recovery, locks built with [`Mutex::named`] /
//! [`RwLock::named`] participate in the [`crate::lockdep`] lock-order
//! witness: each acquisition records held→acquired edges in a global
//! order graph and reports a *potential* deadlock the first time two
//! classes are ever taken in both orders (DESIGN.md §12). Anonymous
//! locks from [`Mutex::new`] stay untracked — serving-crate locks must
//! be named; lint rule R5 and the `DIESEL_LOCKDEP=fail` CI pass keep it
//! that way.
//!
//! Clippy's `unwrap_used` (see DESIGN.md "Static invariants") bans
//! `unwrap` — including the lock-unwrap idiom — in serving-crate library
//! code; these types and the [`lock_or_recover`] helpers are the blessed
//! replacement.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

use crate::lockdep;

/// Acquire a raw `std::sync::Mutex`, recovering the guard if a previous
/// holder panicked. Raw std locks are invisible to the lock-order
/// witness; use [`Mutex::named`] for serving-path state.
pub fn lock_or_recover<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a raw `std::sync::RwLock` for reading, recovering on poison.
pub fn read_or_recover<T: ?Sized>(l: &std::sync::RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a raw `std::sync::RwLock` for writing, recovering on poison.
pub fn write_or_recover<T: ?Sized>(l: &std::sync::RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Guard returned by [`Mutex::lock`]. Dropping it releases the lock and
/// pops the class from the thread's lockdep held stack. The struct has
/// no `Drop` impl of its own, so [`Condvar`] can destructure it.
pub struct MutexGuard<'a, T: ?Sized> {
    // Declaration order is drop order: unregister from the witness
    // first, then release the lock. Both are per-thread effects, so the
    // window between them is unobservable by other threads.
    held: Option<lockdep::Held>,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    // Kept only for its `Drop` (pops the lockdep held stack).
    _held: Option<lockdep::Held>,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    // Kept only for its `Drop` (pops the lockdep held stack).
    _held: Option<lockdep::Held>,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A mutex whose `lock` never panics (poisoning is recovered) and
/// whose acquisitions — when built with [`Mutex::named`] — feed the
/// lock-order witness.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    class: Option<lockdep::LockClass>,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new unlocked, *anonymous* mutex (invisible to the lock-order
    /// witness). Serving-crate state should use [`Mutex::named`].
    pub const fn new(value: T) -> Self {
        Mutex { class: None, inner: std::sync::Mutex::new(value) }
    }

    /// A new unlocked mutex in lock class `name` (e.g. `"kv.shard"`).
    /// All locks sharing a name share one node in the order graph.
    pub fn named(name: &str, value: T) -> Self {
        Mutex { class: Some(lockdep::class(name)), inner: std::sync::Mutex::new(value) }
    }

    /// Consume the mutex, returning the data (recovering on poison).
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held. The lockdep check runs *before*
    /// blocking, so an ordering inversion reports (or panics under
    /// `DIESEL_LOCKDEP=fail`) instead of deadlocking.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // Direct call (not `and_then(lockdep::acquire)`): going through
        // a fn-pointer coercion would defeat `#[track_caller]` and every
        // acquisition site would point here instead of at the caller.
        let held = match self.class {
            Some(c) => lockdep::acquire(c),
            None => None,
        };
        MutexGuard { held, inner: lock_or_recover(&self.inner) }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Mutex").field(&&*self.lock()).finish()
    }
}

/// A reader-writer lock whose acquisitions never panic; named instances
/// feed the lock-order witness (reads and writes share the class).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    class: Option<lockdep::LockClass>,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// A new unlocked, *anonymous* rwlock (invisible to the witness).
    pub const fn new(value: T) -> Self {
        RwLock { class: None, inner: std::sync::RwLock::new(value) }
    }

    /// A new unlocked rwlock in lock class `name`.
    pub fn named(name: &str, value: T) -> Self {
        RwLock { class: Some(lockdep::class(name)), inner: std::sync::RwLock::new(value) }
    }

    /// Consume the lock, returning the data (recovering on poison).
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = match self.class {
            Some(c) => lockdep::acquire(c),
            None => None,
        };
        RwLockReadGuard { _held: held, inner: read_or_recover(&self.inner) }
    }

    /// Acquire exclusive write access.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = match self.class {
            Some(c) => lockdep::acquire(c),
            None => None,
        };
        RwLockWriteGuard { _held: held, inner: write_or_recover(&self.inner) }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RwLock").field(&&*self.read()).finish()
    }
}

/// A condition variable paired with [`Mutex`], recovering on poison.
///
/// The wait APIs take and return the guard by value (std semantics);
/// `wait_timeout` reports whether the wait timed out. While a thread is
/// parked the mutex is released, so the waiter's lockdep registration
/// is popped for the duration and re-established on wake — a lock held
/// *around* a wait never falsely orders against locks taken by the
/// thread that wakes it.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new() }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Block until notified. Spurious wakeups are possible; callers loop
    /// on their predicate.
    #[track_caller]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { held, inner } = guard;
        let class = held.as_ref().map(lockdep::Held::class);
        drop(held); // parked threads hold nothing
        let inner = self.inner.wait(inner).unwrap_or_else(PoisonError::into_inner);
        let held = match class {
            Some(c) => lockdep::acquire(c),
            None => None,
        };
        MutexGuard { held, inner }
    }

    /// Block until notified or `dur` elapses. Returns the reacquired
    /// guard and whether the wait timed out.
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let MutexGuard { held, inner } = guard;
        let class = held.as_ref().map(lockdep::Held::class);
        drop(held);
        let (inner, res) =
            self.inner.wait_timeout(inner, dur).unwrap_or_else(PoisonError::into_inner);
        let held = match class {
            Some(c) => lockdep::acquire(c),
            None => None,
        };
        (MutexGuard { held, inner }, res.timed_out())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_and_debug() {
        let m = Mutex::named("sync-test.basic", 41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(format!("{m:?}"), "Mutex(42)");
        let mut m = m;
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 43);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::named("sync-test.rw", vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
        assert_eq!(format!("{l:?}"), "RwLock([1, 2, 3])");
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn poisoned_mutex_recovers_instead_of_panicking() {
        let m = Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A plain std mutex would now fail; the wrapper recovers.
        assert_eq!(*m.lock(), 7);
        *m.lock() = 8;
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn poisoned_rwlock_recovers() {
        let l = Arc::new(RwLock::new(String::from("ok")));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        assert_eq!(&*l.read(), "ok");
    }

    #[test]
    fn raw_lock_helpers_recover() {
        let m = Arc::new(std::sync::Mutex::new(1));
        let l = Arc::new(std::sync::RwLock::new(2));
        let (m2, l2) = (m.clone(), l.clone());
        let _ = std::thread::spawn(move || {
            let _a = lock_or_recover(&m2);
            let _b = write_or_recover(&l2);
            panic!("poison both");
        })
        .join();
        assert_eq!(*lock_or_recover(&m), 1);
        assert_eq!(*read_or_recover(&l), 2);
        *write_or_recover(&l) = 3;
        assert_eq!(*read_or_recover(&l), 3);
    }

    #[test]
    fn condvar_wakes_and_times_out() {
        let pair = Arc::new((Mutex::named("sync-test.cv", false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                done = cv.wait(done);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();

        let (m, cv) = &*pair;
        let g = m.lock();
        let (_g, timed_out) = cv.wait_timeout(g, Duration::from_millis(5));
        assert!(timed_out);
    }

    #[test]
    fn named_locks_feed_the_witness() {
        // Inverted acquisition across two named mutexes is reported
        // without any thread blocking; force warn mode so the suite
        // also passes under DIESEL_LOCKDEP=fail.
        crate::lockdep::set_thread_mode(Some(crate::lockdep::Mode::Warn));
        let a = Mutex::named("sync-test.wa", 1);
        let b = Mutex::named("sync-test.wb", 2);
        {
            let ga = a.lock();
            let gb = b.lock();
            drop((ga, gb));
        }
        let before = crate::lockdep::cycles_between("sync-test.wa", "sync-test.wb");
        {
            let gb = b.lock();
            let ga = a.lock();
            drop((gb, ga));
        }
        crate::lockdep::set_thread_mode(None);
        assert_eq!(crate::lockdep::cycles_between("sync-test.wa", "sync-test.wb"), before + 1);
    }

    #[test]
    fn condvar_wait_releases_witness_registration() {
        // Holding m around a wait and locking x inside another thread's
        // wake path must not create m→x edges *while parked*.
        let pair = Arc::new((Mutex::named("sync-test.cvw", 0u32), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while *g == 0 {
                g = cv.wait(g);
            }
            *g
        });
        let (m, cv) = &*pair;
        std::thread::sleep(Duration::from_millis(10));
        *m.lock() = 7;
        cv.notify_all();
        assert_eq!(t.join().unwrap(), 7);
    }
}
