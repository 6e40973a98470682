//! Deadlock-freedom as an enforced invariant: the lock-order witness
//! (`diesel_util::lockdep`) reports an ABBA inversion constructed
//! across two real threads *before* any deadlock can fire — no
//! contention, no timeout — and the report is counted in the
//! diesel-obs ledger as `lockdep.cycles{a=…,b=…}`.

use std::sync::{mpsc, Arc};
use std::thread;

use diesel_util::lockdep::{self, Mode};
use diesel_util::Mutex;

/// Two threads acquire two named locks in opposite orders. The
/// schedule is serialized (thread 2 only starts its inverted pair
/// after thread 1 released everything), so the deadlock interleaving
/// never happens — and the witness still reports the cycle, because it
/// checks the *order graph*, not the blocked-thread state.
#[test]
fn abba_across_two_threads_is_reported_before_any_deadlock() {
    diesel_obs::lockdep::install();
    let a = Arc::new(Mutex::named("abba.a", 0u32));
    let b = Arc::new(Mutex::named("abba.b", 0u32));

    // Thread 1: A → B, putting the edge a→b in the order graph. Its
    // mode is thread-scoped, so the edge is recorded under any process
    // mode, `DIESEL_LOCKDEP=off` included.
    {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        thread::spawn(move || {
            lockdep::set_thread_mode(Some(Mode::Warn));
            let ga = a.lock();
            let gb = b.lock();
            drop((ga, gb));
        })
        .join()
        .expect("thread 1 held no inverted order");
    }

    let before = lockdep::cycles_between("abba.b", "abba.a");
    let obs_before = diesel_obs::cycles_reported("abba.b", "abba.a");

    // Thread 2: B → A. The acquisition of A closes the cycle; the
    // witness reports at that point and (in warn mode) the thread
    // keeps running to completion — nothing ever blocks, so there is
    // no deadlock for a test timeout to catch.
    let (tx, rx) = mpsc::channel();
    {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        thread::spawn(move || {
            lockdep::set_thread_mode(Some(Mode::Warn));
            let gb = b.lock();
            let ga = a.lock(); // ← cycle detected here, before blocking
            tx.send(lockdep::cycles_between("abba.b", "abba.a")).ok();
            drop((ga, gb));
        })
        .join()
        .expect("warn mode reports and continues");
    }

    // Reported from inside thread 2 while it still held both locks.
    let reported_while_held = rx.recv().expect("thread 2 sent its observation");
    assert_eq!(reported_while_held, before + 1, "cycle reported before thread 2 finished");

    // The report names both classes and both acquisition sites in this
    // file (the named-lock wrappers are #[track_caller]).
    let r = lockdep::cycles()
        .into_iter()
        .rev()
        .find(|r| r.a == "abba.b" && r.b == "abba.a")
        .expect("cycle report recorded");
    assert!(r.acquire_site.contains("lockdep.rs"), "site = {}", r.acquire_site);
    assert!(r.held_site.contains("lockdep.rs"), "site = {}", r.held_site);
    assert_eq!(r.path.first().map(String::as_str), Some("abba.a"));

    // And the obs bridge carried it into the process-global ledger.
    assert_eq!(diesel_obs::cycles_reported("abba.b", "abba.a"), obs_before + 1);
}

/// Under `fail` mode the inverted acquisition panics *instead of*
/// taking the lock: the would-be deadlock becomes a deterministic,
/// attributable thread death. (Thread-scoped mode, so the rest of the
/// suite is untouched.)
#[test]
fn fail_mode_turns_the_inversion_into_a_panic_not_a_hang() {
    let a = Arc::new(Mutex::named("abba-fail.a", ()));
    let b = Arc::new(Mutex::named("abba-fail.b", ()));

    {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        thread::spawn(move || {
            lockdep::set_thread_mode(Some(Mode::Warn));
            let ga = a.lock();
            let gb = b.lock();
            drop((ga, gb));
        })
        .join()
        .expect("consistent order");
    }

    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let died = thread::spawn(move || {
        lockdep::set_thread_mode(Some(Mode::Fail));
        let _gb = b2.lock();
        let _ga = a2.lock(); // panics deterministically
    })
    .join();
    assert!(died.is_err(), "fail mode must panic on the inversion");

    // The check runs *before* the real lock is touched: `a` was never
    // acquired by the failing thread, `b` was released during unwind,
    // so both locks are immediately usable from this thread.
    drop(a.lock());
    drop(b.lock());
}
