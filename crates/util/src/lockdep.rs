//! Lockdep-style lock-order witness.
//!
//! Deadlock-freedom in DIESEL is an *enforced invariant*, not a
//! convention: a single ABBA inversion between, say, a KV shard lock and
//! a cache partition lock would wedge every tenant sharing the process
//! (DESIGN.md §12). The witness makes such inversions observable the
//! first time the *order* occurs, long before the interleaving that
//! would actually deadlock:
//!
//! * every [`crate::Mutex`]/[`crate::RwLock`] built with `named(...)`
//!   belongs to a **lock class** (e.g. `"kv.shard"` — all shards of all
//!   instances share one class);
//! * each thread keeps a stack of the classes it currently holds;
//! * acquiring class `B` while holding class `A` inserts the edge
//!   `A → B` into a process-global lock-order graph;
//! * if the new edge closes a cycle (`B` already reaches `A`), that is a
//!   *potential deadlock*: some thread took `A` then `B`, another may
//!   take `B` then `A`. The cycle is reported with the acquisition sites
//!   of both orders — no thread ever needs to block;
//! * each thread also remembers the edges it has already put in (or
//!   found in) the graph. The graph only grows, so such an edge can
//!   never again be new or close a cycle: an order the thread has seen
//!   before is checked against its own memo, without the graph's lock.
//!
//! The check runs *before* the real lock is taken, so `fail` mode
//! panics deterministically on the inverted acquisition instead of
//! timing out a wedged test.
//!
//! Behaviour on a detected cycle is controlled by `DIESEL_LOCKDEP`:
//!
//! | value  | effect                                                    |
//! |--------|-----------------------------------------------------------|
//! | `off`  | tracking disabled entirely (no held stack, no graph)      |
//! | `warn` | record the report, invoke the reporter hook, print it     |
//! | `fail` | all of the above, then panic on the acquiring thread      |
//!
//! A cycle is reported once, when its closing edge is first inserted;
//! same-class nesting has no edge to remember and is reported on every
//! occurrence.
//!
//! The default is `warn`; CI runs the suite once under `fail`
//! (scripts/ci.sh) so an inversion anywhere in the tree is a red build.
//! Reports are also counted in `diesel-obs` as `lockdep.cycles{a=…,b=…}`
//! via the pluggable [`set_cycle_reporter`] hook (util cannot depend on
//! obs, so obs installs the bridge; see `diesel_obs::lockdep`).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::Location;
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock};

use crate::sync::lock_or_recover;

/// An interned lock class: all locks guarding the same kind of state
/// (e.g. every KV shard) share one class and thus one node in the
/// order graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockClass(u32);

/// What to do when an acquisition closes a cycle in the order graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No tracking at all: an acquisition costs one thread-local read
    /// (the thread override) plus one `OnceLock` load (the process mode).
    Off,
    /// Record and report the cycle; keep running.
    Warn,
    /// Record, report, then panic on the acquiring thread.
    Fail,
}

/// One detected lock-order cycle. `a` is the class already held, `b`
/// the class being acquired; the prior fields are the first-observed
/// acquisition that established the opposite order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    /// Class held at detection time.
    pub a: String,
    /// Class whose acquisition closed the cycle.
    pub b: String,
    /// Class names along the path `b → … → a` already in the graph.
    pub path: Vec<String>,
    /// Where `a` was acquired by the current thread (file:line).
    pub held_site: String,
    /// Where the current thread is acquiring `b` (file:line).
    pub acquire_site: String,
    /// Where the first edge of the opposite order held its lock.
    pub prior_held_site: String,
    /// Where the first edge of the opposite order acquired its lock.
    pub prior_acquire_site: String,
}

impl std::fmt::Display for CycleReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "potential deadlock: acquiring `{}` at {} while holding `{}` (taken at {}), \
             but the opposite order `{}` → {} was established holding `{}` at {} \
             (cycle: {})",
            self.b,
            self.acquire_site,
            self.a,
            self.held_site,
            self.b,
            self.prior_acquire_site,
            self.b,
            self.prior_held_site,
            self.path.join(" → "),
        )
    }
}

/// First-observed acquisition sites of one order-graph edge `from → to`.
#[derive(Debug, Clone)]
struct EdgeSites {
    /// Where `from` had been acquired.
    held: &'static Location<'static>,
    /// Where `to` was acquired under it.
    acquired: &'static Location<'static>,
}

/// The process-global lock-order graph. Internally synchronized with a
/// *raw* std mutex — lockdep's own locks must never be tracked.
///
/// **Append-only.** Nothing removes an edge or resets the graph. Every
/// thread's [`KnownEdges`] memo relies on it: an edge the thread has
/// inserted or found present stays present, so it can never again be
/// new or close a cycle, and the thread skips the graph for it. Code
/// that ever resets the graph must also clear every thread's memo.
#[derive(Default)]
struct Graph {
    ids: HashMap<String, u32>,
    names: Vec<String>,
    edges: HashMap<(u32, u32), EdgeSites>,
    adj: HashMap<u32, Vec<u32>>,
}

impl Graph {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    fn name(&self, id: u32) -> String {
        self.names.get(id as usize).cloned().unwrap_or_else(|| format!("class#{id}"))
    }

    /// Insert `from → to` if absent; returns true when newly inserted.
    fn add_edge(
        &mut self,
        from: u32,
        to: u32,
        held: &'static Location<'static>,
        acquired: &'static Location<'static>,
    ) -> bool {
        if self.edges.contains_key(&(from, to)) {
            return false;
        }
        self.edges.insert((from, to), EdgeSites { held, acquired });
        self.adj.entry(from).or_default().push(to);
        true
    }

    /// A path `from → … → to` over existing edges, if one exists (DFS).
    fn path(&self, from: u32, to: u32) -> Option<Vec<u32>> {
        let mut parent: HashMap<u32, u32> = HashMap::new();
        let mut stack = vec![from];
        parent.insert(from, from);
        while let Some(n) = stack.pop() {
            if n == to {
                let mut path = vec![to];
                let mut cur = to;
                while cur != from {
                    cur = parent.get(&cur).copied()?;
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for &next in self.adj.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
                parent.entry(next).or_insert_with(|| {
                    stack.push(next);
                    n
                });
            }
        }
        None
    }
}

/// Lock the process-global order graph.
fn graph() -> StdMutexGuard<'static, Graph> {
    static GRAPH: OnceLock<StdMutex<Graph>> = OnceLock::new();
    #[cfg(test)]
    GRAPH_LOCKS.with(|n| n.set(n.get() + 1));
    lock_or_recover(GRAPH.get_or_init(|| StdMutex::new(Graph::default())))
}

#[cfg(test)]
thread_local! {
    /// How many times this thread has locked the graph: the witness's
    /// shared cost, as a count a test can gate on.
    static GRAPH_LOCKS: Cell<u64> = const { Cell::new(0) };
}

fn cycle_log() -> &'static StdMutex<Vec<CycleReport>> {
    static LOG: OnceLock<StdMutex<Vec<CycleReport>>> = OnceLock::new();
    LOG.get_or_init(|| StdMutex::new(Vec::new()))
}

type Reporter = Box<dyn Fn(&CycleReport) + Send + Sync>;

fn reporter() -> &'static StdMutex<Option<Reporter>> {
    static REPORTER: OnceLock<StdMutex<Option<Reporter>>> = OnceLock::new();
    REPORTER.get_or_init(|| StdMutex::new(None))
}

/// Install the process-wide cycle reporter (e.g. the diesel-obs bridge
/// counting reports into `lockdep.cycles{a=…,b=…}`). Installing a
/// new reporter replaces the previous one.
pub fn set_cycle_reporter(f: Reporter) {
    *lock_or_recover(reporter()) = Some(f);
}

// ---- mode selection ----

thread_local! {
    static THREAD_MODE: Cell<Option<Mode>> = const { Cell::new(None) };
}

fn env_mode() -> Mode {
    static ENV: OnceLock<Mode> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("DIESEL_LOCKDEP").as_deref() {
        Ok("off") | Ok("0") | Ok("false") => Mode::Off,
        Ok("fail") | Ok("panic") => Mode::Fail,
        _ => Mode::Warn,
    })
}

/// The effective mode on this thread: thread override, then
/// `DIESEL_LOCKDEP` (default `warn`).
pub fn mode() -> Mode {
    THREAD_MODE.with(Cell::get).unwrap_or_else(env_mode)
}

/// Override the mode for the current thread only (tests exercising
/// `warn` and `fail` side by side; `None` restores the process mode).
/// Spawned threads do *not* inherit the override.
pub fn set_thread_mode(mode: Option<Mode>) {
    THREAD_MODE.with(|m| m.set(mode));
}

// ---- per-thread held stack and edge memo ----

struct HeldEntry {
    class: u32,
    site: &'static Location<'static>,
    seq: u64,
}

/// The order-graph edges this thread has inserted or found present:
/// one bit per `to` class in a row per `from` class. Valid only because
/// the [`Graph`] is append-only.
struct KnownEdges(Vec<Vec<u64>>);

impl KnownEdges {
    fn contains(&self, from: u32, to: u32) -> bool {
        let row = self.0.get(from as usize);
        row.and_then(|r| r.get(to as usize / 64)).is_some_and(|w| w & (1 << (to % 64)) != 0)
    }

    fn insert(&mut self, from: u32, to: u32) {
        let (from, word) = (from as usize, to as usize / 64);
        if self.0.len() <= from {
            self.0.resize_with(from + 1, Vec::new);
        }
        let Some(row) = self.0.get_mut(from) else { return };
        if row.len() <= word {
            row.resize(word + 1, 0);
        }
        if let Some(w) = row.get_mut(word) {
            *w |= 1 << (to % 64);
        }
    }
}

/// This thread's side of the witness, in one thread-local so a
/// checked acquisition costs one access to it.
struct ThreadWitness {
    /// The classes this thread holds, in acquisition order.
    held: Vec<HeldEntry>,
    known: KnownEdges,
    next_seq: u64,
}

impl ThreadWitness {
    fn push(&mut self, class: u32, site: &'static Location<'static>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.held.push(HeldEntry { class, site, seq });
        seq
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.held.len()
    }
}

thread_local! {
    static HELD: RefCell<ThreadWitness> = const {
        RefCell::new(ThreadWitness { held: Vec::new(), known: KnownEdges(Vec::new()), next_seq: 0 })
    };
    static REPORTING: Cell<bool> = const { Cell::new(false) };
}

/// Registration of one held named lock; dropping it pops the entry from
/// the thread's held stack (guards may drop out of stack order, so the
/// pop is by sequence number, not position).
#[derive(Debug)]
pub struct Held {
    class: LockClass,
    seq: u64,
}

impl Held {
    /// The class this registration belongs to.
    pub fn class(&self) -> LockClass {
        self.class
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|h| {
            let held = &mut h.borrow_mut().held;
            if let Some(pos) = held.iter().rposition(|e| e.seq == self.seq) {
                held.remove(pos);
            }
        });
    }
}

/// Intern `name` as a lock class.
pub fn class(name: &str) -> LockClass {
    LockClass(graph().intern(name))
}

/// Record the acquisition of `class` by the current thread: insert
/// held→acquired edges, detect cycles, then push the class onto the
/// held stack. Returns `None` when tracking is off. Call *before*
/// blocking on the real lock, so `fail` mode reports instead of
/// deadlocking.
#[track_caller]
#[expect(clippy::panic, reason = "fail mode makes a lock-order inversion fatal")]
pub fn acquire(class: LockClass) -> Option<Held> {
    let mode = mode();
    if mode == Mode::Off {
        return None;
    }
    let site = Location::caller();
    // Every held class forms an edge this thread knows is in the graph:
    // nothing to check, and nothing shared is touched.
    let seq = HELD.with(|h| {
        let mut t = h.borrow_mut();
        let known = t.held.iter().all(|e| e.class != class.0 && t.known.contains(e.class, class.0));
        known.then(|| t.push(class.0, site))
    });
    if let Some(seq) = seq {
        return Some(Held { class, seq });
    }

    // Reports are delivered only after the held stack's borrow ends: the
    // reporter hook may take named locks, which re-enter `acquire`.
    let reports = HELD.with(|h| {
        let t = &mut *h.borrow_mut();
        check_order(&t.held, &mut t.known, class.0, site)
    });
    for r in &reports {
        deliver(r);
    }
    if mode == Mode::Fail {
        if let Some(r) = reports.first() {
            panic!("lockdep: {r}");
        }
    }

    let seq = HELD.with(|h| h.borrow_mut().push(class.0, site));
    Some(Held { class, seq })
}

/// Check acquiring `class` at `site` against every class in `held`
/// under the graph's lock: insert each `held → class` edge, remember it
/// in `known`, and report the edges that close a cycle and every
/// same-class nesting.
fn check_order(
    held: &[HeldEntry],
    known: &mut KnownEdges,
    class: u32,
    site: &'static Location<'static>,
) -> Vec<CycleReport> {
    let mut reports = Vec::new();
    let mut g = graph();
    for e in held {
        if e.class == class {
            // Same-class nesting: two locks of one class taken by
            // one thread. With another thread doing the same in the
            // opposite instance order this deadlocks, and lockdep
            // has no instance-level order to trust — report it.
            reports.push(CycleReport {
                a: g.name(e.class),
                b: g.name(class),
                path: vec![g.name(e.class), g.name(class)],
                held_site: e.site.to_string(),
                acquire_site: site.to_string(),
                prior_held_site: e.site.to_string(),
                prior_acquire_site: site.to_string(),
            });
            continue;
        }
        known.insert(e.class, class);
        if !g.add_edge(e.class, class, e.site, site) {
            continue;
        }
        if let Some(path) = g.path(class, e.class) {
            // The first edge on the return path carries the
            // sites that established the opposite order.
            let prior =
                path.first().zip(path.get(1)).and_then(|(&x, &y)| g.edges.get(&(x, y)).cloned());
            let (p_held, p_acq) = match prior {
                Some(p) => (p.held.to_string(), p.acquired.to_string()),
                None => (String::new(), String::new()),
            };
            reports.push(CycleReport {
                a: g.name(e.class),
                b: g.name(class),
                path: path.iter().map(|&id| g.name(id)).collect(),
                held_site: e.site.to_string(),
                acquire_site: site.to_string(),
                prior_held_site: p_held,
                prior_acquire_site: p_acq,
            });
        }
    }
    reports
}

/// Append to the log and invoke the reporter hook. The hook may itself
/// acquire named locks (the obs bridge bumps a counter); a thread-local
/// re-entrancy latch stops a cycle detected *inside* the hook from
/// recursing back into it.
fn deliver(r: &CycleReport) {
    lock_or_recover(cycle_log()).push(r.clone());
    let entered = REPORTING.with(|f| {
        let was = f.get();
        f.set(true);
        was
    });
    if !entered {
        if let Some(hook) = lock_or_recover(reporter()).as_ref() {
            hook(r);
        }
        REPORTING.with(|f| f.set(false));
        eprintln!("lockdep: {r}");
    }
}

/// Snapshot of every cycle reported so far in this process (tests
/// assert on deltas — the log only grows).
pub fn cycles() -> Vec<CycleReport> {
    lock_or_recover(cycle_log()).clone()
}

/// Number of cycles reported between the two named classes, in either
/// direction.
pub fn cycles_between(a: &str, b: &str) -> usize {
    lock_or_recover(cycle_log())
        .iter()
        .filter(|r| (r.a == a && r.b == b) || (r.a == b && r.b == a))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Class names are process-global; every test uses its own so tests
    // can run in any order and in parallel. Tests that *deliberately*
    // invert force warn mode on their thread, so the whole suite also
    // passes under DIESEL_LOCKDEP=fail.

    fn warn_here() {
        set_thread_mode(Some(Mode::Warn));
    }

    #[test]
    fn consistent_order_never_reports() {
        let a = class("t1.a");
        let b = class("t1.b");
        for _ in 0..3 {
            let ga = acquire(a);
            let gb = acquire(b);
            drop(gb);
            drop(ga);
        }
        // Other tests invert their own classes in parallel, so only this
        // pair's count is stable.
        assert_eq!(cycles_between("t1.a", "t1.b"), 0);
    }

    #[test]
    fn abba_reports_without_blocking() {
        warn_here();
        let a = class("t2.a");
        let b = class("t2.b");
        {
            let ga = acquire(a);
            let gb = acquire(b);
            drop((ga, gb));
        }
        let before = cycles_between("t2.a", "t2.b");
        {
            let gb = acquire(b);
            let ga = acquire(a); // closes the cycle; warn mode keeps going
            drop((ga, gb));
        }
        set_thread_mode(None);
        assert_eq!(cycles_between("t2.a", "t2.b"), before + 1);
        let r = cycles().into_iter().rev().find(|r| r.a == "t2.b" && r.b == "t2.a");
        let r = r.expect("report recorded");
        assert!(r.path.contains(&"t2.a".to_owned()) && r.path.contains(&"t2.b".to_owned()));
        assert!(r.held_site.contains("lockdep.rs"), "{}", r.held_site);
        assert!(r.prior_acquire_site.contains("lockdep.rs"), "{}", r.prior_acquire_site);
    }

    #[test]
    fn same_class_nesting_reports() {
        warn_here();
        let a = class("t3.a");
        let before = cycles_between("t3.a", "t3.a");
        let g1 = acquire(a);
        let g2 = acquire(a);
        drop((g1, g2));
        set_thread_mode(None);
        assert_eq!(cycles_between("t3.a", "t3.a"), before + 1);
    }

    #[test]
    fn transitive_cycle_is_detected() {
        warn_here();
        let a = class("t4.a");
        let b = class("t4.b");
        let c = class("t4.c");
        {
            let ga = acquire(a);
            let gb = acquire(b);
            drop((ga, gb));
        }
        {
            let gb = acquire(b);
            let gc = acquire(c);
            drop((gb, gc));
        }
        let before = cycles_between("t4.c", "t4.a");
        {
            let gc = acquire(c);
            let ga = acquire(a); // a → b → c → a
            drop((gc, ga));
        }
        set_thread_mode(None);
        assert_eq!(cycles_between("t4.c", "t4.a"), before + 1);
    }

    #[test]
    fn out_of_order_drop_pops_the_right_entry() {
        let a = class("t5.a");
        let b = class("t5.b");
        let ga = acquire(a);
        let gb = acquire(b);
        drop(ga); // drop the *outer* first
                  // b is still held; taking a fresh class must edge from b only.
        let c = class("t5.c");
        let gc = acquire(c);
        drop((gb, gc));
        let held: usize = HELD.with(|h| h.borrow().len());
        assert_eq!(held, 0);
    }

    #[test]
    fn thread_mode_fail_panics_on_inversion() {
        let a = class("t6.a");
        let b = class("t6.b");
        // The setup edge is recorded whatever the process mode is —
        // under `off` nothing would be, and nothing would invert.
        warn_here();
        {
            let ga = acquire(a);
            let gb = acquire(b);
            drop((ga, gb));
        }
        set_thread_mode(None);
        let out = std::thread::spawn(move || {
            set_thread_mode(Some(Mode::Fail));
            let gb = acquire(b);
            let ga = acquire(a); // panics here, before any blocking
            drop((gb, ga));
        })
        .join();
        assert!(out.is_err(), "fail mode must panic on the inverted acquisition");
        // The held stack of the panicking thread died with it; ours is
        // untouched and the report is logged.
        assert!(cycles_between("t6.a", "t6.b") >= 1);
    }

    #[test]
    fn a_cycle_through_another_threads_edge_is_caught_past_the_memo() {
        let a = class("t8.a");
        let b = class("t8.b");
        let c = class("t8.c");
        let before = cycles_between("t8.c", "t8.a");
        let (to_t2, t2_rx) = std::sync::mpsc::channel();
        let (t2_done, done_rx) = std::sync::mpsc::channel();
        let t2 = std::thread::spawn(move || {
            warn_here();
            t2_rx.recv().unwrap();
            let gb = acquire(b);
            let gc = acquire(c);
            drop((gb, gc));
            t2_done.send(()).unwrap();
        });
        let t1 = std::thread::spawn(move || {
            set_thread_mode(Some(Mode::Fail));
            {
                let ga = acquire(a);
                let gb = acquire(b); // a → b, now in this thread's memo
                drop((ga, gb));
            }
            to_t2.send(()).unwrap();
            done_rx.recv().unwrap(); // b → c is in the graph, not in our memo
            let gc = acquire(c);
            let ga = acquire(a); // closes a → b → c → a: panics here
            drop((gc, ga));
        });
        t2.join().unwrap();
        assert!(t1.join().is_err(), "fail mode must panic on the acquisition closing the cycle");
        assert_eq!(cycles_between("t8.c", "t8.a"), before + 1);
        let r = cycles().into_iter().rev().find(|r| r.a == "t8.c" && r.b == "t8.a");
        let r = r.expect("report recorded");
        assert_eq!(r.path, ["t8.a", "t8.b", "t8.c"]);
    }

    #[test]
    fn same_class_nesting_reports_every_occurrence() {
        warn_here();
        let a = class("t9.a");
        let before = cycles_between("t9.a", "t9.a");
        for _ in 0..3 {
            let g1 = acquire(a);
            let g2 = acquire(a);
            drop((g1, g2));
        }
        set_thread_mode(None);
        assert_eq!(cycles_between("t9.a", "t9.a"), before + 3);
    }

    #[test]
    fn a_known_order_takes_no_graph_lock() {
        // The witness's cost gate: wall-clock time cannot gate on a
        // shared host, the number of times the graph is locked can.
        warn_here();
        let a = class("t10.a");
        let b = class("t10.b");
        let locks = || GRAPH_LOCKS.with(Cell::get);
        let nest = || {
            let ga = acquire(a);
            let gb = acquire(b);
            drop((gb, ga));
        };
        let first = locks();
        nest();
        assert_eq!(locks() - first, 1, "the first a → b goes to the graph");
        let warm = locks();
        for _ in 0..10_000 {
            nest();
        }
        set_thread_mode(None);
        assert_eq!(locks() - warm, 0, "a known order never locks the graph");
    }

    #[test]
    fn off_mode_tracks_nothing() {
        set_thread_mode(Some(Mode::Off));
        let a = class("t7.a");
        let b = class("t7.b");
        let ga = acquire(a);
        assert!(ga.is_none());
        let gb = acquire(b);
        let ga2 = acquire(a);
        drop((ga, gb, ga2));
        set_thread_mode(None);
        assert_eq!(cycles_between("t7.a", "t7.b"), 0);
    }
}
