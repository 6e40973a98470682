//! The R1–R6 passes. Each pass walks the scrubbed source of one file
//! and emits findings; target/test exemptions and suppressions are
//! applied by the caller in `lib.rs`.

use crate::{Finding, Rule};

/// Crates whose library code must be panic-free (R1).
pub const R1_CRATES: &[&str] =
    &["core", "cache", "meta", "kv", "net", "store", "chunk", "obs", "exec", "util", "train"];

/// Modules allowed to read real time or entropy (R2): the one clock
/// implementation and its `diesel_net::clock` re-export shim.
pub const R2_EXEMPT: &[&str] = &["crates/util/src/clock.rs", "crates/net/src/clock.rs"];

/// The only module allowed to reference chunk on-disk constants (R4).
pub const R4_HOME: &str = "crates/chunk/src/format.rs";

/// Calls that read wall-clock time or ambient entropy.
const R2_TOKENS: &[&str] = &["Instant::now", "SystemTime::now", "thread_rng", "from_entropy"];

/// Chunk on-disk format constants.
const R4_TOKENS: &[&str] = &["CHUNK_MAGIC", "FORMAT_VERSION", "FIXED_HEADER_LEN"];

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Whole-token occurrences of `token` in `code`, as 1-based lines.
fn token_lines(code: &str, token: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let t0 = token.as_bytes()[0];
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        from = at + token.len();
        // Dot-initial tokens (`.unwrap()`) carry their own boundary; any
        // other token must not continue an identifier. The original
        // unparenthesized form bound as `a || (!b && c) || d`, which
        // silently *excluded* `.`-preceded matches for non-dot tokens —
        // a false negative for method-call forms like `rng.from_entropy()`.
        let before_ok = t0 == b'.' || at == 0 || !is_ident(b[at - 1]);
        let end = at + token.len();
        // The trailing boundary only matters when the token ends in an
        // identifier char; `.expect(` / `Vec::from(` end at punctuation,
        // which is a boundary no matter what follows (an ident argument
        // like `Vec::from(data)` must still match).
        let tn = token.as_bytes()[token.len() - 1];
        let after_ok = !is_ident(tn) || end >= b.len() || !is_ident(b[end]);
        if before_ok && after_ok {
            out.push(1 + code[..at].matches('\n').count());
        }
    }
    out
}

/// R1 panic-freedom: `unwrap`/`expect`/panicking macros/slice indexing.
pub fn r1_panic(code: &str, out: &mut Vec<Finding>) {
    for (token, what) in [
        (".unwrap()", "unwrap() panics on the error path"),
        (".expect(", "expect() panics on the error path"),
        ("panic!(", "explicit panic"),
        ("unimplemented!(", "unimplemented!() panics"),
        ("todo!(", "todo!() panics"),
    ] {
        for line in token_lines(code, token) {
            out.push(Finding::new(Rule::R1, line, format!("{what}; return a typed error")));
        }
    }
    slice_index(code, out);
}

/// Flag `expr[...]` indexing: a `[` directly preceded by an identifier
/// character, `)` or `]`. Misses nothing a formatted tree produces and
/// skips array types (`[u8; 4]`), attributes (`#[…]`), macros (`vec![`)
/// and slice patterns (`let [a, b] = …`).
fn slice_index(code: &str, out: &mut Vec<Finding>) {
    let b = code.as_bytes();
    let mut line = 1usize;
    for (i, &c) in b.iter().enumerate() {
        if c == b'\n' {
            line += 1;
            continue;
        }
        if c != b'[' || i == 0 {
            continue;
        }
        let p = b[i - 1];
        if is_ident(p) || p == b')' || p == b']' {
            out.push(Finding::new(
                Rule::R1,
                line,
                "slice/array indexing panics out of bounds; use get() or a checked pattern"
                    .to_owned(),
            ));
        }
    }
}

/// R2 determinism: raw time/entropy reads.
pub fn r2_determinism(code: &str, out: &mut Vec<Finding>) {
    for token in R2_TOKENS {
        for line in token_lines(code, token) {
            out.push(Finding::new(
                Rule::R2,
                line,
                format!("{token} bypasses the injectable Clock/seeded RNG"),
            ));
        }
    }
}

/// R3 lock discipline: a blocking RPC (`.call(`) or simulated sleep
/// (`sleep_ns(`) made while a `let`-bound lock guard is live in the
/// enclosing scope. Brace-depth approximation of guard lifetimes: a
/// guard dies when its block closes or when `drop(guard)` names it.
pub fn r3_lock_discipline(code: &str, out: &mut Vec<Finding>) {
    struct Guard {
        name: String,
        depth: usize,
    }
    let b = code.as_bytes();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut line = 1usize;
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                i += 1;
            }
            b'l' if code[i..].starts_with("let ") && (i == 0 || !is_ident(b[i - 1])) => {
                // `let [mut] NAME = …lock()/.read()/.write();`
                let stmt_end = code[i..].find(';').map(|p| i + p).unwrap_or(b.len());
                let stmt = &code[i..stmt_end];
                if let Some(name) = guard_binding(stmt) {
                    guards.push(Guard { name, depth });
                }
                i += 4;
            }
            b'd' if code[i..].starts_with("drop(") && (i == 0 || !is_ident(b[i - 1])) => {
                let arg_start = i + 5;
                let arg_end = code[arg_start..].find(')').map(|p| arg_start + p).unwrap_or(b.len());
                let arg = code[arg_start..arg_end].trim();
                guards.retain(|g| g.name != arg);
                i += 5;
            }
            b'.' if code[i..].starts_with(".call(") => {
                if let Some(g) = guards.last() {
                    out.push(Finding::new(
                        Rule::R3,
                        line,
                        format!("blocking RPC .call() while lock guard `{}` is held", g.name),
                    ));
                }
                i += 6;
            }
            b's' if code[i..].starts_with("sleep_ns(") && (i == 0 || !is_ident(b[i - 1])) => {
                if let Some(g) = guards.last() {
                    out.push(Finding::new(
                        Rule::R3,
                        line,
                        format!("sleep_ns() while lock guard `{}` is held", g.name),
                    ));
                }
                i += 9;
            }
            _ => i += 1,
        }
    }
}

/// If `stmt` (a `let …` statement without its `;`) binds a lock guard,
/// return the bound name. Only nullary `.lock()`, `.read()`, `.write()`
/// receivers count — `file.read(&mut buf)` takes arguments and doesn't
/// match. Public so the proptest harness can fuzz it directly.
pub fn guard_binding(stmt: &str) -> Option<String> {
    let eq = stmt.find('=')?;
    let rhs = &stmt[eq + 1..];
    if rhs.trim_start().starts_with('*') {
        return None; // `let x = *m.lock();` copies the value out; no guard lives
    }
    if rhs.contains('{') || rhs.contains("let ") {
        // `let x = { let g = m.lock(); … }` — the statement slice crossed
        // into a nested block; any guard in there is scoped to it.
        return None;
    }
    if !(rhs.contains(".lock()") || rhs.contains(".read()") || rhs.contains(".write()")) {
        return None;
    }
    // Guard must be the final value of the RHS, not a temporary inside a
    // longer chain (`map.lock().len()` yields usize, not a guard).
    let rhs_trim = rhs.trim_end();
    if !(rhs_trim.ends_with(".lock()")
        || rhs_trim.ends_with(".read()")
        || rhs_trim.ends_with(".write()"))
    {
        return None;
    }
    let mut lhs = stmt[..eq].trim_start_matches("let ").trim();
    if let Some(rest) = lhs.strip_prefix("mut ") {
        lhs = rest;
    }
    // Skip pattern/type bindings; a plain identifier is the common case.
    let name: String = lhs.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if name.is_empty() || lhs.starts_with('(') || lhs.starts_with('[') {
        None
    } else {
        Some(name)
    }
}

/// R4 format hygiene: on-disk constants referenced outside
/// `chunk::format`.
pub fn r4_format_hygiene(code: &str, out: &mut Vec<Finding>) {
    for token in R4_TOKENS {
        for line in token_lines(code, token) {
            out.push(Finding::new(
                Rule::R4,
                line,
                format!("{token} is a chunk on-disk constant; only chunk::format may use it"),
            ));
        }
    }
}

/// The declared lock-rank manifest (R5). Receiver identifiers of every
/// lock that is ever acquired *inside* another guard's scope, ranked:
/// nesting must go strictly rank-upward (outer < inner). The runtime
/// witness (`diesel_util::lockdep`) learns orders empirically; this
/// manifest declares them, so an inversion is a finding even on paths
/// tests never execute. Receivers not listed here may only be acquired
/// un-nested — a nested acquisition of an unranked receiver is itself
/// a finding (add it here, deliberately, with the right rank).
pub const LOCK_RANKS: &[(&str, u32)] = &[
    // admission controller: the DRR lane mutex publishes per-tenant
    // gauges (obs registry `inner`) while held, so it ranks below the
    // registry.
    ("lanes", 5),
    // obs registry: snapshot nests gate → metrics map → event ring.
    ("gate", 10),
    // The installed epoch plan's load queue: picking the next lookahead
    // load admits it on its owner, one node at a time
    // (cache.lookahead → cache.node at runtime).
    ("lookahead", 14),
    ("inner", 20),
    ("events", 30),
    // exec pool: worker spawn serializes on start_lock, then appends
    // join handles.
    ("start_lock", 40),
    ("handles", 50),
];

/// Rank of `recv` per [`LOCK_RANKS`].
fn lock_rank(recv: &str) -> Option<u32> {
    LOCK_RANKS.iter().find(|(n, _)| *n == recv).map(|&(_, r)| r)
}

/// The receiver identifier of a `.lock()`/`.read()`/`.write()` call
/// whose dot sits at byte `dot`: the identifier just before the dot,
/// skipping one trailing index/call group (`shards[i]` → `shards`,
/// `node(n)` → `node`).
fn recv_ident(code: &str, dot: usize) -> Option<String> {
    let b = code.as_bytes();
    let mut j = dot;
    // Skip one bracket group: `self.shards[i].read()`, `shard(k).write()`.
    for (open, close) in [(b'[', b']'), (b'(', b')')] {
        if j > 0 && b[j - 1] == close {
            let mut depth = 0usize;
            while j > 0 {
                j -= 1;
                if b[j] == close {
                    depth += 1;
                } else if b[j] == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
        }
    }
    let end = j;
    while j > 0 && is_ident(b[j - 1]) {
        j -= 1;
    }
    if j == end {
        None
    } else {
        Some(code[j..end].to_owned())
    }
}

/// R5 lock order: a second `.lock()`/`.read()`/`.write()` made while a
/// guard bound in an *earlier statement* of the scope is still live.
/// Such a nesting is legal only when both receivers appear in
/// [`LOCK_RANKS`] and the rank strictly increases inward; anything else
/// — unranked receivers or a rank inversion — is a finding. Reuses the
/// brace-depth guard tracker of [`r3_lock_discipline`]; cross-function
/// nesting is the runtime witness's job (`diesel_util::lockdep`).
pub fn r5_lock_order(code: &str, out: &mut Vec<Finding>) {
    struct Guard {
        name: String,
        recv: String,
        depth: usize,
        /// Byte offset of the binding statement's `;` — acquisitions at
        /// or before it belong to this guard's own construction.
        end: usize,
    }
    let b = code.as_bytes();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut line = 1usize;
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                i += 1;
            }
            b'l' if code[i..].starts_with("let ") && (i == 0 || !is_ident(b[i - 1])) => {
                let stmt_end = code[i..].find(';').map(|p| i + p).unwrap_or(b.len());
                let stmt = &code[i..stmt_end];
                if let Some(name) = guard_binding(stmt) {
                    let recv = stmt
                        .rfind(".lock()")
                        .or_else(|| stmt.rfind(".read()"))
                        .or_else(|| stmt.rfind(".write()"))
                        .and_then(|p| recv_ident(stmt, p))
                        .unwrap_or_default();
                    guards.push(Guard { name, recv, depth, end: stmt_end });
                }
                i += 4;
            }
            b'd' if code[i..].starts_with("drop(") && (i == 0 || !is_ident(b[i - 1])) => {
                let arg_start = i + 5;
                let arg_end = code[arg_start..].find(')').map(|p| arg_start + p).unwrap_or(b.len());
                let arg = code[arg_start..arg_end].trim();
                guards.retain(|g| g.name != arg);
                i += 5;
            }
            b'.' if code[i..].starts_with(".lock()")
                || code[i..].starts_with(".read()")
                || code[i..].starts_with(".write()") =>
            {
                // Only guards born in *earlier* statements count as
                // outer; the binding that contains this very token is
                // still being constructed.
                if let Some(outer) = guards.iter().rfind(|g| g.end < i) {
                    let recv = recv_ident(code, i).unwrap_or_default();
                    match (lock_rank(&outer.recv), lock_rank(&recv)) {
                        (Some(o), Some(n)) if o < n => {}
                        (Some(o), Some(n)) => out.push(Finding::new(
                            Rule::R5,
                            line,
                            format!(
                                "lock rank inversion: acquiring `{recv}` (rank {n}) while holding `{}` (rank {o}); nesting must go strictly rank-upward",
                                outer.recv
                            ),
                        )),
                        _ => out.push(Finding::new(
                            Rule::R5,
                            line,
                            format!(
                                "nested lock acquisition of `{recv}` under guard `{}` (receiver `{}`) is not in the LOCK_RANKS manifest; declare both ranks or restructure",
                                outer.name, outer.recv
                            ),
                        )),
                    }
                }
                i += 6;
            }
            _ => i += 1,
        }
    }
}

/// The only module allowed raw byte copies without a ledger entry (R6):
/// `Bytes` itself materializes vecs in its slice/into_vec plumbing.
pub const R6_HOME: &str = "crates/util/src/bytes.rs";

/// Copy tokens R6 polices. `.clone()` is deliberately absent —
/// `Bytes::clone` is a refcount bump, cloning is the zero-copy idiom.
const R6_TOKENS: &[&str] = &[".to_vec()", ".into_vec()", "Vec::from("];

/// How far (in lines) a `record_copy(` call may sit from the copy it
/// ledgers and still count.
pub const R6_LEDGER_RADIUS: usize = 3;

/// R6 copy hygiene: payload-plane byte copies (`.to_vec()`,
/// `.into_vec()`, `Vec::from(`) must be *ledgered* — a
/// `record_copy(…)` call within ±[`R6_LEDGER_RADIUS`] lines — so the
/// zero-copy read path (DESIGN.md §11) stays shrink-only like the rest
/// of the baseline. Non-payload copies are suppressed in place with a
/// reason instead.
pub fn r6_copy_hygiene(code: &str, out: &mut Vec<Finding>) {
    let ledgered = token_lines(code, "record_copy(");
    for token in R6_TOKENS {
        for line in token_lines(code, token) {
            if ledgered.iter().any(|&l| l.abs_diff(line) <= R6_LEDGER_RADIUS) {
                continue;
            }
            out.push(Finding::new(
                Rule::R6,
                line,
                format!(
                    "{token} copies bytes outside the ledger; call record_copy beside it or keep the payload as Bytes"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(f: fn(&str, &mut Vec<Finding>), code: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        f(code, &mut out);
        out
    }

    #[test]
    fn r1_catches_unwrap_and_indexing() {
        let hits = run(r1_panic, "let a = x.unwrap();\nlet b = v[0];\nlet t: [u8; 4] = y;\n");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].line, 1);
        assert_eq!(hits[1].line, 2);
    }

    #[test]
    fn r1_skips_patterns_attrs_and_macros() {
        let hits = run(r1_panic, "#[derive(Debug)]\nlet [a, b] = pair;\nlet v = vec![1, 2];\n");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn r2_catches_raw_time() {
        let hits = run(r2_determinism, "let t = Instant::now();\nstd::time::SystemTime::now();\n");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn r3_flags_call_under_guard() {
        let src = "fn f() {\n  let g = m.lock();\n  chan.call(req);\n}\n";
        let hits = run(r3_lock_discipline, src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn r3_guard_dropped_before_call_is_fine() {
        for src in [
            "fn f() {\n  let g = m.lock();\n  drop(g);\n  chan.call(req);\n}\n",
            "fn f() {\n  { let g = m.lock(); }\n  chan.call(req);\n}\n",
            "fn f() {\n  let n = m.lock().len();\n  chan.call(req);\n}\n",
            "fn f() {\n  let v = *m.lock();\n  chan.call(req);\n}\n",
        ] {
            assert!(run(r3_lock_discipline, src).is_empty(), "{src}");
        }
    }

    #[test]
    fn r4_flags_constants() {
        let hits = run(r4_format_hygiene, "if magic != CHUNK_MAGIC { }\n");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn token_lines_rejects_prefixed_and_suffixed_identifiers() {
        // `my_thread_rng` and `thread_rng_2` must not match `thread_rng`.
        assert!(token_lines("let a = my_thread_rng();\n", "thread_rng").is_empty());
        assert!(token_lines("let a = thread_rng_2();\n", "thread_rng").is_empty());
        assert_eq!(token_lines("let a = thread_rng();\n", "thread_rng"), vec![1]);
    }

    #[test]
    fn token_lines_punctuation_tail_accepts_ident_arguments() {
        // A token ending in `(` is already bounded; the argument that
        // follows may start with an identifier char.
        assert_eq!(token_lines("let w = Vec::from(data);\n", "Vec::from("), vec![1]);
    }

    #[test]
    fn token_lines_matches_method_call_form() {
        // The pre-fix precedence bug dropped `.`-preceded matches of
        // non-dot tokens: `rng.from_entropy()` went unreported.
        assert_eq!(token_lines("let r = rng.from_entropy();\n", "from_entropy"), vec![1]);
    }

    #[test]
    fn r5_flags_unranked_nesting() {
        let src = "fn f() {\n  let g = a.lock();\n  let h = b.lock();\n}\n";
        let hits = run(r5_lock_order, src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert!(hits[0].message.contains("LOCK_RANKS"), "{}", hits[0].message);
    }

    #[test]
    fn r5_rank_upward_nesting_is_fine() {
        let src = "fn f() {\n  let g = self.gate.write();\n  let c = self.inner.lock();\n                     let e = self.events.lock();\n}\n";
        assert!(run(r5_lock_order, src).is_empty());
    }

    #[test]
    fn r5_flags_rank_inversion() {
        let src = "fn f() {\n  let e = self.events.lock();\n  let g = self.gate.write();\n}\n";
        let hits = run(r5_lock_order, src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert!(hits[0].message.contains("rank inversion"), "{}", hits[0].message);
    }

    #[test]
    fn r5_sequential_acquisition_is_fine() {
        for src in [
            // Temporary guards: no let-bound guard lives across the call.
            "fn f() {\n  a.lock().push(1);\n  b.lock().push(2);\n}\n",
            // Dropped before the second acquisition.
            "fn f() {\n  let g = a.lock();\n  drop(g);\n  let h = b.lock();\n}\n",
            // Scoped out before the second acquisition.
            "fn f() {\n  { let g = a.lock(); }\n  let h = b.lock();\n}\n",
        ] {
            assert!(run(r5_lock_order, src).is_empty(), "{src}");
        }
    }

    #[test]
    fn r5_recv_ident_sees_through_index_and_call_groups() {
        let src = "fn f() {\n  let g = self.events.lock();\n                     let h = self.shards[i].read();\n}\n";
        let hits = run(r5_lock_order, src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("`shards`"), "{}", hits[0].message);
    }

    #[test]
    fn r6_flags_unledgered_copy() {
        let hits = run(r6_copy_hygiene, "let v = data.to_vec();\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn r6_ledgered_copy_within_radius_is_fine() {
        let src = "let v = data.to_vec();\nrecord_copy(\"site\", v.len() as u64);\n";
        assert!(run(r6_copy_hygiene, src).is_empty());
        let far = "let v = data.to_vec();\n\n\n\n\nrecord_copy(\"site\", 1);\n";
        assert_eq!(run(r6_copy_hygiene, far).len(), 1, "5 lines apart is outside the radius");
    }
}
