//! The R3, R5 and R6 passes. Each pass walks the scrubbed source of one
//! file and emits findings; target/test exemptions and suppressions are
//! applied by the caller in `lib.rs`.

use crate::{Finding, Rule};

/// The serving crates. Their library code is held to R6 here, and to
/// clippy's panic-freedom lints through `[lints] workspace = true`.
pub const SERVING_CRATES: &[&str] =
    &["core", "cache", "meta", "kv", "net", "store", "chunk", "obs", "exec", "util", "train"];

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
        // Dot-initial tokens (`.to_vec()`) carry their own boundary; any
        // other token must not continue an identifier.
        let before_ok = t0 == b'.' || at == 0 || !is_ident(b[at - 1]);
        let end = at + token.len();
        // The trailing boundary only matters when the token ends in an
        // identifier char; `Vec::from(` ends at punctuation, which is a
        // boundary no matter what follows (`Vec::from(data)` must match).
        let tn = token.as_bytes()[token.len() - 1];
        let after_ok = !is_ident(tn) || end >= b.len() || !is_ident(b[end]);
        if before_ok && after_ok {
            out.push(1 + code[..at].matches('\n').count());
        }
    }
    out
}

/// R3 lock discipline and R5 lock order, in one walk over the guards
/// `let`-bound in each scope. A guard dies when its block closes or when
/// `drop(guard)` names it (a brace-depth approximation of its lifetime);
/// cross-function nesting is the runtime witness's job
/// (`diesel_util::lockdep`).
///
/// * R3: a blocking RPC (`.call(`) or simulated sleep (`sleep_ns(`) made
///   while a guard is live.
/// * R5: a second `.lock()`/`.read()`/`.write()` made while a guard bound
///   in an *earlier statement* is live. Such a nesting is legal only when
///   both receivers appear in [`LOCK_RANKS`] and the rank strictly
///   increases inward; anything else — unranked receivers or a rank
///   inversion — is a finding.
pub fn lock_rules(code: &str, out: &mut Vec<Finding>) {
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
    let starts_ident = |i: usize| i == 0 || !is_ident(b[i - 1]);
    for (i, &c) in b.iter().enumerate() {
        // Empty inside a multi-byte character, which starts no token.
        let rest = code.get(i..).unwrap_or_default();
        match c {
            b'\n' => line += 1,
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            b'l' if rest.starts_with("let ") && starts_ident(i) => {
                // `let [mut] NAME = …lock()/.read()/.write();`
                let stmt_end = rest.find(';').map_or(b.len(), |p| i + p);
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
            }
            b'd' if rest.starts_with("drop(") && starts_ident(i) => {
                let arg = rest[5..].split(')').next().unwrap_or_default().trim();
                guards.retain(|g| g.name != arg);
            }
            b'.' | b's'
                if rest.starts_with(".call(")
                    || (rest.starts_with("sleep_ns(") && starts_ident(i)) =>
            {
                if let Some(g) = guards.last() {
                    let what = if c == b'.' { "blocking RPC .call()" } else { "sleep_ns()" };
                    out.push(Finding::new(
                        Rule::R3,
                        line,
                        format!("{what} while lock guard `{}` is held", g.name),
                    ));
                }
            }
            b'.' if rest.starts_with(".lock()")
                || rest.starts_with(".read()")
                || rest.starts_with(".write()") =>
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
            }
            _ => {}
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
    // obs registry: snapshot nests gate → metrics map.
    ("gate", 10),
    // The installed epoch plan's load queue: picking the next lookahead
    // load admits it on its owner, one node at a time
    // (cache.lookahead → cache.node at runtime).
    ("lookahead", 14),
    ("inner", 20),
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
    fn r3_flags_call_under_guard() {
        let src = "fn f() {\n  let g = m.lock();\n  chan.call(req);\n}\n";
        let hits = run(lock_rules, src);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].rule, hits[0].line), (Rule::R3, 3));
    }

    #[test]
    fn r3_guard_dropped_before_call_is_fine() {
        for src in [
            "fn f() {\n  let g = m.lock();\n  drop(g);\n  chan.call(req);\n}\n",
            "fn f() {\n  { let g = m.lock(); }\n  chan.call(req);\n}\n",
            "fn f() {\n  let n = m.lock().len();\n  chan.call(req);\n}\n",
            "fn f() {\n  let v = *m.lock();\n  chan.call(req);\n}\n",
        ] {
            assert!(run(lock_rules, src).is_empty(), "{src}");
        }
    }

    #[test]
    fn r3_names_the_held_guard_for_each_blocking_form() {
        let src = "fn f() {\n  let guard = table.lock();\n  chan.call(guard.request())\n}\n\
                   fn g() {\n  let snapshot = state.read();\n  clock.sleep_ns(snapshot.backoff_ns);\n}\n";
        let hits = run(lock_rules, src);
        let at: Vec<_> = hits.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(at, vec![(Rule::R3, 3), (Rule::R3, 7)]);
        assert!(hits[0].message.contains(".call()") && hits[0].message.contains("`guard`"));
        assert!(hits[1].message.contains("sleep_ns") && hits[1].message.contains("`snapshot`"));
    }

    #[test]
    fn r3_a_guard_scoped_to_a_block_expression_is_gone_after_it() {
        let stmt = "let req = {\n    let guard = table.lock()";
        assert_eq!(guard_binding(stmt), None, "the outer let binds the block's value");
        let src = "fn f() {\n  let req = {\n    let guard = table.lock();\n    guard.request()\n  };\n  chan.call(req)\n}\n";
        assert!(run(lock_rules, src).is_empty());
    }

    #[test]
    fn one_walk_reports_both_lock_rules() {
        let src = "fn f() {\n  let g = a.lock();\n  let h = b.lock();\n  sleep_ns(1);\n}\n";
        let hits: Vec<_> = run(lock_rules, src).iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(hits, vec![(Rule::R5, 3), (Rule::R3, 4)]);
    }

    #[test]
    fn token_lines_respects_identifier_boundaries() {
        assert!(token_lines("my_record_copy(1);\n", "record_copy(").is_empty());
        assert_eq!(token_lines("\nrecord_copy(1);\n", "record_copy("), vec![2]);
        // A token ending in `(` is already bounded; the argument that
        // follows may start with an identifier char.
        assert_eq!(token_lines("let w = Vec::from(data);\n", "Vec::from("), vec![1]);
    }

    #[test]
    fn r5_flags_unranked_nesting() {
        let src = "fn f() {\n  let g = a.lock();\n  let h = b.lock();\n}\n";
        let hits = run(lock_rules, src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert!(hits[0].message.contains("LOCK_RANKS"), "{}", hits[0].message);
    }

    #[test]
    fn r5_rank_upward_nesting_is_fine() {
        let src = "fn f() {\n  let g = self.gate.write();\n  let c = self.inner.lock();\n                     let s = self.start_lock.lock();\n}\n";
        assert!(run(lock_rules, src).is_empty());
    }

    #[test]
    fn r5_flags_rank_inversion() {
        let src = "fn f() {\n  let i = self.inner.lock();\n  let g = self.gate.write();\n}\n";
        let hits = run(lock_rules, src);
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
            assert!(run(lock_rules, src).is_empty(), "{src}");
        }
    }

    #[test]
    fn r5_recv_ident_sees_through_index_and_call_groups() {
        let src = "fn f() {\n  let g = self.inner.lock();\n                     let h = self.shards[i].read();\n}\n";
        let hits = run(lock_rules, src);
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
