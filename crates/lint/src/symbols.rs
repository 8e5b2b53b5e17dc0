//! AST-lite symbol extraction over the token stream.
//!
//! The lock rules need more structure than a flat token scan: where
//! function bodies start and end, which names hold a `Mutex`/`RwLock`,
//! where lock guards live, and which calls happen while they do. This
//! module recovers exactly that — and no more — from the [`crate::scan`]
//! token stream, without a real parser (pulling in `syn` would break the
//! offline-vendoring constraint).
//!
//! Everything here is approximate by design. The known soundness limits
//! (documented in DESIGN.md §15):
//!
//! * guard extents are token-range approximations (binding → end of the
//!   enclosing block or an explicit `drop(guard)`, temporary → end of
//!   statement), not borrow-checker-accurate liveness;
//! * lock identity is keyed by the receiver's *field/variable name*, so
//!   two distinct locks that share a name alias into one node;
//! * the call graph resolves bare callee names within one crate, one hop
//!   deep — method calls resolve to any same-named `fn` in the crate.

use crate::scan::{Scanned, Tok};

/// A `fn` item (free function, method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index of the matching `}`.
    pub body_end: usize,
}

/// A `Mutex`/`RwLock` declaration site (struct field, static, local
/// binding, or fn parameter). Lock identity downstream is keyed by
/// `name`.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Field/binding name holding the lock.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// `RwLock` (true) vs `Mutex` (false).
    pub is_rwlock: bool,
}

/// A lock acquisition site: `.lock()`, `.read()`, or `.write()` with its
/// approximate guard extent.
#[derive(Debug, Clone)]
pub struct LockOp {
    /// Receiver name (`local` in `self.inner.local.read()`), the lock's
    /// identity in the acquisition graph.
    pub name: String,
    /// `lock`, `read`, or `write`.
    pub op: String,
    /// 1-based line of the call.
    pub line: u32,
    /// Token index of the `.` before the call.
    pub idx: usize,
    /// Token index where the guard's extent begins. Usually `idx`, but
    /// for a temporary guard passed as a call argument
    /// (`write_frame(&mut *w.lock(), ..)`) it is the statement start, so
    /// the enclosing call — executed while the guard is held — falls
    /// inside the extent.
    pub extent_start: usize,
    /// Token index one past the guard's approximate extent.
    pub extent_end: usize,
}

/// A call site (free fn, method, macro-free), used for one-hop call
/// graph propagation and blocking-call detection.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (final segment only: `send` in `ep.send(..)`).
    pub callee: String,
    /// 1-based line.
    pub line: u32,
    /// Token index of the callee identifier.
    pub idx: usize,
}

/// Everything the symbol pass extracts from one file.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// `fn` items (including nested ones; ranges may overlap).
    pub fns: Vec<FnDef>,
    /// Lock declarations.
    pub lock_decls: Vec<LockDecl>,
    /// Lock acquisitions with guard extents.
    pub lock_ops: Vec<LockOp>,
    /// All call sites.
    pub calls: Vec<CallSite>,
}

impl FileSymbols {
    /// Extracts symbols from a scanned file.
    pub fn extract(scanned: &Scanned) -> FileSymbols {
        let toks = &scanned.tokens;
        FileSymbols {
            fns: extract_fns(toks),
            lock_decls: extract_lock_decls(toks),
            lock_ops: extract_lock_ops(toks),
            calls: extract_calls(toks),
        }
    }
}

/// Identifier-shaped token that is not a numeric literal.
pub(crate) fn is_ident_tok(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "pub", "use", "mod", "impl", "enum", "struct", "trait", "where", "unsafe", "dyn",
    "move", "in", "as", "crate", "super", "true", "false",
];

/// Index one past the token matching `open` at `i` (`open`/`close` are
/// single-char brace kinds). Saturates at the end of the stream.
fn skip_balanced(toks: &[Tok], i: usize, open: &str, close: &str) -> usize {
    debug_assert_eq!(toks[i].text, open);
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        let t = toks[j].text.as_str();
        if t == open {
            depth += 1;
        } else if t == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

fn extract_fns(toks: &[Tok]) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "fn" {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if !is_ident_tok(&name_tok.text) {
            i += 1;
            continue;
        }
        // Scan the signature for the body `{` (or `;` for a bodiless
        // trait method) at bracket depth 0.
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut body = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        match body {
            Some(bs) => {
                let be = skip_balanced(toks, bs, "{", "}") - 1;
                out.push(FnDef {
                    name: name_tok.text.clone(),
                    body_start: bs,
                    body_end: be,
                });
                // Continue *inside* the body so nested fns are found.
                i = bs + 1;
            }
            None => i = j,
        }
    }
    out
}

fn extract_lock_decls(toks: &[Tok]) -> Vec<LockDecl> {
    let mut out: Vec<LockDecl> = Vec::new();
    for i in 0..toks.len() {
        let is_rw = match toks[i].text.as_str() {
            "Mutex" => false,
            "RwLock" => true,
            _ => continue,
        };
        // Walk back over the type chain (`Arc < Mutex`, `std :: sync ::
        // Mutex`, `Option < Arc < RwLock`) looking for a single-colon
        // type ascription `name : ...`, or a `name = Mutex::new(..)`
        // binding.
        let mut p = i as isize - 1;
        let mut steps = 0;
        let mut name: Option<&Tok> = None;
        while p > 0 && steps < 24 {
            let pu = p as usize;
            let t = toks[pu].text.as_str();
            if t == ":" {
                let part_of_path = toks[pu - 1].text == ":" || toks[pu + 1].text == ":";
                if part_of_path {
                    p -= 1;
                    steps += 1;
                    continue;
                }
                if is_ident_tok(&toks[pu - 1].text) {
                    name = Some(&toks[pu - 1]);
                }
                break;
            }
            if t == "=" {
                if is_ident_tok(&toks[pu - 1].text) {
                    name = Some(&toks[pu - 1]);
                }
                break;
            }
            if is_ident_tok(t) || matches!(t, "<" | "&") {
                p -= 1;
                steps += 1;
                continue;
            }
            break;
        }
        if let Some(nt) = name {
            out.push(LockDecl {
                name: nt.text.clone(),
                line: toks[i].line,
                is_rwlock: is_rw,
            });
        }
    }
    out
}

fn extract_lock_ops(toks: &[Tok]) -> Vec<LockOp> {
    let mut out = Vec::new();
    for i in 1..toks.len() {
        if toks[i].text != "." {
            continue;
        }
        let op = match toks.get(i + 1).map(|t| t.text.as_str()) {
            Some(op @ ("lock" | "read" | "write")) => op.to_string(),
            _ => continue,
        };
        if toks.get(i + 2).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        // Receiver name: the identifier (or fn-call name) before the `.`.
        let r = i - 1;
        let (name, recv_idx) = if is_ident_tok(&toks[r].text) {
            (Some(toks[r].text.clone()), r)
        } else if toks[r].text == ")" {
            // `registry().lock()` — walk back to the call's open paren.
            let mut depth = 0i32;
            let mut q = r;
            let mut open = None;
            loop {
                match toks[q].text.as_str() {
                    ")" => depth += 1,
                    "(" => {
                        depth -= 1;
                        if depth == 0 {
                            open = Some(q);
                            break;
                        }
                    }
                    _ => {}
                }
                if q == 0 {
                    break;
                }
                q -= 1;
            }
            match open {
                Some(o) if o > 0 && is_ident_tok(&toks[o - 1].text) => {
                    (Some(toks[o - 1].text.clone()), o - 1)
                }
                _ => (None, r),
            }
        } else {
            (None, r)
        };
        let Some(name) = name else { continue };

        let after_call = skip_balanced(toks, i + 2, "(", ")");
        // `.unwrap()` / `.expect(..)` still yield the guard.
        let mut c = after_call;
        while c + 2 < toks.len()
            && toks[c].text == "."
            && matches!(toks[c + 1].text.as_str(), "unwrap" | "expect")
            && toks[c + 2].text == "("
        {
            c = skip_balanced(toks, c + 2, "(", ")");
        }
        // Further chaining (`.len()`, `?`) consumes the guard within the
        // statement — it is a temporary regardless of any `let`.
        let chained_on = c < toks.len() && (toks[c].text == "." || toks[c].text == "?");

        // Chain root (`self` in `self.inner.local.read()`), then the
        // token before it decides binding vs scrutinee vs temporary.
        let mut root = recv_idx;
        while root >= 2 && toks[root - 1].text == "." && is_ident_tok(&toks[root - 2].text) {
            root -= 2;
        }
        let mut pre = root as isize - 1;
        while pre > 0 && matches!(toks[pre as usize].text.as_str(), "*" | "&" | "mut") {
            pre -= 1;
        }
        let pre_tok = (pre >= 0).then(|| toks[pre as usize].text.as_str());

        let (extent_start, extent_end) = if pre_tok == Some("match") {
            // Guard lives for the whole match body.
            (i, match_body_end(toks, after_call))
        } else if !chained_on && pre_tok == Some("=") {
            // `let g = m.lock();` (possibly via a pattern) — guard lives
            // to the end of the enclosing block or an explicit `drop`.
            let binding = binding_name(toks, pre as usize);
            (i, block_extent(toks, c, binding.as_deref()))
        } else {
            // Temporary: guard dropped at the end of the statement; the
            // extent opens at the statement start so an enclosing call
            // taking the guard as an argument is covered.
            (statement_start(toks, root), statement_extent(toks, c))
        };
        out.push(LockOp {
            name,
            op,
            line: toks[i + 1].line,
            idx: i,
            extent_start,
            extent_end,
        });
    }
    out
}

/// For a lock acquired as a match scrutinee: index of the match body's
/// closing brace (scan forward from the call to the body `{`).
fn match_body_end(toks: &[Tok], from: usize) -> usize {
    let mut j = from;
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" if depth == 0 => return skip_balanced(toks, j, "{", "}"),
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" => return j,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// The binding name of `let <pat> = ...`: the last plain identifier in
/// the pattern (skipping `Ok`/`Some`/`Err` wrappers and `mut`/`ref`).
fn binding_name(toks: &[Tok], eq: usize) -> Option<String> {
    let start = eq.saturating_sub(8);
    let let_pos = (start..eq).rev().find(|&p| toks[p].text == "let")?;
    toks[let_pos + 1..eq]
        .iter()
        .rfind(|t| {
            is_ident_tok(&t.text)
                && !matches!(t.text.as_str(), "Ok" | "Some" | "Err" | "mut" | "ref")
        })
        .map(|t| t.text.clone())
}

/// Extent of a let-bound guard: to the end of the enclosing block, or an
/// explicit `drop(<binding>)`.
fn block_extent(toks: &[Tok], from: usize, binding: Option<&str>) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            "drop"
                if depth >= 0
                    && toks.get(j + 1).map(|t| t.text.as_str()) == Some("(")
                    && binding.is_some()
                    && toks.get(j + 2).map(|t| t.text.as_str()) == binding
                    && toks.get(j + 3).map(|t| t.text.as_str()) == Some(")") =>
            {
                return j;
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Start of the statement containing token `at`: one past the previous
/// `;`, `{`, or `}` (approximate; commas are not statement boundaries).
fn statement_start(toks: &[Tok], at: usize) -> usize {
    let mut j = at;
    while j > 0 {
        match toks[j - 1].text.as_str() {
            ";" | "{" | "}" => return j,
            _ => j -= 1,
        }
    }
    0
}

/// Extent of a temporary guard: to the end of the statement (`;` at
/// brace depth 0, or the closing brace of the enclosing block).
fn statement_extent(toks: &[Tok], from: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

fn extract_calls(toks: &[Tok]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if !is_ident_tok(&toks[i].text) || toks[i + 1].text != "(" {
            continue;
        }
        if KEYWORDS.contains(&toks[i].text.as_str()) {
            continue;
        }
        if i > 0 && toks[i - 1].text == "fn" {
            continue; // definition, not a call
        }
        out.push(CallSite {
            callee: toks[i].text.clone(),
            line: toks[i].line,
            idx: i,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn sym(src: &str) -> FileSymbols {
        FileSymbols::extract(&scan(src))
    }

    #[test]
    fn fn_boundaries_and_nesting() {
        let s = sym("fn outer() -> Result<(), E> { fn inner(x: u32) -> u32 { x } inner(1); Ok(()) }\nfn tail() {}");
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "tail"]);
        let (outer, inner) = (&s.fns[0], &s.fns[1]);
        assert!(outer.body_start < inner.body_start && inner.body_end < outer.body_end);
    }

    #[test]
    fn bodiless_trait_fn_is_skipped() {
        let s = sym("trait T { fn sig(&self) -> usize; fn with_body(&self) -> usize { 1 } }");
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_body"]);
    }

    #[test]
    fn lock_decls_fields_statics_params_and_bindings() {
        let s = sym(
            "struct Inner { writer: Arc<Mutex<TcpStream>>, local: RwLock<LocalMap> }\nstatic LOCK: Mutex<()> = Mutex::new(());\nfn f(m: &Mutex<u32>) { let fresh = Mutex::new(0u32); }\nuse std::sync::Mutex;",
        );
        let mut names: Vec<(&str, bool)> = s
            .lock_decls
            .iter()
            .map(|d| (d.name.as_str(), d.is_rwlock))
            .collect();
        names.dedup();
        assert!(names.contains(&("writer", false)));
        assert!(names.contains(&("local", true)));
        assert!(names.contains(&("LOCK", false)));
        assert!(names.contains(&("m", false)));
        assert!(names.contains(&("fresh", false)));
        // The `use` import registers nothing.
        assert!(!names.iter().any(|(n, _)| *n == "sync" || *n == "std"));
    }

    #[test]
    fn lock_op_bound_guard_extends_to_block_end_or_drop() {
        let s = sym(
            "fn f(&self) { let g = self.inner.local.read(); use_it(&g); drop(g); after(); }\nfn h(&self) { let w = self.writer.lock(); w.flush(); }",
        );
        assert_eq!(s.lock_ops.len(), 2);
        let g = &s.lock_ops[0];
        assert_eq!((g.name.as_str(), g.op.as_str()), ("local", "read"));
        // Extent stops at drop(g): the `after()` call is outside.
        let after = s.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(after.idx > g.extent_end);
        let use_it = s.calls.iter().find(|c| c.callee == "use_it").unwrap();
        assert!(use_it.idx < g.extent_end);
        // `w` has no drop: extent runs to the end of fn h's block.
        let w = &s.lock_ops[1];
        let flush = s
            .calls
            .iter()
            .find(|c| c.callee == "flush")
            .expect("flush call");
        assert!(flush.idx < w.extent_end);
    }

    #[test]
    fn lock_op_temporary_ends_at_statement() {
        let s = sym("fn f(&self) { let n = self.map.lock().unwrap().len(); send(n); }");
        let op = &s.lock_ops[0];
        assert_eq!(op.name, "map");
        let send = s.calls.iter().find(|c| c.callee == "send").unwrap();
        assert!(
            send.idx > op.extent_end,
            "temporary guard must not span the next statement"
        );
    }

    #[test]
    fn lock_op_in_call_args_spans_the_statement() {
        let s = sym("fn f(&self) { write_frame(&mut *self.writer.lock(), &probe); next(); }");
        let op = &s.lock_ops[0];
        assert_eq!(op.name, "writer");
        let wf = s.calls.iter().find(|c| c.callee == "write_frame").unwrap();
        // The write_frame call itself is inside the guard's extent, even
        // though it lexically precedes the acquisition…
        assert!(wf.idx >= op.extent_start && wf.idx < op.extent_end);
        // …but the next statement is not.
        let next = s.calls.iter().find(|c| c.callee == "next").unwrap();
        assert!(next.idx > op.extent_end);
    }

    #[test]
    fn lock_op_match_scrutinee_spans_match_body() {
        let s = sym("fn f(&self) { match self.state.lock() { S::A => go(), S::B => {} } tail(); }");
        let op = &s.lock_ops[0];
        let go = s.calls.iter().find(|c| c.callee == "go").unwrap();
        let tail = s.calls.iter().find(|c| c.callee == "tail").unwrap();
        assert!(go.idx < op.extent_end);
        // extent_end is exclusive; the statement after the match body is
        // outside the guard.
        assert!(tail.idx >= op.extent_end);
    }

    #[test]
    fn fn_call_receiver_lock_is_named() {
        let s = sym("fn f() { registry().lock().push(1); }");
        assert_eq!(s.lock_ops[0].name, "registry");
    }

    #[test]
    fn calls_exclude_macros_and_defs() {
        let s = sym("fn f() { go(1); x.send(2); vec![3]; println!(\"{}\", 4); }");
        let callees: Vec<&str> = s.calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(callees.contains(&"go"));
        assert!(callees.contains(&"send"));
        assert!(!callees.contains(&"f"), "fn definition is not a call");
        assert!(!callees.contains(&"vec"));
        assert!(!callees.contains(&"println"));
    }
}
