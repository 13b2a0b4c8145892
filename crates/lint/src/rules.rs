//! The rule catalog. Each rule walks the token stream of one file; see
//! `RULES.md` for the rationale and the origin of each invariant.

use crate::lexer::{ScannedFile, Tok, TokKind};

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule id, e.g. `no-lib-panic`.
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// R1: no `.unwrap()` / `.expect()` / `panic!` / `unreachable!` / `todo!`
/// / `unimplemented!` in non-test library code.
pub const NO_LIB_PANIC: &str = "no-lib-panic";
/// R2: nested lock acquisitions must follow the declared order, and no
/// declared lock may be held across `send()` / `recv()` / `join()`.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// R3: every `thread::spawn` result must be bound, stored or returned, and
/// library code starts threads through `thread::Builder`, never a bare
/// `thread::spawn`.
pub const NO_DETACHED_THREADS: &str = "no-detached-threads";
/// R4: the manifest's phase-loop functions must poll their cancellation
/// token.
pub const CANCEL_POLL: &str = "cancel-poll";
/// R5: service code talks to storage only through `ScopedDevice`.
pub const SCOPED_IO: &str = "scoped-io";
/// R6: only the manifest's backends and the forwarding layer's blanket
/// impl implement `StorageDevice` by hand.
pub const DEVICE_LAYER: &str = "device-layer";

/// Every rule id, in catalog order.
pub const ALL_RULES: [&str; 6] = [
    NO_LIB_PANIC,
    LOCK_DISCIPLINE,
    NO_DETACHED_THREADS,
    CANCEL_POLL,
    SCOPED_IO,
    DEVICE_LAYER,
];

/// The declared lock order. A lock may only be acquired while holding
/// locks that appear *earlier* in this list; acquiring an earlier (or the
/// same) lock while a later one is held is a violation.
///
/// Each entry is `(file suffix, receiver field, printable name)`; rank is
/// the position. The manifest names the three long-lived service-layer
/// locks — `JobState.inner` and the token's waker list are leaf locks that
/// never nest around these.
pub const LOCK_ORDER: [(&str, &str, &str); 3] = [
    (
        "crates/extsort/src/service/arbiter.rs",
        "state",
        "arbiter.state",
    ),
    (
        "crates/extsort/src/service/mod.rs",
        "state",
        "service.state",
    ),
    (
        "crates/extsort/src/service/mod.rs",
        "stats",
        "service.stats",
    ),
];

/// Functions that form a phase loop of the sort pipeline: each must poll
/// the cooperative cancellation token, so a future phase can't silently
/// drop preemption. `(file suffix, function name)`.
pub const CANCEL_POLL_MANIFEST: [(&str, &str); 6] = [
    ("crates/extsort/src/run_generation.rs", "refill"),
    ("crates/extsort/src/sorter.rs", "generate"),
    ("crates/extsort/src/parallel.rs", "generate_sharded"),
    ("crates/extsort/src/merge/kway.rs", "reduce_to_fan_in"),
    ("crates/extsort/src/merge/kway.rs", "merge_step"),
    ("crates/extsort/src/merge/kway.rs", "drain"),
];

/// Directory whose files must route device I/O through `ScopedDevice`.
pub const SCOPED_IO_DIR: &str = "crates/extsort/src/service/";

/// The only hand-written `StorageDevice` impls: the three backends and the
/// blanket impl over `Forward`, whose implementing type is its parameter
/// `T`. `(file suffix, implementing type)`.
pub const DEVICE_LAYER_MANIFEST: [(&str, &str); 4] = [
    ("crates/storage/src/device.rs", "SimDevice"),
    ("crates/storage/src/device.rs", "T"),
    ("crates/storage/src/real_device.rs", "RealFileDevice"),
    ("crates/storage/src/striped.rs", "StripedDevice"),
];

/// Runs every rule over one scanned file. `path` is repo-relative with
/// forward slashes; waivers are applied here, after the rules fire.
pub fn check_file(path: &str, scanned: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    no_lib_panic(path, scanned, &mut findings);
    lock_discipline(path, scanned, &mut findings);
    no_detached_threads(path, scanned, &mut findings);
    cancel_poll(path, scanned, &mut findings);
    scoped_io(path, scanned, &mut findings);
    device_layer(path, scanned, &mut findings);
    findings.retain(|f| !scanned.is_waived(f.rule, f.line));
    findings
}

fn is_punct(tok: Option<&Tok>, text: &str) -> bool {
    matches!(tok, Some(t) if t.kind == TokKind::Punct && t.text == text)
}

// ---------------------------------------------------------------------------
// R1: no-lib-panic
// ---------------------------------------------------------------------------

fn no_lib_panic(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    let tokens = &scanned.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.in_test || tok.kind != TokKind::Ident {
            continue;
        }
        let call = match tok.text.as_str() {
            // `.unwrap()` / `.expect(…)` — method position only, so local
            // functions or fields with these names don't fire.
            "unwrap" | "expect" => {
                is_punct(i.checked_sub(1).and_then(|p| tokens.get(p)), ".")
                    && is_punct(tokens.get(i + 1), "(")
            }
            // Panicking macros. `assert!`/`debug_assert!` stay allowed:
            // they document impossible states, not fallible operations.
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                is_punct(tokens.get(i + 1), "!")
                    // `core::panic::…` paths and `#[should_panic]`-style
                    // attribute positions are not invocations.
                    && !is_punct(i.checked_sub(1).and_then(|p| tokens.get(p)), ":")
            }
            _ => false,
        };
        if call {
            findings.push(Finding {
                file: path.to_string(),
                line: tok.line,
                rule: NO_LIB_PANIC,
                message: format!(
                    "`{}` in library code can panic; propagate a SortError/StorageError instead \
                     (or waive with `// twrs-lint: allow(no-lib-panic) <reason>`)",
                    tok.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R2: lock-discipline
// ---------------------------------------------------------------------------

struct HeldLock {
    name: &'static str,
    rank: usize,
    /// Brace depth the guard was created at; leaving this depth releases it.
    depth: i32,
    /// The `let` binding holding the guard, when there is one; `drop(var)`
    /// releases it. Guards not bound to a variable die at the end of
    /// their statement.
    var: Option<String>,
}

fn lock_discipline(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    let ranked: Vec<(usize, &str, &str)> = LOCK_ORDER
        .iter()
        .enumerate()
        .filter(|(_, (suffix, _, _))| path.ends_with(suffix))
        .map(|(rank, (_, field, name))| (rank, *field, *name))
        .collect();
    if ranked.is_empty() {
        return;
    }
    let tokens = &scanned.tokens;
    let mut held: Vec<HeldLock> = Vec::new();
    let mut depth = 0i32;
    // Statement tracking: the `let` binding a fresh `.lock()` guard lands
    // in, reset at every statement boundary.
    let mut stmt_let: Option<String> = None;
    let mut stmt_has_eq = false;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.in_test {
            continue;
        }
        match (tok.kind, tok.text.as_str()) {
            (TokKind::Punct, "{") => depth += 1,
            (TokKind::Punct, "}") => {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
                stmt_let = None;
                stmt_has_eq = false;
            }
            (TokKind::Punct, ";") => {
                // Statement end: temporaries created inside it are gone.
                held.retain(|h| h.var.is_some() || h.depth < depth);
                stmt_let = None;
                stmt_has_eq = false;
            }
            (TokKind::Punct, "=") => stmt_has_eq = true,
            (TokKind::Ident, "let") => {
                if let Some(next) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    let name = if next.text == "mut" {
                        tokens.get(i + 2).map(|t| t.text.clone())
                    } else {
                        Some(next.text.clone())
                    };
                    stmt_let = name;
                    stmt_has_eq = false;
                }
            }
            (TokKind::Ident, "drop") if is_punct(tokens.get(i + 1), "(") => {
                if let Some(arg) = tokens.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                    held.retain(|h| h.var.as_deref() != Some(arg.text.as_str()));
                }
            }
            (TokKind::Ident, "lock") => {
                let receiver = i
                    .checked_sub(2)
                    .and_then(|p| tokens.get(p))
                    .filter(|_| is_punct(tokens.get(i - 1), "."))
                    .filter(|t| t.kind == TokKind::Ident);
                let Some(receiver) = receiver else { continue };
                if !is_punct(tokens.get(i + 1), "(") {
                    continue;
                }
                let Some(&(rank, _, name)) =
                    ranked.iter().find(|(_, field, _)| *field == receiver.text)
                else {
                    continue;
                };
                for h in &held {
                    if h.rank >= rank {
                        findings.push(Finding {
                            file: path.to_string(),
                            line: tok.line,
                            rule: LOCK_DISCIPLINE,
                            message: format!(
                                "acquires `{name}` while holding `{}`; declared order is \
                                 arbiter.state -> service.state -> service.stats",
                                h.name
                            ),
                        });
                    }
                }
                held.push(HeldLock {
                    name,
                    rank,
                    depth,
                    // Only a plain `let guard = ….lock()…` statement keeps
                    // the guard alive past its statement.
                    var: if stmt_has_eq { stmt_let.clone() } else { None },
                });
            }
            (TokKind::Ident, op @ ("send" | "recv" | "join")) => {
                if !is_punct(i.checked_sub(1).and_then(|p| tokens.get(p)), ".")
                    || !is_punct(tokens.get(i + 1), "(")
                {
                    continue;
                }
                for h in &held {
                    findings.push(Finding {
                        file: path.to_string(),
                        line: tok.line,
                        rule: LOCK_DISCIPLINE,
                        message: format!(
                            "calls `.{op}()` while holding `{}`; blocking channel/thread \
                             operations must not run under a service lock",
                            h.name
                        ),
                    });
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// R3: no-detached-threads
// ---------------------------------------------------------------------------

fn no_detached_threads(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    let tokens = &scanned.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.in_test || tok.kind != TokKind::Ident || tok.text != "spawn" {
            continue;
        }
        let bare = is_bare_thread_spawn(tokens, i);
        if !is_punct(tokens.get(i + 1), "(") {
            // An import or a function value of `thread::spawn` still leads
            // to a bare call.
            if bare {
                findings.push(bare_spawn_finding(path, tok.line));
            }
            continue;
        }
        // Only thread spawns: `thread::spawn(…)` or a `.spawn(…)` chained
        // off `thread::Builder` within the same statement.
        let stmt_start = statement_start(tokens, i);
        let prefix = &tokens[stmt_start..i];
        let from_thread = prefix
            .windows(2)
            .any(|w| w[0].kind == TokKind::Ident && w[0].text == "thread" && w[1].text == ":");
        if !from_thread {
            continue;
        }
        // The spawn result is used when the statement binds it to a named
        // variable, assigns it, passes it to an enclosing call, stores it
        // in a struct field, or leaves it as a tail expression. It is
        // discarded when the statement is bare (`thread::spawn(…);`) or
        // bound to `let _`.
        let discarded = if let Some(let_pos) = prefix.iter().position(|t| t.text == "let") {
            matches!(prefix.get(let_pos + 1), Some(t) if t.text == "_")
        } else {
            // Unbalanced `(` before the spawn means the handle flows into
            // an enclosing call like `workers.push(thread::spawn(…))`;
            // balanced pairs (`Builder::new()`, `.name(…)`) don't count.
            let balance: i32 = prefix
                .iter()
                .map(|t| match t.text.as_str() {
                    "(" => 1,
                    ")" => -1,
                    _ => 0,
                })
                .sum();
            // `=` covers assignments and `=>` match arms; `return` and a
            // `{` struct-literal start (positive balance catches tuple
            // struct inits) cover the rest of the consuming positions
            // this codebase uses.
            let assigned = prefix
                .iter()
                .any(|t| matches!(t.text.as_str(), "=" | "return"));
            if balance > 0 || assigned {
                false
            } else {
                // Bare spawn expression: discarded only when the statement
                // ends in `;` (a tail expression returns the handle).
                let Some(close) = call_end(tokens, i + 1) else {
                    continue;
                };
                ends_with_semicolon(tokens, close)
            }
        };
        // One finding per site: a discarded handle is the graver fault.
        if discarded {
            findings.push(Finding {
                file: path.to_string(),
                line: tok.line,
                rule: NO_DETACHED_THREADS,
                message: "`thread::spawn` handle is discarded; bind and join it, or store it \
                          in a field that joins on drop/shutdown"
                    .to_string(),
            });
        } else if bare {
            findings.push(bare_spawn_finding(path, tok.line));
        }
    }
}

/// `true` when the `spawn` at `at` is the path `thread::spawn`, which
/// panics when the operating system refuses a thread; `Builder::spawn`
/// returns that failure as an error instead.
fn is_bare_thread_spawn(tokens: &[Tok], at: usize) -> bool {
    at >= 3
        && is_punct(tokens.get(at - 1), ":")
        && is_punct(tokens.get(at - 2), ":")
        && matches!(tokens.get(at - 3), Some(t) if t.kind == TokKind::Ident && t.text == "thread")
}

fn bare_spawn_finding(path: &str, line: u32) -> Finding {
    Finding {
        file: path.to_string(),
        line,
        rule: NO_DETACHED_THREADS,
        message: "bare `thread::spawn` panics when the OS refuses a thread; start it with \
                  `thread::Builder::spawn` and turn the error into a SortError"
            .to_string(),
    }
}

/// Index of the first token of the statement containing `at`: one past the
/// nearest `;`, `{` or `}` looking backward.
fn statement_start(tokens: &[Tok], at: usize) -> usize {
    let mut i = at;
    while i > 0 {
        let t = &tokens[i - 1];
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            return i;
        }
        i -= 1;
    }
    0
}

/// Index of the `)` closing the call whose `(` sits at `open`, following
/// any chained `.method(…)` calls after it.
fn call_end(tokens: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    // Follow `.expect(…)`-style chains.
                    if is_punct(tokens.get(i + 1), ".")
                        && matches!(tokens.get(i + 2), Some(t) if t.kind == TokKind::Ident)
                        && is_punct(tokens.get(i + 3), "(")
                    {
                        i += 3;
                        depth = 0;
                        continue;
                    }
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn ends_with_semicolon(tokens: &[Tok], close: usize) -> bool {
    is_punct(tokens.get(close + 1), ";")
}

// ---------------------------------------------------------------------------
// R4: cancel-poll
// ---------------------------------------------------------------------------

fn cancel_poll(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    let required: Vec<&str> = CANCEL_POLL_MANIFEST
        .iter()
        .filter(|(suffix, _)| path.ends_with(suffix))
        .map(|(_, name)| *name)
        .collect();
    if required.is_empty() {
        return;
    }
    let tokens = &scanned.tokens;
    for name in required {
        let Some((def_line, body)) = function_body(tokens, name) else {
            findings.push(Finding {
                file: path.to_string(),
                line: 1,
                rule: CANCEL_POLL,
                message: format!(
                    "phase-loop function `{name}` from the cancel-poll manifest was not found; \
                     update the manifest in crates/lint/src/rules.rs if it moved"
                ),
            });
            continue;
        };
        if !polls_cancellation(body) {
            findings.push(Finding {
                file: path.to_string(),
                line: def_line,
                rule: CANCEL_POLL,
                message: format!(
                    "phase loop `{name}` never polls its CancellationToken \
                     (`.check()`/`.is_canceled()`); a running job could not be preempted here"
                ),
            });
        }
    }
}

/// The body tokens of `fn name`, with the definition line. Finds the first
/// non-test definition.
fn function_body<'t>(tokens: &'t [Tok], name: &str) -> Option<(u32, &'t [Tok])> {
    let mut i = 0;
    while i + 1 < tokens.len() {
        if tokens[i].kind == TokKind::Ident
            && tokens[i].text == "fn"
            && tokens[i + 1].text == name
            && !tokens[i].in_test
        {
            let def_line = tokens[i].line;
            // Body: first `{` at paren depth 0 after the signature.
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        let mut braces = 0i32;
                        let open = j;
                        while j < tokens.len() {
                            match tokens[j].text.as_str() {
                                "{" => braces += 1,
                                "}" => {
                                    braces -= 1;
                                    if braces == 0 {
                                        return Some((def_line, &tokens[open..=j]));
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        return Some((def_line, &tokens[open..]));
                    }
                    _ => {}
                }
                j += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

fn polls_cancellation(body: &[Tok]) -> bool {
    for (i, tok) in body.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            // `<something-cancel-ish>.check()` — require the receiver to
            // mention "cancel" so unrelated `check` methods don't satisfy
            // the rule.
            "check" => {
                let receiver = i
                    .checked_sub(2)
                    .and_then(|p| body.get(p))
                    .filter(|_| is_punct(body.get(i - 1), "."));
                if matches!(receiver, Some(r) if r.text.to_lowercase().contains("cancel")) {
                    return true;
                }
            }
            "is_canceled" | "check_cancel" | "CANCEL_CHECK_INTERVAL" => return true,
            _ => {}
        }
    }
    false
}

// ---------------------------------------------------------------------------
// R5: scoped-io
// ---------------------------------------------------------------------------

fn scoped_io(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    if !path.contains(SCOPED_IO_DIR) {
        return;
    }
    let tokens = &scanned.tokens;
    // Binding-aware allowance: a local bound to `ScopedDevice::new(…)` IS
    // the wrapper, whatever the binding is called — `let real_device =
    // ScopedDevice::new(RealFileDevice::temp()?)` attributes I/O exactly
    // like a binding named `scoped` would, so page ops on it pass. A
    // `StripedDevice` binding passes for the same reason: the stripe
    // front mirrors every access into its members' `IoStats`, so member
    // accounting stays exact, and jobs still wrap the stripe in their own
    // `ScopedDevice` before any per-tenant I/O happens.
    let mut scoped_bindings: Vec<String> = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind == TokKind::Ident && (tok.text == "ScopedDevice" || tok.text == "StripedDevice")
        {
            let bound = i
                .checked_sub(2)
                .and_then(|p| tokens.get(p))
                .filter(|_| is_punct(tokens.get(i - 1), "="))
                .filter(|t| t.kind == TokKind::Ident);
            if let Some(bound) = bound {
                scoped_bindings.push(bound.text.to_lowercase());
            }
        }
    }
    for (i, tok) in tokens.iter().enumerate() {
        if tok.in_test || tok.kind != TokKind::Ident {
            continue;
        }
        let page_op = matches!(
            tok.text.as_str(),
            "read_page" | "write_page" | "create" | "open" | "remove" | "flush"
        );
        if !page_op || !is_punct(tokens.get(i + 1), "(") {
            continue;
        }
        let receiver = i
            .checked_sub(2)
            .and_then(|p| tokens.get(p))
            .filter(|_| is_punct(tokens.get(i - 1), "."))
            .filter(|t| t.kind == TokKind::Ident);
        let Some(receiver) = receiver else { continue };
        let r = receiver.text.to_lowercase();
        if (r == "device" || r.ends_with("_device"))
            && !r.contains("scoped")
            && !scoped_bindings.contains(&r)
        {
            findings.push(Finding {
                file: path.to_string(),
                line: tok.line,
                rule: SCOPED_IO,
                message: format!(
                    "service code calls `{}.{}()` directly; wrap the device in a ScopedDevice \
                     so per-job I/O attribution stays exact",
                    receiver.text, tok.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R6: device-layer
// ---------------------------------------------------------------------------

fn device_layer(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    // The manifest's impls expected in this file, and whether each was seen.
    let mut expected: Vec<(&str, bool)> = DEVICE_LAYER_MANIFEST
        .iter()
        .filter(|(suffix, _)| path.ends_with(suffix))
        .map(|(_, ty)| (*ty, false))
        .collect();
    let tokens = &scanned.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        // `StorageDevice for` occurs only in an impl header of that trait.
        if tok.in_test || tok.text != "for" || i == 0 || tokens[i - 1].text != "StorageDevice" {
            continue;
        }
        // The implementing type: the last identifier of the path after `for`.
        let ty = tokens[i + 1..]
            .iter()
            .take_while(|t| t.kind != TokKind::Punct || matches!(t.text.as_str(), ":" | "&"))
            .take_while(|t| t.text != "where")
            .filter(|t| t.kind == TokKind::Ident && t.text != "mut")
            .last()
            .map_or("", |t| t.text.as_str());
        match expected.iter_mut().find(|(name, _)| *name == ty) {
            Some((_, seen)) => *seen = true,
            None => findings.push(Finding {
                file: path.to_string(),
                line: tok.line,
                rule: DEVICE_LAYER,
                message: format!(
                    "`{ty}` implements `StorageDevice` by hand; implement \
                     `twrs_storage::device::Forward` and override only what the wrapper changes"
                ),
            }),
        }
    }
    for (ty, _) in expected.iter().filter(|(_, seen)| !seen) {
        findings.push(Finding {
            file: path.to_string(),
            line: 1,
            rule: DEVICE_LAYER,
            message: format!(
                "`impl StorageDevice for {ty}` from the device-layer manifest was not found; \
                 update the manifest in crates/lint/src/rules.rs if it moved"
            ),
        });
    }
}
