//! prima-lint: repo-specific static analysis for the PRIMA kernel.
//!
//! Five rules, none expressible in clippy:
//!
//! * **`lockrank`** — every lock declaration in the kernel ([`LOCK_TYPES`])
//!   carries a `// lockrank: <domain>.<n>` annotation naming its place in
//!   the canonical hierarchy ([`ranks`]); within a function, nested
//!   `.lock()`/`.read()`/`.write()` acquisitions must be rank-ascending
//!   (equal ranks are peer groups).
//! * **`lock-across-io`** — no ranked guard below the `device` domain may
//!   be live across a call into `BlockDevice` I/O or a WAL force (the
//!   PR 9 bug class). Device-domain locks are exempt: they *are* the
//!   device.
//! * **`error-hygiene`** — no `unwrap`/`expect`/`panic!` in non-test
//!   kernel code.
//! * **`ignored-result`** — a bare statement discarding a
//!   `StorageResult`/`TxnResult` returned by a kernel function.
//! * **`dead-surface`** — a kernel `pub fn` whose name no non-test code
//!   under [`KERNEL_DIRS`] or [`CALLER_DIRS`] mentions: each layer offers
//!   what the layers above call, and nothing else. Dead code is deleted
//!   or made `#[cfg(test)]`; what stays carries an allow with its reason.
//!
//! Escape hatch: `// lint: allow(<rule>, <reason>)` on the offending line
//! or the line directly above. The reason is mandatory; an empty one is
//! its own finding (`allow-without-reason`). The number of allow sites
//! under [`KERNEL_DIRS`] may not exceed [`ALLOW_CEILING`]
//! (`allow-ceiling`): a new allow raises the ceiling in the same change,
//! where review sees it. `dead-surface` allows have their own bound: the
//! kernel's uncalled `pub fn`s, allowed or not, may not exceed
//! [`DEAD_SURFACE_CEILING`] (`dead-surface-ceiling`).
//!
//! The analysis is token-based (see [`lexer`]) — a deliberate lint, not a
//! compiler: it resolves lock receivers by *name* against the per-file
//! annotation map, so precision comes from the annotation discipline the
//! rule itself enforces (every lock declaration must be annotated).

pub mod lexer;
pub mod ranks;

use lexer::{lex, Tok, Token};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Kernel source roots scanned by the binary, relative to the repo root.
pub const KERNEL_DIRS: &[&str] =
    &["crates/storage/src", "crates/core/src", "crates/access/src", "crates/mad/src"];

/// Source roots, relative to the repo root, whose non-test code counts as
/// a caller for `dead-surface` besides the kernel's own: the workloads
/// crate, the examples, the root package and the benchmark harness (a
/// separate package; its calls are read, never linted).
pub const CALLER_DIRS: &[&str] = &["crates/workloads/src", "examples", "src", "prima-bench/src"];

/// Most `// lint: allow(…)` sites the kernel sources may carry, not
/// counting `dead-surface` allows.
pub const ALLOW_CEILING: usize = 35;
const ALLOW_CEILING_LINE: u32 = line!() - 1;

/// Most kernel `pub fn`s without a non-test caller, allowed or not.
pub const DEAD_SURFACE_CEILING: usize = 11;
const DEAD_SURFACE_CEILING_LINE: u32 = line!() - 1;

/// The vendored parking_lot lock types whose declarations need a rank.
/// A `ShardedLock` write locks every stripe, but is one acquisition of
/// its one rank, like a read of one stripe.
pub const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "ShardedLock"];

/// Lock-acquisition method names on the vendored parking_lot types.
const ACQUIRE_FNS: &[&str] = &["lock", "try_lock", "read", "write", "read_arc", "write_arc"];

/// Calls that reach the device: the `BlockDevice` trait surface plus the
/// WAL force paths.
const IO_FNS: &[&str] = &[
    "read_block",
    "write_block",
    "write_blocks",
    "sync",
    "sync_data",
    "fsync",
    "wal_append",
    "wal_read",
    "wal_reset",
    "create_file",
    "free_file",
    "force",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    LockRank,
    LockAcrossIo,
    ErrorHygiene,
    IgnoredResult,
    DeadSurface,
    AllowWithoutReason,
    AllowCeiling,
    DeadSurfaceCeiling,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockRank => "lockrank",
            Rule::LockAcrossIo => "lock-across-io",
            Rule::ErrorHygiene => "error-hygiene",
            Rule::IgnoredResult => "ignored-result",
            Rule::DeadSurface => "dead-surface",
            Rule::AllowWithoutReason => "allow-without-reason",
            Rule::AllowCeiling => "allow-ceiling",
            Rule::DeadSurfaceCeiling => "dead-surface-ceiling",
        }
    }

    fn from_name(s: &str) -> Option<Rule> {
        Some(match s {
            "lockrank" => Rule::LockRank,
            "lock-across-io" => Rule::LockAcrossIo,
            "error-hygiene" => Rule::ErrorHygiene,
            "ignored-result" => Rule::IgnoredResult,
            "dead-surface" => Rule::DeadSurface,
            _ => return None,
        })
    }
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub file: PathBuf,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------------

struct Allow {
    /// Code line this allow covers.
    target_line: u32,
    rule: Option<Rule>,
    reason_ok: bool,
    /// Line of the comment itself (for reporting bad allows).
    comment_line: u32,
    raw_rule: String,
}

struct Annotations {
    /// Lock name → rank (from `lockrank:` declarations and
    /// `lockrank-name:` registrations).
    rank_of: HashMap<String, u32>,
    /// Code lines carrying a `lockrank:` annotation (declaration lines).
    annotated_lines: HashSet<u32>,
    allows: Vec<Allow>,
    findings: Vec<Finding>,
}

/// First code line at or after `line` (a trailing same-line comment
/// attaches to its own line).
fn attach_line(tokens: &[Token], line: u32) -> u32 {
    if tokens.iter().any(|t| t.line == line) {
        return line;
    }
    tokens.iter().map(|t| t.line).find(|&l| l > line).unwrap_or(line)
}

/// Name of the declaration starting at code line `line`: first identifier
/// that is not a visibility/binding keyword.
fn declared_name(tokens: &[Token], line: u32) -> Option<String> {
    const SKIP: &[&str] = &["pub", "crate", "super", "in", "let", "mut", "static", "const", "type"];
    tokens
        .iter()
        .skip_while(|t| t.line < line)
        .take_while(|t| t.line < line + 3)
        .filter_map(|t| t.tok.ident())
        .find(|i| !SKIP.contains(i))
        .map(str::to_string)
}

fn parse_annotations(file: &Path, lexed: &lexer::Lexed) -> Annotations {
    let mut a = Annotations {
        rank_of: HashMap::new(),
        annotated_lines: HashSet::new(),
        allows: Vec::new(),
        findings: Vec::new(),
    };
    for c in &lexed.comments {
        let text = c.text.trim();
        if let Some(rest) = text.strip_prefix("lockrank-name:") {
            // `lockrank-name: <name> = <domain>.<n>` — registers an extra
            // receiver name (a method or binding) for an annotated lock.
            if let Some((name, spec)) = rest.split_once('=') {
                let spec = spec.split_whitespace().next().unwrap_or("");
                match ranks::resolve(spec) {
                    Some(r) => {
                        a.rank_of.insert(name.trim().to_string(), r);
                    }
                    None => a.findings.push(Finding {
                        file: file.to_path_buf(),
                        line: c.line,
                        rule: Rule::LockRank,
                        message: format!("unknown rank spec `{spec}` in lockrank-name"),
                    }),
                }
            }
        } else if let Some(rest) = text.strip_prefix("lockrank:") {
            let spec = rest.split_whitespace().next().unwrap_or("");
            let target = attach_line(&lexed.tokens, c.line);
            match ranks::resolve(spec) {
                Some(r) => {
                    a.annotated_lines.insert(target);
                    if let Some(name) = declared_name(&lexed.tokens, target) {
                        a.rank_of.insert(name, r);
                    }
                }
                None => a.findings.push(Finding {
                    file: file.to_path_buf(),
                    line: c.line,
                    rule: Rule::LockRank,
                    message: format!(
                        "unknown rank spec `{spec}` (see crates/lint/src/ranks.rs)"
                    ),
                }),
            }
        } else if let Some(rest) = text.strip_prefix("lint:") {
            let rest = rest.trim();
            if let Some(body) =
                rest.strip_prefix("allow(").and_then(|r| r.strip_suffix(')'))
            {
                let (rule_name, reason) = match body.split_once(',') {
                    Some((r, why)) => (r.trim(), why.trim()),
                    None => (body.trim(), ""),
                };
                a.allows.push(Allow {
                    target_line: attach_line(&lexed.tokens, c.line),
                    rule: Rule::from_name(rule_name),
                    reason_ok: !reason.is_empty(),
                    comment_line: c.line,
                    raw_rule: rule_name.to_string(),
                });
            }
        }
    }
    a
}

// ---------------------------------------------------------------------------
// Structure: test regions and function bodies
// ---------------------------------------------------------------------------

/// Token-index spans (`[start, end)`) of items under `#[test]`-like or
/// `#[cfg(test)]` attributes, from the attribute to the item's end.
fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].tok.is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('[')) {
            let (attr_end, is_test) = scan_attr(tokens, i + 1);
            if is_test {
                if let Some((_, end)) = item_body_after(tokens, attr_end) {
                    spans.push((i, end));
                    i = end;
                    continue;
                }
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    spans
}

/// Scans one `[...]` attribute group starting at the `[`; returns the
/// index past the closing `]` and whether the attribute marks test code.
fn scan_attr(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    let mut i = open;
    while i < tokens.len() {
        match &tokens[i].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            Tok::Ident(id) => idents.push(id.as_str()),
            _ => {}
        }
        i += 1;
    }
    let is_test = idents.contains(&"test") && !idents.contains(&"not");
    (i, is_test)
}

/// Body span of the item following token `i` (skipping further
/// attributes): from its opening `{` to past the matching `}`.
fn item_body_after(tokens: &[Token], mut i: usize) -> Option<(usize, usize)> {
    while i < tokens.len() {
        if tokens[i].tok.is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('[')) {
            let (end, _) = scan_attr(tokens, i + 1);
            i = end;
            continue;
        }
        if tokens[i].tok.is_punct(';') {
            return None; // bodyless item
        }
        if tokens[i].tok.is_punct('{') {
            let end = match_brace(tokens, i)?;
            return Some((i, end));
        }
        i += 1;
    }
    None
}

/// Index just past the `}` matching the `{` at `open`.
fn match_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Body spans of every `fn` in the file (test fns included; the caller
/// filters by test span where a rule exempts tests).
fn fn_bodies(tokens: &[Token]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].tok.is_ident("fn")
            && tokens.get(i + 1).is_some_and(|t| matches!(t.tok, Tok::Ident(_)))
        {
            let mut j = i + 2;
            let mut body = None;
            while j < tokens.len() {
                match tokens[j].tok {
                    Tok::Punct('{') => {
                        body = match_brace(tokens, j).map(|end| (j, end));
                        break;
                    }
                    Tok::Punct(';') => break, // trait method declaration
                    _ => j += 1,
                }
            }
            if let Some((start, end)) = body {
                out.push((i + 1, start, end));
                // Note: nested fns are re-scanned as their own bodies —
                // the outer walk continues *inside* this body.
                i = start + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Receiver resolution
// ---------------------------------------------------------------------------

/// Resolves the receiver name of the method call whose method ident is at
/// `i`: the identifier before the final `.`, walking back over one
/// balanced `(...)`/`[...]` group (so `self.shard(id).lock()` resolves to
/// `shard`).
fn receiver_name(tokens: &[Token], i: usize) -> Option<String> {
    if i == 0 || !tokens[i - 1].tok.is_punct('.') {
        return None;
    }
    let mut j = i.checked_sub(2)?;
    match &tokens[j].tok {
        Tok::Ident(name) => Some(name.clone()),
        Tok::Punct(')') | Tok::Punct(']') => {
            let (open, close) = match tokens[j].tok {
                Tok::Punct(')') => ('(', ')'),
                _ => ('[', ']'),
            };
            let mut depth = 0isize;
            loop {
                match &tokens[j].tok {
                    Tok::Punct(c) if *c == close => depth += 1,
                    Tok::Punct(c) if *c == open => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j = j.checked_sub(1)?;
            }
            // `shard(id)` → the ident before the opener; `[idx]` → the
            // ident before the bracket.
            match &tokens[j.checked_sub(1)?].tok {
                Tok::Ident(name) => Some(name.clone()),
                _ => None,
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

pub struct Analyzer<'a> {
    file: &'a Path,
    tokens: &'a [Token],
    rank_of: &'a HashMap<String, u32>,
    result_fns: &'a HashSet<String>,
    tests: &'a [(usize, usize)],
    findings: Vec<Finding>,
}

fn in_spans(spans: &[(usize, usize)], i: usize) -> bool {
    spans.iter().any(|&(s, e)| i >= s && i < e)
}

impl<'a> Analyzer<'a> {
    fn push(&mut self, line: u32, rule: Rule, message: String) {
        self.findings.push(Finding { file: self.file.to_path_buf(), line, rule, message });
    }

    /// Rules 1 + 2 over one function body: simulate guard liveness.
    fn check_lock_discipline(&mut self, start: usize, end: usize) {
        // Scope stack: each block's guards as (name, rank).
        let mut scopes: Vec<Vec<(String, u32)>> = vec![Vec::new()];
        // Start token of the current statement (for let-binding detection).
        let mut stmt_start = start + 1;
        let mut i = start + 1;
        while i < end {
            match &self.tokens[i].tok {
                Tok::Punct('{') => {
                    scopes.push(Vec::new());
                    stmt_start = i + 1;
                }
                Tok::Punct('}') => {
                    scopes.pop();
                    if scopes.is_empty() {
                        scopes.push(Vec::new());
                    }
                    stmt_start = i + 1;
                }
                Tok::Punct(';') => stmt_start = i + 1,
                // `drop(name)` releases a guard early.
                Tok::Ident(id)
                    if id == "drop"
                        && self.tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('('))
                        && self.tokens.get(i + 3).is_some_and(|t| t.tok.is_punct(')')) =>
                {
                    if let Some(name) = self.tokens.get(i + 2).and_then(|t| t.tok.ident()) {
                        for scope in scopes.iter_mut().rev() {
                            if let Some(p) = scope.iter().rposition(|(n, _)| n == name) {
                                scope.remove(p);
                                break;
                            }
                        }
                    }
                }
                Tok::Ident(id)
                    if ACQUIRE_FNS.contains(&id.as_str())
                        && self.tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('(')) =>
                {
                    if let Some(recv) = receiver_name(self.tokens, i) {
                        if let Some(&rank) = self.rank_of.get(&recv) {
                            let line = self.tokens[i].line;
                            let held_max = scopes
                                .iter()
                                .flatten()
                                .map(|&(_, r)| r)
                                .max();
                            if let Some(max) = held_max {
                                if rank < max {
                                    let held: Vec<String> = scopes
                                        .iter()
                                        .flatten()
                                        .map(|(n, r)| format!("{n}({r})"))
                                        .collect();
                                    self.push(
                                        line,
                                        Rule::LockRank,
                                        format!(
                                            "acquiring `{recv}` (rank {rank}) while holding \
                                             [{}] violates the lock hierarchy",
                                            held.join(", ")
                                        ),
                                    );
                                }
                            }
                            // Bound guard? `let g = recv.lock();` — the
                            // acquisition's call is the end of a
                            // let-statement. A chained call
                            // (`recv.lock().pop()`) is a transient hold.
                            let after = skip_call(self.tokens, i + 1);
                            let bound_name = if self
                                .tokens
                                .get(after)
                                .is_some_and(|t| t.tok.is_punct(';'))
                            {
                                let s = &self.tokens[stmt_start];
                                if s.tok.is_ident("let") {
                                    let mut k = stmt_start + 1;
                                    if self.tokens.get(k).is_some_and(|t| t.tok.is_ident("mut")) {
                                        k += 1;
                                    }
                                    self.tokens.get(k).and_then(|t| t.tok.ident()).map(str::to_string)
                                } else {
                                    None
                                }
                            } else {
                                None
                            };
                            if let Some(name) = bound_name {
                                if let Some(scope) = scopes.last_mut() {
                                    scope.push((name, rank));
                                }
                            }
                        }
                    }
                }
                Tok::Ident(id)
                    if IO_FNS.contains(&id.as_str())
                        && self.tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('('))
                        && i > start
                        && !self.tokens[i - 1].tok.is_ident("fn") =>
                {
                    let held: Vec<String> = scopes
                        .iter()
                        .flatten()
                        .filter(|&&(_, r)| r < ranks::DEVICE_BASE)
                        .map(|(n, r)| format!("{n}({r})"))
                        .collect();
                    if !held.is_empty() {
                        self.push(
                            self.tokens[i].line,
                            Rule::LockAcrossIo,
                            format!(
                                "device I/O `{id}()` while holding [{}] — no kernel lock may \
                                 span device I/O",
                                held.join(", ")
                            ),
                        );
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// Rule 3 over the whole file.
    fn check_error_hygiene(&mut self) {
        for i in 0..self.tokens.len() {
            if in_spans(self.tests, i) {
                continue;
            }
            let line = self.tokens[i].line;
            match &self.tokens[i].tok {
                Tok::Ident(id)
                    if (id == "unwrap" || id == "expect")
                        && i > 0
                        && self.tokens[i - 1].tok.is_punct('.')
                        && self.tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('(')) =>
                {
                    // `Option::expect`/`Result::expect` take a &str
                    // message; an `.expect(NonString)` call is some other
                    // method of that name (e.g. the MQL parser's token
                    // combinator) — skip it.
                    if id == "expect"
                        && !self.tokens.get(i + 2).is_some_and(|t| t.tok == Tok::Str)
                    {
                        continue;
                    }
                    self.push(
                        line,
                        Rule::ErrorHygiene,
                        format!(".{id}() in kernel code — propagate the error or justify \
                                 with `// lint: allow(error-hygiene, <why>)`"),
                    );
                }
                Tok::Ident(id)
                    if id == "panic"
                        && self.tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('!')) =>
                {
                    self.push(
                        line,
                        Rule::ErrorHygiene,
                        "panic!() in kernel code — return an error instead".to_string(),
                    );
                }
                _ => {}
            }
        }
    }

    /// Rule 4 over one function body: bare `recv.f(...);` statements
    /// discarding a kernel Result.
    fn check_ignored_results(&mut self, start: usize, end: usize) {
        let mut stmt_start = start + 1;
        let mut i = start + 1;
        while i < end {
            match self.tokens[i].tok {
                Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => {
                    self.try_bare_call(stmt_start, i);
                    stmt_start = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// If `[start, semi)` is exactly `ident (.ident)* ( … )` with the final
    /// called name returning a kernel Result, report it.
    fn try_bare_call(&mut self, start: usize, semi: usize) {
        if !self.tokens.get(semi).is_some_and(|t| t.tok.is_punct(';')) {
            return;
        }
        if in_spans(self.tests, start) {
            return; // tests may discard results deliberately
        }
        // Leading receiver chain: idents separated by dots, ending at the
        // called name's argument list.
        let mut i = start;
        let (name, open) = loop {
            let Some(Tok::Ident(id)) = self.tokens.get(i).map(|t| &t.tok) else { return };
            match self.tokens.get(i + 1).map(|t| &t.tok) {
                Some(Tok::Punct('.')) => i += 2,
                Some(Tok::Punct('(')) => break (id.clone(), i + 1),
                _ => return,
            }
        };
        // Balanced argument list, then the statement must end.
        let after = skip_call(self.tokens, open);
        if after != semi {
            return;
        }
        if self.result_fns.contains(&name) {
            self.push(
                self.tokens[open].line,
                Rule::IgnoredResult,
                format!(
                    "result of `{name}(…)` (a kernel Result) is ignored — handle it, `?` it, \
                     or bind `let _ =` with a lint allow"
                ),
            );
        }
    }
}

/// Index just past the balanced `(...)` group opening at `open`.
fn skip_call(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------------
// Unannotated-declaration check
// ---------------------------------------------------------------------------

/// Every `name: …Mutex<…>` declaration, or of another of the
/// [`LOCK_TYPES`] (struct field or typed `let`), outside tests must
/// carry a `lockrank:` annotation — the
/// annotation discipline rule 1's receiver resolution relies on.
fn check_declarations(
    file: &Path,
    tokens: &[Token],
    tests: &[(usize, usize)],
    annotated: &HashSet<u32>,
    findings: &mut Vec<Finding>,
) {
    for i in 0..tokens.len() {
        let Tok::Ident(id) = &tokens[i].tok else { continue };
        if !LOCK_TYPES.contains(&id.as_str()) {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|t| t.tok.is_punct('<')) {
            continue; // path use (`Mutex::new_ranked`), not a type
        }
        if in_spans(tests, i) {
            continue;
        }
        // Reference types are borrows (parameters), not declarations.
        if i > 0 && tokens[i - 1].tok.is_punct('&') {
            continue;
        }
        // Walk back to the statement head; a declaration looks like
        // `[pub] name :` possibly with wrapper types in between
        // (`Vec<Arc<Mutex<…>>>`). Bail on function signatures and
        // return-type positions.
        let mut j = i;
        let mut name: Option<String> = None;
        let mut name_line = tokens[i].line;
        let mut colon = false;
        let mut bail = false;
        while j > 0 {
            j -= 1;
            match &tokens[j].tok {
                Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') | Tok::Punct(',')
                | Tok::Punct('(') => break,
                Tok::Ident(k) if k == "fn" || k == "impl" || k == "where" => {
                    bail = true;
                    break;
                }
                Tok::Punct('>')
                    if tokens.get(j.wrapping_sub(1)).is_some_and(|t| t.tok.is_punct('-')) =>
                {
                    // `-> … Mutex<…>` return type
                    bail = true;
                    break;
                }
                Tok::Punct(':') => colon = true,
                Tok::Ident(k) if colon => {
                    name = Some(k.clone());
                    // The annotation attaches to the declaration's first
                    // line — the name's line, not the `Mutex<` token's.
                    name_line = tokens[j].line;
                    break;
                }
                _ => {}
            }
        }
        if bail {
            continue;
        }
        let Some(name) = name else { continue };
        let line = tokens[i].line;
        if !annotated.contains(&name_line) && !annotated.contains(&line) {
            findings.push(Finding {
                file: file.to_path_buf(),
                line,
                rule: Rule::LockRank,
                message: format!(
                    "lock declaration `{name}` has no `// lockrank: <domain>.<n>` annotation"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// Kernel-Result function names that collide with ubiquitous std methods
/// returning `()` (atomics, collections) — name-based matching would
/// flood false positives, so these stay out of rule 4's net.
const RESULT_FN_SHADOWED: &[&str] = &[
    "store", "load", "swap", "insert", "remove", "push", "write", "read", "clear", "set",
    // stats counters expose a unit-returning `reset()` next to `Wal::reset`
    "reset",
];

/// Pass A: names of functions returning a kernel Result type, across all
/// scanned files.
pub fn collect_result_fns(sources: &[(PathBuf, String)]) -> HashSet<String> {
    let mut out = HashSet::new();
    for (_, src) in sources {
        let lexed = lex(src);
        let t = &lexed.tokens;
        for i in 0..t.len() {
            if !t[i].tok.is_ident("fn") {
                continue;
            }
            let Some(name) = t.get(i + 1).and_then(|x| x.tok.ident()) else { continue };
            // Find the params' closing paren, then `-> StorageResult|TxnResult`.
            let Some(open) = (i + 2..t.len().min(i + 64)).find(|&k| t[k].tok.is_punct('(')) else {
                continue;
            };
            let after = skip_call(t, open);
            if t.get(after).is_some_and(|x| x.tok.is_punct('-'))
                && t.get(after + 1).is_some_and(|x| x.tok.is_punct('>'))
            {
                let mut k = after + 2;
                // Skip leading path segments (`wal::`).
                while let (Some(Tok::Ident(_)), Some(true)) = (
                    t.get(k).map(|x| &x.tok),
                    t.get(k + 1).map(|x| x.tok.is_punct(':')),
                ) {
                    k += 3; // ident :: (two colon puncts)
                }
                if let Some(ret) = t.get(k).and_then(|x| x.tok.ident()) {
                    if (ret == "StorageResult" || ret == "TxnResult")
                        && !RESULT_FN_SHADOWED.contains(&name)
                    {
                        out.insert(name.to_string());
                    }
                }
            }
        }
    }
    out
}

/// The names `dead-surface` counts as called: every identifier the
/// non-test code in `sources` mentions, except a function's own name
/// where it is defined and inside its own body (recursion, or delegation
/// to a namesake, calls it from nowhere), and the paths of `use` items (a
/// re-export calls nothing).
pub fn used_names(sources: &[(PathBuf, String)]) -> HashSet<String> {
    let mut used = HashSet::new();
    for (_, src) in sources {
        let tokens = lex(src).tokens;
        let tests = test_spans(&tokens);
        let mut bodies = fn_bodies(&tokens).into_iter().peekable();
        // The bodies enclosing the current token: `(name index, end)`.
        let mut open: Vec<(usize, usize)> = Vec::new();
        let mut in_use = false;
        for (i, t) in tokens.iter().enumerate() {
            open.retain(|&(_, end)| i < end);
            while let Some((name, _, end)) = bodies.next_if(|&(_, start, _)| start < i) {
                open.push((name, end));
            }
            match &t.tok {
                Tok::Ident(id) if id == "use" => in_use = true,
                Tok::Punct(';') => in_use = false,
                Tok::Ident(id) => {
                    let defined = i > 0 && tokens[i - 1].tok.is_ident("fn");
                    let own = open.iter().any(|&(name, _)| tokens[name].tok.is_ident(id));
                    if !(in_use || defined || own || in_spans(&tests, i)) {
                        used.insert(id.clone());
                    }
                }
                _ => {}
            }
        }
    }
    used
}

/// Pass B: all findings of rules 1–4 for one file.
pub fn analyze_file(file: &Path, src: &str, result_fns: &HashSet<String>) -> Vec<Finding> {
    let lexed = lex(src);
    let ann = parse_annotations(file, &lexed);
    let tests = test_spans(&lexed.tokens);

    let mut analyzer = Analyzer {
        file,
        tokens: &lexed.tokens,
        rank_of: &ann.rank_of,
        result_fns,
        tests: &tests,
        findings: ann.findings,
    };

    for &(_, start, end) in &fn_bodies(&lexed.tokens) {
        analyzer.check_lock_discipline(start, end);
        analyzer.check_ignored_results(start, end);
    }
    analyzer.check_error_hygiene();
    let mut findings = analyzer.findings;
    check_declarations(file, &lexed.tokens, &tests, &ann.annotated_lines, &mut findings);

    // Apply allows: a valid allow suppresses matching findings on its
    // target line; an allow without a reason (or with an unknown rule
    // name) still suppresses but is reported itself.
    let mut out: Vec<Finding> = findings.into_iter().filter(|f| !allowed(&ann.allows, f)).collect();
    for a in &ann.allows {
        if a.rule.is_none() {
            out.push(Finding {
                file: file.to_path_buf(),
                line: a.comment_line,
                rule: Rule::AllowWithoutReason,
                message: format!("allow names unknown rule `{}`", a.raw_rule),
            });
        } else if !a.reason_ok {
            out.push(Finding {
                file: file.to_path_buf(),
                line: a.comment_line,
                rule: Rule::AllowWithoutReason,
                message: "lint allow must carry a reason: `// lint: allow(<rule>, <why>)`"
                    .to_string(),
            });
        }
    }
    out.sort_by_key(|f| f.line);
    out
}

/// The `// lint: allow(…)` sites in one file, `dead-surface` allows
/// excepted.
pub fn allow_sites_in(src: &str) -> usize {
    let ann = parse_annotations(Path::new(""), &lex(src));
    ann.allows.iter().filter(|a| a.rule != Some(Rule::DeadSurface)).count()
}

/// Whether an allow naming `f`'s rule covers `f`'s line.
fn allowed(allows: &[Allow], f: &Finding) -> bool {
    allows.iter().any(|a| a.target_line == f.line && a.rule == Some(f.rule))
}

/// Rule 5 over one file: the findings for its `pub fn`s outside test code
/// whose name is not in `used` ([`used_names`] over the kernel and
/// [`CALLER_DIRS`]) and no allow keeps, and how many such functions there
/// are, allowed or not.
pub fn dead_surface_in(file: &Path, src: &str, used: &HashSet<String>) -> (Vec<Finding>, usize) {
    const QUALIFIERS: &[&str] = &["const", "unsafe", "async"];
    let lexed = lex(src);
    let tokens = &lexed.tokens;
    let tests = test_spans(tokens);
    let mut dead = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].tok.is_ident("pub") || in_spans(&tests, i) {
            continue;
        }
        let mut j = i + 1;
        while tokens.get(j).and_then(|t| t.tok.ident()).is_some_and(|q| QUALIFIERS.contains(&q)) {
            j += 1;
        }
        if !tokens.get(j).is_some_and(|t| t.tok.is_ident("fn")) {
            continue;
        }
        let Some(name) = tokens.get(j + 1).and_then(|t| t.tok.ident()) else { continue };
        if !used.contains(name) {
            dead.push(Finding {
                file: file.to_path_buf(),
                line: tokens[i].line,
                rule: Rule::DeadSurface,
                message: format!(
                    "`pub fn {name}` has no caller outside tests — delete it, make it \
                     `#[cfg(test)]`, or keep it with `// lint: allow(dead-surface, <why>)`"
                ),
            });
        }
    }
    let count = dead.len();
    let allows = parse_annotations(file, &lexed).allows;
    (dead.into_iter().filter(|f| !allowed(&allows, f)).collect(), count)
}

/// The `allow-ceiling` finding, if `sites` allows exceed `ceiling`.
pub fn check_allow_ceiling(sites: usize, ceiling: usize) -> Option<Finding> {
    (sites > ceiling).then(|| Finding {
        file: PathBuf::from(file!()),
        line: ALLOW_CEILING_LINE,
        rule: Rule::AllowCeiling,
        message: format!(
            "{sites} `lint: allow` sites in the kernel exceed the ceiling of {ceiling}: \
             remove one, or raise ALLOW_CEILING for review"
        ),
    })
}

/// The `dead-surface-ceiling` finding, if `count` uncalled `pub fn`s
/// exceed `ceiling`.
pub fn check_dead_surface_ceiling(count: usize, ceiling: usize) -> Option<Finding> {
    (count > ceiling).then(|| Finding {
        file: PathBuf::from(file!()),
        line: DEAD_SURFACE_CEILING_LINE,
        rule: Rule::DeadSurfaceCeiling,
        message: format!(
            "{count} kernel `pub fn`s without a non-test caller exceed the ceiling of \
             {ceiling}: delete one, or raise DEAD_SURFACE_CEILING for review"
        ),
    })
}

/// Collects the sources under `dirs`, relative to `repo_root`.
pub fn sources_under(repo_root: &Path, dirs: &[&str]) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    for dir in dirs {
        walk(&repo_root.join(dir), &mut files)?;
    }
    files.sort();
    files
        .into_iter()
        .map(|p| std::fs::read_to_string(&p).map(|s| (p, s)))
        .collect()
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// What a full run found.
pub struct Report {
    /// Every finding in every kernel file, and the ceilings'.
    pub findings: Vec<Finding>,
    /// The `// lint: allow(…)` sites in the kernel files, `dead-surface`
    /// allows excepted.
    pub allow_sites: usize,
    /// The kernel `pub fn`s without a non-test caller, allowed or not.
    pub dead_surface: usize,
}

/// Full run over a repo checkout.
pub fn run(repo_root: &Path) -> std::io::Result<Report> {
    let sources = sources_under(repo_root, KERNEL_DIRS)?;
    let mut callers = sources_under(repo_root, CALLER_DIRS)?;
    callers.extend(sources.iter().cloned());
    let result_fns = collect_result_fns(&sources);
    let used = used_names(&callers);
    let mut findings = Vec::new();
    let (mut allow_sites, mut dead_surface) = (0, 0);
    for (path, src) in &sources {
        let rel = path.strip_prefix(repo_root).unwrap_or(path);
        findings.extend(analyze_file(rel, src, &result_fns));
        allow_sites += allow_sites_in(src);
        let (dead, count) = dead_surface_in(rel, src, &used);
        findings.extend(dead);
        dead_surface += count;
    }
    findings.extend(check_allow_ceiling(allow_sites, ALLOW_CEILING));
    findings.extend(check_dead_surface_ceiling(dead_surface, DEAD_SURFACE_CEILING));
    Ok(Report { findings, allow_sites, dead_surface })
}
