//! Shared interprocedural analysis: the workspace call graph, method
//! resolution through receiver types, reachability / backward-slice
//! queries, and the guard-span + blocking-call machinery several passes
//! share.
//!
//! # Call resolution
//!
//! A call site `name(...)` resolves to at most one workspace function, by
//! the first rule that applies (all name-based — no type inference):
//!
//! 1. `self.name(...)` — the enclosing `impl` type's method of that name,
//!    when exactly one exists;
//! 2. `self.field.name(...)` — methods of the field's declared type names
//!    ([`crate::model::FieldDef`]), when exactly one matches;
//! 3. `param.name(...)` — methods of the parameter's declared type names
//!    (parsed from the signature span), when exactly one matches;
//! 4. `Type::name(...)` — that type's method, when exactly one exists;
//! 5. bare fallback: the name is unique among all non-test workspace
//!    functions *and* is not on the [`COMMON_NAMES`] deny list (names like
//!    `send` or `lock` are overwhelmingly std methods; resolving them by
//!    global uniqueness would fabricate edges from `tx.send(..)` to an
//!    unrelated workspace `send`).
//!
//! Unresolvable calls stay unresolved — false *negatives*, never false
//! edges. Locals bound by `let`/`match` are untyped, closures dissolve into
//! their enclosing function, and trait dispatch is invisible; DESIGN.md §15
//! spells out the soundness consequences for each pass.

use crate::lexer::{Tok, Token};
use crate::model::{Function, LockField, ParsedFile};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Method names too common to resolve by bare global uniqueness (rule 5).
/// Typed resolutions (rules 1–4) ignore this list — `self.send(..)` inside
/// `impl HttpPool` is unambiguous no matter how common `send` is.
pub const COMMON_NAMES: &[&str] = &[
    "add", "all", "any", "apply", "as_mut", "as_ref", "as_str", "call", "ceil", "clear", "clone",
    "close", "cmp", "collect", "contains", "count", "dec", "default", "div", "drain", "drop", "end",
    "entry", "eq", "err", "expect", "extend", "filter", "find", "first", "floor", "flush", "fmt",
    "fold", "from", "get", "get_mut", "handle", "hash", "inc", "index", "init", "insert", "into",
    "is_empty", "iter", "join", "last", "len", "load", "lock", "main", "map", "max", "min", "mul",
    "new", "next", "observe", "ok", "open", "parse", "peek", "pop", "push", "read", "record",
    "recv", "rem", "remove", "reset", "retain", "run", "send", "set", "sort", "spawn", "split",
    "start", "stop", "store", "sub", "sum", "swap", "take", "tick", "to_string", "trim", "unwrap",
    "update", "wait", "with_capacity", "write",
];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name as written.
    pub name: String,
    /// Body-relative token index of the callee ident.
    pub at: usize,
    pub line: u32,
    /// Resolved target node, when rules 1–5 pin down exactly one.
    pub target: Option<usize>,
}

/// The workspace call graph over all non-test functions.
pub struct Graph<'a> {
    pub files: &'a [ParsedFile],
    /// Node `n` is `files[nodes[n].0].functions[nodes[n].1]`.
    pub nodes: Vec<(usize, usize)>,
    /// Call sites per node, in body token order.
    pub calls: Vec<Vec<Call>>,
    /// Reverse adjacency: nodes whose resolved calls target `n`.
    pub callers: Vec<Vec<usize>>,
}

impl<'a> Graph<'a> {
    /// Build the graph: index functions, parse parameter types, resolve
    /// every call site.
    pub fn build(files: &'a [ParsedFile]) -> Graph<'a> {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_impl: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (fi, pf) in files.iter().enumerate() {
            for (gi, f) in pf.functions.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let n = nodes.len();
                nodes.push((fi, gi));
                by_name.entry(f.name.as_str()).or_default().push(n);
                if let Some(t) = f.impl_type.as_deref() {
                    by_impl.entry((t, f.name.as_str())).or_default().push(n);
                }
            }
        }
        let mut field_types: BTreeMap<(&str, &str), &'a [String]> = BTreeMap::new();
        for pf in files {
            for fd in &pf.fields {
                field_types
                    .entry((fd.owner.as_str(), fd.field.as_str()))
                    .or_insert(&fd.type_names);
            }
        }

        let mut calls = Vec::with_capacity(nodes.len());
        for &(fi, gi) in &nodes {
            let pf = &files[fi];
            let f = &pf.functions[gi];
            let params = param_types(&pf.tokens[f.sig.clone()]);
            let toks = &pf.tokens[f.body.clone()];
            let mut sites = Vec::new();
            for (i, t) in toks.iter().enumerate() {
                let Tok::Ident(name) = &t.tok else { continue };
                if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
                    continue;
                }
                let target = resolve(
                    toks, i, name, f, &params, &by_name, &by_impl, &field_types,
                );
                sites.push(Call { name: name.clone(), at: i, line: t.line, target });
            }
            calls.push(sites);
        }

        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (n, sites) in calls.iter().enumerate() {
            for c in sites {
                if let Some(t) = c.target {
                    if !callers[t].contains(&n) {
                        callers[t].push(n);
                    }
                }
            }
        }
        Graph { files, nodes, calls, callers }
    }

    /// The function behind node `n`.
    pub fn func(&self, n: usize) -> &'a Function {
        let (fi, gi) = self.nodes[n];
        &self.files[fi].functions[gi]
    }

    /// The file behind node `n`.
    pub fn file(&self, n: usize) -> &'a ParsedFile {
        &self.files[self.nodes[n].0]
    }

    /// Body tokens of node `n`.
    pub fn body_toks(&self, n: usize) -> &'a [Token] {
        let (fi, gi) = self.nodes[n];
        let f = &self.files[fi].functions[gi];
        &self.files[fi].tokens[f.body.clone()]
    }

    /// Signature tokens of node `n`.
    pub fn sig_toks(&self, n: usize) -> &'a [Token] {
        let (fi, gi) = self.nodes[n];
        let f = &self.files[fi].functions[gi];
        &self.files[fi].tokens[f.sig.clone()]
    }

    /// Does node `n`'s body call `name(...)` directly (resolved or not)?
    pub fn calls_name(&self, n: usize, name: &str) -> bool {
        self.calls[n].iter().any(|c| c.name == name)
    }

    /// Every node reachable from `starts` through resolved calls
    /// (inclusive).
    pub fn reachable(&self, starts: &[usize]) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = starts.iter().copied().collect();
        let mut queue: VecDeque<usize> = starts.iter().copied().collect();
        while let Some(n) = queue.pop_front() {
            for c in &self.calls[n] {
                if let Some(t) = c.target {
                    if seen.insert(t) {
                        queue.push_back(t);
                    }
                }
            }
        }
        seen
    }

    /// Every node from which `n` is reachable (inclusive): the backward
    /// slice of callers.
    pub fn backward_slice(&self, n: usize) -> BTreeSet<usize> {
        let mut seen = BTreeSet::from([n]);
        let mut queue = VecDeque::from([n]);
        while let Some(m) = queue.pop_front() {
            for &c in &self.callers[m] {
                if seen.insert(c) {
                    queue.push_back(c);
                }
            }
        }
        seen
    }

    /// Smallest fixpoint of `seed` closed under "caller inherits the union
    /// of its resolved callees' sets": the classic bottom-up summary
    /// propagation every flow pass here uses.
    pub fn propagate_up<T: Clone + Ord>(&self, seed: Vec<BTreeSet<T>>) -> Vec<BTreeSet<T>> {
        let mut sets = seed;
        loop {
            let mut changed = false;
            for n in 0..self.nodes.len() {
                let mut add: Vec<T> = Vec::new();
                for c in &self.calls[n] {
                    let Some(t) = c.target else { continue };
                    if t == n {
                        continue;
                    }
                    for v in &sets[t] {
                        if !sets[n].contains(v) {
                            add.push(v.clone());
                        }
                    }
                }
                for v in add {
                    changed |= sets[n].insert(v);
                }
            }
            if !changed {
                return sets;
            }
        }
    }
}

/// Resolve one call site per the module-level rules. `i` is the callee
/// ident's body-relative index.
#[allow(clippy::too_many_arguments)]
fn resolve(
    toks: &[Token],
    i: usize,
    name: &str,
    f: &Function,
    params: &BTreeMap<String, Vec<String>>,
    by_name: &BTreeMap<&str, Vec<usize>>,
    by_impl: &BTreeMap<(&str, &str), Vec<usize>>,
    field_types: &BTreeMap<(&str, &str), &[String]>,
) -> Option<usize> {
    let ident_at = |j: usize| match toks.get(j).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct_at = |j: usize| match toks.get(j).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    };
    let unique = |nodes: Option<&Vec<usize>>| match nodes {
        Some(v) if v.len() == 1 => Some(v[0]),
        _ => None,
    };
    let bare = || {
        if COMMON_NAMES.contains(&name) {
            return None;
        }
        unique(by_name.get(name))
    };

    if i >= 1 && punct_at(i - 1) == Some('.') && i >= 2 {
        let recv = i - 2;
        // Rule 1: `self.name(...)`.
        if ident_at(recv) == Some("self") {
            if let Some(t) = f.impl_type.as_deref() {
                if let Some(n) = unique(by_impl.get(&(t, name))) {
                    return Some(n);
                }
            }
            return bare();
        }
        // Rule 2: `self.field.name(...)`.
        if let Some(field) = ident_at(recv) {
            if recv >= 2 && punct_at(recv - 1) == Some('.') && ident_at(recv - 2) == Some("self") {
                if let Some(owner) = f.impl_type.as_deref() {
                    if let Some(tys) = field_types.get(&(owner, field)) {
                        if let Some(n) = unique_across(tys, name, by_impl) {
                            return Some(n);
                        }
                    }
                }
                return bare();
            }
            // Rule 3: `param.name(...)`.
            if let Some(tys) = params.get(field) {
                if let Some(n) = unique_across(tys, name, by_impl) {
                    return Some(n);
                }
            }
        }
        return bare();
    }
    // Rule 4: `Type::name(...)`.
    if i >= 3 && punct_at(i - 1) == Some(':') && punct_at(i - 2) == Some(':') {
        if let Some(ty) = ident_at(i - 3) {
            if ty.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                if let Some(n) = unique(by_impl.get(&(ty, name))) {
                    return Some(n);
                }
            }
        }
        return bare();
    }
    bare()
}

/// The single node implementing `name` on any of `tys`, if exactly one
/// exists across all candidates.
fn unique_across(
    tys: &[String],
    name: &str,
    by_impl: &BTreeMap<(&str, &str), Vec<usize>>,
) -> Option<usize> {
    let mut found: Option<usize> = None;
    for ty in tys {
        for &n in by_impl.get(&(ty.as_str(), name)).into_iter().flatten() {
            match found {
                None => found = Some(n),
                Some(prev) if prev != n => return None,
                Some(_) => {}
            }
        }
    }
    found
}

/// Parameter name → declared type names (uppercase-initial idents), parsed
/// from a signature token span. `&self` receivers are not parameters; the
/// resolver handles `self` through the impl type.
fn param_types(sig: &[Token]) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let Some(open) = sig.iter().position(|t| t.tok == Tok::Punct('(')) else {
        return out;
    };
    let mut depth = 1i32;
    let mut angle = 0i32;
    let mut at_start = true;
    let mut i = open + 1;
    while i < sig.len() && depth > 0 {
        match &sig[i].tok {
            Tok::Punct('(') | Tok::Punct('[') => {
                depth += 1;
                at_start = false;
            }
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle = (angle - 1).max(0),
            Tok::Punct(',') if depth == 1 && angle == 0 => at_start = true,
            Tok::Punct('&') | Tok::Lifetime => {}
            Tok::Ident(w) if at_start && w == "mut" => {}
            Tok::Ident(w) if at_start => {
                at_start = false;
                let is_name = matches!(sig.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                    && !matches!(sig.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':')));
                if is_name && w != "self" {
                    let mut tys = Vec::new();
                    let mut j = i + 2;
                    let (mut d, mut a) = (depth, angle);
                    while j < sig.len() {
                        match &sig[j].tok {
                            Tok::Punct('(') | Tok::Punct('[') => d += 1,
                            Tok::Punct(')') | Tok::Punct(']') => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            Tok::Punct('<') => a += 1,
                            Tok::Punct('>') => a = (a - 1).max(0),
                            Tok::Punct(',') if d == 1 && a == 0 => break,
                            Tok::Ident(s)
                                if s.chars().next().is_some_and(|c| c.is_ascii_uppercase()) =>
                            {
                                tys.push(s.clone())
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    out.insert(w.clone(), tys);
                }
            }
            _ => at_start = false,
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Guard spans and blocking-call classification (shared by the lock passes).
// ---------------------------------------------------------------------------

/// One lock acquisition site inside a function body.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// `Struct.field` identity.
    pub lock: String,
    /// Body-relative token index of the receiver field ident.
    pub at: usize,
    /// Body-relative token index one past the guard's live span.
    pub until: usize,
    pub line: u32,
}

/// Lock identities: field name → owning structs, over the whole workspace.
pub fn lock_index(files: &[ParsedFile]) -> BTreeMap<&str, Vec<&LockField>> {
    let mut by_field: BTreeMap<&str, Vec<&LockField>> = BTreeMap::new();
    for pf in files {
        for lf in &pf.structs {
            by_field.entry(lf.field.as_str()).or_default().push(lf);
        }
    }
    by_field
}

/// Find `field.lock()` / `.read()` / `.write()` acquisitions in a body and
/// compute each guard's live span.
pub fn find_acquisitions(
    toks: &[Token],
    f: &Function,
    by_field: &BTreeMap<&str, Vec<&LockField>>,
) -> Vec<Acquire> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(field) = &t.tok else { continue };
        let Some(owners) = by_field.get(field.as_str()) else { continue };
        // Pattern: field `.` {lock|read|write} `(` `)`
        let ok = match (
            toks.get(i + 1).map(|t| &t.tok),
            toks.get(i + 2).map(|t| &t.tok),
            toks.get(i + 3).map(|t| &t.tok),
            toks.get(i + 4).map(|t| &t.tok),
        ) {
            (
                Some(Tok::Punct('.')),
                Some(Tok::Ident(m)),
                Some(Tok::Punct('(')),
                Some(Tok::Punct(')')),
            ) => m == "lock" || m == "read" || m == "write",
            _ => false,
        };
        if !ok {
            continue;
        }
        // Resolve the identity: prefer the enclosing impl type when it owns
        // a matching field, else a unique owner, else the first (sorted).
        let owner = f
            .impl_type
            .as_deref()
            .filter(|t| owners.iter().any(|lf| lf.owner == *t))
            .map(str::to_string)
            .or_else(|| {
                if owners.len() == 1 {
                    Some(owners[0].owner.clone())
                } else {
                    None
                }
            })
            .unwrap_or_else(|| {
                let mut names: Vec<&str> = owners.iter().map(|lf| lf.owner.as_str()).collect();
                names.sort_unstable();
                names[0].to_string()
            });
        let lock = format!("{owner}.{field}");
        let until = guard_span_end(toks, i);
        out.push(Acquire { lock, at: i, until, line: t.line });
    }
    out
}

/// One past the end of the guard's live span for the acquisition whose
/// receiver ident is at `at`.
pub fn guard_span_end(toks: &[Token], at: usize) -> usize {
    // A guard immediately method-chained (`m.lock().remove(k)`) is a
    // temporary even inside a `let` statement — the binding holds the
    // method's result, not the guard.
    let chained = matches!(toks.get(at + 5).map(|t| &t.tok), Some(Tok::Punct('.')));
    // Let-bound? Scan backwards to the statement start.
    let mut j = at;
    let mut let_guard: Option<String> = None;
    while !chained && j > 0 {
        j -= 1;
        match &toks[j].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            Tok::Ident(kw) if kw == "let" => {
                // Guard name: first ident after `let`, skipping `mut`.
                let mut k = j + 1;
                while let Some(Tok::Ident(n)) = toks.get(k).map(|t| &t.tok) {
                    if n == "mut" {
                        k += 1;
                    } else {
                        let_guard = Some(n.clone());
                        break;
                    }
                }
                break;
            }
            _ => {}
        }
    }
    match let_guard {
        Some(name) => {
            // Live to the end of the enclosing block, or `drop(name)`.
            let mut depth = 0i32;
            let mut i = at;
            while i < toks.len() {
                match &toks[i].tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth < 0 {
                            return i;
                        }
                    }
                    Tok::Ident(d) if d == "drop" && depth == 0 => {
                        if let (Some(Tok::Punct('(')), Some(Tok::Ident(g))) =
                            (toks.get(i + 1).map(|t| &t.tok), toks.get(i + 2).map(|t| &t.tok))
                        {
                            if *g == name {
                                return i;
                            }
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            toks.len()
        }
        None => {
            // Temporary: to the end of the statement — the next `;` with
            // balanced delimiters (a `match` scrutinee guard lives through
            // the whole match, so braces are skipped balanced). A brace
            // group closing back to depth 0 with no continuation token
            // after it ends the statement too (`if let ... {}` / `match
            // ... {}` in statement position have no trailing `;`).
            let mut depth = 0i32;
            let mut i = at;
            while i < toks.len() {
                match &toks[i].tok {
                    Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth < 0 {
                            return i;
                        }
                        if depth == 0 {
                            match toks.get(i + 1).map(|t| &t.tok) {
                                // `{...}.method()` / `{...}?` chains on.
                                Some(Tok::Punct('.')) | Some(Tok::Punct('?')) => {}
                                // `if ... {} else {}` continues.
                                Some(Tok::Ident(k)) if k == "else" => {}
                                _ => return i + 1,
                            }
                        }
                    }
                    Tok::Punct(')') | Tok::Punct(']') => {
                        depth -= 1;
                        if depth < 0 {
                            return i;
                        }
                    }
                    Tok::Punct(';') if depth == 0 => return i,
                    _ => {}
                }
                i += 1;
            }
            toks.len()
        }
    }
}

/// How a call can block the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlockClass {
    /// `thread::sleep` — blocks unconditionally for the full duration.
    Sleep,
    /// Channel receives (`recv`, `recv_timeout`).
    ChannelRecv,
    /// Condvar waits (`wait`, `wait_timeout`).
    CondvarWait,
    /// Zero-argument `join()` — thread joins.
    Join,
    /// Bulk reads/writes against local files.
    FileIo,
    /// Bulk reads/writes against sockets (the same call names as
    /// [`BlockClass::FileIo`], classified by the defining file living under
    /// `net/`).
    SocketIo,
}

impl BlockClass {
    /// Stable name used in finding details.
    pub fn name(self) -> &'static str {
        match self {
            BlockClass::Sleep => "sleep",
            BlockClass::ChannelRecv => "channel-recv",
            BlockClass::CondvarWait => "condvar-wait",
            BlockClass::Join => "join",
            BlockClass::FileIo => "file-io",
            BlockClass::SocketIo => "socket-io",
        }
    }
}

/// Is the file part of the socket data plane (for I/O classification)?
pub fn is_net_file(path: &str) -> bool {
    path.contains("/net/")
}

/// Classify the call at ident index `i` as directly blocking, if it is.
/// `join` only counts with zero arguments — `JoinHandle::join()`, not
/// `PathBuf::join(p)` or `slice::join(sep)`.
pub fn block_class(toks: &[Token], i: usize, name: &str, in_net_file: bool) -> Option<BlockClass> {
    let class = match name {
        "sleep" => BlockClass::Sleep,
        "recv" | "recv_timeout" => BlockClass::ChannelRecv,
        "wait" | "wait_timeout" => BlockClass::CondvarWait,
        "join" => {
            if matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(')'))) {
                BlockClass::Join
            } else {
                return None;
            }
        }
        "read_to_end" | "read_exact" | "write_all" | "sync_all" => {
            if in_net_file {
                BlockClass::SocketIo
            } else {
                BlockClass::FileIo
            }
        }
        _ => return None,
    };
    Some(class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_file;

    fn graph_of(srcs: &[(&str, &str)]) -> (Vec<ParsedFile>, Vec<(String, String)>) {
        let files: Vec<(String, String)> =
            srcs.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        let parsed = files.iter().map(|(p, s)| parse_file(p, s)).collect();
        (parsed, files)
    }

    fn node_named<'a>(g: &Graph<'a>, name: &str) -> usize {
        (0..g.nodes.len())
            .find(|&n| g.func(n).qual_name == name)
            .unwrap_or_else(|| panic!("no node {name}"))
    }

    #[test]
    fn resolves_self_field_param_and_path_receivers() {
        let (parsed, _keep) = graph_of(&[(
            "crates/demo/src/lib.rs",
            r#"
            struct Inner { x: u32 }
            impl Inner { fn poke(&self) {} }
            struct Outer { inner: Inner }
            impl Outer {
                fn direct(&self) { self.step(); }
                fn step(&self) { self.inner.poke(); }
            }
            fn by_param(v: &Inner) { v.poke(); }
            fn by_path() { Inner::make(); }
            impl Inner { fn make() {} }
            fn by_unique() { helper_unique(); }
            fn helper_unique() {}
            fn too_common(tx: std::sync::mpsc::Sender<u32>) { tx.send(1); }
            fn send() {}
            "#,
        )]);
        let g = Graph::build(&parsed);
        let target = |from: &str| {
            let n = node_named(&g, from);
            g.calls[n].iter().filter_map(|c| c.target).map(|t| g.func(t).qual_name.clone()).collect::<Vec<_>>()
        };
        assert_eq!(target("Outer::direct"), vec!["Outer::step"]);
        assert_eq!(target("Outer::step"), vec!["Inner::poke"]);
        assert_eq!(target("by_param"), vec!["Inner::poke"]);
        assert_eq!(target("by_path"), vec!["Inner::make"]);
        assert_eq!(target("by_unique"), vec!["helper_unique"]);
        // `send` is on the deny list: tx.send must NOT resolve to fn send.
        assert_eq!(target("too_common"), Vec::<String>::new());
    }

    #[test]
    fn reachability_and_backward_slice() {
        let (parsed, _keep) = graph_of(&[(
            "crates/demo/src/lib.rs",
            "fn a() { b(); } fn b() { c(); } fn c() {} fn d() { b(); }",
        )]);
        let g = Graph::build(&parsed);
        let (a, b, c, d) = (
            node_named(&g, "a"),
            node_named(&g, "b"),
            node_named(&g, "c"),
            node_named(&g, "d"),
        );
        assert_eq!(g.reachable(&[a]), BTreeSet::from([a, b, c]));
        assert_eq!(g.backward_slice(c), BTreeSet::from([a, b, c, d]));
        assert_eq!(g.backward_slice(d), BTreeSet::from([d]));
    }

    #[test]
    fn propagate_up_unions_callee_sets() {
        let (parsed, _keep) = graph_of(&[(
            "crates/demo/src/lib.rs",
            "fn top() { mid(); } fn mid() { leaf(); } fn leaf() {}",
        )]);
        let g = Graph::build(&parsed);
        let leaf = node_named(&g, "leaf");
        let mut seed: Vec<BTreeSet<&str>> = vec![BTreeSet::new(); g.nodes.len()];
        seed[leaf].insert("blocks");
        let out = g.propagate_up(seed);
        assert!(out[node_named(&g, "top")].contains("blocks"));
        assert!(out[node_named(&g, "mid")].contains("blocks"));
    }

    #[test]
    fn param_types_are_parsed_from_signatures() {
        let (parsed, _keep) = graph_of(&[(
            "crates/demo/src/lib.rs",
            r#"
            struct Conn;
            impl Conn { fn tighten(&self) {} }
            fn uses(conn: &mut Conn, n: usize, label: &str) { conn.tighten(); }
            "#,
        )]);
        let g = Graph::build(&parsed);
        let n = node_named(&g, "uses");
        let targets: Vec<_> =
            g.calls[n].iter().filter_map(|c| c.target).map(|t| g.func(t).qual_name.clone()).collect();
        assert_eq!(targets, vec!["Conn::tighten"]);
    }
}
