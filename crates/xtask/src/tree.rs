//! The token-tree layer: just enough structure over the flat token
//! stream for cross-statement reasoning — matched delimiters, `fn` item
//! boundaries, `impl` block boundaries, and receiver-chain naming.
//!
//! Deliberately not a parser: no `syn`, no grammar, no AST. The
//! structural rules (lock-order graph, seed-split registry, hot-path
//! allocation lint, counter census) only ever ask three questions —
//! "where does this bracket close?", "which fn/impl am I inside?", and
//! "what expression chain does this method call hang off?" — and each is
//! answerable from delimiter matching alone, which keeps the layer
//! dependency-free and tolerant of malformed input like the lexer below
//! it.

use crate::lexer::{Token, TokenKind};

/// One `fn` item: its name and the token range of its `{ … }` body.
#[derive(Debug, Clone)]
pub struct FnScope {
    /// The fn's name (raw-identifier prefix stripped).
    pub name: String,
    /// 1-indexed line of the name.
    pub line: usize,
    /// Token indices of the body's `{` and its matching `}`; `None` for
    /// brace-less declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
}

/// One `impl` block: the self-type name and its body token range.
#[derive(Debug, Clone)]
pub struct ImplScope {
    /// The last path segment of the implementing type (`ShardedCache`
    /// for `impl<L> fmt::Debug for ShardedCache<L>`).
    pub name: String,
    /// Token indices of the body's `{` and its matching `}`.
    pub body: (usize, usize),
}

/// The token tree for one file: delimiter matches plus item boundaries.
#[derive(Debug, Default)]
pub struct Tree {
    match_of: Vec<Option<usize>>,
    fns: Vec<FnScope>,
    impls: Vec<ImplScope>,
}

impl Tree {
    /// Builds the tree for `tokens`.
    pub fn new(tokens: &[Token]) -> Tree {
        let match_of = match_delimiters(tokens);
        let fns = find_fns(tokens, &match_of);
        let impls = find_impls(tokens, &match_of);
        Tree {
            match_of,
            fns,
            impls,
        }
    }

    /// The index of the delimiter matching the one at `idx` (either
    /// direction), when the file is well-formed around it.
    pub fn match_of(&self, idx: usize) -> Option<usize> {
        self.match_of.get(idx).copied().flatten()
    }

    /// All fn items, in source order.
    pub fn fns(&self) -> &[FnScope] {
        &self.fns
    }

    /// The innermost fn whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnScope> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(lo, hi)| idx > lo && idx < hi))
            .max_by_key(|f| f.body.map(|(lo, _)| lo))
    }

    /// The innermost impl block whose body contains token `idx`.
    pub fn enclosing_impl(&self, idx: usize) -> Option<&ImplScope> {
        self.impls
            .iter()
            .filter(|im| idx > im.body.0 && idx < im.body.1)
            .max_by_key(|im| im.body.0)
    }
}

/// Pairs `(`/`[`/`{` with their closers. Mismatched closers pop through
/// the stack (a linter must survive the code it inspects); unmatched
/// delimiters stay `None`.
fn match_delimiters(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut out = vec![None; tokens.len()];
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Punct || t.text.len() != 1 {
            continue;
        }
        match t.text.as_bytes()[0] as char {
            '(' => stack.push((')', i)),
            '[' => stack.push((']', i)),
            '{' => stack.push(('}', i)),
            c @ (')' | ']' | '}') => {
                while let Some((want, open)) = stack.pop() {
                    if want == c {
                        out[open] = Some(i);
                        out[i] = Some(open);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Finds every `fn` item. The body is the first top-level `{ … }` after
/// the name; parenthesized and bracketed groups in the signature are
/// skipped via the match table, and a `;` first means a declaration.
fn find_fns(tokens: &[Token], match_of: &[Option<usize>]) -> Vec<FnScope> {
    let mut fns = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("fn") || i + 1 >= tokens.len() {
            continue;
        }
        let name_tok = &tokens[i + 1];
        if name_tok.kind != TokenKind::Ident {
            continue; // `fn(u32) -> u32` pointer types have no name
        }
        let mut j = i + 2;
        let mut body = None;
        while j < tokens.len() {
            if tokens[j].is_punct('{') {
                body = match_of[j].map(|close| (j, close));
                break;
            }
            if tokens[j].is_punct(';') {
                break;
            }
            if tokens[j].is_punct('(') || tokens[j].is_punct('[') {
                if let Some(close) = match_of[j] {
                    j = close;
                }
            }
            j += 1;
        }
        fns.push(FnScope {
            name: name_tok.ident_name().to_string(),
            line: name_tok.line,
            body,
        });
    }
    fns
}

/// Finds every `impl` block and names it after the implementing type:
/// the last path segment before the body (after `for` in trait impls),
/// with generics and `where` clauses ignored.
fn find_impls(tokens: &[Token], match_of: &[Option<usize>]) -> Vec<ImplScope> {
    let mut impls = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("impl") {
            continue;
        }
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut naming = true;
        let mut name = String::new();
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('{') && angle <= 0 {
                if let Some(close) = match_of[j] {
                    if !name.is_empty() {
                        impls.push(ImplScope {
                            name: std::mem::take(&mut name),
                            body: (j, close),
                        });
                    }
                }
                break;
            }
            if t.is_punct(';') && angle <= 0 {
                break; // `impl Trait for Type;`-style malformed input
            }
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle <= 0 && t.is_ident("for") {
                name.clear();
            } else if angle <= 0 && t.is_ident("where") {
                naming = false;
            } else if naming && angle <= 0 && t.kind == TokenKind::Ident {
                name = t.ident_name().to_string();
            }
            j += 1;
        }
    }
    impls
}

/// Method names that acquire a lock (see [`lock_call`]).
const LOCK_METHODS: &[&str] = &["lock", "try_lock", "read", "write", "try_read", "try_write"];

/// The acquiring method when `tokens[i]` is the `.` of a lock call such
/// as `.lock(` or `.try_write(`: a mutex's `lock` and `try_lock`, a
/// reader-writer lock's `read`, `write`, `try_read` and `try_write`.
pub fn lock_call(tokens: &[Token], i: usize) -> Option<&str> {
    let method = tokens.get(i + 1)?;
    (tokens[i].is_punct('.')
        && method.kind == TokenKind::Ident
        && LOCK_METHODS.contains(&method.ident_name())
        && tokens.get(i + 2)?.is_punct('('))
    .then(|| method.ident_name())
}

/// Names the receiver chain ending at the `.` (or field) token at
/// `dot_idx`, walking left: identifiers and `.`/`::` joins are kept,
/// call and index groups collapse to `(_)` / `[_]`. `self.shard(idx)`
/// becomes `self.shard(_)`; an unrecognizable receiver is `<expr>`.
pub fn receiver_chain(tokens: &[Token], tree: &Tree, dot_idx: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut owned: Vec<String> = Vec::new();
    let mut j = dot_idx;
    while j > 0 {
        let p = j - 1;
        let t = &tokens[p];
        if t.is_punct(')') || t.is_punct(']') {
            let Some(open) = tree.match_of(p) else { break };
            parts.push(if t.is_punct(')') { "(_)" } else { "[_]" });
            j = open;
            continue;
        }
        if t.kind == TokenKind::Ident {
            owned.push(t.ident_name().to_string());
            parts.push("\0"); // placeholder resolved below
            j = p;
            if j >= 1 && tokens[j - 1].is_punct('.') {
                parts.push(".");
                j -= 1;
                continue;
            }
            if j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].is_punct(':') {
                parts.push("::");
                j -= 2;
                continue;
            }
        }
        break;
    }
    if parts.is_empty() {
        return "<expr>".to_string();
    }
    let mut names = owned.iter();
    let mut out = String::new();
    for part in parts.iter().rev() {
        match *part {
            "\0" => out.push_str(names.next_back().map(String::as_str).unwrap_or("")),
            s => out.push_str(s),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn matches_nested_delimiters() {
        let lexed = lex("fn f(a: [u8; 2]) { g(h(1)); }");
        let tree = Tree::new(&lexed.tokens);
        let open = lexed.tokens.iter().position(|t| t.is_punct('{')).unwrap();
        let close = tree.match_of(open).unwrap();
        assert!(lexed.tokens[close].is_punct('}'));
        assert_eq!(tree.match_of(close), Some(open));
    }

    #[test]
    fn finds_fn_bodies_and_declarations() {
        let lexed = lex("trait T { fn decl(&self); } fn real(x: u32) -> u32 { x + 1 }");
        let tree = Tree::new(&lexed.tokens);
        let names: Vec<(&str, bool)> = tree
            .fns()
            .iter()
            .map(|f| (f.name.as_str(), f.body.is_some()))
            .collect();
        assert_eq!(names, vec![("decl", false), ("real", true)]);
    }

    #[test]
    fn enclosing_fn_is_innermost() {
        let lexed = lex("fn outer() { fn inner() { mark(); } }");
        let tree = Tree::new(&lexed.tokens);
        let mark = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("mark"))
            .unwrap();
        assert_eq!(tree.enclosing_fn(mark).unwrap().name, "inner");
    }

    #[test]
    fn impl_names_cover_trait_and_inherent_blocks() {
        let lexed = lex("impl CacheStats { fn a(&self) {} } \
             impl<L> fmt::Debug for ShardedCache<L> { fn b(&self) {} }");
        let tree = Tree::new(&lexed.tokens);
        let names: Vec<&str> = tree.impls.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["CacheStats", "ShardedCache"]);
        let a = lexed.tokens.iter().position(|t| t.is_ident("a")).unwrap();
        assert_eq!(tree.enclosing_impl(a).unwrap().name, "CacheStats");
    }

    #[test]
    fn receiver_chains_normalize_calls_and_indexes() {
        let lexed = lex("self.shard(idx).lock(); self.shards[i].read(); guard.try_write();");
        let tree = Tree::new(&lexed.tokens);
        let dots: Vec<usize> = (0..lexed.tokens.len())
            .filter(|&i| lock_call(&lexed.tokens, i).is_some())
            .collect();
        let chains: Vec<String> = dots
            .iter()
            .map(|&d| receiver_chain(&lexed.tokens, &tree, d))
            .collect();
        assert_eq!(chains, vec!["self.shard(_)", "self.shards[_]", "guard"]);
    }

    #[test]
    fn lock_calls_cover_mutex_and_rwlock_methods() {
        let lexed = lex(
            "a.lock(); b.try_lock(); c.read(); d.write(); e.try_read(); \
             f.try_write(); g.lock; h.reader(); read(x);",
        );
        let methods: Vec<&str> = (0..lexed.tokens.len())
            .filter_map(|i| lock_call(&lexed.tokens, i))
            .collect();
        assert_eq!(
            methods,
            vec!["lock", "try_lock", "read", "write", "try_read", "try_write"]
        );
    }
}
