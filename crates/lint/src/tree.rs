//! Pass 2 of the analyzer: token trees and scope annotation.
//!
//! The masked lines produced by [`crate::lexer::SourceFile`] are flat
//! text; several v2 rules need *structure*: real loop nesting (not brace
//! counting), function and closure extents, and the argument ranges of
//! calls that dispatch work onto `splpg-par`. This module tokenizes the
//! masked code, matches `{}`/`()`/`[]` delimiters, and annotates every
//! token with its scope context:
//!
//! * `loop_depth` — number of enclosing `for`/`while`/`loop` bodies,
//!   with `impl … for … {` and higher-ranked `for<…>` bounds exempt and
//!   item scopes (`fn`, `impl`, `mod`, `trait`) resetting the count;
//! * the innermost enclosing named `fn` (index into [`TokenTree::fns`]);
//! * function bodies ([`FnDef`]) and `let`-bound closures
//!   ([`ClosureDef`]) with their token ranges, which the symbol pass
//!   ([`crate::symbols`]) uses to propagate "runs inside a parallel
//!   region" through dispatch-by-name;
//! * the argument ranges of calls to the `splpg-par` entry points
//!   ([`PAR_ENTRY_POINTS`]), the seeds of that propagation.
//!
//! The tokenizer is intentionally not a full Rust lexer — generics are
//! not bracket-matched (`<`/`>` stay ordinary punctuation), and closure
//! detection is a heuristic over the preceding token — but it only ever
//! sees masked code, so comments and string contents can never open a
//! scope or a parallel region.

use crate::lexer::SourceFile;

/// Calls whose closure arguments run on `splpg-par` worker threads.
///
/// `parallel_for`/`parallel_for_mut`/`parallel_map_chunks` are the
/// fork-join pool's methods, `actor_scope` hosts the cluster actors,
/// `scope`/`spawn` cover `std::thread` use inside `splpg-par`/`splpg-net`
/// themselves, and `par_parts` is the kernel dispatch helper in
/// `splpg-tensor`.
pub const PAR_ENTRY_POINTS: &[&str] = &[
    "parallel_for",
    "parallel_for_mut",
    "parallel_map_chunks",
    "actor_scope",
    "par_parts",
    "scope",
    "spawn",
];

/// Token classification. Punctuation is longest-matched so compound
/// operators (`+=`, `::`, `<<`, `..`) arrive as single tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal, including suffix (`1_000u64`, `0.5f32`).
    Number,
    /// Operator or delimiter.
    Punct,
}

/// One token of masked code.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token text exactly as written.
    pub text: String,
    /// 0-based line index into the [`SourceFile`].
    pub line: usize,
    /// Classification.
    pub kind: TokenKind,
}

/// Per-token scope context filled in by the annotation pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenCtx {
    /// Number of enclosing loop bodies (item scopes reset this).
    pub loop_depth: u16,
    /// Innermost enclosing named function (index into [`TokenTree::fns`]).
    pub fn_idx: Option<u32>,
}

/// A named `fn` definition and its body token range.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Body tokens, `start..end` (exclusive), inside the braces.
    pub body: (usize, usize),
}

/// A `let`-bound closure (`let run = |…| { … };`) and its body range.
///
/// These matter because the workspace's kernels bind a closure to a name
/// and pass the *name* to the pool; the symbol pass must follow that
/// reference to mark the body as a parallel region.
#[derive(Debug, Clone)]
pub struct ClosureDef {
    /// The binding's name.
    pub name: String,
    /// Body tokens, `start..end` (exclusive).
    pub body: (usize, usize),
}

/// The fully analyzed token structure of one file.
#[derive(Debug)]
pub struct TokenTree {
    /// Flat token stream.
    pub tokens: Vec<Token>,
    /// Matching partner index per delimiter token (`{}`/`()`/`[]`).
    pub partner: Vec<Option<usize>>,
    /// Scope context per token.
    pub ctx: Vec<TokenCtx>,
    /// Named function definitions, in source order.
    pub fns: Vec<FnDef>,
    /// `let`-bound closures, in source order.
    pub closures: Vec<ClosureDef>,
    /// Argument ranges (`start..end`, exclusive) of direct calls to
    /// [`PAR_ENTRY_POINTS`].
    pub par_call_args: Vec<(usize, usize)>,
    /// Whether every delimiter found a partner. Unbalanced files (macro
    /// tricks the lexer cannot see through) degrade gracefully: scope
    /// annotation stops at the imbalance, line rules still run.
    pub balanced: bool,
}

impl TokenTree {
    /// Tokenizes and annotates the masked code of `file`.
    pub fn build(file: &SourceFile) -> TokenTree {
        let tokens = tokenize(file);
        let partner = match_delims(&tokens);
        let mut tree = TokenTree {
            ctx: vec![TokenCtx::default(); tokens.len()],
            tokens,
            partner,
            fns: Vec::new(),
            closures: Vec::new(),
            par_call_args: Vec::new(),
            balanced: true,
        };
        tree.balanced = tree.partner.iter().zip(&tree.tokens).all(|(p, t)| {
            p.is_some() || !matches!(t.text.as_str(), "{" | "}" | "(" | ")" | "[" | "]")
        });
        let end = tree.tokens.len();
        tree.annotate(0, end, TokenCtx::default());
        tree.find_par_calls();
        tree
    }

    /// Whether token `i` sits inside a `#[cfg(test)]` region.
    pub fn in_test(&self, file: &SourceFile, i: usize) -> bool {
        file.lines[self.tokens[i].line].in_test
    }

    /// Annotates `start..end` (a brace-delimited sibling sequence) with
    /// `ctx`, recursing into groups with updated context.
    fn annotate(&mut self, start: usize, end: usize, ctx: TokenCtx) {
        #[derive(Default)]
        struct Pending {
            fn_name: Option<String>,
            loop_kw: bool,
            impl_kw: bool,
            item_kw: bool,
        }
        let mut pending = Pending::default();
        let mut i = start;
        while i < end {
            self.ctx[i] = ctx;
            let text = self.tokens[i].text.clone();
            match text.as_str() {
                "fn" => {
                    if let Some(next) = self.tokens.get(i + 1) {
                        if next.kind == TokenKind::Ident {
                            pending.fn_name = Some(next.text.clone());
                        }
                    }
                }
                "for" => {
                    // `for<'a> Fn(…)` is a higher-ranked bound, not a loop.
                    let hrtb = self.tokens.get(i + 1).is_some_and(|t| t.text == "<");
                    if !hrtb && !pending.impl_kw {
                        pending.loop_kw = true;
                    }
                }
                "while" | "loop" => pending.loop_kw = true,
                "impl" => pending.impl_kw = true,
                "mod" | "trait" => pending.item_kw = true,
                ";" => pending = Pending::default(),
                "|" | "||" if self.closure_starts_at(i) => {
                    i = self.annotate_closure(i, end, ctx);
                    pending = Pending::default();
                    continue;
                }
                "{" => {
                    let Some(close) = self.partner[i] else { break };
                    self.ctx[i] = ctx;
                    self.ctx[close] = ctx;
                    let inner = if pending.loop_kw && !pending.impl_kw {
                        TokenCtx { loop_depth: ctx.loop_depth.saturating_add(1), ..ctx }
                    } else if let Some(name) = pending.fn_name.take() {
                        let fn_idx = self.fns.len() as u32;
                        self.fns.push(FnDef { name, body: (i + 1, close) });
                        TokenCtx { loop_depth: 0, fn_idx: Some(fn_idx) }
                    } else if pending.impl_kw || pending.item_kw {
                        TokenCtx { loop_depth: 0, fn_idx: None }
                    } else {
                        ctx
                    };
                    self.annotate(i + 1, close, inner);
                    pending = Pending::default();
                    i = close + 1;
                    continue;
                }
                "(" | "[" => {
                    let Some(close) = self.partner[i] else { break };
                    self.ctx[i] = ctx;
                    self.ctx[close] = ctx;
                    self.annotate(i + 1, close, ctx);
                    i = close + 1;
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// Whether the `|` / `||` at `i` opens a closure rather than acting
    /// as a binary operator: true when the previous token cannot end an
    /// operand (or is the `move` keyword).
    fn closure_starts_at(&self, i: usize) -> bool {
        match self.prev_token(i) {
            None => true,
            Some(p) => {
                let t = self.tokens[p].text.as_str();
                if self.tokens[p].kind == TokenKind::Ident {
                    matches!(t, "move" | "return" | "else" | "in" | "if" | "match")
                } else {
                    // After a closing delimiter, number, or quote the bar
                    // is a binary operator (or a pattern alternative).
                    !matches!(t, ")" | "]" | "}" | "\"") && self.tokens[p].kind != TokenKind::Number
                }
            }
        }
    }

    /// Annotates a closure starting at the `|`/`||` token `i`; records a
    /// [`ClosureDef`] when the closure is `let`-bound to a name. Returns
    /// the index to resume scanning at.
    fn annotate_closure(&mut self, i: usize, end: usize, ctx: TokenCtx) -> usize {
        self.ctx[i] = ctx;
        // Find the end of the parameter list.
        let params_end = if self.tokens[i].text == "||" {
            i
        } else {
            let mut j = i + 1;
            loop {
                match self.tokens.get(j) {
                    None => return i + 1,
                    Some(t) if t.text == "|" => break j,
                    Some(t) if t.text == ";" => return i + 1, // not a closure after all
                    Some(t) => {
                        self.ctx[j] = ctx;
                        if matches!(t.text.as_str(), "(" | "[" | "{") {
                            match self.partner[j] {
                                Some(c) => {
                                    self.annotate(j + 1, c, ctx);
                                    self.ctx[c] = ctx;
                                    j = c + 1;
                                    continue;
                                }
                                None => return i + 1,
                            }
                        }
                        j += 1;
                    }
                }
            }
        };
        // Body: a brace group, or an expression running to the next `,`
        // or `;` at this level (or the end of the enclosing group).
        let body_start = params_end + 1;
        let body_end = match self.tokens.get(body_start) {
            Some(t) if t.text == "{" => match self.partner[body_start] {
                Some(c) => c + 1,
                None => return body_start,
            },
            _ => {
                let mut j = body_start;
                while j < end {
                    match self.tokens[j].text.as_str() {
                        "," | ";" => break,
                        "(" | "[" | "{" => match self.partner[j] {
                            Some(c) => j = c + 1,
                            None => break,
                        },
                        _ => j += 1,
                    }
                }
                j
            }
        };
        if let Some(name) = self.closure_binding_name(i) {
            self.closures.push(ClosureDef { name, body: (body_start, body_end) });
        }
        // Closure bodies inherit loop context: a closure built inside a
        // loop is (in this workspace) invoked inside it too.
        self.annotate(body_start, body_end.min(end), ctx);
        body_start
    }

    /// For a closure starting at token `i`, returns the binding name when
    /// the preceding tokens are `let [mut] NAME = [move]`.
    fn closure_binding_name(&self, i: usize) -> Option<String> {
        let mut j = self.prev_token(i)?;
        if self.tokens[j].text == "move" {
            j = self.prev_token(j)?;
        }
        if self.tokens[j].text != "=" {
            return None;
        }
        let name_at = self.prev_token(j)?;
        let name = &self.tokens[name_at];
        if name.kind != TokenKind::Ident {
            return None;
        }
        let let_at = self.prev_token(name_at)?;
        let kw = self.tokens[let_at].text.as_str();
        if kw == "let" || (kw == "mut" && self.prev_token(let_at).is_some_and(|k| self.tokens[k].text == "let")) {
            Some(name.text.clone())
        } else {
            None
        }
    }

    fn prev_token(&self, i: usize) -> Option<usize> {
        i.checked_sub(1)
    }

    /// Records the argument ranges of direct [`PAR_ENTRY_POINTS`] calls.
    fn find_par_calls(&mut self) {
        for i in 0..self.tokens.len() {
            let t = &self.tokens[i];
            if t.kind != TokenKind::Ident || !PAR_ENTRY_POINTS.contains(&t.text.as_str()) {
                continue;
            }
            let Some(open) = self.tokens.get(i + 1).filter(|n| n.text == "(").map(|_| i + 1)
            else {
                continue;
            };
            if let Some(close) = self.partner[open] {
                self.par_call_args.push((open + 1, close));
            }
        }
    }
}

/// Tokenizes the masked code of every line into one flat stream.
fn tokenize(file: &SourceFile) -> Vec<Token> {
    // Compound operators, longest first so e.g. `<<=` wins over `<<`.
    const PUNCTS: &[&str] = &[
        "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<",
        ">>", "+=", "-=", "*=", "/=", "%=", "^=", "|=", "&=", "..",
    ];
    let mut out = Vec::new();
    for (line_idx, line) in file.lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    text: chars[start..i].iter().collect(),
                    line: line_idx,
                    kind: TokenKind::Ident,
                });
                continue;
            }
            if c.is_ascii_digit() {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                // A `.` continues the literal only when a digit follows
                // (`0.5`, not the range `0..5` or a method call `1.max(x)`).
                if i < chars.len()
                    && chars[i] == '.'
                    && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                out.push(Token {
                    text: chars[start..i].iter().collect(),
                    line: line_idx,
                    kind: TokenKind::Number,
                });
                continue;
            }
            // Punctuation: longest compound match, else a single char.
            let rest: String = chars[i..chars.len().min(i + 3)].iter().collect();
            let matched = PUNCTS.iter().find(|p| rest.starts_with(**p));
            let text = match matched {
                Some(p) => (*p).to_string(),
                None => c.to_string(),
            };
            i += text.chars().count();
            out.push(Token { text, line: line_idx, kind: TokenKind::Punct });
        }
    }
    out
}

/// Matches `{}`/`()`/`[]` pairs over the token stream.
fn match_delims(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut partner = vec![None; tokens.len()];
    let mut stack: Vec<(usize, char)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.text.as_str() {
            "{" => stack.push((i, '}')),
            "(" => stack.push((i, ')')),
            "[" => stack.push((i, ']')),
            "}" | ")" | "]" => {
                if let Some(&(open, want)) = stack.last() {
                    if t.text.starts_with(want) {
                        stack.pop();
                        partner[open] = Some(i);
                        partner[i] = Some(open);
                    }
                }
            }
            _ => {}
        }
    }
    partner
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(src: &str) -> (SourceFile, TokenTree) {
        let f = SourceFile::analyze(src);
        let t = TokenTree::build(&f);
        (f, t)
    }

    fn ctx_of<'a>(t: &'a TokenTree, text: &str) -> &'a TokenCtx {
        let i = t.tokens.iter().position(|tok| tok.text == text).expect("token present");
        &t.ctx[i]
    }

    #[test]
    fn loop_depth_tracks_real_nesting() {
        let (_, t) = tree("fn f() { for i in 0..3 { while go { inner(); } } tail(); }\n");
        assert_eq!(ctx_of(&t, "inner").loop_depth, 2);
        assert_eq!(ctx_of(&t, "tail").loop_depth, 0);
    }

    #[test]
    fn impl_for_and_hrtb_are_not_loops() {
        let (_, t) = tree("impl Builder for Factory { fn build(&self) { body(); } }\n");
        assert_eq!(ctx_of(&t, "body").loop_depth, 0);
        let (_, t) = tree("fn f(g: impl for<'a> Fn(&'a u32)) { body(); }\n");
        assert_eq!(ctx_of(&t, "body").loop_depth, 0);
    }

    #[test]
    fn items_reset_loop_depth() {
        let (_, t) = tree("fn f() { loop { fn g() { body(); } } }\n");
        assert_eq!(ctx_of(&t, "body").loop_depth, 0);
    }

    #[test]
    fn fn_defs_and_enclosing_fn_recorded() {
        let (_, t) = tree("fn alpha() { a(); }\nfn beta() { for x in y { b(); } }\n");
        let names: Vec<&str> = t.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
        let b_ctx = ctx_of(&t, "b");
        assert_eq!(b_ctx.fn_idx.map(|i| t.fns[i as usize].name.as_str()), Some("beta"));
        assert_eq!(b_ctx.loop_depth, 1);
    }

    #[test]
    fn let_bound_closures_recorded_with_bodies() {
        let (_, t) = tree("fn f() { let run = |a: usize, b: &mut [f32]| { work(a, b); };\n    go(run); }\n");
        assert_eq!(t.closures.len(), 1);
        assert_eq!(t.closures[0].name, "run");
        let (s, e) = t.closures[0].body;
        assert!(t.tokens[s..e].iter().any(|tok| tok.text == "work"));
    }

    #[test]
    fn closure_detection_skips_binary_or() {
        let (_, t) = tree("fn f() { let x = a | b; let y = c || d; }\n");
        assert!(t.closures.is_empty());
    }

    #[test]
    fn par_call_args_found_multiline() {
        let (_, t) = tree(
            "fn f(pool: &Pool) {\n    pool.parallel_for_mut(out, m, 1, |row0, chunk| {\n        hit();\n    });\n}\n",
        );
        assert_eq!(t.par_call_args.len(), 1);
        let (s, e) = t.par_call_args[0];
        assert!(t.tokens[s..e].iter().any(|tok| tok.text == "hit"));
    }

    #[test]
    fn compound_punct_and_float_literals_tokenize_whole() {
        let (_, t) = tree("fn f() { x += 1.5f32; y <<= 2; z = 0..n; }\n");
        let texts: Vec<&str> = t.tokens.iter().map(|tok| tok.text.as_str()).collect();
        assert!(texts.contains(&"+="));
        assert!(texts.contains(&"1.5f32"));
        assert!(texts.contains(&"<<="));
        assert!(texts.contains(&".."));
    }

    #[test]
    fn unbalanced_input_degrades_gracefully() {
        let (_, t) = tree("fn f() { if x { y();\n");
        assert!(!t.balanced);
    }
}
