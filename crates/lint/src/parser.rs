//! Item-level parser on top of the lexer.
//!
//! Extracts the *item skeleton* of a file — structs and their named
//! fields, enums, functions with the calls / panic sites / allocation
//! sites inside their bodies, and the trait /
//! self-type attribution of every associated function — without
//! building expression trees. That skeleton is exactly what the
//! semantic lints (S1/T1) need and nothing more; anything the parser
//! does not understand it skips soundly (macro bodies, attribute
//! groups, generic argument lists), so it stays total over arbitrary
//! input the same way the lexer does.
//!
//! Deliberate over-approximations, chosen to keep the walker simple:
//!
//! * calls inside a nested `fn` body are attributed to the enclosing
//!   function too (the nested fn is also parsed as its own item);
//! * macro invocation bodies are skipped entirely, so calls made inside
//!   `format!(…)` arguments are invisible.

use crate::lexer::{TokKind, Token};
use crate::scanner::FileInfo;

/// One call-shaped occurrence inside a function body: `name(`,
/// `name::<…>(`, or a named construct like `.unwrap()` / `panic!`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// The callee name (last path segment), or a display label for
    /// panic/alloc sites (e.g. `panic!`, `.unwrap()`, `Vec::with_capacity`).
    pub name: String,
    /// True when the call is a method call (`recv.name(…)`).
    pub method: bool,
    /// The path segment directly before the name (`Vec` in
    /// `Vec::new(…)`, `Self` in `Self::index(…)`), when there is one.
    pub qual: Option<String>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// A struct definition and its named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Named field identifiers, in declaration order. Empty for unit
    /// and tuple structs (see [`StructDef::has_named_fields`]).
    pub fields: Vec<String>,
    /// True for a `struct S { … }` with at least a brace body.
    pub has_named_fields: bool,
    /// Line of the `struct` keyword.
    pub line: u32,
    /// True when the definition is inside test-gated code.
    pub is_test: bool,
}

/// An enum definition (variants are not modelled; S1 skips enums).
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// Line of the `enum` keyword.
    pub line: u32,
    /// True when the definition is inside test-gated code.
    pub is_test: bool,
}

/// A function definition with the body facts the semantic lints need.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Self type when defined inside an `impl` block.
    pub self_ty: Option<String>,
    /// Trait name when defined inside an `impl Trait for T` block.
    pub trait_name: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Column of the `fn` keyword.
    pub col: u32,
    /// True when the definition is inside test-gated code.
    pub is_test: bool,
    /// True when the first parameter is a `self` receiver. Method calls
    /// (`x.foo(…)`) can only target functions with a receiver, so
    /// resolution uses this to skip associated functions.
    pub has_self: bool,
    /// Call-shaped sites in the body (macros excluded).
    pub calls: Vec<Site>,
    /// Panic sites: `panic!`-family macros, `.unwrap()`, `.expect()`.
    pub panics: Vec<Site>,
    /// Allocation sites (the H2 pattern set).
    pub allocs: Vec<Site>,
    /// All identifiers mentioned in the body, sorted and deduplicated.
    /// Populated only for trait-impl methods (S1 consumes it).
    pub body_idents: Vec<String>,
}

/// Everything extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Enum definitions.
    pub enums: Vec<EnumDef>,
    /// Function definitions (nested fns appear as their own entries).
    pub fns: Vec<FnDef>,
}

/// Keywords that can be directly followed by `(` without being a call.
const KEYWORDS: &[&str] = &[
    "as", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "self", "static", "struct", "super", "trait", "true", "type", "unsafe", "use", "where", "while", "yield",
];

/// `name!` macros whose expansion panics.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// `.name()` methods that panic on the unhappy path.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// `name!` macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// `.name()` methods that allocate (mirrors the H2 token patterns).
const ALLOC_METHODS: &[&str] = &["clone", "collect", "to_owned", "to_string", "to_vec"];

/// `Type::ctor(` allocation constructors (mirrors H2). `new` is *not*
/// here: `Vec::new`/`String::new` are const and allocation-free; only
/// `Box::new` (special-cased) always allocates.
const ALLOC_TYPES: &[&str] =
    &["Box", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "String", "Vec", "VecDeque"];
const ALLOC_CTORS: &[&str] = &["from", "with_capacity"];

/// Upper bound on tokens scanned when skipping a `<…>` generic group.
/// If no balanced close is found within the window, the `<` is treated
/// as a comparison operator — keeps the parser total on weird input.
const ANGLE_SCAN_LIMIT: usize = 512;

/// Parses the item skeleton of one analyzed file.
pub fn parse_file(info: &FileInfo<'_>) -> ParsedFile {
    // Work on comment-free token indices; comments never affect items.
    let code: Vec<usize> = (0..info.toks.len())
        .filter(|&i| !matches!(info.toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut p = Parser { info, code, out: ParsedFile::default() };
    let n = p.code.len();
    p.items(0, n, &ImplCtx::default());
    p.out
}

/// Trait/self-type attribution inherited from an enclosing `impl`.
#[derive(Debug, Clone, Default)]
struct ImplCtx {
    self_ty: Option<String>,
    trait_name: Option<String>,
}

struct Parser<'a, 'b> {
    info: &'a FileInfo<'b>,
    /// Indices into `info.toks`, comments removed.
    code: Vec<usize>,
    out: ParsedFile,
}

impl Parser<'_, '_> {
    fn tok(&self, ci: usize) -> &Token {
        &self.info.toks[self.code[ci]]
    }

    /// Identifier text of code-token `ci`, `""` for non-identifiers.
    fn ident(&self, ci: usize) -> &str {
        if ci >= self.code.len() {
            return "";
        }
        self.tok(ci).ident_text(self.info.src).unwrap_or("")
    }

    fn is_punct(&self, ci: usize, c: char) -> bool {
        ci < self.code.len() && self.tok(ci).is_punct(self.info.src, c)
    }

    fn is_test(&self, ci: usize) -> bool {
        self.info.is_test[self.code[ci]]
    }

    fn site(&self, ci: usize, name: impl Into<String>, method: bool) -> Site {
        let t = self.tok(ci);
        Site { name: name.into(), method, qual: None, line: t.line, col: t.col }
    }

    /// The `Qual` of `Qual::name` when code-token `ci` (the name) is
    /// directly preceded by `::` and a path segment.
    fn qual_of(&self, ci: usize) -> Option<String> {
        if ci >= 3 && self.is_punct(ci - 1, ':') && self.is_punct(ci - 2, ':') {
            let q = self.ident(ci - 3);
            if !q.is_empty() {
                return Some(q.to_string());
            }
        }
        None
    }

    /// Skips a balanced delimiter group starting at `open` (one of
    /// `(`/`[`/`{`); returns the index one past the matching close.
    /// Unbalanced input returns `hi`.
    fn skip_group(&self, open: usize, hi: usize) -> usize {
        let (o, c) = match self.tok(open).text(self.info.src) {
            "(" => ('(', ')'),
            "[" => ('[', ']'),
            "{" => ('{', '}'),
            _ => return open + 1,
        };
        let mut depth = 0i32;
        let mut i = open;
        while i < hi {
            if self.is_punct(i, o) {
                depth += 1;
            } else if self.is_punct(i, c) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        hi
    }

    /// Skips a `<…>` generic group starting at `open` (a `<`); returns
    /// the index one past the matching `>`. `->` arrows inside (`Fn()
    /// -> T` bounds) do not close the group. Gives up after
    /// [`ANGLE_SCAN_LIMIT`] tokens and treats the `<` as an operator.
    fn skip_angles(&self, open: usize, hi: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        let limit = (open + ANGLE_SCAN_LIMIT).min(hi);
        while i < limit {
            if self.is_punct(i, '<') {
                depth += 1;
            } else if self.is_punct(i, '>') && !(i > 0 && self.is_punct(i - 1, '-')) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            } else if self.is_punct(i, '(') || self.is_punct(i, '[') || self.is_punct(i, '{') {
                i = self.skip_group(i, hi);
                continue;
            } else if self.is_punct(i, ';') {
                break; // a generic list never crosses a statement end
            }
            i += 1;
        }
        open + 1
    }

    /// Skips an attribute `#[…]` / `#![…]` starting at the `#`.
    fn skip_attr(&self, hash: usize, hi: usize) -> usize {
        let mut i = hash + 1;
        if self.is_punct(i, '!') {
            i += 1;
        }
        if self.is_punct(i, '[') {
            return self.skip_group(i, hi);
        }
        hash + 1
    }

    /// Walks items in `[lo, hi)` (code indices), recursing into `mod`,
    /// `impl`, `trait` and `fn` bodies.
    fn items(&mut self, lo: usize, hi: usize, ctx: &ImplCtx) {
        let mut i = lo;
        while i < hi {
            if self.is_punct(i, '#') {
                i = self.skip_attr(i, hi);
                continue;
            }
            if self.tok(i).kind != TokKind::Ident {
                // Stray delimiter groups at item level (e.g. inside a
                // malformed file): step over them wholesale.
                if self.is_punct(i, '(') || self.is_punct(i, '[') || self.is_punct(i, '{') {
                    i = self.skip_group(i, hi);
                } else {
                    i += 1;
                }
                continue;
            }
            match self.ident(i) {
                "macro_rules" => i = self.skip_macro_invocation(i, hi),
                "mod" => {
                    // `mod name;` or `mod name { items }`.
                    let mut j = i + 2;
                    while j < hi && !self.is_punct(j, ';') && !self.is_punct(j, '{') {
                        j += 1;
                    }
                    if j < hi && self.is_punct(j, '{') {
                        let end = self.skip_group(j, hi);
                        self.items(j + 1, end.saturating_sub(1), &ImplCtx::default());
                        i = end;
                    } else {
                        i = j + 1;
                    }
                }
                "struct" | "union" => i = self.struct_def(i, hi),
                "enum" => i = self.enum_def(i, hi),
                "trait" => i = self.trait_def(i, hi),
                "impl" => i = self.impl_block(i, hi),
                "fn" => i = self.fn_def(i, hi, ctx),
                "use" | "type" | "extern" => i = self.skip_to_semi(i, hi),
                "static" | "const" => {
                    // An associated const / static item; `const fn` is
                    // handled by the `fn` arm on the next iteration.
                    if self.ident(i + 1) == "fn" || self.ident(i + 1) == "unsafe" {
                        i += 1;
                    } else {
                        i = self.skip_to_semi(i, hi);
                    }
                }
                name => {
                    // A macro invocation at item level: `name! { … }` or
                    // `name!(…);` — skip it soundly.
                    if self.is_punct(i + 1, '!') {
                        i = self.skip_macro_invocation(i, hi);
                    } else if name == "pub" && self.is_punct(i + 1, '(') {
                        i = self.skip_group(i + 1, hi);
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    /// Skips `name ! (…)` / `name ! {…}` / `name ! […]` (also covers
    /// `macro_rules! name {…}`), plus a trailing `;` if present.
    fn skip_macro_invocation(&self, at: usize, hi: usize) -> usize {
        let mut i = at + 1;
        if self.is_punct(i, '!') {
            i += 1;
        }
        if i < hi && self.tok(i).kind == TokKind::Ident {
            i += 1; // `macro_rules! NAME {…}`
        }
        if i < hi && (self.is_punct(i, '(') || self.is_punct(i, '[') || self.is_punct(i, '{')) {
            i = self.skip_group(i, hi);
        }
        if i < hi && self.is_punct(i, ';') {
            i += 1;
        }
        i
    }

    /// Skips to one past the next `;` at delimiter depth 0.
    fn skip_to_semi(&self, at: usize, hi: usize) -> usize {
        let mut i = at;
        while i < hi {
            if self.is_punct(i, ';') {
                return i + 1;
            }
            if self.is_punct(i, '(') || self.is_punct(i, '[') || self.is_punct(i, '{') {
                i = self.skip_group(i, hi);
                continue;
            }
            if self.is_punct(i, '<') {
                i = self.skip_angles(i, hi);
                continue;
            }
            i += 1;
        }
        hi
    }

    /// Parses `struct Name … ;` / `struct Name(…);` / `struct Name {…}`.
    fn struct_def(&mut self, at: usize, hi: usize) -> usize {
        let name = self.ident(at + 1).to_string();
        if name.is_empty() {
            return at + 1;
        }
        let line = self.tok(at).line;
        let is_test = self.is_test(at);
        let mut i = at + 2;
        if self.is_punct(i, '<') {
            i = self.skip_angles(i, hi);
        }
        // Scan past where-clauses to the body or terminator.
        while i < hi {
            if self.is_punct(i, ';') {
                // Unit struct, or tuple struct whose paren group was
                // skipped below.
                self.out.structs.push(StructDef {
                    name,
                    fields: Vec::new(),
                    has_named_fields: false,
                    line,
                    is_test,
                });
                return i + 1;
            }
            if self.is_punct(i, '(') {
                i = self.skip_group(i, hi);
                continue;
            }
            if self.is_punct(i, '<') {
                i = self.skip_angles(i, hi);
                continue;
            }
            if self.is_punct(i, '{') {
                let end = self.skip_group(i, hi);
                let fields = self.named_fields(i + 1, end.saturating_sub(1));
                self.out.structs.push(StructDef { name, fields, has_named_fields: true, line, is_test });
                return end;
            }
            i += 1;
        }
        hi
    }

    /// Extracts field names from a `struct { … }` body range: an
    /// identifier at brace depth 0 directly followed by a single `:`.
    fn named_fields(&self, lo: usize, hi: usize) -> Vec<String> {
        let mut fields = Vec::new();
        let mut i = lo;
        let mut expect = true;
        while i < hi {
            if self.is_punct(i, '#') {
                i = self.skip_attr(i, hi);
                continue;
            }
            if self.is_punct(i, '(') || self.is_punct(i, '[') || self.is_punct(i, '{') {
                i = self.skip_group(i, hi);
                continue;
            }
            if self.is_punct(i, '<') {
                i = self.skip_angles(i, hi);
                continue;
            }
            if self.is_punct(i, ',') {
                expect = true;
                i += 1;
                continue;
            }
            let id = self.ident(i);
            if id == "pub" {
                i += 1;
                if self.is_punct(i, '(') {
                    i = self.skip_group(i, hi);
                }
                continue;
            }
            if expect && !id.is_empty() && self.is_punct(i + 1, ':') && !self.is_punct(i + 2, ':') {
                fields.push(id.to_string());
                expect = false;
            }
            i += 1;
        }
        fields
    }

    /// Parses `enum Name …` — records the name, skips the body.
    fn enum_def(&mut self, at: usize, hi: usize) -> usize {
        let name = self.ident(at + 1).to_string();
        if name.is_empty() {
            return at + 1;
        }
        self.out.enums.push(EnumDef { name, line: self.tok(at).line, is_test: self.is_test(at) });
        let mut i = at + 2;
        while i < hi {
            if self.is_punct(i, '<') {
                i = self.skip_angles(i, hi);
                continue;
            }
            if self.is_punct(i, '{') {
                return self.skip_group(i, hi);
            }
            if self.is_punct(i, ';') {
                return i + 1;
            }
            i += 1;
        }
        hi
    }

    /// Parses `trait Name … { decls }` — default method bodies inside
    /// get the trait name attributed.
    fn trait_def(&mut self, at: usize, hi: usize) -> usize {
        let name = self.ident(at + 1).to_string();
        let mut i = at + 2;
        while i < hi {
            if self.is_punct(i, '<') {
                i = self.skip_angles(i, hi);
                continue;
            }
            if self.is_punct(i, '{') {
                let end = self.skip_group(i, hi);
                let ctx = ImplCtx { self_ty: None, trait_name: Some(name) };
                self.items(i + 1, end.saturating_sub(1), &ctx);
                return end;
            }
            if self.is_punct(i, ';') {
                return i + 1;
            }
            i += 1;
        }
        hi
    }

    /// Parses `impl … {}` / `impl Trait for Type {}`, attributing the
    /// functions inside.
    fn impl_block(&mut self, at: usize, hi: usize) -> usize {
        let mut i = at + 1;
        if self.is_punct(i, '<') {
            i = self.skip_angles(i, hi);
        }
        // Collect the last depth-0 identifier before `for` (trait path)
        // and before the body (self-type path); a `where` clause ends
        // collection.
        let mut first_path_last: Option<String> = None;
        let mut second_path_last: Option<String> = None;
        let mut saw_for = false;
        let mut body = None;
        while i < hi {
            if self.is_punct(i, '{') {
                body = Some((i, self.skip_group(i, hi)));
                break;
            }
            if self.is_punct(i, ';') {
                return i + 1;
            }
            if self.is_punct(i, '<') {
                i = self.skip_angles(i, hi);
                continue;
            }
            if self.is_punct(i, '(') || self.is_punct(i, '[') {
                i = self.skip_group(i, hi);
                continue;
            }
            match self.ident(i) {
                "for" => saw_for = true,
                "where" => {
                    // Skip the where clause to the body brace.
                    while i < hi && !self.is_punct(i, '{') {
                        if self.is_punct(i, '<') {
                            i = self.skip_angles(i, hi);
                        } else if self.is_punct(i, '(') || self.is_punct(i, '[') {
                            i = self.skip_group(i, hi);
                        } else {
                            i += 1;
                        }
                    }
                    continue;
                }
                "" | "dyn" | "mut" | "const" | "unsafe" => {}
                id => {
                    let slot = if saw_for { &mut second_path_last } else { &mut first_path_last };
                    *slot = Some(id.to_string());
                }
            }
            i += 1;
        }
        let Some((open, end)) = body else { return hi };
        let ctx = if saw_for {
            ImplCtx { self_ty: second_path_last, trait_name: first_path_last }
        } else {
            ImplCtx { self_ty: first_path_last, trait_name: None }
        };
        self.items(open + 1, end.saturating_sub(1), &ctx);
        end
    }

    /// Parses `fn name…(…) … { body }`, extracting body facts, then
    /// recursing for nested items.
    fn fn_def(&mut self, at: usize, hi: usize, ctx: &ImplCtx) -> usize {
        let name = self.ident(at + 1).to_string();
        if name.is_empty() {
            return at + 1;
        }
        let (line, col) = (self.tok(at).line, self.tok(at).col);
        let is_test = self.is_test(at);
        let mut i = at + 2;
        if self.is_punct(i, '<') {
            i = self.skip_angles(i, hi);
        }
        // Signature: params, return type, where clause — up to `{`/`;`.
        let mut body = None;
        let mut has_self = false;
        let mut saw_params = false;
        while i < hi {
            if self.is_punct(i, ';') {
                i += 1;
                break; // trait declaration without a body
            }
            if self.is_punct(i, '{') {
                body = Some((i, self.skip_group(i, hi)));
                break;
            }
            if self.is_punct(i, '(') || self.is_punct(i, '[') {
                let close = self.skip_group(i, hi);
                if !saw_params && self.is_punct(i, '(') {
                    saw_params = true;
                    // A `self` before the first `,` of the param list is
                    // the receiver (`self`, `&self`, `&mut self`, `self: T`).
                    let mut j = i + 1;
                    while j < close && !self.is_punct(j, ',') {
                        if self.ident(j) == "self" {
                            has_self = true;
                            break;
                        }
                        j += 1;
                    }
                }
                i = close;
                continue;
            }
            if self.is_punct(i, '<') {
                i = self.skip_angles(i, hi);
                continue;
            }
            i += 1;
        }
        let mut def = FnDef {
            name,
            self_ty: ctx.self_ty.clone(),
            trait_name: ctx.trait_name.clone(),
            line,
            col,
            is_test,
            has_self,
            calls: Vec::new(),
            panics: Vec::new(),
            allocs: Vec::new(),
            body_idents: Vec::new(),
        };
        let Some((open, end)) = body else {
            self.out.fns.push(def);
            return i;
        };
        self.body_facts(open + 1, end.saturating_sub(1), &mut def);
        if def.trait_name.is_some() {
            let mut idents: Vec<String> = (open + 1..end.saturating_sub(1))
                .filter(|&j| self.tok(j).kind == TokKind::Ident)
                .map(|j| self.ident(j).to_string())
                .collect();
            idents.sort_unstable();
            idents.dedup();
            def.body_idents = idents;
        }
        self.out.fns.push(def);
        // Nested items (fns, structs) inside the body become their own
        // entries; the impl context does not propagate into them.
        self.items(open + 1, end.saturating_sub(1), &ImplCtx::default());
        end
    }

    /// Extracts calls / panics / allocs from a body range.
    fn body_facts(&mut self, lo: usize, hi: usize, def: &mut FnDef) {
        let mut i = lo;
        while i < hi {
            if self.is_punct(i, '#') {
                i = self.skip_attr(i, hi);
                continue;
            }
            if self.tok(i).kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let name = self.ident(i);
            // Macro invocation: classify, then skip the token group so
            // nothing inside leaks into the call list.
            if self.is_punct(i + 1, '!') && !self.is_punct(i + 2, '=') {
                if PANIC_MACROS.contains(&name) {
                    def.panics.push(self.site(i, format!("{name}!"), false));
                } else if ALLOC_MACROS.contains(&name) {
                    def.allocs.push(self.site(i, format!("{name}!"), false));
                }
                i = self.skip_macro_invocation(i, hi);
                continue;
            }
            // `Vec::with_capacity(…)`-style allocation.
            if ALLOC_TYPES.contains(&name)
                && self.is_punct(i + 1, ':')
                && self.is_punct(i + 2, ':')
                && self.is_punct(i + 4, '(')
            {
                let ctor = self.ident(i + 3);
                if ALLOC_CTORS.contains(&ctor) || (name == "Box" && ctor == "new") {
                    def.allocs.push(self.site(i, format!("{name}::{ctor}"), false));
                }
            }
            // Call shapes: `name(` or `name::<…>(`.
            if !KEYWORDS.contains(&name) && self.ident(i.wrapping_sub(1)) != "fn" {
                let after =
                    if self.is_punct(i + 1, ':') && self.is_punct(i + 2, ':') && self.is_punct(i + 3, '<') {
                        self.skip_angles(i + 3, hi)
                    } else {
                        i + 1
                    };
                if self.is_punct(after, '(') {
                    let method = i > lo && self.is_punct(i - 1, '.');
                    let mut call = self.site(i, name, method);
                    if !method {
                        call.qual = self.qual_of(i);
                    }
                    def.calls.push(call);
                    if method {
                        if PANIC_METHODS.contains(&name) {
                            def.panics.push(self.site(i, format!(".{name}()"), true));
                        }
                        if ALLOC_METHODS.contains(&name) {
                            def.allocs.push(self.site(i, format!(".{name}()"), true));
                        }
                    }
                }
            }
            i += 1;
        }
    }
}
