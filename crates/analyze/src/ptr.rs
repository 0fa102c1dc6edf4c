//! Pass 1 of `ddl-cert`: the unsafe-pointer verifier for
//! `crates/backend-simd/src/arch.rs`.
//!
//! The audited SIMD module is small and deliberately first-order: every
//! raw pointer is derived from a caller slice, advanced by affine index
//! expressions (`base + c0 + c1·loopvar`), and consumed by one of four
//! unaligned vector memory intrinsics. This pass parses the module into
//! a miniature statement/expression IR and then *concretely executes*
//! both ISA paths for every supported leaf size, recording each memory
//! access. Because all loop bounds are functions of `n` alone and the
//! set of supported `n` is finite (`ddl_backend_simd::supported_size`),
//! exhaustive concrete execution over that set *is* the symbolic proof:
//! an access is certified in-bounds and aligned iff it is in-bounds and
//! aligned on every execution.
//!
//! What the pass proves, per intrinsic call site:
//! * every executed access satisfies `0 <= index` and
//!   `index + lanes <= region_len` (in `f64` units);
//! * stores only target writable (`&mut`) regions;
//! * every offset is a whole number of `f64`s, so the address inherits
//!   the slice's 8-byte alignment — the precondition of the unaligned
//!   intrinsics used; aligned-variant intrinsics are rejected outright;
//! * buffer coverage equals the stride-1 [`ddl_core::layout::AccessSet`]
//!   family the plan-level analyzer assumes for leaf nodes.
//!
//! What it trusts: `rustc`'s type checking (a `&[Complex64]` really is
//! `2·len` doubles — `#[repr(C)]` is asserted in `ddl-num`), and that
//! the parsed text is the text that gets compiled (enforced by hashing
//! drift: unparseable statements anywhere in the file are fatal when
//! they contain pointer-sensitive tokens).
//!
//! The mutation sweep re-runs the verifier with a seeded fault — an
//! off-by-one pointer offset, a widened vector, or a swapped base
//! region — at each site and demands the pipeline notices: either a
//! hard bounds/writability violation or a changed access fingerprint.

use crate::findings::{AnalysisReport, Severity};
use crate::lint;
use crate::tok::{self, Kind, Token};
use ddl_core::layout::{AccessSet, Region};
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

/// Workspace-relative path of the module this pass certifies.
pub const PTR_TARGET: &str = "crates/backend-simd/src/arch.rs";

/// Rule id for pointer-certificate findings.
pub const RULE_PTR: &str = "cert/ptr";

/// The leaf sizes the kernels are certified for: exactly the sizes the
/// SIMD backend dispatches to (`ddl_backend_simd::supported_size`).
pub fn leaf_sizes() -> Vec<usize> {
    (1..=ddl_backend_simd::MAX_SIMD_LEAF)
        .filter(|&n| ddl_backend_simd::supported_size(n))
        .collect()
}

/// The `(factor_len, buf_len)` shapes the twiddle kernels are certified
/// for. `buf_len >= factor_len` is the wrapper's asserted contract; the
/// sweep includes equal, `+1` (odd tail) and slack shapes.
pub fn twiddle_shapes() -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for m in [0usize, 1, 2, 3, 4, 5, 7, 8, 16, 33, 64] {
        for extra in [0usize, 1, 3] {
            out.push((m, m + extra));
        }
    }
    out
}

/// A seeded fault for the mutation self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationKind {
    /// Add one `f64` to the pointer offset at the site.
    OffsetByOne,
    /// Double the number of lanes the site touches.
    WidenVector,
    /// Redirect the access to the next region (e.g. `buf` ↔ `tw`).
    SwapBase,
}

impl fmt::Display for MutationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MutationKind::OffsetByOne => "offset-by-one",
            MutationKind::WidenVector => "widen-vector",
            MutationKind::SwapBase => "swap-base",
        };
        write!(f, "{s}")
    }
}

/// One seeded fault: `kind` applied at intrinsic call site `site`.
#[derive(Clone, Copy, Debug)]
pub struct PtrMutation {
    /// Lexical index of the intrinsic call site (see [`SiteCert::id`]).
    pub site: usize,
    /// Fault applied at that site.
    pub kind: MutationKind,
}

/// The per-site certificate: what was proven about one intrinsic call.
#[derive(Clone, Debug)]
pub struct SiteCert {
    /// Lexical index of the site within the file (stable across runs).
    pub id: usize,
    /// Kernel function containing the site.
    pub kernel: String,
    /// ISA module containing the kernel (`x86` or `neon`).
    pub module: String,
    /// 1-based source line of the intrinsic call.
    pub line: usize,
    /// Intrinsic name (`_mm256_loadu_pd`, `vst1q_f64`, ...).
    pub intrinsic: String,
    /// Whether the site stores (else it loads).
    pub is_store: bool,
    /// Name of the region (parameter or local array) accessed.
    pub region: String,
    /// Lanes (`f64`s) touched per execution.
    pub lanes: usize,
    /// Smallest `f64` index observed across all certified shapes.
    pub min_index: i64,
    /// Largest `index + lanes` observed across all certified shapes.
    pub max_end: i64,
    /// Region length (`f64`s) at the shape where `max_end` occurred.
    pub region_len_at_max: i64,
    /// Proven alignment of every executed access, in bytes.
    pub align_bytes: u32,
    /// Total executions across all certified shapes.
    pub executions: u64,
}

/// The whole-file pointer certificate.
#[derive(Clone, Debug)]
pub struct PtrCertificate {
    /// Workspace-relative path of the certified file.
    pub file: String,
    /// Leaf sizes the DFT kernels were executed for.
    pub sizes: Vec<usize>,
    /// Kernel functions that contained intrinsic sites.
    pub kernels: Vec<String>,
    /// Per-site certificates, in lexical order.
    pub sites: Vec<SiteCert>,
    /// FNV-1a fingerprint over the full sorted access trace.
    pub fingerprint: u64,
}

/// Outcome of the seeded-mutation sweep.
#[derive(Clone, Debug, Default)]
pub struct MutationSummary {
    /// Mutations applied (`sites × 3`).
    pub applied: usize,
    /// Mutations noticed (violation or fingerprint change).
    pub caught: usize,
    /// Mutations that produced a hard bounds/writability violation.
    pub hard_violations: usize,
}

// ---------------------------------------------------------------------
// Miniature IR
// ---------------------------------------------------------------------

/// Memory intrinsics the verifier certifies: `(name, lanes, is_store)`.
const MEM_INTRINSICS: &[(&str, usize, bool)] = &[
    ("_mm256_loadu_pd", 4, false),
    ("_mm256_storeu_pd", 4, true),
    ("vld1q_f64", 2, false),
    ("vst1q_f64", 2, true),
];

/// Aligned or streaming variants are rejected: the certificate only
/// proves 8-byte (`f64`) alignment, which the unaligned intrinsics
/// require; 32-byte-aligned variants would need a stronger proof.
const BANNED_INTRINSICS: &[&str] = &[
    "_mm256_load_pd",
    "_mm256_store_pd",
    "_mm_load_pd",
    "_mm_store_pd",
    "_mm256_stream_pd",
];

fn mem_intrinsic(name: &str) -> Option<(usize, bool)> {
    MEM_INTRINSICS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, lanes, store)| (lanes, store))
}

/// Identifier tokens that mark a statement as pointer-sensitive: a
/// statement the parser cannot model may be skipped only if it contains
/// none of these (drift guard for future edits to `arch.rs`).
fn sensitive_ident(name: &str) -> bool {
    matches!(
        name,
        "as_ptr" | "as_mut_ptr" | "add" | "offset" | "transmute" | "from_raw_parts"
    ) || name.contains("loadu")
        || name.contains("storeu")
        || name.starts_with("vld")
        || name.starts_with("vst")
        || name.starts_with("_mm")
}

#[derive(Clone, Debug)]
enum Expr {
    Int(i64),
    Float,
    Str,
    Bool(bool),
    Path(Vec<String>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Un(UnOp, Box<Expr>),
    Call {
        path: Vec<String>,
        args: Vec<Expr>,
        site: Option<usize>,
        line: usize,
    },
    Method {
        recv: Box<Expr>,
        name: String,
        args: Vec<Expr>,
        line: usize,
    },
    Index {
        recv: Box<Expr>,
        idx: Box<Expr>,
        line: usize,
    },
    Field(Box<Expr>),
    Array(Vec<Expr>),
    Tuple(Vec<Expr>),
    Cast {
        inner: Box<Expr>,
        to_f64_ptr: bool,
    },
    MacroCall,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Range,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UnOp {
    Neg,
    Not,
    Ref,
    Deref,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AssignOp {
    Set,
    AddAssign,
    SubAssign,
    MulAssign,
}

#[derive(Clone, Debug)]
enum Stmt {
    Let {
        name: String,
        init: Expr,
    },
    Assign {
        target: Expr,
        op: AssignOp,
        value: Expr,
        line: usize,
    },
    If {
        cond: Expr,
        then: Vec<Stmt>,
        alt: Vec<Stmt>,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
    },
    ForRange {
        var: String,
        start: Expr,
        end: Expr,
        body: Vec<Stmt>,
    },
    Return,
    Expr(Expr),
    Block(Vec<Stmt>),
    /// A statement the parser could not model; `sensitive` means it
    /// contained pointer-related tokens and must fail verification.
    Opaque {
        line: usize,
        sensitive: bool,
        text: String,
    },
}

#[derive(Clone, Debug)]
struct ParamDef {
    name: String,
    /// `Some(f64s_per_element)` when the parameter is a slice.
    elem_f64s: Option<i64>,
    writable: bool,
}

#[derive(Clone, Debug)]
struct FnDef {
    name: String,
    module: String,
    params: Vec<ParamDef>,
    body: Vec<Stmt>,
    /// Site ids assigned while parsing this function's body.
    sites: Vec<usize>,
}

#[derive(Clone, Debug)]
struct SiteDecl {
    id: usize,
    intrinsic: String,
    lanes: usize,
    is_store: bool,
    line: usize,
    kernel: String,
    module: String,
}

#[derive(Clone, Debug, Default)]
struct ParsedFile {
    fns: Vec<FnDef>,
    sites: Vec<SiteDecl>,
    /// `(name, line)` of banned aligned/streaming intrinsic calls.
    banned: Vec<(String, usize)>,
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    sites: Vec<SiteDecl>,
    banned: Vec<(String, usize)>,
    module: String,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, k: usize) -> Option<&Token> {
        self.toks.get(self.pos + k)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, p: &str) -> bool {
        self.peek().is_some_and(|t| t.is_punct(p))
    }

    fn at_ident(&self, w: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(w))
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, w: &str) -> bool {
        if self.at_ident(w) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), String> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(format!(
                "expected `{p}` at line {}",
                self.peek().map_or(0, |t| t.line)
            ))
        }
    }

    fn line(&self) -> usize {
        self.peek().map_or(0, |t| t.line)
    }

    /// Skips one attribute (`#[...]` or `#![...]`).
    fn skip_attr(&mut self) {
        // Caller saw `#`.
        self.pos += 1;
        self.eat_punct("!");
        if self.at_punct("[") {
            self.skip_balanced("[", "]");
        }
    }

    /// Consumes a balanced token group starting at the current `open`.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Parses the whole file into functions grouped by module.
    fn parse_file(&mut self) -> Result<Vec<FnDef>, String> {
        let mut fns = Vec::new();
        self.parse_items(&mut fns, false)?;
        Ok(fns)
    }

    fn parse_items(&mut self, fns: &mut Vec<FnDef>, in_mod: bool) -> Result<(), String> {
        while let Some(t) = self.peek() {
            if t.is_punct("}") {
                if in_mod {
                    self.pos += 1;
                    return Ok(());
                }
                return Err(format!("stray `}}` at line {}", t.line));
            }
            if t.is_punct("#") {
                self.skip_attr();
                continue;
            }
            if t.is_ident("use") {
                while let Some(t) = self.bump() {
                    if t.is_punct(";") {
                        break;
                    }
                }
                continue;
            }
            if t.is_ident("mod") {
                self.pos += 1;
                let name = match self.bump() {
                    Some(t) if t.kind == Kind::Ident => t.text,
                    other => {
                        return Err(format!(
                            "bad module name at line {}",
                            other.map_or(0, |t| t.line)
                        ))
                    }
                };
                self.expect_punct("{")?;
                let saved = std::mem::replace(&mut self.module, name);
                self.parse_items(fns, true)?;
                self.module = saved;
                continue;
            }
            if t.is_ident("pub") {
                self.pos += 1;
                if self.at_punct("(") {
                    self.skip_balanced("(", ")");
                }
                continue;
            }
            if t.is_ident("unsafe") {
                self.pos += 1;
                continue;
            }
            if t.is_ident("fn") {
                let f = self.parse_fn()?;
                fns.push(f);
                continue;
            }
            // Unknown item head (const/static/impl would land here):
            // refuse rather than guess — arch.rs has none, and silently
            // skipping could hide pointer state.
            return Err(format!("unsupported item `{}` at line {}", t.text, t.line));
        }
        if in_mod {
            return Err("unterminated module".to_string());
        }
        Ok(())
    }

    fn parse_fn(&mut self) -> Result<FnDef, String> {
        self.pos += 1; // fn
        let name = match self.bump() {
            Some(t) if t.kind == Kind::Ident => t.text,
            other => {
                return Err(format!(
                    "bad fn name at line {}",
                    other.map_or(0, |t| t.line)
                ))
            }
        };
        self.expect_punct("(")?;
        let params = self.parse_params()?;
        // Return type: skip until the body brace.
        while let Some(t) = self.peek() {
            if t.is_punct("{") {
                break;
            }
            self.pos += 1;
        }
        let sites_before = self.sites.len();
        let body = self.parse_block()?;
        let site_ids: Vec<usize> = (sites_before..self.sites.len()).collect();
        for id in &site_ids {
            self.sites[*id].kernel = name.clone();
            self.sites[*id].module = self.module.clone();
        }
        Ok(FnDef {
            name,
            module: self.module.clone(),
            params,
            body,
            sites: site_ids,
        })
    }

    fn parse_params(&mut self) -> Result<Vec<ParamDef>, String> {
        let mut params = Vec::new();
        loop {
            if self.eat_punct(")") {
                return Ok(params);
            }
            self.eat_ident("mut");
            let name = match self.bump() {
                Some(t) if t.kind == Kind::Ident => t.text,
                other => {
                    return Err(format!(
                        "bad parameter at line {}",
                        other.map_or(0, |t| t.line)
                    ))
                }
            };
            self.expect_punct(":")?;
            // Collect the type tokens up to `,` or `)` at depth 0.
            let mut depth = 0usize;
            let mut writable = false;
            let mut saw_slice = false;
            let mut elem: Option<i64> = None;
            let mut saw_raw_ptr = false;
            while let Some(t) = self.peek() {
                if depth == 0 && (t.is_punct(",") || t.is_punct(")")) {
                    break;
                }
                if t.is_punct("(") || t.is_punct("[") {
                    depth += 1;
                    if t.is_punct("[") {
                        saw_slice = true;
                    }
                } else if t.is_punct(")") || t.is_punct("]") {
                    depth -= 1;
                } else if t.is_ident("mut") {
                    writable = true;
                } else if t.is_ident("Complex64") {
                    elem = Some(2);
                } else if t.is_ident("f64") {
                    elem = elem.or(Some(1));
                } else if t.is_punct("*") {
                    saw_raw_ptr = true;
                }
                self.pos += 1;
            }
            if saw_raw_ptr {
                return Err(format!("raw-pointer parameter `{name}` is not certifiable"));
            }
            params.push(ParamDef {
                name,
                elem_f64s: if saw_slice { elem } else { None },
                writable,
            });
            self.eat_punct(",");
        }
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>, String> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        loop {
            if self.eat_punct("}") {
                return Ok(out);
            }
            if self.peek().is_none() {
                return Err("unterminated block".to_string());
            }
            let stmt = self.parse_stmt()?;
            out.push(stmt);
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, String> {
        while self.at_punct("#") {
            self.skip_attr();
        }
        let start = self.pos;
        match self.try_parse_stmt() {
            Ok(s) => Ok(s),
            Err(_) => {
                self.pos = start;
                Ok(self.recover_stmt())
            }
        }
    }

    fn try_parse_stmt(&mut self) -> Result<Stmt, String> {
        if self.eat_punct(";") {
            return Ok(Stmt::Block(Vec::new()));
        }
        if self.at_ident("let") {
            return self.parse_let();
        }
        if self.at_ident("if") {
            return self.parse_if();
        }
        if self.at_ident("while") {
            self.pos += 1;
            if self.at_ident("let") {
                return Err("while-let is not modeled".to_string());
            }
            let cond = self.parse_expr()?;
            let body = self.parse_block()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.at_ident("for") {
            self.pos += 1;
            let var = match self.bump() {
                Some(t) if t.kind == Kind::Ident => t.text,
                _ => return Err("bad for-loop pattern".to_string()),
            };
            if !self.eat_ident("in") {
                return Err("bad for loop".to_string());
            }
            let range = self.parse_expr()?;
            let (start, end) = match range {
                Expr::Bin(BinOp::Range, a, b) => (*a, *b),
                _ => return Err("for loop over a non-range".to_string()),
            };
            let body = self.parse_block()?;
            return Ok(Stmt::ForRange {
                var,
                start,
                end,
                body,
            });
        }
        if self.at_ident("return") {
            self.pos += 1;
            if !self.at_punct(";") && !self.at_punct("}") {
                let _ = self.parse_expr()?;
            }
            self.eat_punct(";");
            return Ok(Stmt::Return);
        }
        if self.at_ident("unsafe") && self.peek_at(1).is_some_and(|t| t.is_punct("{")) {
            self.pos += 1;
            return Ok(Stmt::Block(self.parse_block()?));
        }
        if self.at_punct("{") {
            return Ok(Stmt::Block(self.parse_block()?));
        }
        // Expression statement or assignment.
        let line = self.line();
        let target = self.parse_expr()?;
        let op = if self.eat_punct("=") {
            Some(AssignOp::Set)
        } else if self.eat_punct("+=") {
            Some(AssignOp::AddAssign)
        } else if self.eat_punct("-=") {
            Some(AssignOp::SubAssign)
        } else if self.eat_punct("*=") {
            Some(AssignOp::MulAssign)
        } else {
            None
        };
        if let Some(op) = op {
            let value = self.parse_expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Assign {
                target,
                op,
                value,
                line,
            });
        }
        if self.eat_punct(";") || self.at_punct("}") {
            return Ok(Stmt::Expr(target));
        }
        Err(format!("unterminated expression statement at line {line}"))
    }

    fn parse_let(&mut self) -> Result<Stmt, String> {
        self.pos += 1; // let
        self.eat_ident("mut");
        let name = match self.bump() {
            Some(t) if t.kind == Kind::Ident || t.is_punct("_") => t.text,
            other => {
                return Err(format!(
                    "unsupported let pattern at line {}",
                    other.map_or(0, |t| t.line)
                ))
            }
        };
        if self.eat_punct(":") {
            // Type annotation: skip to `=` at bracket depth 0 (the
            // annotation may contain `;` inside `[f64; 2]`).
            let mut depth = 0usize;
            while let Some(t) = self.peek() {
                if depth == 0 && t.is_punct("=") {
                    break;
                }
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
                    depth = depth.saturating_sub(1);
                } else if depth == 0 && t.is_punct(";") {
                    return Err("let without initializer".to_string());
                }
                self.pos += 1;
            }
        }
        self.expect_punct("=")?;
        let init = self.parse_expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Let { name, init })
    }

    fn parse_if(&mut self) -> Result<Stmt, String> {
        self.pos += 1; // if
        if self.at_ident("let") {
            return Err("if-let is not modeled".to_string());
        }
        let cond = self.parse_expr()?;
        let then = self.parse_block()?;
        let mut alt = Vec::new();
        if self.eat_ident("else") {
            if self.at_ident("if") {
                alt.push(self.parse_if()?);
            } else {
                alt = self.parse_block()?;
            }
        }
        Ok(Stmt::If { cond, then, alt })
    }

    /// Skips one unparseable statement, collecting its tokens so the
    /// caller can refuse the file if the statement looked
    /// pointer-sensitive.
    fn recover_stmt(&mut self) -> Stmt {
        let line = self.line();
        let mut text = String::new();
        let mut sensitive = false;
        let mut paren = 0usize;
        let mut brace = 0usize;
        while let Some(t) = self.peek().cloned() {
            if paren == 0 && brace == 0 {
                if t.is_punct("}") {
                    break;
                }
                if t.is_punct(";") {
                    self.pos += 1;
                    break;
                }
            }
            if t.is_punct("(") || t.is_punct("[") {
                paren += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                paren = paren.saturating_sub(1);
            } else if t.is_punct("{") {
                brace += 1;
            } else if t.is_punct("}") {
                brace = brace.saturating_sub(1);
                if brace == 0 && paren == 0 {
                    self.pos += 1;
                    // `} else {` continues the same statement.
                    if self.at_ident("else") {
                        continue;
                    }
                    break;
                }
            }
            if t.kind == Kind::Ident && sensitive_ident(&t.text) {
                sensitive = true;
            }
            if !text.is_empty() {
                text.push(' ');
            }
            text.push_str(&t.text);
            self.pos += 1;
        }
        Stmt::Opaque {
            line,
            sensitive,
            text,
        }
    }

    // -- expressions --------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, String> {
        self.parse_range()
    }

    fn parse_range(&mut self) -> Result<Expr, String> {
        let lhs = self.parse_or()?;
        if self.eat_punct("..") {
            let rhs = self.parse_or()?;
            return Ok(Expr::Bin(BinOp::Range, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn parse_or(&mut self) -> Result<Expr, String> {
        let mut lhs = self.parse_and()?;
        while self.eat_punct("||") {
            let rhs = self.parse_and()?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, String> {
        let mut lhs = self.parse_cmp()?;
        while self.eat_punct("&&") {
            let rhs = self.parse_cmp()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, String> {
        let lhs = self.parse_add()?;
        for (p, op) in [
            ("==", BinOp::Eq),
            ("!=", BinOp::Ne),
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
        ] {
            if self.eat_punct(p) {
                let rhs = self.parse_add()?;
                return Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)));
            }
        }
        Ok(lhs)
    }

    fn parse_add(&mut self) -> Result<Expr, String> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = if self.eat_punct("+") {
                BinOp::Add
            } else if self.eat_punct("-") {
                BinOp::Sub
            } else {
                return Ok(lhs);
            };
            let rhs = self.parse_mul()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn parse_mul(&mut self) -> Result<Expr, String> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = if self.eat_punct("*") {
                BinOp::Mul
            } else if self.eat_punct("/") {
                BinOp::Div
            } else if self.eat_punct("%") {
                BinOp::Rem
            } else {
                return Ok(lhs);
            };
            let rhs = self.parse_unary()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, String> {
        if self.eat_punct("-") {
            return Ok(Expr::Un(UnOp::Neg, Box::new(self.parse_unary()?)));
        }
        if self.eat_punct("!") {
            return Ok(Expr::Un(UnOp::Not, Box::new(self.parse_unary()?)));
        }
        if self.eat_punct("&") {
            self.eat_ident("mut");
            return Ok(Expr::Un(UnOp::Ref, Box::new(self.parse_unary()?)));
        }
        if self.eat_punct("*") {
            return Ok(Expr::Un(UnOp::Deref, Box::new(self.parse_unary()?)));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, String> {
        let mut e = self.parse_primary()?;
        loop {
            if self.at_punct(".") && !self.peek_at(1).is_some_and(|t| t.is_punct(".")) {
                let line = self.line();
                self.pos += 1;
                let name = match self.bump() {
                    Some(t) if t.kind == Kind::Ident || t.kind == Kind::Int => t.text,
                    other => {
                        return Err(format!(
                            "bad member access at line {}",
                            other.map_or(0, |t| t.line)
                        ))
                    }
                };
                if self.at_punct("(") {
                    self.pos += 1;
                    let args = self.parse_args()?;
                    e = Expr::Method {
                        recv: Box::new(e),
                        name,
                        args,
                        line,
                    };
                } else {
                    let _ = name;
                    e = Expr::Field(Box::new(e));
                }
                continue;
            }
            if self.at_punct("(") {
                if let Expr::Path(path) = e {
                    let line = self.line();
                    self.pos += 1;
                    let args = self.parse_args()?;
                    let site = self.declare_site(&path, line);
                    e = Expr::Call {
                        path,
                        args,
                        site,
                        line,
                    };
                    continue;
                }
                return Err(format!("call on a non-path at line {}", self.line()));
            }
            if self.at_punct("[") {
                let line = self.line();
                self.pos += 1;
                let idx = self.parse_expr()?;
                self.expect_punct("]")?;
                e = Expr::Index {
                    recv: Box::new(e),
                    idx: Box::new(idx),
                    line,
                };
                continue;
            }
            if self.at_ident("as") {
                self.pos += 1;
                let mut is_ptr = false;
                let mut last_ident = String::new();
                if self.eat_punct("*") {
                    is_ptr = true;
                    if !self.eat_ident("mut") {
                        self.eat_ident("const");
                    }
                }
                while let Some(t) = self.peek() {
                    if t.kind == Kind::Ident && !t.is_ident("as") {
                        last_ident = t.text.clone();
                        self.pos += 1;
                        if self.eat_punct("::") {
                            continue;
                        }
                    }
                    break;
                }
                if last_ident.is_empty() {
                    return Err(format!("bad cast at line {}", self.line()));
                }
                e = Expr::Cast {
                    inner: Box::new(e),
                    to_f64_ptr: is_ptr && last_ident == "f64",
                };
                continue;
            }
            return Ok(e);
        }
    }

    fn parse_args(&mut self) -> Result<Vec<Expr>, String> {
        let mut args = Vec::new();
        loop {
            if self.eat_punct(")") {
                return Ok(args);
            }
            args.push(self.parse_expr()?);
            if !self.eat_punct(",") && !self.at_punct(")") {
                return Err(format!("bad argument list at line {}", self.line()));
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, String> {
        let t = match self.peek().cloned() {
            Some(t) => t,
            None => return Err("unexpected end of input".to_string()),
        };
        match t.kind {
            Kind::Int => {
                self.pos += 1;
                Ok(Expr::Int(i64::try_from(t.int).unwrap_or(i64::MAX)))
            }
            Kind::Float => {
                self.pos += 1;
                Ok(Expr::Float)
            }
            Kind::Str => {
                self.pos += 1;
                Ok(Expr::Str)
            }
            Kind::Ident if t.text == "true" || t.text == "false" => {
                self.pos += 1;
                Ok(Expr::Bool(t.text == "true"))
            }
            Kind::Ident => {
                let mut path = vec![t.text.clone()];
                self.pos += 1;
                while self.at_punct("::") {
                    self.pos += 1;
                    match self.bump() {
                        Some(seg) if seg.kind == Kind::Ident => path.push(seg.text),
                        other => {
                            return Err(format!(
                                "bad path segment at line {}",
                                other.map_or(0, |t| t.line)
                            ))
                        }
                    }
                }
                if self.at_punct("!") {
                    // Macro invocation: skip the delimited body, but
                    // refuse if it hides pointer-sensitive tokens.
                    self.pos += 1;
                    let start = self.pos;
                    if self.at_punct("(") {
                        self.skip_balanced("(", ")");
                    } else if self.at_punct("[") {
                        self.skip_balanced("[", "]");
                    } else if self.at_punct("{") {
                        self.skip_balanced("{", "}");
                    } else {
                        return Err(format!("bad macro call at line {}", t.line));
                    }
                    for tok in &self.toks[start..self.pos] {
                        if tok.kind == Kind::Ident && sensitive_ident(&tok.text) {
                            return Err(format!(
                                "macro at line {} hides pointer-sensitive token `{}`",
                                t.line, tok.text
                            ));
                        }
                    }
                    return Ok(Expr::MacroCall);
                }
                Ok(Expr::Path(path))
            }
            Kind::Punct if t.text == "(" => {
                self.pos += 1;
                if self.eat_punct(")") {
                    return Ok(Expr::Tuple(Vec::new()));
                }
                let first = self.parse_expr()?;
                if self.eat_punct(")") {
                    return Ok(first);
                }
                let mut items = vec![first];
                while self.eat_punct(",") {
                    if self.at_punct(")") {
                        break;
                    }
                    items.push(self.parse_expr()?);
                }
                self.expect_punct(")")?;
                Ok(Expr::Tuple(items))
            }
            Kind::Punct if t.text == "[" => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    if self.eat_punct("]") {
                        return Ok(Expr::Array(items));
                    }
                    items.push(self.parse_expr()?);
                    if !self.eat_punct(",") && !self.at_punct("]") {
                        return Err(format!("bad array literal at line {}", self.line()));
                    }
                }
            }
            _ => Err(format!("unexpected token `{}` at line {}", t.text, t.line)),
        }
    }

    /// Registers an intrinsic call site for the path being called.
    fn declare_site(&mut self, path: &[String], line: usize) -> Option<usize> {
        let name = path.last().map(String::as_str).unwrap_or("");
        if BANNED_INTRINSICS.contains(&name) {
            self.banned.push((name.to_string(), line));
            return None;
        }
        let (lanes, is_store) = mem_intrinsic(name)?;
        let id = self.sites.len();
        self.sites.push(SiteDecl {
            id,
            intrinsic: name.to_string(),
            lanes,
            is_store,
            line,
            kernel: String::new(),
            module: String::new(),
        });
        Some(id)
    }
}

/// Parses scrubbed `arch.rs` source into the miniature IR.
fn parse_arch(source: &str) -> Result<ParsedFile, String> {
    let toks = tok::tokenize(&lint::scrub(source));
    let mut p = Parser {
        toks,
        pos: 0,
        sites: Vec::new(),
        banned: Vec::new(),
        module: String::new(),
    };
    let fns = p.parse_file()?;
    Ok(ParsedFile {
        fns,
        sites: p.sites,
        banned: p.banned,
    })
}

// ---------------------------------------------------------------------
// Concrete interpreter
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
enum Value {
    Int(i64),
    Bool(bool),
    /// A raw pointer into `region`, `off` in `f64` units from its base;
    /// `unit` is the stride of `.add(1)` in `f64`s (1 after a cast to a
    /// `f64` pointer, the element width before).
    Ptr {
        region: usize,
        off: i64,
        unit: i64,
    },
    Slice(usize),
    Unit,
}

#[derive(Clone, Debug)]
struct RegionInst {
    name: String,
    /// Region length in `f64` units.
    f64_len: i64,
    /// `f64`s per logical element (2 for `Complex64`).
    elem_f64s: i64,
    writable: bool,
}

/// One recorded memory access, in `f64` units for pointer accesses and
/// element units (flagged) for safe slice indexing.
#[derive(Clone, Debug)]
struct AccessRec {
    site: Option<usize>,
    region: usize,
    index: i64,
    lanes: i64,
    is_store: bool,
    line: usize,
}

enum Flow {
    Normal,
    Return,
}

struct Exec<'a> {
    regions: Vec<RegionInst>,
    scopes: Vec<Vec<(String, Value)>>,
    ptr_accesses: Vec<AccessRec>,
    slice_accesses: Vec<AccessRec>,
    mutation: Option<PtrMutation>,
    sites: &'a [SiteDecl],
    steps: u64,
}

const STEP_BUDGET: u64 = 20_000_000;

impl<'a> Exec<'a> {
    fn new(regions: Vec<RegionInst>, mutation: Option<PtrMutation>, sites: &'a [SiteDecl]) -> Self {
        Exec {
            regions,
            scopes: vec![Vec::new()],
            ptr_accesses: Vec::new(),
            slice_accesses: Vec::new(),
            mutation,
            sites,
            steps: 0,
        }
    }

    fn lookup(&self, name: &str) -> Option<Value> {
        for scope in self.scopes.iter().rev() {
            for (n, v) in scope.iter().rev() {
                if n == name {
                    return Some(*v);
                }
            }
        }
        None
    }

    fn bind(&mut self, name: &str, v: Value) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.push((name.to_string(), v));
        }
    }

    fn set(&mut self, name: &str, v: Value) -> Result<(), String> {
        for scope in self.scopes.iter_mut().rev() {
            for (n, slot) in scope.iter_mut().rev() {
                if n == name {
                    *slot = v;
                    return Ok(());
                }
            }
        }
        Err(format!("assignment to unbound variable `{name}`"))
    }

    fn tick(&mut self) -> Result<(), String> {
        self.steps += 1;
        if self.steps > STEP_BUDGET {
            return Err("interpreter step budget exceeded".to_string());
        }
        Ok(())
    }

    fn exec_block(&mut self, body: &[Stmt]) -> Result<Flow, String> {
        self.scopes.push(Vec::new());
        let mut flow = Flow::Normal;
        for s in body {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                Flow::Return => {
                    flow = Flow::Return;
                    break;
                }
            }
        }
        self.scopes.pop();
        Ok(flow)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<Flow, String> {
        self.tick()?;
        match s {
            Stmt::Let { name, init } => {
                // Local array literals (`let sign: [f64; 2] = [...]`)
                // become fresh read-only regions so `as_ptr` on them is
                // certifiable.
                if let Expr::Array(items) = init {
                    for item in items {
                        let v = self.eval(item)?;
                        if matches!(v, Value::Ptr { .. }) {
                            return Err("pointer stored in array literal".to_string());
                        }
                    }
                    let region = self.regions.len();
                    self.regions.push(RegionInst {
                        name: name.clone(),
                        f64_len: items.len() as i64,
                        elem_f64s: 1,
                        writable: false,
                    });
                    self.bind(name, Value::Slice(region));
                    return Ok(Flow::Normal);
                }
                let v = self.eval(init)?;
                if name != "_" {
                    self.bind(name, v);
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign {
                target,
                op,
                value,
                line,
            } => {
                match target {
                    Expr::Path(path) if path.len() == 1 => {
                        let name = &path[0];
                        let rhs = self.eval(value)?;
                        let new = match op {
                            AssignOp::Set => rhs,
                            _ => {
                                let old = self
                                    .lookup(name)
                                    .ok_or_else(|| format!("unbound variable `{name}`"))?;
                                match (old, rhs) {
                                    (Value::Int(a), Value::Int(b)) => Value::Int(
                                        match op {
                                            AssignOp::AddAssign => a.checked_add(b),
                                            AssignOp::SubAssign => a.checked_sub(b),
                                            AssignOp::MulAssign => a.checked_mul(b),
                                            AssignOp::Set => Some(b),
                                        }
                                        .ok_or("integer overflow")?,
                                    ),
                                    _ => {
                                        return Err(format!(
                                            "compound assignment on non-integer at line {line}"
                                        ))
                                    }
                                }
                            }
                        };
                        self.set(name, new)?;
                    }
                    Expr::Index { recv, idx, line } => {
                        let rv = self.eval(recv)?;
                        let iv = self.eval(idx)?;
                        let region = match rv {
                            Value::Slice(r) => r,
                            _ => return Err(format!("indexed store on non-slice at line {line}")),
                        };
                        let i = match iv {
                            Value::Int(i) => i,
                            _ => return Err(format!("non-integer index at line {line}")),
                        };
                        // Compound ops (`buf[i] *= ...`) read then write.
                        if *op != AssignOp::Set {
                            self.slice_accesses.push(AccessRec {
                                site: None,
                                region,
                                index: i,
                                lanes: 1,
                                is_store: false,
                                line: *line,
                            });
                        }
                        self.slice_accesses.push(AccessRec {
                            site: None,
                            region,
                            index: i,
                            lanes: 1,
                            is_store: true,
                            line: *line,
                        });
                        let rhs = self.eval(value)?;
                        if matches!(rhs, Value::Ptr { .. }) {
                            return Err("pointer stored through slice index".to_string());
                        }
                    }
                    _ => return Err(format!("unsupported assignment target at line {line}")),
                }
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then, alt } => {
                let c = self.eval(cond)?;
                match c {
                    Value::Bool(true) => self.exec_block(then),
                    Value::Bool(false) => self.exec_block(alt),
                    _ => Err("branch condition did not evaluate to a boolean".to_string()),
                }
            }
            Stmt::While { cond, body } => {
                loop {
                    self.tick()?;
                    match self.eval(cond)? {
                        Value::Bool(true) => {}
                        Value::Bool(false) => break,
                        _ => return Err("loop condition did not evaluate to a boolean".to_string()),
                    }
                    if let Flow::Return = self.exec_block(body)? {
                        return Ok(Flow::Return);
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::ForRange {
                var,
                start,
                end,
                body,
            } => {
                let s = match self.eval(start)? {
                    Value::Int(v) => v,
                    _ => return Err("non-integer range start".to_string()),
                };
                let e = match self.eval(end)? {
                    Value::Int(v) => v,
                    _ => return Err("non-integer range end".to_string()),
                };
                let mut i = s;
                while i < e {
                    self.tick()?;
                    self.scopes.push(vec![(var.clone(), Value::Int(i))]);
                    let flow = self.exec_block(body)?;
                    self.scopes.pop();
                    if let Flow::Return = flow {
                        return Ok(Flow::Return);
                    }
                    i += 1;
                }
                Ok(Flow::Normal)
            }
            Stmt::Return => Ok(Flow::Return),
            Stmt::Expr(e) => {
                let _ = self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::Block(body) => self.exec_block(body),
            Stmt::Opaque {
                line,
                sensitive,
                text,
            } => {
                if *sensitive {
                    Err(format!(
                        "unmodeled pointer-sensitive statement at line {line}: `{text}`"
                    ))
                } else {
                    Ok(Flow::Normal)
                }
            }
        }
    }

    fn eval(&mut self, e: &Expr) -> Result<Value, String> {
        self.tick()?;
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float | Expr::Str | Expr::MacroCall => Ok(Value::Unit),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Array(items) | Expr::Tuple(items) => {
                for item in items {
                    let _ = self.eval(item)?;
                }
                Ok(Value::Unit)
            }
            Expr::Path(path) => {
                if path.len() == 1 {
                    self.lookup(&path[0])
                        .ok_or_else(|| format!("unbound variable `{}`", path[0]))
                } else {
                    Ok(Value::Unit)
                }
            }
            Expr::Un(op, inner) => {
                let v = self.eval(inner)?;
                Ok(match (op, v) {
                    (UnOp::Neg, Value::Int(i)) => {
                        Value::Int(i.checked_neg().ok_or("integer overflow")?)
                    }
                    (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                    (UnOp::Ref, v) => v,
                    (UnOp::Deref, Value::Ptr { .. }) => {
                        return Err("raw pointer dereference outside an intrinsic".to_string())
                    }
                    _ => Value::Unit,
                })
            }
            Expr::Bin(op, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                self.eval_bin(*op, va, vb)
            }
            Expr::Field(recv) => {
                let _ = self.eval(recv)?;
                Ok(Value::Unit)
            }
            Expr::Index { recv, idx, line } => {
                let rv = self.eval(recv)?;
                let iv = self.eval(idx)?;
                match (rv, iv) {
                    (Value::Slice(region), Value::Int(i)) => {
                        self.slice_accesses.push(AccessRec {
                            site: None,
                            region,
                            index: i,
                            lanes: 1,
                            is_store: false,
                            line: *line,
                        });
                        Ok(Value::Unit)
                    }
                    (Value::Slice(_), _) => Err(format!("non-integer index at line {line}")),
                    _ => Err(format!("index on a non-slice at line {line}")),
                }
            }
            Expr::Cast { inner, to_f64_ptr } => {
                let v = self.eval(inner)?;
                match (v, to_f64_ptr) {
                    (Value::Ptr { region, off, .. }, true) => Ok(Value::Ptr {
                        region,
                        off,
                        unit: 1,
                    }),
                    (Value::Ptr { .. }, false) => Err("pointer cast to a non-f64 type".to_string()),
                    (v, _) => Ok(v),
                }
            }
            Expr::Method {
                recv,
                name,
                args,
                line,
            } => self.eval_method(recv, name, args, *line),
            Expr::Call {
                path,
                args,
                site,
                line,
            } => self.eval_call(path, args, *site, *line),
        }
    }

    fn eval_bin(&mut self, op: BinOp, a: Value, b: Value) -> Result<Value, String> {
        if let (Value::Int(x), Value::Int(y)) = (a, b) {
            return Ok(match op {
                BinOp::Add => Value::Int(x.checked_add(y).ok_or("integer overflow")?),
                BinOp::Sub => Value::Int(x.checked_sub(y).ok_or("integer overflow")?),
                BinOp::Mul => Value::Int(x.checked_mul(y).ok_or("integer overflow")?),
                BinOp::Div => Value::Int(x.checked_div(y).ok_or("division by zero")?),
                BinOp::Rem => Value::Int(x.checked_rem(y).ok_or("division by zero")?),
                BinOp::Eq => Value::Bool(x == y),
                BinOp::Ne => Value::Bool(x != y),
                BinOp::Lt => Value::Bool(x < y),
                BinOp::Le => Value::Bool(x <= y),
                BinOp::Gt => Value::Bool(x > y),
                BinOp::Ge => Value::Bool(x >= y),
                BinOp::And | BinOp::Or | BinOp::Range => Value::Unit,
            });
        }
        if let (Value::Bool(x), Value::Bool(y)) = (a, b) {
            return Ok(match op {
                BinOp::And => Value::Bool(x && y),
                BinOp::Or => Value::Bool(x || y),
                BinOp::Eq => Value::Bool(x == y),
                BinOp::Ne => Value::Bool(x != y),
                _ => Value::Unit,
            });
        }
        if matches!(a, Value::Ptr { .. }) || matches!(b, Value::Ptr { .. }) {
            return Err("raw pointer used in arithmetic outside `.add`".to_string());
        }
        Ok(Value::Unit)
    }

    fn eval_method(
        &mut self,
        recv: &Expr,
        name: &str,
        args: &[Expr],
        line: usize,
    ) -> Result<Value, String> {
        let rv = self.eval(recv)?;
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a)?);
        }
        match (rv, name) {
            (Value::Slice(r), "len") => {
                let reg = &self.regions[r];
                Ok(Value::Int(reg.f64_len / reg.elem_f64s))
            }
            (Value::Slice(r), "as_ptr") => Ok(Value::Ptr {
                region: r,
                off: 0,
                unit: self.regions[r].elem_f64s,
            }),
            (Value::Slice(r), "as_mut_ptr") => {
                if !self.regions[r].writable {
                    return Err(format!(
                        "as_mut_ptr on read-only region `{}` at line {line}",
                        self.regions[r].name
                    ));
                }
                Ok(Value::Ptr {
                    region: r,
                    off: 0,
                    unit: self.regions[r].elem_f64s,
                })
            }
            (Value::Ptr { region, off, unit }, "add") => match argv.first() {
                Some(Value::Int(k)) => Ok(Value::Ptr {
                    region,
                    off: off
                        .checked_add(k.checked_mul(unit).ok_or("integer overflow")?)
                        .ok_or("integer overflow")?,
                    unit,
                }),
                _ => Err(format!("non-integer pointer advance at line {line}")),
            },
            (Value::Ptr { .. }, other) => Err(format!(
                "unmodeled pointer method `.{other}` at line {line}"
            )),
            (Value::Slice(r), other) => Err(format!(
                "unmodeled slice method `.{other}` on `{}` at line {line}",
                self.regions[r].name
            )),
            _ => {
                if argv.iter().any(|v| matches!(v, Value::Ptr { .. })) {
                    return Err(format!("pointer escapes into `.{name}` at line {line}"));
                }
                Ok(Value::Unit)
            }
        }
    }

    fn eval_call(
        &mut self,
        path: &[String],
        args: &[Expr],
        site: Option<usize>,
        line: usize,
    ) -> Result<Value, String> {
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a)?);
        }
        if let Some(site_id) = site {
            let decl = &self.sites[site_id];
            let (mut lanes, is_store) = (decl.lanes as i64, decl.is_store);
            let ptr = match argv.first() {
                Some(Value::Ptr { region, off, unit }) => (*region, *off, *unit),
                _ => {
                    return Err(format!(
                        "`{}` at line {line} called without a tracked pointer",
                        decl.intrinsic
                    ))
                }
            };
            if ptr.2 != 1 {
                return Err(format!(
                    "`{}` at line {line} on a pointer not cast to f64",
                    decl.intrinsic
                ));
            }
            let (mut region, mut index) = (ptr.0, ptr.1);
            if let Some(m) = self.mutation {
                if m.site == site_id {
                    match m.kind {
                        MutationKind::OffsetByOne => index += 1,
                        MutationKind::WidenVector => lanes *= 2,
                        MutationKind::SwapBase => {
                            region = (region + 1) % self.regions.len();
                        }
                    }
                }
            }
            // Non-pointer operands (the stored vector) must be clean.
            for v in argv.iter().skip(1) {
                if matches!(v, Value::Ptr { .. }) {
                    return Err(format!(
                        "extra pointer operand to `{}` at line {line}",
                        decl.intrinsic
                    ));
                }
            }
            self.ptr_accesses.push(AccessRec {
                site: Some(site_id),
                region,
                index,
                lanes,
                is_store,
                line,
            });
            return Ok(Value::Unit);
        }
        // Any other callee: pointers must not escape.
        if argv.iter().any(|v| matches!(v, Value::Ptr { .. })) {
            return Err(format!(
                "pointer escapes into `{}` at line {line}",
                path.join("::")
            ));
        }
        Ok(Value::Unit)
    }
}

// ---------------------------------------------------------------------
// Harness: execute every kernel over every certified shape
// ---------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct SiteStat {
    region: String,
    min_index: i64,
    max_end: i64,
    region_len_at_max: i64,
    all_even: bool,
    elem_f64s: i64,
    executions: u64,
}

#[derive(Clone, Debug, Default)]
struct ExecutionSummary {
    /// Interpreter failures (unmodeled construct, pointer escape, ...).
    errors: Vec<String>,
    /// Out-of-bounds / writability violations.
    violations: Vec<String>,
    /// Coverage mismatches against the `access` stride families.
    coverage: Vec<String>,
    /// FNV-1a over the sorted access trace.
    fingerprint: u64,
    /// Per-site aggregates, keyed by site id.
    stats: std::collections::BTreeMap<usize, SiteStat>,
    /// `module::kernel` names that were executed.
    kernels: Vec<String>,
}

fn fnv1a(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn enumerate_set(set: &AccessSet) -> BTreeSet<i64> {
    (0..set.len as i64)
        .map(|k| set.base as i64 + k * set.stride as i64)
        .collect()
}

/// Expected complex-index coverage for one kernel at one shape:
/// `(data_reads, data_writes, tw_reads)` as stride families.
fn expected_coverage(kind: KernelKind, module: &str, a: usize, _b: usize) -> CoverageSpec {
    match kind {
        KernelKind::Dft => {
            let n = a;
            let data = AccessSet::new(Region::Data, 0, 1, if n >= 2 { n } else { 0 });
            // The x86 path fuses stages 1–2 into in-register constants:
            // tw[0..2] are implicit, tw[2] seeds the fused sign vector,
            // and the general stages stream tw[3..n-1]. NEON walks the
            // whole table.
            let tw = if module == "x86" {
                AccessSet::new(Region::Twiddle, 2, 1, if n >= 4 { n - 3 } else { 0 })
            } else {
                AccessSet::new(Region::Twiddle, 0, 1, n.saturating_sub(1))
            };
            CoverageSpec {
                data_reads: data,
                data_writes: data,
                tw_reads: tw,
                tw_exact: true,
            }
        }
        KernelKind::Twiddle => {
            let m = a;
            let data = AccessSet::new(Region::Data, 0, 1, m);
            CoverageSpec {
                data_reads: data,
                data_writes: data,
                tw_reads: AccessSet::new(Region::Twiddle, 0, 1, m),
                tw_exact: true,
            }
        }
    }
}

struct CoverageSpec {
    data_reads: AccessSet,
    data_writes: AccessSet,
    tw_reads: AccessSet,
    tw_exact: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KernelKind {
    Dft,
    Twiddle,
}

fn classify(f: &FnDef) -> Option<KernelKind> {
    if f.name.contains("dft_inplace") {
        Some(KernelKind::Dft)
    } else if f.name.contains("twiddles") {
        Some(KernelKind::Twiddle)
    } else {
        None
    }
}

/// Runs one kernel once at one shape, merging the trace into `summary`.
#[allow(clippy::too_many_arguments)]
fn run_kernel(
    f: &FnDef,
    parsed: &ParsedFile,
    elems: &[i64],
    shape: &str,
    kind: KernelKind,
    cover: Option<(usize, usize)>,
    mutation: Option<PtrMutation>,
    lines: &mut Vec<String>,
    summary: &mut ExecutionSummary,
) {
    let qual = format!("{}::{}", f.module, f.name);
    let mut regions = Vec::new();
    for (i, p) in f.params.iter().enumerate() {
        let Some(elem_f64s) = p.elem_f64s else {
            summary
                .errors
                .push(format!("{qual}: non-slice parameter `{}`", p.name));
            return;
        };
        let elem_count = elems.get(i).copied().unwrap_or(0);
        regions.push(RegionInst {
            name: p.name.clone(),
            f64_len: elem_count * elem_f64s,
            elem_f64s,
            writable: p.writable,
        });
    }
    let param_count = regions.len();
    let mut exec = Exec::new(regions, mutation, &parsed.sites);
    for (i, p) in f.params.iter().enumerate() {
        exec.bind(&p.name, Value::Slice(i));
    }
    if let Err(e) = exec.exec_block(&f.body) {
        summary.errors.push(format!("{qual} [{shape}]: {e}"));
        return;
    }
    // Bounds and writability over the full trace.
    let mut data_reads: BTreeSet<i64> = BTreeSet::new();
    let mut data_writes: BTreeSet<i64> = BTreeSet::new();
    let mut tw_reads: BTreeSet<i64> = BTreeSet::new();
    let mut tw_writes: BTreeSet<i64> = BTreeSet::new();
    for rec in exec.ptr_accesses.iter().chain(exec.slice_accesses.iter()) {
        let region = &exec.regions[rec.region];
        // Slice accesses are in element units; pointer accesses in f64s.
        let (f64_idx, f64_lanes) = if rec.site.is_some() {
            (rec.index, rec.lanes)
        } else {
            (rec.index * region.elem_f64s, rec.lanes * region.elem_f64s)
        };
        let end = f64_idx + f64_lanes;
        if f64_idx < 0 || end > region.f64_len {
            summary.violations.push(format!(
                "{qual} [{shape}] line {}: access [{f64_idx}, {end}) outside region `{}` of {} f64s",
                rec.line, region.name, region.f64_len
            ));
        }
        if rec.is_store && !region.writable {
            summary.violations.push(format!(
                "{qual} [{shape}] line {}: store to read-only region `{}`",
                rec.line, region.name
            ));
        }
        let kind_ch = if rec.is_store { 'S' } else { 'L' };
        lines.push(format!(
            "{qual}|{shape}|{:?}|{}|{f64_idx}|{f64_lanes}|{kind_ch}",
            rec.site, region.name
        ));
        if let Some(site) = rec.site {
            let stat = summary.stats.entry(site).or_insert_with(|| SiteStat {
                region: region.name.clone(),
                min_index: i64::MAX,
                max_end: i64::MIN,
                region_len_at_max: 0,
                all_even: true,
                elem_f64s: region.elem_f64s,
                executions: 0,
            });
            stat.min_index = stat.min_index.min(f64_idx);
            if end > stat.max_end {
                stat.max_end = end;
                stat.region_len_at_max = region.f64_len;
            }
            if f64_idx % 2 != 0 {
                stat.all_even = false;
            }
            stat.executions += 1;
        }
        // Complex-unit coverage for the two parameter regions.
        if rec.region < param_count && region.elem_f64s == 2 {
            let lo = f64_idx.div_euclid(2);
            let hi = (end + 1).div_euclid(2);
            let set = match (rec.region, rec.is_store) {
                (0, false) => &mut data_reads,
                (0, true) => &mut data_writes,
                (1, false) => &mut tw_reads,
                (1, true) => &mut tw_writes,
                _ => continue,
            };
            for c in lo..hi {
                set.insert(c);
            }
        }
    }
    // Cross-check against the plan-level stride families.
    if let Some((a, b)) = cover {
        let spec = expected_coverage(kind, &f.module, a, b);
        let mut demand = |label: &str, got: &BTreeSet<i64>, want: &AccessSet, exact: bool| {
            let want_set = enumerate_set(want);
            let ok = if exact {
                *got == want_set
            } else {
                got.is_subset(&want_set)
            };
            if !ok {
                summary.coverage.push(format!(
                    "{qual} [{shape}]: {label} coverage {:?} does not match the \
                     stride family base={} stride={} len={}",
                    got, want.base, want.stride, want.len
                ));
            }
        };
        demand("data read", &data_reads, &spec.data_reads, true);
        demand("data write", &data_writes, &spec.data_writes, true);
        demand("twiddle read", &tw_reads, &spec.tw_reads, spec.tw_exact);
        if !tw_writes.is_empty() {
            summary.coverage.push(format!(
                "{qual} [{shape}]: writes to the twiddle region: {tw_writes:?}"
            ));
        }
    }
}

/// Executes every kernel with intrinsic sites over every certified
/// shape. `check_coverage` is disabled for mutated runs (a seeded fault
/// changes coverage by design; only bounds and fingerprint matter).
fn execute_all(
    parsed: &ParsedFile,
    mutation: Option<PtrMutation>,
    check_coverage: bool,
) -> ExecutionSummary {
    let mut summary = ExecutionSummary::default();
    let mut lines = Vec::new();
    for f in &parsed.fns {
        if f.sites.is_empty() {
            continue;
        }
        let Some(kind) = classify(f) else {
            summary.errors.push(format!(
                "{}::{} contains intrinsic sites but matches no known kernel shape \
                 (expected a `dft_inplace*` or `*twiddles*` name)",
                f.module, f.name
            ));
            continue;
        };
        summary.kernels.push(format!("{}::{}", f.module, f.name));
        match kind {
            KernelKind::Dft => {
                for n in leaf_sizes() {
                    let n_i = n as i64;
                    run_kernel(
                        f,
                        parsed,
                        &[n_i, n_i - 1],
                        &format!("n={n}"),
                        kind,
                        if check_coverage { Some((n, 0)) } else { None },
                        mutation,
                        &mut lines,
                        &mut summary,
                    );
                }
            }
            KernelKind::Twiddle => {
                for (m, blen) in twiddle_shapes() {
                    run_kernel(
                        f,
                        parsed,
                        &[blen as i64, m as i64],
                        &format!("m={m},b={blen}"),
                        kind,
                        if check_coverage {
                            Some((m, blen))
                        } else {
                            None
                        },
                        mutation,
                        &mut lines,
                        &mut summary,
                    );
                }
            }
        }
    }
    lines.sort();
    summary.fingerprint = fnv1a(&lines);
    summary
}

/// Recursively collects sensitive opaque statements anywhere in a
/// function body (including functions the harness never executes, such
/// as the safe wrappers): drift in unparsed pointer code is fatal.
fn sensitive_opaques(body: &[Stmt], out: &mut Vec<(usize, String)>) {
    for s in body {
        match s {
            Stmt::Opaque {
                line,
                sensitive: true,
                text,
            } => out.push((*line, text.clone())),
            Stmt::If { then, alt, .. } => {
                sensitive_opaques(then, out);
                sensitive_opaques(alt, out);
            }
            Stmt::While { body, .. } | Stmt::ForRange { body, .. } | Stmt::Block(body) => {
                sensitive_opaques(body, out);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Verifies `source` (the text of `arch.rs`) and returns the pointer
/// certificate. `label` is the path used in findings. Pushes an error
/// finding for every reason the certificate cannot be issued; returns
/// `None` in that case.
pub fn verify_arch_text(
    label: &str,
    source: &str,
    report: &mut AnalysisReport,
) -> Option<PtrCertificate> {
    report.subject();
    let parsed = match parse_arch(source) {
        Ok(p) => p,
        Err(e) => {
            report.push(
                RULE_PTR,
                Severity::Error,
                label,
                format!("parse failure: {e}"),
            );
            return None;
        }
    };
    let mut ok = true;
    for (name, line) in &parsed.banned {
        ok = false;
        report.push(
            RULE_PTR,
            Severity::Error,
            &format!("{label}:{line}"),
            format!(
                "aligned/streaming intrinsic `{name}`: the certificate only proves 8-byte \
                 alignment — use the unaligned variant"
            ),
        );
    }
    let mut opaques = Vec::new();
    for f in &parsed.fns {
        sensitive_opaques(&f.body, &mut opaques);
    }
    for (line, text) in &opaques {
        ok = false;
        report.push(
            RULE_PTR,
            Severity::Error,
            &format!("{label}:{line}"),
            format!("unmodeled pointer-sensitive statement: `{text}`"),
        );
    }
    let summary = execute_all(&parsed, None, true);
    for e in summary
        .errors
        .iter()
        .chain(summary.violations.iter())
        .chain(summary.coverage.iter())
    {
        ok = false;
        report.push(RULE_PTR, Severity::Error, label, e.clone());
    }
    for site in &parsed.sites {
        report.check();
        if !summary.stats.contains_key(&site.id) {
            ok = false;
            report.push(
                RULE_PTR,
                Severity::Error,
                &format!("{label}:{}", site.line),
                format!(
                    "intrinsic site `{}` was never executed at any certified shape",
                    site.intrinsic
                ),
            );
        }
    }
    if !ok {
        return None;
    }
    let sites = parsed
        .sites
        .iter()
        .filter_map(|decl| {
            let stat = summary.stats.get(&decl.id)?;
            Some(SiteCert {
                id: decl.id,
                kernel: decl.kernel.clone(),
                module: decl.module.clone(),
                line: decl.line,
                intrinsic: decl.intrinsic.clone(),
                is_store: decl.is_store,
                region: stat.region.clone(),
                lanes: decl.lanes,
                min_index: stat.min_index,
                max_end: stat.max_end,
                region_len_at_max: stat.region_len_at_max,
                align_bytes: if stat.all_even && stat.elem_f64s == 2 {
                    16
                } else {
                    8
                },
                executions: stat.executions,
            })
        })
        .collect();
    Some(PtrCertificate {
        file: PTR_TARGET.to_string(),
        sizes: leaf_sizes(),
        kernels: summary.kernels,
        sites,
        fingerprint: summary.fingerprint,
    })
}

/// Reads and verifies the audited module under the workspace `root`.
pub fn verify_arch(root: &Path, report: &mut AnalysisReport) -> Option<PtrCertificate> {
    let path = root.join(PTR_TARGET);
    match std::fs::read_to_string(&path) {
        Ok(source) => verify_arch_text(PTR_TARGET, &source, report),
        Err(e) => {
            report.push(
                RULE_PTR,
                Severity::Error,
                PTR_TARGET,
                format!("cannot read audited module: {e}"),
            );
            None
        }
    }
}

/// Runs the seeded-mutation self-test: every `(site, fault)` pair must
/// be noticed, either as a hard bounds/writability violation or as a
/// changed access fingerprint. Pushes an error finding per escaped
/// mutation; returns `None` if the unmutated baseline is not clean.
pub fn mutation_sweep(
    label: &str,
    source: &str,
    report: &mut AnalysisReport,
) -> Option<MutationSummary> {
    let parsed = match parse_arch(source) {
        Ok(p) => p,
        Err(e) => {
            report.push(
                RULE_PTR,
                Severity::Error,
                label,
                format!("parse failure: {e}"),
            );
            return None;
        }
    };
    let baseline = execute_all(&parsed, None, true);
    if !baseline.errors.is_empty() || !baseline.violations.is_empty() {
        report.push(
            RULE_PTR,
            Severity::Error,
            label,
            "mutation sweep requires a clean baseline".to_string(),
        );
        return None;
    }
    let mut out = MutationSummary::default();
    for site in 0..parsed.sites.len() {
        for kind in [
            MutationKind::OffsetByOne,
            MutationKind::WidenVector,
            MutationKind::SwapBase,
        ] {
            report.check();
            out.applied += 1;
            let mutated = execute_all(&parsed, Some(PtrMutation { site, kind }), false);
            let hard = !mutated.violations.is_empty() || !mutated.errors.is_empty();
            let caught = hard || mutated.fingerprint != baseline.fingerprint;
            if hard {
                out.hard_violations += 1;
            }
            if caught {
                out.caught += 1;
            } else {
                report.push(
                    RULE_PTR,
                    Severity::Error,
                    &format!("{label}:{}", parsed.sites[site].line),
                    format!(
                        "seeded mutation escaped: {kind} at site {site} \
                         (`{}`) produced no violation and an unchanged fingerprint",
                        parsed.sites[site].intrinsic
                    ),
                );
            }
        }
    }
    Some(out)
}

/// Applies [`PtrMutation`] semantics to verification for external
/// callers (the `--demo-mutation` CI gate): returns whether the fault
/// was noticed.
pub fn demo_mutation_caught(source: &str, mutation: PtrMutation) -> bool {
    let Ok(parsed) = parse_arch(source) else {
        return true; // unparseable counts as noticed
    };
    if mutation.site >= parsed.sites.len() {
        return false;
    }
    let baseline = execute_all(&parsed, None, false);
    let mutated = execute_all(&parsed, Some(mutation), false);
    !mutated.violations.is_empty()
        || !mutated.errors.is_empty()
        || mutated.fingerprint != baseline.fingerprint
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch_source() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../backend-simd/src/arch.rs");
        std::fs::read_to_string(path).expect("read arch.rs")
    }

    #[test]
    fn leaf_sizes_match_backend_dispatch() {
        let sizes = leaf_sizes();
        assert_eq!(sizes, vec![1, 2, 4, 8, 16, 32, 64]);
        for n in &sizes {
            assert!(ddl_backend_simd::supported_size(*n));
        }
    }

    #[test]
    fn real_arch_module_certifies_clean() {
        let src = arch_source();
        let mut report = AnalysisReport::new();
        let cert = verify_arch_text(PTR_TARGET, &src, &mut report);
        assert!(report.passes(), "{:#?}", report.findings);
        let cert = cert.expect("certificate");
        // Both ISA paths: 14 x86 DFT + 3 x86 twiddle + 6 NEON DFT +
        // 4 NEON twiddle intrinsic sites.
        assert_eq!(cert.sites.len(), 27, "{:#?}", cert.sites);
        assert_eq!(cert.kernels.len(), 4);
        for site in &cert.sites {
            assert!(site.executions > 0, "{site:?}");
            assert!(site.min_index >= 0, "{site:?}");
            assert!(site.max_end <= site.region_len_at_max, "{site:?}");
            // Complex-region accesses are 16-byte aligned; the NEON
            // sign-vector loads from a local [f64; 2] are 8-byte.
            if site.region == "sign" {
                assert_eq!(site.align_bytes, 8, "{site:?}");
            } else {
                assert_eq!(site.align_bytes, 16, "{site:?}");
            }
        }
        // The twiddled butterfly loads are exact-fit: the proof is
        // tight, not slack.
        assert!(
            cert.sites
                .iter()
                .filter(|s| s.max_end == s.region_len_at_max)
                .count()
                >= 10,
            "{:#?}",
            cert.sites
        );
    }

    #[test]
    fn every_seeded_mutation_is_caught() {
        let src = arch_source();
        let mut report = AnalysisReport::new();
        let summary = mutation_sweep(PTR_TARGET, &src, &mut report).expect("sweep");
        assert!(report.passes(), "{:#?}", report.findings);
        assert_eq!(summary.applied, 27 * 3);
        assert_eq!(summary.caught, summary.applied);
        assert!(summary.hard_violations > 0);
    }

    #[test]
    fn off_by_one_on_exact_fit_sites_is_a_hard_violation() {
        // Fingerprint drift alone would also catch these, but the
        // exact-fit sites (access end == region end) must escalate to a
        // real out-of-bounds: this pins the arithmetic, not just the
        // hashing.
        let src = arch_source();
        let parsed = parse_arch(&src).expect("parse");
        let baseline = execute_all(&parsed, None, false);
        assert!(baseline.violations.is_empty(), "{:?}", baseline.violations);
        let exact_fit: Vec<usize> = baseline
            .stats
            .iter()
            .filter(|(_, s)| s.max_end == s.region_len_at_max)
            .map(|(id, _)| *id)
            .collect();
        assert!(exact_fit.len() >= 10, "{exact_fit:?}");
        for site in exact_fit {
            let mutated = execute_all(
                &parsed,
                Some(PtrMutation {
                    site,
                    kind: MutationKind::OffsetByOne,
                }),
                false,
            );
            assert!(
                !mutated.violations.is_empty(),
                "site {site} (+1) stayed in bounds"
            );
        }
    }

    #[test]
    fn textual_off_by_one_mutation_fails_verification() {
        let src = arch_source().replacen("2 * b + 4", "2 * b + 5", 1);
        let mut report = AnalysisReport::new();
        assert!(verify_arch_text("mutated.rs", &src, &mut report).is_none());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == RULE_PTR && f.message.contains("outside region")),
            "{:#?}",
            report.findings
        );
    }

    #[test]
    fn coverage_gap_mutation_fails_verification() {
        // Start the NEON butterfly loop at j=1: still in-bounds, but
        // the kernel no longer touches every point — the stride-family
        // cross-check must notice.
        let src = arch_source().replacen("for j in 0..half", "for j in 1..half", 1);
        let mut report = AnalysisReport::new();
        assert!(verify_arch_text("mutated.rs", &src, &mut report).is_none());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("coverage")),
            "{:#?}",
            report.findings
        );
    }

    #[test]
    fn swapped_base_textual_mutation_fails_verification() {
        // Point the twiddle-table pointer at the data buffer: the x86
        // twiddle coverage family no longer matches.
        let src = arch_source().replacen("let twp = tw.as_ptr()", "let twp = buf.as_ptr()", 1);
        let mut report = AnalysisReport::new();
        assert!(verify_arch_text("mutated.rs", &src, &mut report).is_none());
    }

    #[test]
    fn unmodeled_pointer_statement_is_fatal() {
        let src = "use ddl_num::Complex64;\n\
                   fn dft_inplace_x(buf: &mut [Complex64]) {\n\
                   let p = buf.as_mut_ptr() as *mut f64;\n\
                   helper(|| p.add(1));\n\
                   }\n";
        let mut report = AnalysisReport::new();
        assert!(verify_arch_text("drift.rs", src, &mut report).is_none());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("pointer-sensitive")),
            "{:#?}",
            report.findings
        );
    }

    #[test]
    fn unknown_kernel_with_sites_is_fatal() {
        let src = "fn scramble(buf: &mut [Complex64]) {\n\
                   let v = _mm256_loadu_pd(buf.as_ptr() as *const f64);\n\
                   let _ = v;\n\
                   }\n";
        let mut report = AnalysisReport::new();
        assert!(verify_arch_text("drift.rs", src, &mut report).is_none());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("no known kernel shape")),
            "{:#?}",
            report.findings
        );
    }

    #[test]
    fn aligned_intrinsics_are_rejected() {
        let src = "fn dft_inplace_x(buf: &mut [Complex64], tw: &[Complex64]) {\n\
                   let p = buf.as_mut_ptr() as *mut f64;\n\
                   let v = _mm256_load_pd(p.add(0));\n\
                   let _ = v;\n\
                   let _ = tw;\n\
                   }\n";
        let mut report = AnalysisReport::new();
        assert!(verify_arch_text("drift.rs", src, &mut report).is_none());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("aligned/streaming")),
            "{:#?}",
            report.findings
        );
    }

    #[test]
    fn synthetic_off_by_one_kernel_is_rejected_end_to_end() {
        let src = "fn dft_inplace_bad(buf: &mut [Complex64], tw: &[Complex64]) {\n\
                   let n = buf.len();\n\
                   let p = buf.as_mut_ptr() as *mut f64;\n\
                   let _ = tw;\n\
                   let mut b = 0;\n\
                   while b < n {\n\
                   let v = _mm256_loadu_pd(p.add(2 * b + 1));\n\
                   _mm256_storeu_pd(p.add(2 * b), v);\n\
                   b += 2;\n\
                   }\n\
                   }\n";
        let mut report = AnalysisReport::new();
        assert!(verify_arch_text("bad.rs", src, &mut report).is_none());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("outside region")),
            "{:#?}",
            report.findings
        );
    }

    #[test]
    fn demo_mutation_is_noticed() {
        let src = arch_source();
        assert!(demo_mutation_caught(
            &src,
            PtrMutation {
                site: 1,
                kind: MutationKind::OffsetByOne,
            }
        ));
        // A site id past the end is not a real mutation: not noticed.
        assert!(!demo_mutation_caught(
            &src,
            PtrMutation {
                site: 10_000,
                kind: MutationKind::OffsetByOne,
            }
        ));
    }
}
