//! The determinism-hazard rules and the pragma-aware scan driver.
//!
//! Every rule is a pure function over a file's code-token stream (comments
//! stripped, but consulted separately for allow-pragmas). Rules are scoped
//! by *path*: the engine crates carry the full contract, bench harnesses
//! may read wall clocks, and the shims are the one place allowed to define
//! the surfaces everyone else must route through.
//!
//! ## Allow pragmas
//!
//! A finding is suppressed by a justified inline pragma on the flagged
//! line or the line directly above it:
//!
//! ```text
//! // detlint: allow(stray_rng): property-test stream, not an entity stream
//! let mut rng = SmallRng::seed_from_u64(0xBA2D ^ trial);
//! ```
//!
//! The justification text after the closing parenthesis is mandatory; a
//! pragma without one (or naming an unknown rule) is itself reported as
//! `bad_pragma`, so silent blanket waivers cannot accumulate.

use crate::lexer::{lex, TokKind, Token};

/// Identifies one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `std::collections::HashMap`/`HashSet` in simulation code: iteration
    /// order is seeded per-process, so any walk over one is a trace-digest
    /// hazard.
    HashIter,
    /// `Instant`/`SystemTime` outside bench/CI code: simulated time lives
    /// on the integer-ns grid, never on the host clock.
    WallClock,
    /// RNG construction outside the named per-entity stream constructors
    /// (streams 0–4), or an entropy-seeded generator anywhere.
    StrayRng,
    /// A crate root missing `#![forbid(unsafe_code)]`, or an `unsafe`
    /// token anywhere.
    ForbidUnsafe,
    /// A floating-point `partial_cmp` used as an ordering key in engine
    /// code: NaN makes the comparator inconsistent, and an inconsistent
    /// comparator makes sort order an implementation detail.
    FloatKey,
    /// A direct parallel-iterator call bypassing the rayon shim's
    /// deterministic-merge helper.
    OrderedMerge,
    /// A shared-state or message-passing primitive (`Mutex`, `RwLock`,
    /// `Atomic*`, `mpsc`, raw `thread` spawns …) in the engine crate: a
    /// run's state belongs to its one engine core, and parallel work
    /// (Monte-Carlo trials) merges through `rayon::det`'s ordered helpers,
    /// never through a side channel whose observation order the scheduler
    /// picks.
    ShardExchange,
    /// A malformed allow-pragma: unknown rule name or missing
    /// justification.
    BadPragma,
}

impl RuleId {
    /// The stable machine-readable rule name (`hash_iter`, …).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HashIter => "hash_iter",
            RuleId::WallClock => "wall_clock",
            RuleId::StrayRng => "stray_rng",
            RuleId::ForbidUnsafe => "forbid_unsafe",
            RuleId::FloatKey => "float_key",
            RuleId::OrderedMerge => "ordered_merge",
            RuleId::ShardExchange => "shard_exchange",
            RuleId::BadPragma => "bad_pragma",
        }
    }

    /// Parses a rule name as written in an allow-pragma. `bad_pragma` is
    /// deliberately not allowable.
    pub fn from_name(name: &str) -> Option<RuleId> {
        match name {
            "hash_iter" => Some(RuleId::HashIter),
            "wall_clock" => Some(RuleId::WallClock),
            "stray_rng" => Some(RuleId::StrayRng),
            "forbid_unsafe" => Some(RuleId::ForbidUnsafe),
            "float_key" => Some(RuleId::FloatKey),
            "ordered_merge" => Some(RuleId::OrderedMerge),
            "shard_exchange" => Some(RuleId::ShardExchange),
            _ => None,
        }
    }

    /// The fix hint shown with every finding of this rule.
    pub fn hint(self) -> &'static str {
        match self {
            RuleId::HashIter => {
                "use BTreeMap/BTreeSet or a sorted+deduped Vec; if the table is \
                 never iterated, justify with // detlint: allow(hash_iter): <why>"
            }
            RuleId::WallClock => {
                "simulated time lives on the engine's integer-ns grid (net::Time); \
                 host-clock timing belongs in benches or the criterion shim"
            }
            RuleId::StrayRng => {
                "route through the named stream constructors (net::entities::streams, \
                 streams 0-4, backed by rand::stream::small_rng); test-local generators \
                 need // detlint: allow(stray_rng): <why>"
            }
            RuleId::ForbidUnsafe => {
                "add #![forbid(unsafe_code)] to the crate root; this workspace is \
                 100% safe Rust by policy"
            }
            RuleId::FloatKey => {
                "use f64::total_cmp or an integer/bit key (e.g. to_bits on \
                 non-negative floats); partial_cmp + unwrap_or(Equal) is an \
                 inconsistent comparator under NaN"
            }
            RuleId::OrderedMerge => {
                "call rayon::det::map_ordered (the deterministic-merge helper) \
                 instead of raw parallel iterators, so results merge in input order"
            }
            RuleId::ShardExchange => {
                "a run's state belongs to its one engine core: run parallel work \
                 (Monte-Carlo trials) through rayon::det's ordered helpers, not \
                 through locks, atomics, channels or raw threads"
            }
            RuleId::BadPragma => {
                "write // detlint: allow(<rule>): <justification> — the \
                 justification text is mandatory and the rule name must exist"
            }
        }
    }
}

/// One reported hazard.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-indexed line of the offending token.
    pub line: u32,
    /// Human-readable statement of the hazard.
    pub message: String,
}

impl Finding {
    /// The `file:line: [rule] message; hint` form printed by the binary.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}\n    hint: {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message,
            self.rule.hint()
        )
    }
}

/// A parsed `detlint: allow(...)` pragma.
struct Pragma {
    line: u32,
    rules: Vec<RuleId>,
}

/// Per-rule path scoping. Paths are workspace-relative with `/` separators.
fn in_scope(rule: RuleId, path: &str) -> bool {
    match rule {
        // Shims mirror upstream APIs verbatim; everything else — engine,
        // PHY crates, root tests/examples — is simulation code.
        RuleId::HashIter => !path.starts_with("crates/shims/"),
        // Bench harnesses time things by design: the criterion shim is the
        // sanctioned stopwatch, crates/bench and benches/ are its callers.
        // The profiling module is the one sanctioned home for `Instant`
        // inside the engine crate — every other engine file still fails.
        RuleId::WallClock => {
            !path.starts_with("crates/shims/criterion")
                && !path.starts_with("crates/bench/")
                && !path.contains("/benches/")
                && !path.starts_with("benches/")
                && path != "crates/net/src/prof.rs"
        }
        // The rand shim defines the constructors the rule polices.
        RuleId::StrayRng => !path.starts_with("crates/shims/rand"),
        RuleId::ForbidUnsafe => true,
        // The engine crate carries the bit-exactness contract; the PHY
        // math crates compare floats freely.
        RuleId::FloatKey => path.starts_with("crates/net/src/"),
        // The rayon shim hosts the deterministic-merge helper itself.
        RuleId::OrderedMerge => !path.starts_with("crates/shims/rayon"),
        // The engine crate carries the sharding contract; the rayon shim
        // is the one sanctioned holder of scoped threads.
        RuleId::ShardExchange => path.starts_with("crates/net/src/"),
        RuleId::BadPragma => true,
    }
}

/// Whether `path` is a crate root that must carry
/// `#![forbid(unsafe_code)]`.
fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs" || path.ends_with("/src/lib.rs") || path.ends_with("/src/main.rs")
}

/// Scans one file's source text. `path` must be workspace-relative with
/// `/` separators — scoping and the self-scan both key on it.
pub fn scan_source(path: &str, src: &str) -> Vec<Finding> {
    let tokens = lex(src);
    let mut findings: Vec<Finding> = Vec::new();
    let pragmas = collect_pragmas(path, &tokens, &mut findings);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();

    check_idents(path, &code, &mut findings);
    if is_crate_root(path) && in_scope(RuleId::ForbidUnsafe, path) {
        check_forbid_attr(path, &code, &mut findings);
    }

    // Apply suppressions: a pragma covers its own line and the next one.
    findings.retain(|f| {
        if f.rule == RuleId::BadPragma {
            return true;
        }
        !pragmas
            .iter()
            .any(|p| (p.line == f.line || p.line + 1 == f.line) && p.rules.contains(&f.rule))
    });
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Extracts well-formed pragmas from comment tokens; malformed ones become
/// `bad_pragma` findings on the spot.
fn collect_pragmas(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let body = t.text.trim();
        let Some(rest) = body.strip_prefix("detlint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let bad = |msg: String, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                rule: RuleId::BadPragma,
                path: path.to_string(),
                line: t.line,
                message: msg,
            });
        };
        let Some(args) = rest.strip_prefix("allow") else {
            bad(format!("unrecognized detlint pragma `{body}`"), findings);
            continue;
        };
        let args = args.trim_start();
        let (Some(open), Some(close)) = (args.find('('), args.find(')')) else {
            bad("allow-pragma missing (rule) list".to_string(), findings);
            continue;
        };
        let mut rules = Vec::new();
        let mut ok = true;
        for name in args[open + 1..close].split(',') {
            let name = name.trim();
            match RuleId::from_name(name) {
                Some(r) => rules.push(r),
                None => {
                    bad(
                        format!("allow-pragma names unknown rule `{name}`"),
                        findings,
                    );
                    ok = false;
                }
            }
        }
        // Mandatory justification: substantive text after the rule list.
        let justification = args[close + 1..]
            .trim_matches(|c: char| c.is_whitespace() || matches!(c, ':' | '-' | '—' | '–' | '.'));
        if justification
            .chars()
            .filter(|c| c.is_alphanumeric())
            .count()
            < 3
        {
            bad(
                "allow-pragma has no justification text after the rule list".to_string(),
                findings,
            );
            ok = false;
        }
        if ok {
            pragmas.push(Pragma {
                line: t.line,
                rules,
            });
        }
    }
    pragmas
}

/// All identifier-keyed rules in one pass over the code tokens.
fn check_idents(path: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    let mut report = |rule: RuleId, line: u32, message: String| {
        if in_scope(rule, path) {
            findings.push(Finding {
                rule,
                path: path.to_string(),
                line,
                message,
            });
        }
    };
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_ident = i
            .checked_sub(1)
            .and_then(|p| code.get(p))
            .filter(|p| p.kind == TokKind::Ident)
            .map(|p| p.text.as_str());
        match t.text.as_str() {
            "HashMap" | "HashSet" => report(
                RuleId::HashIter,
                t.line,
                format!(
                    "`{}` in simulation code: std hash tables iterate in a \
                     seeded, per-process order",
                    t.text
                ),
            ),
            "Instant" | "SystemTime" => report(
                RuleId::WallClock,
                t.line,
                format!("`{}` reads the host clock, which no two runs share", t.text),
            ),
            "thread_rng" | "ThreadRng" | "from_entropy" | "OsRng" => report(
                RuleId::StrayRng,
                t.line,
                format!(
                    "`{}` draws from process entropy: unreproducible by design",
                    t.text
                ),
            ),
            // Construction inside the named stream constructors
            // (entities.rs) is the sanctioned path; everywhere else in the
            // engine crate it bypasses the stream-id discipline.
            "seed_from_u64"
                if path.starts_with("crates/net/src/") && !path.ends_with("/entities.rs") =>
            {
                report(
                    RuleId::StrayRng,
                    t.line,
                    "RNG constructed outside the named per-entity stream \
                     constructors (streams 0-4)"
                        .to_string(),
                );
            }
            "unsafe" => report(
                RuleId::ForbidUnsafe,
                t.line,
                "`unsafe` block/fn in a forbid(unsafe_code) workspace".to_string(),
            ),
            "partial_cmp" if prev_ident != Some("fn") => report(
                RuleId::FloatKey,
                t.line,
                "float `partial_cmp` used as an ordering key in engine code".to_string(),
            ),
            "into_par_iter" | "par_iter" | "par_iter_mut" | "par_bridge" | "par_chunks"
            | "par_sort" | "par_sort_unstable" => report(
                RuleId::OrderedMerge,
                t.line,
                format!(
                    "`{}` called directly: parallel results must flow through \
                     the deterministic-merge helper",
                    t.text
                ),
            ),
            "Mutex" | "RwLock" | "Condvar" | "Barrier" | "mpsc" | "sync_channel" => report(
                RuleId::ShardExchange,
                t.line,
                format!(
                    "`{}` is a side channel in the engine crate: run state \
                     stays with its engine core, and parallel results merge \
                     through rayon::det",
                    t.text
                ),
            ),
            name if name.starts_with("Atomic") && name.len() > "Atomic".len() => report(
                RuleId::ShardExchange,
                t.line,
                format!(
                    "`{}` shares mutable state across workers outside \
                     rayon::det's ordered merge; observation order is \
                     scheduler-picked",
                    t.text
                ),
            ),
            "thread" if prev_ident != Some("use") => {
                // `std::thread::spawn`/`scope` in the engine crate: raw
                // threads bypass the ordered chunking of `rayon::det`.
                let colon = |t: Option<&&Token>| {
                    t.is_some_and(|t| t.kind == TokKind::Punct && t.text == ":")
                };
                if colon(code.get(i + 1))
                    && colon(code.get(i + 2))
                    && code.get(i + 3).is_some_and(|what| {
                        what.kind == TokKind::Ident
                            && matches!(what.text.as_str(), "spawn" | "scope" | "Builder")
                    })
                {
                    report(
                        RuleId::ShardExchange,
                        t.line,
                        "raw thread spawned in the engine crate: parallel work \
                         must run through rayon::det's ordered chunking"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Requires the `forbid ( unsafe_code )` token sequence somewhere in a
/// crate root (in practice: the leading inner attribute).
fn check_forbid_attr(path: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    let has = code.windows(3).any(|w| {
        w[0].kind == TokKind::Ident
            && w[0].text == "forbid"
            && w[1].kind == TokKind::Punct
            && w[1].text == "("
            && w[2].kind == TokKind::Ident
            && w[2].text == "unsafe_code"
    });
    if !has {
        findings.push(Finding {
            rule: RuleId::ForbidUnsafe,
            path: path.to_string(),
            line: 1,
            message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_requires_justification() {
        let src = "// detlint: allow(hash_iter)\nlet m: XMap = XMap::new();\n";
        let f = scan_source("crates/net/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::BadPragma);
    }

    #[test]
    fn pragma_rejects_unknown_rule() {
        let src = "// detlint: allow(no_such_rule): because reasons\n";
        let f = scan_source("crates/net/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::BadPragma);
        assert!(f[0].message.contains("no_such_rule"));
    }

    #[test]
    fn pragma_cannot_allow_bad_pragma() {
        assert!(RuleId::from_name("bad_pragma").is_none());
    }

    #[test]
    fn multi_rule_pragma_parses() {
        let src = "// detlint: allow(hash_iter, wall_clock): scratch analysis cell\n\
                   let m = one_line_using_nothing();\n";
        assert!(scan_source("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn findings_sort_by_line() {
        let src = "type B = HashSet<u8>;\ntype A = HashMap<u8, u8>;\n";
        let f = scan_source("crates/net/src/x.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f[0].line < f[1].line);
    }

    #[test]
    fn render_includes_hint() {
        let f = Finding {
            rule: RuleId::HashIter,
            path: "crates/net/src/x.rs".into(),
            line: 3,
            message: "m".into(),
        };
        let r = f.render();
        assert!(r.contains("crates/net/src/x.rs:3"));
        assert!(r.contains("[hash_iter]"));
        assert!(r.contains("hint:"));
    }
}
