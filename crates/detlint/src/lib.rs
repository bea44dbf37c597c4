//! # detlint — determinism-hazard static analysis for this workspace
//!
//! Every guarantee the reproduction makes — digest-pinned traces per seed,
//! bit-for-bit equality of memoised vs direct link gains, every event-queue
//! swap reproducing the old `(at, seq)` order — rests on a determinism
//! discipline. This crate *verifies* that discipline instead of assuming
//! it: a dependency-free static-analysis pass (hand-rolled lexer +
//! token-stream rule engine, in the same offline shim philosophy as
//! `crates/shims`) that scans the workspace and fails on hazards.
//!
//! ## Rules
//!
//! | rule | hazard |
//! |------|--------|
//! | `hash_iter` | std `HashMap`/`HashSet` in simulation code (seeded iteration order) |
//! | `wall_clock` | `Instant`/`SystemTime` outside bench/CI code |
//! | `stray_rng` | RNG construction outside the named per-entity stream constructors; any entropy-seeded generator |
//! | `forbid_unsafe` | crate roots missing `#![forbid(unsafe_code)]`; any `unsafe` token |
//! | `float_key` | float `partial_cmp` ordering keys in engine code |
//! | `ordered_merge` | raw parallel-iterator calls bypassing `rayon::det::map_ordered` |
//!
//! plus `bad_pragma` for malformed allow-pragmas. Audited exceptions are
//! written inline as `// detlint: allow(<rule>): <justification>` — the
//! justification is mandatory.
//!
//! Run it locally with `cargo run -p detlint` (add `--json` for the
//! machine-readable JSON-lines report CI uploads as an artifact).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

pub use rules::{scan_source, Finding, RuleId};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The result of scanning a workspace tree.
#[derive(Debug)]
pub struct ScanReport {
    /// Workspace-relative paths of every `.rs` file scanned, sorted.
    pub files: Vec<String>,
    /// All findings, in (path, line) order.
    pub findings: Vec<Finding>,
}

impl ScanReport {
    /// True when the scan produced no findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The JSON-lines report: one object per finding, then a summary line
    /// (same shape discipline as the criterion shim's `--json` mode).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{{\"rule\":{},\"path\":{},\"line\":{},\"message\":{},\"hint\":{}}}\n",
                json_str(f.rule.name()),
                json_str(&f.path),
                f.line,
                json_str(&f.message),
                json_str(f.rule.hint()),
            ));
        }
        out.push_str(&format!(
            "{{\"summary\":true,\"files_scanned\":{},\"findings\":{}}}\n",
            self.files.len(),
            self.findings.len()
        ));
        out
    }
}

/// Minimal JSON string encoding (the only JSON this crate emits).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Scans every `.rs` file under `root` (skipping `target/` and VCS
/// directories), in sorted path order so reports are stable across
/// filesystems — the determinism linter is itself deterministic.
pub fn scan_workspace(root: &Path) -> io::Result<ScanReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut rels: Vec<String> = files
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rels.sort();
    let mut findings = Vec::new();
    for rel in &rels {
        let src = fs::read_to_string(root.join(rel.replace('/', std::path::MAIN_SEPARATOR_STR)))?;
        findings.extend(scan_source(rel, &src));
    }
    Ok(ScanReport {
        files: rels,
        findings,
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` to the nearest directory whose `Cargo.toml`
/// declares a `[workspace]` — how the binary finds its scan root when
/// invoked from a subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_handles_quotes_and_newlines() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_lines_end_with_summary() {
        let report = ScanReport {
            files: vec!["a.rs".into()],
            findings: vec![],
        };
        let json = report.to_json_lines();
        assert_eq!(
            json.trim(),
            "{\"summary\":true,\"files_scanned\":1,\"findings\":0}"
        );
    }
}
