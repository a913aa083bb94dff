//! ppm-lint: static analysis for this workspace.
//!
//! The reproduction's headline guarantees — byte-identical fixed-seed
//! builds and panic-free typed-error library code — used to be policed
//! by an awk/grep gate that could not see strings, comments, or module
//! structure. This crate replaces it with a real (still zero-dependency)
//! analyzer, exposed as `ppm lint`:
//!
//! * a hand-written Rust lexer ([`lexer`]);
//! * six token rules ([`rules`]) for token-local invariants — a stray
//!   `unwrap`, a `HashMap` in a deterministic crate;
//! * an item-level pass ([`items`]) whose owned per-file indices feed
//!   five semantic rules that a token window cannot answer: is the lock
//!   graph acyclic ([`lockorder`])? does every `Ordering::` match a
//!   declared policy ([`atomics`])? can a worker thread reach a panic
//!   outside `catch_unwind` ([`panics`])? does every emitted wire-format
//!   string have a parser and a golden test ([`wire`])? do the CLI's
//!   exit codes, usage text, and README agree ([`exitcode`])?
//! * one allowlist ([`config`], `scripts/lint.conf` plus inline
//!   `lint:allow(<rule>)` comments) and compiler-style diagnostics in
//!   human or JSON form ([`report`]).
//!
//! Scope: the root binary's `src/` tree, every `crates/<name>/src` tree
//! except `crates/bench` (excluded from the workspace build), the
//! `tests/` tree (wire formats live in golden tests by design), and
//! `README.md` (the exit-code table is part of the CLI contract). Test
//! code — `#[cfg(test)]` modules, `#[test]` functions, and all of
//! `tests/` — is exempt from the token rules.

pub mod atomics;
pub mod config;
pub mod exitcode;
pub mod items;
pub mod lexer;
pub mod lockorder;
pub mod panics;
pub mod report;
pub mod rules;
pub mod wire;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub use config::{Config, ConfigError};
pub use report::{Diagnostic, Report};

use lexer::Token;

/// Errors from walking and reading workspace sources.
#[derive(Debug)]
#[non_exhaustive]
pub enum LintError {
    /// A directory or file could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying failure.
        error: std::io::Error,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, error } => {
                write!(f, "cannot read {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Io { error, .. } => Some(error),
        }
    }
}

/// Lints one in-memory source file as a workspace of its own (no
/// README). `rel_path` must be workspace relative with `/` separators —
/// it selects which rules apply.
pub fn lint_source(rel_path: &str, source: &str, conf: &Config) -> Vec<Diagnostic> {
    lint_sources(&[(rel_path.to_string(), source.to_string())], None, conf).diagnostics
}

/// Lints every source under `root` that is in scope (see the crate
/// docs) in one pass and returns a deterministic [`Report`].
///
/// # Errors
///
/// [`LintError::Io`] when a scanned directory or file cannot be read.
pub fn lint_workspace(root: &Path, conf: &Config) -> Result<Report, LintError> {
    let mut sources = Vec::new();
    for rel in workspace_files(root)? {
        let full = root.join(&rel);
        let source = std::fs::read_to_string(&full).map_err(|error| LintError::Io {
            path: full.clone(),
            error,
        })?;
        sources.push((rel, source));
    }
    let readme = std::fs::read_to_string(root.join("README.md")).ok();
    Ok(lint_sources(&sources, readme.as_deref(), conf))
}

/// The single pass over `(rel, source)` pairs. Each file is lexed once;
/// the token rules, the item indexer, and the exit-code contract all
/// read those tokens. The semantic rules then run over the indices, one
/// suppression pass applies inline allows and `conf`, and findings are
/// sorted by `(path, line, rule, col)`.
fn lint_sources(sources: &[(String, String)], readme: Option<&str>, conf: &Config) -> Report {
    let mut diagnostics = Vec::new();
    let mut files = Vec::with_capacity(sources.len());
    let mut cli = exitcode::CliFacts::default();
    for (rel, source) in sources {
        let tokens = lexer::lex(source);
        let in_test = test_mask(rel, &tokens);
        diagnostics.extend(rules::check_tokens(rel, &tokens, &in_test));
        cli.observe(rel, &tokens);
        files.push(items::index_file(rel, source, &tokens, &in_test));
    }
    diagnostics.extend(lockorder::check(&files));
    diagnostics.extend(atomics::check(&files));
    diagnostics.extend(panics::check(&files));
    diagnostics.extend(wire::check(&files));
    diagnostics.extend(exitcode::check(&cli, readme));

    // Suppression: an inline `lint:allow(<rule>)` on or above the line,
    // or a `lint.conf` entry whose substring matches the line.
    let by_rel: BTreeMap<&str, &items::FileIndex> =
        files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let readme_lines: Vec<&str> = readme.map(|r| r.lines().collect()).unwrap_or_default();
    diagnostics.retain(|d| {
        let idx = by_rel.get(d.path.as_str());
        if idx.is_some_and(|f| f.allows.contains(&(d.rule.to_string(), d.line))) {
            return false;
        }
        let at = d.line.saturating_sub(1) as usize;
        let line_text = if d.path == "README.md" {
            readme_lines.get(at).copied()
        } else {
            idx.and_then(|f| f.lines.get(at)).map(String::as_str)
        };
        !conf.allows(d.rule, line_text.unwrap_or(""))
    });
    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.col).cmp(&(b.path.as_str(), b.line, b.rule, b.col))
    });
    Report {
        files_scanned: files.len(),
        diagnostics,
    }
}

/// Which tokens are test code: `#[cfg(test)]` / `#[test]` regions, or
/// every token of an integration test under `tests/`.
pub(crate) fn test_mask(rel: &str, tokens: &[Token<'_>]) -> Vec<bool> {
    if rel.starts_with("tests/") {
        vec![true; tokens.len()]
    } else {
        lexer::test_regions(tokens)
    }
}

/// Enumerates in-scope `.rs` files under `root`, as sorted
/// workspace-relative `/`-separated paths: the root binary's `src/`
/// tree, `crates/<name>/src` for every crate except `bench`, and the
/// `tests/` tree. Per-crate `tests/`, `examples/`, and `benches/` trees
/// are out of scope.
///
/// # Errors
///
/// [`LintError::Io`] when a directory listing fails.
pub fn workspace_files(root: &Path) -> Result<Vec<String>, LintError> {
    let mut rels = Vec::new();
    for top in ["src", "tests"] {
        if root.join(top).is_dir() {
            collect_rs(root, top, &mut rels)?;
        }
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for name in sorted_entries(&crates_dir)? {
            if name == "bench" {
                continue;
            }
            let rel = format!("crates/{name}/src");
            if root.join(&rel).is_dir() {
                collect_rs(root, &rel, &mut rels)?;
            }
        }
    }
    rels.sort();
    Ok(rels)
}

/// Recursively collects `.rs` files under `root/rel_dir` into `out`.
fn collect_rs(root: &Path, rel_dir: &str, out: &mut Vec<String>) -> Result<(), LintError> {
    for name in sorted_entries(&root.join(rel_dir))? {
        let rel = format!("{rel_dir}/{name}");
        let full = root.join(&rel);
        if full.is_dir() {
            collect_rs(root, &rel, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Lists a directory's entry names in sorted order (so walk order, and
/// therefore diagnostic order, is independent of filesystem order).
fn sorted_entries(dir: &Path) -> Result<Vec<String>, LintError> {
    let io = |error: std::io::Error| LintError::Io {
        path: dir.to_path_buf(),
        error,
    };
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let entry = entry.map_err(io)?;
        names.push(entry.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(root: &Path, rel: &str, text: &str) {
        let full = root.join(rel);
        std::fs::create_dir_all(full.parent().expect("parent")).expect("mkdir");
        std::fs::write(full, text).expect("write fixture");
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppm-lint-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clean temp root");
        }
        std::fs::create_dir_all(&dir).expect("mkdir temp root");
        dir
    }

    #[test]
    fn walker_scopes_and_sorts() {
        let root = temp_root("walk");
        write(&root, "src/main.rs", "fn main() {}");
        write(&root, "src/cli/mod.rs", "pub mod x;");
        write(&root, "crates/core/src/lib.rs", "pub fn f() {}");
        write(&root, "crates/core/src/deep/inner.rs", "pub fn g() {}");
        write(
            &root,
            "crates/bench/src/lib.rs",
            "fn skipped() { x.unwrap() }",
        );
        write(&root, "crates/core/tests/it.rs", "fn t() { x.unwrap() }");
        write(&root, "crates/core/src/notes.txt", "not rust");
        write(&root, "tests/it.rs", "fn t() {}");
        let files = workspace_files(&root).expect("walk");
        assert_eq!(
            files,
            vec![
                "crates/core/src/deep/inner.rs",
                "crates/core/src/lib.rs",
                "src/cli/mod.rs",
                "src/main.rs",
                "tests/it.rs",
            ]
        );
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn lint_workspace_reports_findings() {
        let root = temp_root("report");
        write(
            &root,
            "crates/core/src/lib.rs",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        );
        write(&root, "crates/core/src/ok.rs", "pub fn g() -> u32 { 4 }");
        // Integration tests are scanned, but they are test code.
        write(&root, "tests/it.rs", "fn t() { None::<u32>.unwrap(); }");
        let report = lint_workspace(&root, &Config::empty()).expect("lint");
        assert_eq!(report.files_scanned, 3);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, "panic-path");
        assert_eq!(report.diagnostics[0].path, "crates/core/src/lib.rs");
        assert!(!report.is_clean());
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn missing_root_is_an_io_error() {
        let err = lint_workspace(Path::new("/nonexistent-ppm-lint"), &Config::empty());
        // No src/ and no crates/ at all: scans nothing, cleanly.
        let report = err.expect("empty scan is not an error");
        assert_eq!(report.files_scanned, 0);
    }

    #[test]
    fn inline_allows_suppress_semantic_findings_and_old_markers_do_not() {
        // The retired second marker spelling is just a comment now.
        let src = format!(
            "fn f(s: &S) {{\n    // lint:allow(atomic-ordering) gauge pairs with recv\n    s.q.store(1, Ordering::SeqCst);\n    // {}:allow(atomic-ordering) an unmigrated marker\n    s.r.store(1, Ordering::SeqCst);\n}}\n",
            "analyze"
        );
        let diags = lint_source("crates/serve/src/a.rs", &src, &Config::empty());
        let rendered: Vec<String> = diags
            .iter()
            .map(|d| format!("{}:{} {}", d.line, d.col, d.rule))
            .collect();
        assert_eq!(rendered, vec!["5:9 atomic-ordering"], "{diags:?}");
    }

    #[test]
    fn conf_allowlist_suppresses_semantic_findings_by_substring() {
        let src = "fn f(s: &S) {\n    s.q.store(1, Ordering::SeqCst);\n}\n";
        let conf = Config::parse("allow atomic-ordering s.q.store(1\n").expect("conf");
        let diags = lint_source("crates/serve/src/a.rs", src, &conf);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
