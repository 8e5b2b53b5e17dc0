//! `columnsgd-lint` — the workspace's lock analysis.
//!
//! A multi-pass, dependency-free analyzer over the workspace's `.rs`
//! files (excluding `third_party`, tests, benches, examples, and
//! fixtures), for the invariants clippy cannot express:
//!
//! 1. **scan** — lexical token stream per file ([`scan`]);
//! 2. **symbols** — fns, lock declarations/acquisitions, and call sites
//!    ([`symbols`]);
//! 3. **per-file rules** — atomics ordering and the `annotation`
//!    meta-rule over `// lint: allow` escapes ([`rules`]);
//! 4. **cross-file rules** — lock-order and blocking-under-lock over the
//!    lock acquisition graph ([`locks`]).
//!
//! The other invariants are enforced by rustc and clippy (DESIGN.md §10).
//! Configuration lives in the checked-in `lint.toml`.

pub mod config;
pub mod locks;
pub mod rules;
pub mod scan;
pub mod symbols;

pub use config::{Config, Severity};
pub use rules::{Finding, UsedAllow, ANNOTATION_RULE, RULE_IDS};

use std::fs;
use std::path::{Path, PathBuf};

/// One scanned file with its extracted symbols — the unit the
/// cross-file passes consume.
#[derive(Debug)]
pub struct FileUnit {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Token stream and allow annotations.
    pub scanned: scan::Scanned,
    /// Extracted symbols.
    pub symbols: symbols::FileSymbols,
}

/// The result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Every `lint: allow` annotation seen, sorted by (path, line).
    pub allows: Vec<UsedAllow>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings with `deny` severity — these fail the run.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    /// Findings with `warn` severity.
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// Whether the run should exit non-zero.
    pub fn failed(&self) -> bool {
        self.deny_count() > 0
    }

    /// Renders the human-readable report (deterministic: inputs are
    /// sorted, so two runs over the same tree produce identical text).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{sev}[{rule}] {path}:{line}: {msg}\n",
                sev = severity_str(f.severity),
                rule = f.rule,
                path = f.path,
                line = f.line,
                msg = f.message
            ));
        }
        if !self.allows.is_empty() {
            out.push_str("\nsuppressions in effect:\n");
            for ua in &self.allows {
                out.push_str(&format!(
                    "  {path}:{line} allow({rule}) — {reason}\n",
                    path = ua.path,
                    line = ua.allow.line,
                    rule = ua.allow.rule,
                    reason = ua.allow.reason
                ));
            }
        }
        out.push_str(&format!(
            "\n{files} files scanned: {deny} deny, {warn} warn, {allows} suppression(s)\n",
            files = self.files_scanned,
            deny = self.deny_count(),
            warn = self.warn_count(),
            allows = self.allows.len()
        ));
        out
    }

    /// Renders the machine-readable JSON report. Hand-rolled (no serde:
    /// offline-vendoring constraint) and deterministic — same sorted
    /// inputs as [`Report::render`], stable key order, `\n` separators.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"deny\": {},\n", self.deny_count()));
        out.push_str(&format!("  \"warn\": {},\n", self.warn_count()));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"severity\": {}, \"message\": {}}}",
                json_str(&f.rule),
                json_str(&f.path),
                f.line,
                json_str(severity_str(f.severity)),
                json_str(&f.message)
            ));
        }
        out.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"suppressions\": [");
        for (i, ua) in self.allows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}",
                json_str(&ua.path),
                ua.allow.line,
                json_str(&ua.allow.rule),
                json_str(&ua.allow.reason)
            ));
        }
        out.push_str(if self.allows.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

fn severity_str(s: Severity) -> &'static str {
    match s {
        Severity::Deny => "deny",
        Severity::Warn => "warn",
        Severity::Off => "off",
    }
}

/// JSON string literal with the escapes the report can actually contain.
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

/// Loads `lint.toml` from `root`, falling back to defaults when absent.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    if !path.exists() {
        return Ok(Config::default());
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Config::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the lint over every matching `.rs` file under `root`.
pub fn run_lint(root: &Path, config: &Config) -> Result<Report, String> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    for inc in &config.files.include {
        let base = root.join(inc);
        if base.exists() {
            collect_rs_files(root, &base, config, &mut files)?;
        }
    }
    // Sort by the `/`-joined relative string (not PathBuf component
    // order) so report ordering is byte-identical across platforms and
    // filesystems.
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files.dedup_by(|a, b| a.0 == b.0);

    // Pass 1+2: scan and extract symbols for every file.
    let mut units = Vec::with_capacity(files.len());
    for (rel, path) in &files {
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let scanned = scan::scan(&text);
        let symbols = symbols::FileSymbols::extract(&scanned);
        units.push(FileUnit {
            rel: rel.clone(),
            scanned,
            symbols,
        });
    }

    // Pass 3: per-file rules.
    let mut report = Report {
        files_scanned: units.len(),
        ..Report::default()
    };
    for unit in &units {
        let (findings, used) = rules::check_file(&unit.rel, &unit.scanned, config);
        report.findings.extend(findings);
        report.allows.extend(used);
    }

    // Pass 4: cross-file rules over the full unit set.
    report.findings.extend(locks::check(&units, config));

    report.findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
    report.findings.dedup_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message) == (&b.path, b.line, &b.rule, &b.message)
    });
    report
        .allows
        .sort_by(|a, b| (&a.path, a.allow.line).cmp(&(&b.path, b.allow.line)));
    Ok(report)
}

/// `/`-separated path of `file` relative to `root`.
fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    config: &Config,
    out: &mut Vec<(String, PathBuf)>,
) -> Result<(), String> {
    let rel = relative_path(root, dir);
    if config
        .files
        .exclude_prefixes
        .iter()
        .any(|p| rel.starts_with(p.as_str()))
    {
        return Ok(());
    }
    if dir.is_file() {
        if dir.extension().is_some_and(|e| e == "rs") {
            out.push((rel, dir.to_path_buf()));
        }
        return Ok(());
    }
    let name = dir.file_name().map(|n| n.to_string_lossy().to_string());
    if let Some(name) = &name {
        if !rel.is_empty()
            && config.files.exclude_dirs.iter().any(|d| d == name)
            // Never skip an `include` root itself even if its name matches.
            && !config.files.include.iter().any(|i| i == &rel)
        {
            return Ok(());
        }
    }
    // Sorted traversal: `read_dir` order is filesystem-dependent, and a
    // deterministic walk is what keeps the text/JSON reports
    // byte-identical across runs and platforms.
    let entries = fs::read_dir(dir).map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort_by(|a, b| a.file_name().cmp(&b.file_name()));
    for path in paths {
        collect_rs_files(root, &path, config, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut report = Report {
            files_scanned: 2,
            ..Report::default()
        };
        report.findings.push(Finding {
            rule: "lock-order".into(),
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            message: "boom".into(),
            severity: Severity::Deny,
        });
        report.findings.push(Finding {
            rule: "atomics-ordering".into(),
            path: "crates/x/src/lib.rs".into(),
            line: 9,
            message: "raw \"channel\"".into(),
            severity: Severity::Warn,
        });
        report
    }

    #[test]
    fn report_render_is_stable_and_counts() {
        let report = sample_report();
        assert_eq!(report.deny_count(), 1);
        assert_eq!(report.warn_count(), 1);
        assert!(report.failed());
        let text = report.render();
        assert!(text.contains("deny[lock-order] crates/x/src/lib.rs:3: boom"));
        assert!(text.contains("warn[atomics-ordering]"));
        assert!(text.contains("1 deny, 1 warn"));
    }

    #[test]
    fn clean_report_passes() {
        let report = Report::default();
        assert!(!report.failed());
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"deny\": 1"));
        assert!(json.contains("\"warn\": 1"));
        // Quotes inside messages are escaped.
        assert!(json.contains("raw \\\"channel\\\""));
        // One JSON object per finding.
        assert_eq!(json.matches("\"rule\": ").count(), report.findings.len());
    }

    #[test]
    fn empty_json_report_has_empty_arrays() {
        let json = Report::default().to_json();
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"suppressions\": []"));
    }
}
