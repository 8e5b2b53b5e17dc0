//! `lint.toml` — the checked-in configuration of the invariant checker.
//!
//! A deliberately tiny, hand-rolled TOML subset (sections, string values,
//! string arrays, `#` comments): pulling a real TOML crate would break the
//! offline-vendoring constraint, and the lint's configuration needs
//! nothing richer.
//!
//! ```toml
//! [files]
//! include = ["crates", "src"]
//! exclude_prefixes = ["third_party", "crates/lint/fixtures"]
//! exclude_dirs = ["tests", "benches", "examples", "fixtures", "target"]
//!
//! [rules.lock-order]
//! severity = "deny"            # deny | warn | off
//! scope = ["crates/core/src"]  # prefixes where the rule applies (empty = everywhere)
//! allow_paths = []             # prefixes exempted inside the scope
//! ```

use std::collections::BTreeMap;

/// What a rule's findings do to the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Report and fail the run.
    Deny,
    /// Report, but do not fail the run.
    Warn,
    /// Rule disabled.
    Off,
}

impl Severity {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "deny" => Ok(Severity::Deny),
            "warn" => Ok(Severity::Warn),
            "off" => Ok(Severity::Off),
            other => Err(format!("unknown severity {other:?} (deny|warn|off)")),
        }
    }
}

/// Per-rule configuration.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Finding severity.
    pub severity: Severity,
    /// Path prefixes the rule applies to; empty means every scanned file.
    pub scope: Vec<String>,
    /// Path prefixes exempted from the rule (coarse, reasoned-in-config
    /// escape hatch; the fine-grained one is the inline annotation).
    pub allow_paths: Vec<String>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        Self {
            severity: Severity::Deny,
            scope: Vec::new(),
            allow_paths: Vec::new(),
        }
    }
}

impl RuleConfig {
    /// Whether the rule applies to `path` (workspace-relative, `/`-separated).
    pub fn applies_to(&self, path: &str) -> bool {
        if self.severity == Severity::Off {
            return false;
        }
        if !self.scope.is_empty() && !self.scope.iter().any(|p| path.starts_with(p.as_str())) {
            return false;
        }
        !self
            .allow_paths
            .iter()
            .any(|p| path.starts_with(p.as_str()))
    }
}

/// File-walking configuration.
#[derive(Debug, Clone)]
pub struct FilesConfig {
    /// Root-relative prefixes to walk (files or directories).
    pub include: Vec<String>,
    /// Root-relative prefixes to skip.
    pub exclude_prefixes: Vec<String>,
    /// Directory *names* to skip anywhere in the tree (`tests`, `benches`…).
    pub exclude_dirs: Vec<String>,
}

impl Default for FilesConfig {
    fn default() -> Self {
        Self {
            include: vec!["crates".into(), "src".into()],
            exclude_prefixes: vec!["third_party".into(), "target".into()],
            exclude_dirs: vec![
                "tests".into(),
                "benches".into(),
                "examples".into(),
                "fixtures".into(),
                "target".into(),
            ],
        }
    }
}

/// The parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Which files are scanned.
    pub files: FilesConfig,
    /// Rule id → its configuration. Rules absent from the map run with
    /// [`RuleConfig::default`] (deny, everywhere).
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Config {
    /// The effective configuration of `rule`.
    pub fn rule(&self, rule: &str) -> RuleConfig {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// Parses the `lint.toml` subset. Errors carry the offending line.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((ln, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = Some(name.trim().to_string());
                continue;
            }
            let (key, mut value) = match line.split_once('=') {
                Some((k, v)) => (k.trim().to_string(), v.trim().to_string()),
                None => return Err(format!("line {}: expected `key = value`", ln + 1)),
            };
            // Multiline arrays: keep consuming until the closing bracket.
            while value.starts_with('[') && !value.ends_with(']') {
                match lines.next() {
                    Some((_, cont)) => {
                        value.push(' ');
                        value.push_str(strip_comment(cont).trim());
                    }
                    None => return Err(format!("line {}: unterminated array", ln + 1)),
                }
            }
            let section = section
                .as_deref()
                .ok_or_else(|| format!("line {}: key outside a section", ln + 1))?;
            apply(&mut cfg, section, &key, &value).map_err(|e| format!("line {}: {e}", ln + 1))?;
        }
        Ok(cfg)
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` never appears inside our string values (paths, severities).
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn apply(cfg: &mut Config, section: &str, key: &str, value: &str) -> Result<(), String> {
    if section == "files" {
        let list = parse_string_array(value)?;
        match key {
            "include" => cfg.files.include = list,
            "exclude_prefixes" => cfg.files.exclude_prefixes = list,
            "exclude_dirs" => cfg.files.exclude_dirs = list,
            other => return Err(format!("unknown [files] key {other:?}")),
        }
        return Ok(());
    }
    if let Some(rule) = section.strip_prefix("rules.") {
        let rc = cfg.rules.entry(rule.to_string()).or_default();
        match key {
            "severity" => rc.severity = Severity::parse(&parse_string(value)?)?,
            "scope" => rc.scope = parse_string_array(value)?,
            "allow_paths" => rc.allow_paths = parse_string_array(value)?,
            other => return Err(format!("unknown rule key {other:?}")),
        }
        return Ok(());
    }
    Err(format!("unknown section [{section}]"))
}

fn parse_string(value: &str) -> Result<String, String> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got {v:?}"))
}

fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected an array, got {v:?}"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_severities() {
        let cfg = Config::parse(
            r#"
# comment
[files]
include = ["crates"]
exclude_dirs = ["tests", "benches"]

[rules.lock-order]
severity = "deny"
scope = [
    "crates/core/src",  # master/worker loops
    "crates/rowsgd/src",
]

[rules.atomics-ordering]
severity = "warn"
allow_paths = ["crates/cluster/src"]
"#,
        )
        .expect("parse");
        assert_eq!(cfg.files.include, vec!["crates"]);
        assert_eq!(cfg.files.exclude_dirs, vec!["tests", "benches"]);
        let ph = cfg.rule("lock-order");
        assert_eq!(ph.severity, Severity::Deny);
        assert_eq!(ph.scope.len(), 2);
        assert!(ph.applies_to("crates/core/src/engine.rs"));
        assert!(!ph.applies_to("crates/bench/src/lib.rs"));
        let m = cfg.rule("atomics-ordering");
        assert_eq!(m.severity, Severity::Warn);
        assert!(m.applies_to("crates/core/src/engine.rs"));
        assert!(!m.applies_to("crates/cluster/src/router.rs"));
    }

    #[test]
    fn unknown_rule_defaults_to_deny_everywhere() {
        let cfg = Config::parse("").expect("parse");
        let r = cfg.rule("anything");
        assert_eq!(r.severity, Severity::Deny);
        assert!(r.applies_to("crates/ml/src/glm.rs"));
    }

    #[test]
    fn rejects_bad_severity_and_syntax() {
        assert!(Config::parse("[rules.x]\nseverity = \"loud\"").is_err());
        assert!(Config::parse("key = 1").is_err());
        assert!(Config::parse("[files]\nwhat = []").is_err());
    }
}
