//! The per-file rules and their token-level matchers.
//!
//! * `atomics-ordering` — `Ordering::Relaxed` needs a written
//!   happens-before argument, so it is flagged outside the allowlist and
//!   future lock-free code gets reviewed deliberately.
//! * `annotation` — `// lint: allow(rule) reason` escapes must be
//!   well-formed (known rule, non-empty reason) so the suppression
//!   summary stays auditable.
//!
//! Determinism, metering, panic, and allocator hygiene are clippy's
//! (DESIGN.md §10), so an annotation naming one of them is unknown here.

use crate::config::{Config, Severity};
use crate::locks::{BLOCKING_RULE, ORDER_RULE};
use crate::scan::{Allow, Scanned};

/// Rule id for relaxed atomics.
pub const ATOMICS_RULE: &str = "atomics-ordering";

/// Meta-rule id for malformed/unknown `lint: allow` annotations.
pub const ANNOTATION_RULE: &str = "annotation";

/// Every rule id a `lint: allow` annotation may name.
pub const RULE_IDS: [&str; 4] = [ATOMICS_RULE, ORDER_RULE, BLOCKING_RULE, ANNOTATION_RULE];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id that fired.
    pub rule: String,
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the match.
    pub message: String,
    /// Effective severity from `lint.toml`.
    pub severity: Severity,
}

/// An allow annotation together with the file it appeared in.
#[derive(Debug, Clone)]
pub struct UsedAllow {
    /// Workspace-relative path.
    pub path: String,
    /// The annotation itself.
    pub allow: Allow,
}

/// Runs the per-file rules over one scanned file.
pub fn check_file(
    path: &str,
    scanned: &Scanned,
    config: &Config,
) -> (Vec<Finding>, Vec<UsedAllow>) {
    let mut findings = Vec::new();

    // Qualified form only (`Ordering::Relaxed`); the workspace never
    // imports `Relaxed` bare, and a bare-identifier match would collide
    // with ordinary bindings.
    let atomics = config.rule(ATOMICS_RULE);
    if atomics.applies_to(path) {
        for w in scanned.tokens.windows(4) {
            let line = w[0].line;
            if w.iter()
                .map(|t| t.text.as_str())
                .eq(["Ordering", ":", ":", "Relaxed"])
                && !scanned.is_allowed(ATOMICS_RULE, line)
            {
                findings.push(Finding {
                    rule: ATOMICS_RULE.to_string(),
                    path: path.to_string(),
                    line,
                    message: "`Ordering::Relaxed` outside the allowlist; relaxed atomics need a \
                              written happens-before argument — use `Acquire`/`Release` (or \
                              `SeqCst`) unless the access is a pure statistical counter"
                        .to_string(),
                    severity: atomics.severity,
                });
            }
        }
    }

    // The annotation meta-rule is always on: malformed annotations and
    // annotations naming an unknown rule are findings themselves.
    let ann = config.rule(ANNOTATION_RULE);
    if ann.severity != Severity::Off {
        for &line in &scanned.malformed_allows {
            findings.push(Finding {
                rule: ANNOTATION_RULE.to_string(),
                path: path.to_string(),
                line,
                message: "malformed `lint: allow` — expected `// lint: allow(<rule>) <reason>` \
                          with a non-empty reason"
                    .to_string(),
                severity: ann.severity,
            });
        }
        for a in &scanned.allows {
            if !RULE_IDS.contains(&a.rule.as_str()) {
                findings.push(Finding {
                    rule: ANNOTATION_RULE.to_string(),
                    path: path.to_string(),
                    line: a.line,
                    message: format!("`lint: allow({})` names an unknown rule", a.rule),
                    severity: ann.severity,
                });
            }
        }
    }

    let used = scanned
        .allows
        .iter()
        .map(|a| UsedAllow {
            path: path.to_string(),
            allow: a.clone(),
        })
        .collect();
    (findings, used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn bare_config() -> Config {
        Config::parse("").expect("empty config")
    }

    fn rules_fired(src: &str) -> Vec<(String, u32)> {
        let s = scan(src);
        let (findings, _) = check_file("crates/x/src/lib.rs", &s, &bare_config());
        findings.into_iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn detects_relaxed_atomics_only_when_qualified() {
        let fired = rules_fired(
            "let x = FLAG.load(Ordering::Relaxed);\nlet y = FLAG.load(Ordering::SeqCst);\nlet z = std::cmp::Ordering::Less;",
        );
        assert_eq!(fired, vec![("atomics-ordering".into(), 1)]);
    }

    #[test]
    fn lock_rules_are_known_to_annotations() {
        let fired = rules_fired(
            "// lint: allow(lock-order) writer is a leaf lock\nlet x = 1;\n// lint: allow(blocking-under-lock) the writer IS the serialization point\nlet y = 2;",
        );
        assert!(
            fired.is_empty(),
            "lock rule ids must not be flagged as unknown: {fired:?}"
        );
    }

    #[test]
    fn allow_suppresses_and_is_summarized() {
        let s = scan("// lint: allow(atomics-ordering) pure counter\nX.load(Ordering::Relaxed);");
        let (findings, used) = check_file("crates/x/src/lib.rs", &s, &bare_config());
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(used.len(), 1);
        assert_eq!(used[0].allow.rule, "atomics-ordering");
    }

    #[test]
    fn unknown_rule_in_allow_is_a_finding() {
        let fired = rules_fired("// lint: allow(no-such-rule) some reason\nlet x = 1;");
        assert_eq!(fired, vec![("annotation".into(), 1)]);
    }

    #[test]
    fn malformed_allow_is_a_finding() {
        let fired = rules_fired("// lint: allow(atomics-ordering)\nX.load(Ordering::Relaxed);");
        // Malformed annotation fires, and it does NOT suppress the match.
        assert!(fired.contains(&("annotation".into(), 1)));
        assert!(fired.contains(&("atomics-ordering".into(), 2)));
    }

    #[test]
    fn scope_and_allow_paths_gate_rules() {
        let cfg = Config::parse(
            "[rules.atomics-ordering]\nseverity = \"deny\"\nscope = [\"crates/core/src\"]\n\
             allow_paths = [\"crates/core/src/testkit.rs\"]",
        )
        .expect("config");
        let s = scan("X.load(Ordering::Relaxed);");
        let (in_scope, _) = check_file("crates/core/src/engine.rs", &s, &cfg);
        assert_eq!(in_scope.len(), 1);
        let (out_of_scope, _) = check_file("crates/bench/src/lib.rs", &s, &cfg);
        assert!(out_of_scope.is_empty());
        let (allowed, _) = check_file("crates/core/src/testkit.rs", &s, &cfg);
        assert!(allowed.is_empty());
    }
}
