//! A hand-rolled lexical scanner for Rust sources.
//!
//! The rules this tool enforces work on tokens ("no `Ordering::Relaxed`
//! outside the allowlist", "no `send` while a guard is live"), so a full
//! parse is unnecessary — and pulling in `syn` would violate the repo's
//! offline-vendoring constraint. The scanner produces a stream of
//! identifier/punctuation tokens with line numbers, with three pieces of
//! Rust-awareness layered on top:
//!
//! * comments (line, nested block) and string/char literals are stripped,
//!   so `"send("` inside a log message never fires a rule;
//! * `// lint: allow(<rule>) <reason>` annotations are parsed out of the
//!   comments and attached to the line they suppress;
//! * items under `#[cfg(test)]` are dropped entirely — test code is not
//!   held to the lock rules.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Identifier text, or a single punctuation character.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

/// A parsed `// lint: allow(<rule>) <reason>` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Line the comment appears on. The annotation suppresses findings of
    /// `rule` on this line (trailing comment) and on the next line
    /// (standalone comment above the flagged expression).
    pub line: u32,
    /// Rule id inside the parentheses.
    pub rule: String,
    /// Free-text justification after the closing parenthesis. Required:
    /// an empty reason is itself reported as a finding.
    pub reason: String,
}

/// A scanned source file: token stream plus its allow annotations.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Tokens outside comments, literals, and `#[cfg(test)]` items.
    pub tokens: Vec<Tok>,
    /// Every `lint: allow` annotation found in comments.
    pub allows: Vec<Allow>,
    /// Lines of malformed annotations (a `lint: allow` that could not be
    /// parsed, or one with an empty reason).
    pub malformed_allows: Vec<u32>,
}

impl Scanned {
    /// Whether a finding of `rule` at `line` is covered by an annotation
    /// (same line, or the line directly above).
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }
}

/// Scans Rust source text into tokens + annotations.
pub fn scan(src: &str) -> Scanned {
    let raw = tokenize(src);
    Scanned {
        tokens: strip_cfg_test(raw.tokens),
        allows: raw.allows,
        malformed_allows: raw.malformed_allows,
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Parses the body of a line comment for a `lint: allow(rule) reason`
/// annotation. Returns `Some(Ok(..))` for a well-formed annotation,
/// `Some(Err(()))` for a malformed one, `None` when the comment is not an
/// annotation at all.
fn parse_allow(comment: &str, line: u32) -> Option<Result<Allow, ()>> {
    let body = comment.trim_start_matches('/').trim_start_matches('!');
    let body = body.trim();
    let rest = body.strip_prefix("lint:")?.trim_start();
    let rest = match rest.strip_prefix("allow") {
        Some(r) => r.trim_start(),
        None => return Some(Err(())),
    };
    let rest = match rest.strip_prefix('(') {
        Some(r) => r,
        None => return Some(Err(())),
    };
    let close = match rest.find(')') {
        Some(i) => i,
        None => return Some(Err(())),
    };
    let rule = rest[..close].trim().to_string();
    let reason = rest[close + 1..].trim().to_string();
    if rule.is_empty() || reason.is_empty() {
        return Some(Err(()));
    }
    Some(Ok(Allow { line, rule, reason }))
}

fn tokenize(src: &str) -> Scanned {
    let mut out = Scanned::default();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = chars.len();

    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
            }
            i += 1;
        }};
    }

    while i < n {
        let c = chars[i];
        // Line comment (and doc comment): capture for annotations, strip.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            let comment: String = chars[start + 2..i].iter().collect();
            match parse_allow(&comment, line) {
                Some(Ok(a)) => out.allows.push(a),
                Some(Err(())) => out.malformed_allows.push(line),
                None => {}
            }
            continue;
        }
        // Block comment, nested.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    bump!();
                }
            }
            continue;
        }
        // Raw string / raw byte string: r"…", r#"…"#, br##"…"##.
        if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
            if let Some(next) = raw_string_end(&chars, i) {
                while i < next {
                    bump!();
                }
                continue;
            }
        }
        // Plain string / byte string.
        if c == '"' || (c == 'b' && i + 1 < n && chars[i + 1] == '"' && !prev_is_ident(&chars, i)) {
            if c == 'b' {
                i += 1;
            }
            bump!(); // opening quote
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    bump!();
                    bump!();
                } else if chars[i] == '"' {
                    bump!();
                    break;
                } else {
                    bump!();
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            // Escaped char: '\n', '\'', '\u{..}'.
            if i + 1 < n && chars[i + 1] == '\\' {
                i += 2;
                while i < n && chars[i] != '\'' {
                    bump!();
                }
                if i < n {
                    i += 1; // closing quote
                }
                continue;
            }
            // 'x' (single char then closing quote) is a literal; anything
            // else ('a in generics, 'static) is a lifetime — skip the tick
            // and let the identifier tokenize normally (harmless).
            if i + 2 < n && chars[i + 2] == '\'' {
                i += 3;
                continue;
            }
            i += 1;
            continue;
        }
        // Identifier / number.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_start(chars[i]) {
                i += 1;
            }
            out.tokens.push(Tok {
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Punctuation (single char) or whitespace.
        if !c.is_whitespace() {
            out.tokens.push(Tok {
                text: c.to_string(),
                line,
            });
        }
        bump!();
    }
    out
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && is_ident_start(chars[i - 1])
}

/// If `chars[i..]` starts a raw (byte) string literal, returns the index
/// one past its closing delimiter.
fn raw_string_end(chars: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if j >= chars.len() || chars[j] != 'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while j < chars.len() && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= chars.len() || chars[j] != '"' {
        return None;
    }
    j += 1;
    while j < chars.len() {
        if chars[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < chars.len() && chars[k] == '#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(chars.len())
}

/// Drops every item annotated `#[cfg(test)]` from the token stream (the
/// attribute, any attributes stacked after it, and the item's full body).
fn strip_cfg_test(tokens: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(&tokens, i) {
            // Skip this attribute.
            i = skip_attr(&tokens, i);
            // Skip any further stacked attributes.
            while i < tokens.len() && tokens[i].text == "#" {
                i = skip_attr(&tokens, i);
            }
            // Skip the item: to the first `;` at depth 0, or through the
            // matching brace of the first `{`.
            let mut depth = 0i32;
            while i < tokens.len() {
                match tokens[i].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth <= 0 {
                            i += 1;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Whether tokens at `i` spell `# [ cfg ( test ) ]`.
fn is_cfg_test_attr(tokens: &[Tok], i: usize) -> bool {
    let texts: Vec<&str> = tokens[i..]
        .iter()
        .take(7)
        .map(|t| t.text.as_str())
        .collect();
    texts == ["#", "[", "cfg", "(", "test", ")", "]"]
}

/// Skips one `#[...]` attribute (balanced brackets), returning the index
/// after the closing `]`.
fn skip_attr(tokens: &[Tok], mut i: usize) -> usize {
    debug_assert_eq!(tokens[i].text, "#");
    i += 1; // '#'
    if i < tokens.len() && tokens[i].text == "[" {
        let mut depth = 0i32;
        while i < tokens.len() {
            match tokens[i].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(s: &Scanned) -> Vec<&str> {
        s.tokens.iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let s = scan(
            r##"let x = "panic!().unwrap()"; // thread_rng here
            /* Instant::now() in /* nested */ comment */ let y = 'a';"##,
        );
        let t = texts(&s);
        assert!(!t.contains(&"panic"));
        assert!(!t.contains(&"thread_rng"));
        assert!(!t.contains(&"Instant"));
        assert!(t.contains(&"x"));
        assert!(t.contains(&"y"));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let s = scan(r####"let j = r#"{"unwrap": "panic!"}"#; let z = 1;"####);
        let t = texts(&s);
        assert!(!t.contains(&"unwrap"));
        assert!(t.contains(&"z"));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let s = scan("fn f<'a>(x: &'a str) -> &'static str { x.unwrap() }");
        let t = texts(&s);
        assert!(t.contains(&"unwrap"));
        assert!(t.contains(&"static"));
    }

    #[test]
    fn char_literals_are_stripped() {
        let s = scan("let c = 'u'; let d = '\\n'; let e = c.unwrap();");
        let t = texts(&s);
        // The literal 'u' must not produce a stray token, but the method
        // call must survive.
        assert_eq!(t.iter().filter(|t| **t == "unwrap").count(), 1);
    }

    #[test]
    fn allow_annotations_parse() {
        let s = scan(
            "// lint: allow(blocking-under-lock) the writer IS the serialization point\nw.send(x);",
        );
        assert_eq!(s.allows.len(), 1);
        assert_eq!(s.allows[0].rule, "blocking-under-lock");
        assert!(s.allows[0].reason.contains("serialization point"));
        assert!(s.is_allowed("blocking-under-lock", 2));
        assert!(!s.is_allowed("blocking-under-lock", 3));
        assert!(!s.is_allowed("lock-order", 2));
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let s = scan("// lint: allow(blocking-under-lock)\nw.send(x);");
        assert!(s.allows.is_empty());
        assert_eq!(s.malformed_allows, vec![1]);
    }

    #[test]
    fn cfg_test_items_are_dropped() {
        let s = scan(
            "fn live() { a(); }\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn tail() {}",
        );
        let t = texts(&s);
        assert!(!t.contains(&"unwrap"));
        assert!(t.contains(&"live"));
        assert!(t.contains(&"tail"));
    }

    #[test]
    fn cfg_test_with_stacked_attrs() {
        let s =
            scan("#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn f() { panic!(); } }\nfn g() {}");
        let t = texts(&s);
        assert!(!t.contains(&"panic"));
        assert!(t.contains(&"g"));
    }

    #[test]
    fn non_test_cfg_survives() {
        let s = scan("#[cfg(feature = \"x\")]\nfn f() { x.unwrap(); }");
        assert!(texts(&s).contains(&"unwrap"));
    }
}
