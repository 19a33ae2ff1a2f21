//! A tiny Rust lexer: good enough to tell *code* apart from comments
//! and string/char literals, so rule matches hit real code and never
//! documentation or test fixtures embedded in string literals.
//!
//! The output is line-oriented: for every physical source line we
//! keep the code text (comments and literal *contents* blanked to
//! spaces, quotes kept so token boundaries survive) and the comment
//! text (where `lint:allow` annotations live). On top of that the
//! lexer marks `#[cfg(test)]` / `#[test]` regions by brace matching,
//! so rules can exempt test code without any path convention.

/// One physical source line, split into its code and comment parts.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Source text with comments removed and string/char literal
    /// contents blanked to spaces (delimiters preserved).
    pub code: String,
    /// Comment text on this line (`//`, `///`, `/* .. */` contents).
    pub comment: String,
    /// True when the line sits inside a `#[cfg(test)]` or `#[test]`
    /// item body (the braces following the attribute).
    pub in_test: bool,
}

/// A parsed `// lint:allow(rule-a, rule-b): reason` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rules the annotation suppresses.
    pub rules: Vec<String>,
    /// True when a non-empty reason follows the rule list. An allow
    /// without a reason suppresses nothing — the reason *is* the
    /// documentation the annotation exists to force.
    pub has_reason: bool,
    /// 1-based line the annotation was written on.
    pub line: usize,
}

/// A lexed source file ready for rule matching.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    pub lines: Vec<Line>,
    /// `allows[i]` = annotations effective on 1-based line `i + 1`.
    /// An annotation on a comment-only line also covers the next
    /// line that carries code, so rustfmt-wrapped statements can be
    /// annotated on the line above.
    pub allows: Vec<Vec<Allow>>,
}

impl SourceFile {
    /// Returns the annotation covering `rule` on 1-based `line`, if
    /// any (reasonless allows are returned too — the caller decides
    /// whether they count).
    pub fn allow_for(&self, line: usize, rule: &str) -> Option<&Allow> {
        self.allows
            .get(line.wrapping_sub(1))
            .into_iter()
            .flatten()
            .find(|a| a.rules.iter().any(|r| r == rule))
    }

    /// Joins code text from 1-based `line` forward until a line whose
    /// code contains `;` or an opening `{` past the first line —
    /// approximating "the rest of this statement" for multi-line
    /// rustfmt chains. Capped to avoid runaway joins.
    pub fn statement_from(&self, line: usize) -> String {
        let start = line.saturating_sub(1);
        let mut out = String::new();
        for (n, l) in self.lines.iter().enumerate().skip(start).take(12) {
            out.push_str(&l.code);
            out.push(' ');
            if l.code.contains(';') || (n > start && l.code.contains('{')) {
                break;
            }
        }
        out
    }
}

#[derive(Copy, Clone, PartialEq)]
enum Mode {
    Code,
    LineComment,
    /// Nested depth of `/* */` comments.
    BlockComment(u32),
    /// `hashes` is the `#` count for raw strings (`None` = normal).
    Str {
        raw_hashes: Option<u8>,
    },
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into per-line code/comment text, then derives test
/// regions and `lint:allow` annotations.
pub fn lex(rel_path: &str, src: &str) -> SourceFile {
    let chars: Vec<char> = src.chars().collect();
    let mut code_lines: Vec<String> = Vec::new();
    let mut comment_lines: Vec<String> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut mode = Mode::Code;
    let mut i = 0usize;

    macro_rules! newline {
        () => {{
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut comment));
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            newline!();
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                let prev_ident = code.chars().last().is_some_and(is_ident);
                if c == '/' && next == Some('/') {
                    mode = Mode::LineComment;
                    // Doc comments (`///`, `//!`) are rendered prose, not
                    // annotation carriers: real `lint:allow`s live in plain
                    // `//` comments. Marking docs lets the grammar be
                    // *described* in rustdoc without tripping the checker.
                    let doc = matches!(chars.get(i + 2), Some('/') | Some('!'))
                        && chars.get(i + 3) != Some(&'/');
                    comment.push_str(if doc { "///" } else { "//" });
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    mode = Mode::Str { raw_hashes: None };
                    code.push('"');
                    i += 1;
                } else if !prev_ident && (c == 'r' || c == 'b') {
                    // Possible raw/byte literal prefix: r"..", r#".."#,
                    // b"..", br#".."#, b'x'. Raw *identifiers* (r#name)
                    // fall through to plain code.
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u8;
                    while chars.get(j) == Some(&'#') && hashes < 64 {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') && (c != 'r' || j > i + 1 || hashes == 0) {
                        code.extend(&chars[i..=j]);
                        mode = Mode::Str { raw_hashes: Some(hashes) };
                        i = j + 1;
                    } else if c == 'b' && chars.get(i + 1) == Some(&'\'') {
                        // Byte char literal: blank contents.
                        code.push_str("b'");
                        i += 2;
                        i = skip_char_literal(&chars, i, &mut code);
                    } else {
                        code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime.
                    let is_char = match next {
                        Some('\\') => true,
                        Some(n) => n != '\'' && chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        code.push('\'');
                        i += 1;
                        i = skip_char_literal(&chars, i, &mut code);
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            Mode::LineComment => {
                comment.push(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    mode = if depth == 1 { Mode::Code } else { Mode::BlockComment(depth - 1) };
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            Mode::Str { raw_hashes } => match raw_hashes {
                None => {
                    if c == '\\' {
                        code.push(' ');
                        if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                            code.push(' ');
                            i += 1;
                        }
                        i += 1;
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Code;
                        i += 1;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                Some(hashes) => {
                    if c == '"' {
                        let done = (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'));
                        if done {
                            code.push('"');
                            for _ in 0..hashes {
                                code.push('#');
                            }
                            mode = Mode::Code;
                            i += 1 + hashes as usize;
                        } else {
                            code.push(' ');
                            i += 1;
                        }
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
            },
        }
    }
    newline!();

    let mut lines: Vec<Line> = code_lines
        .into_iter()
        .zip(comment_lines)
        .map(|(code, comment)| Line { code, comment, in_test: false })
        .collect();
    mark_test_regions(&mut lines);
    let allows = collect_allows(&lines);
    SourceFile { rel_path: rel_path.to_string(), lines, allows }
}

/// Consumes a char/byte-char literal body starting just past the
/// opening quote; contents are blanked, the closing quote kept.
fn skip_char_literal(chars: &[char], mut i: usize, code: &mut String) -> usize {
    let mut budget = 16; // longest is '\u{10FFFF}'
    while i < chars.len() && budget > 0 {
        let c = chars[i];
        if c == '\\' {
            code.push(' ');
            if i + 1 < chars.len() {
                code.push(' ');
                i += 1;
            }
            i += 1;
        } else if c == '\'' {
            code.push('\'');
            return i + 1;
        } else if c == '\n' {
            return i; // malformed; let the newline handler run
        } else {
            code.push(' ');
            i += 1;
        }
        budget -= 1;
    }
    i
}

const TEST_MARKERS: [&str; 4] = ["#[test]", "#[cfg(test)]", "#[cfg(all(test", "#[cfg(any(test"];

/// Marks lines inside the brace-delimited item that follows a test
/// attribute. A `;` at the attribute's depth before any `{` cancels
/// the pending attribute (e.g. `#[cfg(test)] use foo;`).
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending: Option<i64> = None;
    let mut region: Option<i64> = None;
    for line in lines.iter_mut() {
        let code = line.code.clone();
        if region.is_some() {
            line.in_test = true;
        }
        for (pos, c) in code.char_indices() {
            if c == '#' && region.is_none() && pending.is_none() {
                let rest = &code[pos..];
                if TEST_MARKERS.iter().any(|m| rest.starts_with(m)) {
                    pending = Some(depth);
                    line.in_test = true;
                }
            }
            match c {
                '{' => {
                    if region.is_none() && pending == Some(depth) {
                        region = Some(depth);
                        pending = None;
                        line.in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region == Some(depth) {
                        region = None;
                        // The closing line itself is still test code.
                        line.in_test = true;
                    }
                }
                ';' if pending == Some(depth) => pending = None,
                _ => {}
            }
        }
    }
}

/// Parses `lint:allow(rule, ...): reason` out of comment text. The
/// annotation covers its own line; when that line has no code, it
/// also covers the next line that does.
fn collect_allows(lines: &[Line]) -> Vec<Vec<Allow>> {
    let mut allows: Vec<Vec<Allow>> = vec![Vec::new(); lines.len()];
    for (idx, line) in lines.iter().enumerate() {
        if line.comment.starts_with("///") {
            continue; // doc comment: prose, not an annotation
        }
        let Some(allow) = parse_allow(&line.comment, idx + 1) else { continue };
        allows[idx].push(allow.clone());
        if line.code.trim().is_empty() {
            if let Some(target) =
                lines.iter().enumerate().skip(idx + 1).find(|(_, l)| !l.code.trim().is_empty())
            {
                allows[target.0].push(allow);
            }
        }
    }
    allows
}

/// Parses the first `lint:allow(...)` in a comment. Returns `None`
/// when the comment has no annotation at all; malformed annotations
/// (no closing paren, empty rule list) come back with empty `rules`
/// so the annotation checker can flag them.
fn parse_allow(comment: &str, line: usize) -> Option<Allow> {
    let start = comment.find("lint:allow(")?;
    let rest = &comment[start + "lint:allow(".len()..];
    let Some(close) = rest.find(')') else {
        return Some(Allow { rules: Vec::new(), has_reason: false, line });
    };
    let rules: Vec<String> =
        rest[..close].split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
    let tail = rest[close + 1..].trim_start();
    let has_reason = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
    Some(Allow { rules, has_reason, line })
}
