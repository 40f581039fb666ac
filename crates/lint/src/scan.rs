//! A small comment/string/char-literal-aware scanner for Rust sources.
//!
//! Rules must never fire on text inside documentation, comments or string
//! literals (`/// uses a HashMap internally` is not a violation), so the
//! scanner splits every file into three synchronized views:
//!
//! - **code**: the source with comments removed and literal *contents*
//!   blanked (each string literal becomes a `"\u{1}"` placeholder, each
//!   char literal `''`), one entry per line;
//! - **comments**: the comment text per line (where the
//!   `cyclosa-lint: schema-registry` marker lives);
//! - **strings**: every string-literal value in order of appearance, with
//!   its starting line and its placeholder position in the flattened code
//!   (so rules can inspect the code *context* a literal appears in).
//!
//! Two region post-passes mark lines inside `#[cfg(test)]` items (rules
//! skip them — tests may legitimately use hash state or wall clocks) and
//! lines inside `cyclosa-lint: schema-registry` const blocks (string
//! literals there declare a schema rather than emit events).

/// One string literal in a scanned file.
#[derive(Debug, Clone)]
pub(crate) struct StringLit {
    /// 0-based line the literal starts on.
    pub(crate) line: usize,
    /// The literal's value (escapes left as written — rules only match
    /// plain identifiers and event names, which never contain escapes).
    pub(crate) value: String,
    /// Byte offset of the literal's placeholder in [`ScannedFile::flat_code`].
    pub(crate) flat_pos: usize,
}

/// A tokenized source file. See the module docs for the view semantics.
#[derive(Debug)]
pub struct ScannedFile {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Comment-stripped, literal-blanked code, one entry per source line.
    pub(crate) code_lines: Vec<String>,
    /// Comment text per source line (line and block comments).
    pub(crate) comments: Vec<String>,
    /// String literals in order of appearance.
    pub(crate) strings: Vec<StringLit>,
    /// The code lines joined with `\n` (placeholders included).
    pub(crate) flat_code: String,
    /// Whether each line sits inside a `#[cfg(test)]` item.
    pub(crate) in_test: Vec<bool>,
    /// Whether each line sits inside a `schema-registry` marked block.
    pub(crate) in_registry: Vec<bool>,
}

impl ScannedFile {
    /// The crate a `crates/<name>/...` path belongs to (`None` for the
    /// root package's own sources).
    pub(crate) fn crate_name(&self) -> Option<&str> {
        self.path.strip_prefix("crates/")?.split('/').next()
    }

    /// 1-based line numbers for reporting.
    pub(crate) fn display_line(line: usize) -> usize {
        line + 1
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The directive text of a comment that *leads* with `cyclosa-lint:`
/// (after the comment markers), or `None`. Anchoring to the comment start
/// keeps prose and doc examples that merely *mention* the marker — like
/// this crate's own documentation — from parsing as directives.
pub(crate) fn directive(comment: &str) -> Option<&str> {
    let text = comment.trim_start();
    let text = match text.strip_prefix("//") {
        Some(rest) => rest
            .strip_prefix('/')
            .or_else(|| rest.strip_prefix('!'))
            .unwrap_or(rest),
        None => text,
    };
    text.trim_start()
        .strip_prefix("cyclosa-lint:")
        .map(str::trim_start)
}

/// Tokenizes `source`, attributing it to `path` (repo-relative).
pub fn scan_source(path: &str, source: &str) -> ScannedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut code: Vec<String> = vec![String::new()];
    let mut comments: Vec<String> = vec![String::new()];
    let mut strings: Vec<(usize, String)> = Vec::new();
    let mut last_code_char: Option<char> = None;
    let mut i = 0;

    macro_rules! newline {
        () => {{
            code.push(String::new());
            comments.push(String::new());
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let line = code.len() - 1;
        if c == '\n' {
            newline!();
            i += 1;
            continue;
        }
        // Line comment (covers `///` and `//!` doc comments).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let mut text = String::new();
            while i < chars.len() && chars[i] != '\n' {
                text.push(chars[i]);
                i += 1;
            }
            comments[line].push_str(&text);
            continue;
        }
        // Block comment; Rust block comments nest.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            i += 2;
            while i < chars.len() && depth > 0 {
                let line = code.len() - 1;
                if chars[i] == '\n' {
                    newline!();
                    i += 1;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    comments[line].push(chars[i]);
                    i += 1;
                }
            }
            continue;
        }
        // String literal, possibly with a b/c/r prefix combination.
        if c == '"' || matches!(c, 'r' | 'b' | 'c') {
            if let Some((end, value, raw_end)) = try_string(&chars, i, last_code_char) {
                let start_line = code.len() - 1;
                code[start_line].push('"');
                code[start_line].push('\u{1}');
                // Keep line accounting for multi-line literals.
                for &ch in &chars[i..end] {
                    if ch == '\n' {
                        newline!();
                    }
                }
                let close_line = code.len() - 1;
                code[close_line].push('"');
                strings.push((start_line, value));
                last_code_char = Some('"');
                i = raw_end.max(end);
                continue;
            }
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if let Some(end) = try_char_literal(&chars, i) {
                code[line].push('\'');
                code[line].push('\'');
                last_code_char = Some('\'');
                i = end;
                continue;
            }
        }
        code[line].push(c);
        if !c.is_whitespace() {
            last_code_char = Some(c);
        }
        i += 1;
    }

    let flat_code = code.join("\n");
    // One placeholder per literal, in order.
    let strings = flat_code
        .match_indices('\u{1}')
        .zip(strings)
        .map(|((flat_pos, _), (line, value))| StringLit {
            line,
            value,
            flat_pos,
        })
        .collect();

    let mut file = ScannedFile {
        path: path.to_owned(),
        in_test: mark_cfg_test(&code),
        in_registry: Vec::new(),
        code_lines: code,
        comments,
        strings,
        flat_code,
    };
    file.in_registry = mark_registry(&file.code_lines, &file.comments);
    file
}

/// Attempts to read a string literal starting at `i`. Returns
/// `(end_index_exclusive, value, end_index)` on success.
fn try_string(
    chars: &[char],
    i: usize,
    last_code_char: Option<char>,
) -> Option<(usize, String, usize)> {
    let mut j = i;
    let mut hashes = 0usize;
    let mut raw = false;
    // Optional prefix letters (b, c, r in the combinations Rust accepts).
    // A preceding identifier character means `r`/`b`/`c` is the tail of a
    // longer identifier, not a literal prefix.
    if chars[i] != '"' {
        if last_code_char.is_some_and(is_ident_char) {
            return None;
        }
        let mut letters = 0;
        while j < chars.len() && matches!(chars[j], 'b' | 'c' | 'r') && letters < 2 {
            if chars[j] == 'r' {
                raw = true;
            }
            letters += 1;
            j += 1;
        }
        if raw {
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
        }
        if chars.get(j) != Some(&'"') {
            return None;
        }
    }
    j += 1; // past the opening quote
    let mut value = String::new();
    while j < chars.len() {
        let c = chars[j];
        if !raw && c == '\\' {
            value.push(c);
            if let Some(&next) = chars.get(j + 1) {
                value.push(next);
            }
            j += 2;
            continue;
        }
        if c == '"' {
            if raw {
                // Need `hashes` following '#' characters to close.
                let following = chars[j + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&h| h == '#')
                    .count();
                if following == hashes {
                    return Some((j + 1, value, j + 1 + hashes));
                }
            } else {
                return Some((j + 1, value, j + 1));
            }
        }
        value.push(c);
        j += 1;
    }
    // Unterminated literal: treat the rest of the file as the literal so
    // the scanner cannot loop; real rustc would reject the file anyway.
    Some((chars.len(), value, chars.len()))
}

/// Attempts to read a char literal starting at the `'` at `i`; returns the
/// index past the closing quote, or `None` for lifetimes/labels.
fn try_char_literal(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char: skip the escape head, then scan to the close.
            let mut j = i + 3;
            while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                j += 1;
            }
            (chars.get(j) == Some(&'\'')).then_some(j + 1)
        }
        Some(&c) if c != '\'' && chars.get(i + 2) == Some(&'\'') => Some(i + 3),
        _ => None,
    }
}

/// Marks lines belonging to `#[cfg(test)]` items (attribute plus the
/// following braced block, or up to `;` for brace-less items).
fn mark_cfg_test(code: &[String]) -> Vec<bool> {
    let mut marked = vec![false; code.len()];
    let flat: Vec<(usize, char)> = code
        .iter()
        .enumerate()
        .flat_map(|(line, text)| {
            text.chars()
                .map(move |c| (line, c))
                .chain(std::iter::once((line, '\n')))
        })
        .collect();
    let needle: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut i = 0;
    while i + needle.len() <= flat.len() {
        if flat[i..i + needle.len()]
            .iter()
            .map(|(_, c)| *c)
            .ne(needle.iter().copied())
        {
            i += 1;
            continue;
        }
        let start_line = flat[i].0;
        let mut j = i + needle.len();
        // Scan to the item's end: the matching close brace of its first
        // block, or a `;` that arrives before any block opens.
        let mut depth = 0usize;
        let mut end_line = start_line;
        while j < flat.len() {
            let (line, c) = flat[j];
            end_line = line;
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                ';' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        for flag in marked.iter_mut().take(end_line + 1).skip(start_line) {
            *flag = true;
        }
        i = j + 1;
    }
    marked
}

/// Marks lines of const blocks annotated `// cyclosa-lint: schema-registry`
/// (from the marker line to the closing `];`, inclusive).
fn mark_registry(code: &[String], comments: &[String]) -> Vec<bool> {
    let mut marked = vec![false; code.len()];
    let mut line = 0;
    while line < code.len() {
        if directive(&comments[line]).is_some_and(|d| d.starts_with("schema-registry")) {
            let mut end = line;
            while end < code.len() && !code[end].contains("];") {
                end += 1;
            }
            for flag in marked
                .iter_mut()
                .take(end.min(code.len() - 1) + 1)
                .skip(line)
            {
                *flag = true;
            }
            line = end + 1;
        } else {
            line += 1;
        }
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_separated_from_code() {
        let file = scan_source(
            "x.rs",
            "let a = \"HashMap inside\"; // HashMap in comment\n/// HashMap in doc\nlet b = 1;\n",
        );
        assert!(!file.code_lines[0].contains("HashMap"));
        assert!(file.comments[0].contains("HashMap in comment"));
        assert!(file.comments[1].contains("HashMap in doc"));
        assert_eq!(file.strings.len(), 1);
        assert_eq!(file.strings[0].value, "HashMap inside");
        assert_eq!(file.strings[0].line, 0);
    }

    #[test]
    fn raw_and_escaped_strings_scan() {
        let file = scan_source(
            "x.rs",
            "let a = r#\"raw \"quoted\" text\"#;\nlet b = \"esc \\\" quote\";\nlet c = b\"bytes\";\n",
        );
        assert_eq!(file.strings.len(), 3);
        assert_eq!(file.strings[0].value, "raw \"quoted\" text");
        assert!(file.strings[1].value.contains("\\\""));
        assert_eq!(file.strings[2].value, "bytes");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let file = scan_source(
            "x.rs",
            "fn f<'a>(x: &'a str) -> char { if x.is_empty() { '\"' } else { '\\n' } }\n",
        );
        // The quote char-literal must not open a string.
        assert!(file.strings.is_empty());
        assert!(file.code_lines[0].contains("'a"));
    }

    #[test]
    fn multi_line_strings_keep_line_numbers() {
        let file = scan_source("x.rs", "let a = \"line one\nline two\";\nlet b = 2;\n");
        assert_eq!(file.strings[0].line, 0);
        assert_eq!(file.code_lines.len(), 4);
        assert!(file.code_lines[2].contains("let b"));
    }

    #[test]
    fn cfg_test_blocks_are_marked() {
        let src = "struct A;\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nstruct B;\n";
        let file = scan_source("x.rs", src);
        assert_eq!(
            file.in_test,
            vec![false, true, true, true, true, false, false]
        );
    }

    #[test]
    fn registry_blocks_are_marked() {
        let src = "// cyclosa-lint: schema-registry\nconst N: [&str; 2] = [\n    \"a.b\",\n];\nconst M: u64 = 1;\n";
        let file = scan_source("x.rs", src);
        assert!(file.in_registry[0] && file.in_registry[3]);
        assert!(!file.in_registry[4]);
    }
}
