//! A small comment/string/char-literal-aware scanner for Rust sources.
//!
//! A rule must never fire on text inside documentation, comments or
//! string literals (`/// calls foo()` in a doc is not a call), so the
//! scanner reduces every file to its **code**: the source with comments
//! removed and literal *contents* blanked (each string literal becomes
//! `""`, each char literal `''`), one entry per line. A post-pass marks
//! the lines inside `#[cfg(test)]` items, which rules skip.

/// A tokenized source file. See the module docs for the view semantics.
#[derive(Debug)]
pub struct ScannedFile {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Comment-stripped, literal-blanked code, one entry per source line.
    pub(crate) code_lines: Vec<String>,
    /// Whether each line sits inside a `#[cfg(test)]` item.
    pub(crate) in_test: Vec<bool>,
}

impl ScannedFile {
    /// 1-based line numbers for reporting.
    pub(crate) fn display_line(line: usize) -> usize {
        line + 1
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes `source`, attributing it to `path` (repo-relative).
pub fn scan_source(path: &str, source: &str) -> ScannedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut code: Vec<String> = vec![String::new()];
    let mut last_code_char: Option<char> = None;
    let mut i = 0;

    while i < chars.len() {
        let c = chars[i];
        let line = code.len() - 1;
        if c == '\n' {
            code.push(String::new());
            i += 1;
            continue;
        }
        // Line comment (covers `///` and `//!` doc comments).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment; Rust block comments nest.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '\n' {
                    code.push(String::new());
                    i += 1;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // String literal, possibly with a b/c/r prefix combination.
        if c == '"' || matches!(c, 'r' | 'b' | 'c') {
            if let Some(end) = try_string(&chars, i, last_code_char) {
                code[line].push('"');
                // Keep line accounting for multi-line literals.
                for &ch in &chars[i..end] {
                    if ch == '\n' {
                        code.push(String::new());
                    }
                }
                let close_line = code.len() - 1;
                code[close_line].push('"');
                last_code_char = Some('"');
                i = end;
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

    ScannedFile {
        path: path.to_owned(),
        in_test: mark_cfg_test(&code),
        code_lines: code,
    }
}

/// Attempts to read a string literal starting at `i`; returns the index
/// past its end (closing quote and, for a raw literal, its hashes).
fn try_string(chars: &[char], i: usize, last_code_char: Option<char>) -> Option<usize> {
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
    while j < chars.len() {
        let c = chars[j];
        if !raw && c == '\\' {
            j += 2;
            continue;
        }
        if c == '"' {
            // A raw literal needs `hashes` following '#' characters to close.
            let following = chars[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&h| h == '#')
                .count();
            if following == hashes {
                return Some(j + 1 + hashes);
            }
        }
        j += 1;
    }
    // Unterminated literal: treat the rest of the file as the literal so
    // the scanner cannot loop; real rustc would reject the file anyway.
    Some(chars.len())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_separated_from_code() {
        let file = scan_source(
            "x.rs",
            "let a = \"HashMap inside\"; // HashMap in comment\n/// HashMap in doc\nlet b = 1;\n",
        );
        assert_eq!(file.code_lines[0], "let a = \"\"; ");
        assert_eq!(file.code_lines[1], "");
        assert_eq!(file.code_lines[2], "let b = 1;");
    }

    #[test]
    fn raw_and_escaped_strings_scan() {
        let file = scan_source(
            "x.rs",
            "let a = r#\"raw \"quoted\" text\"#;\nlet b = \"esc \\\" quote\";\nlet c = b\"bytes\";\n",
        );
        assert_eq!(file.code_lines[0], "let a = \"\";");
        assert_eq!(file.code_lines[1], "let b = \"\";");
        assert_eq!(file.code_lines[2], "let c = \"\";");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let file = scan_source(
            "x.rs",
            "fn f<'a>(x: &'a str) -> char { if x.is_empty() { '\"' } else { '\\n' } }\n",
        );
        // The quote char-literal must not open a string.
        assert_eq!(
            file.code_lines[0],
            "fn f<'a>(x: &'a str) -> char { if x.is_empty() { '' } else { '' } }"
        );
    }

    #[test]
    fn block_comments_nest_and_keep_line_numbers() {
        let file = scan_source("x.rs", "a /* x /* y */\n z */ b\nc\n");
        assert_eq!(file.code_lines[0], "a ");
        assert_eq!(file.code_lines[1], " b");
        assert_eq!(file.code_lines[2], "c");
    }

    #[test]
    fn multi_line_strings_keep_line_numbers() {
        let file = scan_source("x.rs", "let a = \"line one\nline two\";\nlet b = 2;\n");
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
}
