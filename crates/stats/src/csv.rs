//! Minimal CSV export (RFC-4180 quoting) for tables.

/// Quote a CSV field if it contains a comma, quote, or line break.
///
/// RFC 4180 §2.6 requires quoting for CR as well as LF — a bare `\r`
/// terminates the record for strict parsers, so an unquoted field
/// containing one silently splits the row.
pub fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Parse one RFC-4180 CSV record back into its fields — the inverse of
/// [`csv_line`] (pass the record *without* its trailing newline; quoted
/// fields may themselves contain `\r`, `\n`, commas, and `""` escapes).
pub fn parse_line(record: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = record.chars().peekable();
    loop {
        match chars.peek() {
            Some('"') => {
                // Quoted field: runs to the closing quote; `""` escapes one.
                chars.next();
                loop {
                    match chars.next() {
                        Some('"') => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                cur.push('"');
                            } else {
                                break;
                            }
                        }
                        Some(c) => cur.push(c),
                        None => return Err("unterminated quoted CSV field".to_string()),
                    }
                }
                match chars.next() {
                    Some(',') => fields.push(std::mem::take(&mut cur)),
                    None => {
                        fields.push(cur);
                        return Ok(fields);
                    }
                    Some(c) => return Err(format!("unexpected `{c}` after closing quote")),
                }
            }
            _ => {
                // Bare field: runs to the next comma or end of record.
                loop {
                    match chars.next() {
                        Some(',') => {
                            fields.push(std::mem::take(&mut cur));
                            break;
                        }
                        Some('"') => return Err("bare CSV field contains a quote".to_string()),
                        Some(c) => cur.push(c),
                        None => {
                            fields.push(cur);
                            return Ok(fields);
                        }
                    }
                }
            }
        }
    }
}

/// Render one CSV line (with trailing newline).
pub fn csv_line<S: AsRef<str>>(fields: &[S]) -> String {
    let mut out = fields
        .iter()
        .map(|f| csv_field(f.as_ref()))
        .collect::<Vec<_>>()
        .join(",");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_pass_through() {
        assert_eq!(csv_field("abc"), "abc");
        assert_eq!(csv_field("1.5"), "1.5");
    }

    #[test]
    fn special_fields_are_quoted() {
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn carriage_returns_are_quoted() {
        // A bare CR is a record terminator to strict RFC-4180 parsers, so
        // it must force quoting exactly like LF does.
        assert_eq!(csv_field("a\rb"), "\"a\rb\"");
        assert_eq!(csv_field("crlf\r\nend"), "\"crlf\r\nend\"");
        assert_eq!(csv_line(&["x", "a\rb"]), "x,\"a\rb\"\n");
    }

    #[test]
    fn parse_line_inverts_csv_line() {
        for fields in [
            vec!["a".to_string(), "b,c".to_string(), "say \"hi\"".to_string()],
            vec!["".to_string(), "".to_string()],
            vec!["cr\rlf\n\"q\"".to_string(), "plain".to_string()],
        ] {
            let line = csv_line(&fields);
            let parsed = parse_line(line.strip_suffix('\n').unwrap()).unwrap();
            assert_eq!(parsed, fields);
        }
    }

    #[test]
    fn parse_line_rejects_malformed_records() {
        assert!(parse_line("\"unterminated").is_err());
        assert!(parse_line("\"a\"b").is_err());
        assert!(parse_line("ba\"re").is_err());
    }

    #[test]
    fn line_joins_with_commas() {
        assert_eq!(csv_line(&["a", "b,c", "d"]), "a,\"b,c\",d\n");
    }
}
