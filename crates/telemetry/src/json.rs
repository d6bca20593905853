//! A minimal JSON value type with a writer and a recursive-descent parser.
//!
//! Kept deliberately tiny (no third-party deps is a repo invariant): objects
//! preserve insertion order via `Vec<(String, Json)>`, numbers are `f64`,
//! and the writer emits no whitespace beyond what callers add — so output
//! is byte-deterministic. Shared by the telemetry export sinks and the
//! bench baseline-comparison tooling.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an untrusted line of 100k `[` would
/// otherwise overflow the stack; every document this workspace writes is
/// under 10 deep.
const MAX_NESTING: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Builds a number value from anything convertible to `f64` losslessly
    /// enough for metrics (`u64` counts above 2^53 lose precision; fine for
    /// observability).
    #[must_use]
    pub fn num(n: impl Into<f64>) -> Self {
        Json::Num(n.into())
    }

    /// Builds a number from a `u64` (via `f64`; counts above 2^53 round).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn u64(n: u64) -> Self {
        Json::Num(n as f64)
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an object's fields, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (rejects trailing garbage, and nesting
    /// deeper than 128 arrays/objects).
    ///
    /// # Errors
    ///
    /// Returns a byte offset + message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        write!(f, "{}", *n as i64)
                    } else {
                        write!(f, "{n}")
                    }
                } else {
                    // JSON has no NaN/Infinity; degrade to null.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

/// Parses one value nested inside `depth` open arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_NESTING {
        return Err(format!(
            "nesting deeper than {MAX_NESTING} at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "non-utf8 \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        // Surrogate pairs are not needed for metric names;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "invalid utf8 in string".to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("bad number at byte {start}"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("meda-telemetry/1")),
            (
                "items".into(),
                Json::Arr(vec![Json::u64(3), Json::Bool(true), Json::Null]),
            ),
            ("pi".into(), Json::Num(3.5)),
            ("name".into(), Json::str("a \"quoted\"\nline")),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(back, doc);
    }

    #[test]
    fn parses_whitespace_and_empty_containers() {
        let v = Json::parse(" { \"a\" : [ ] , \"b\" : { } } ").expect("parse");
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![])));
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_docs() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn nesting_beyond_the_limit_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = "{\"a\":".repeat(MAX_NESTING + 1);
        let err = Json::parse(&objects).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let doc = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        let mut v = Json::parse(&doc).expect("at the limit");
        for _ in 1..MAX_NESTING {
            v = v.as_arr().expect("nested array")[0].clone();
        }
        assert_eq!(v, Json::Arr(vec![]));
        let over = format!("[{doc}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::u64(42).to_string(), "42");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
