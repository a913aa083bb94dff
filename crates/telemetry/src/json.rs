//! The workspace's one JSON codec: a document model with a parser, a
//! compact serializer, and the string escaper.
//!
//! Documents are built as [`Json`] values and written with
//! [`Json::dump`]: JSONL span lines, `/eventz`, `/tracez`, `/buildz`,
//! ledgers, bench files and reports. The rest (JSONL metric and event
//! lines, the serving plane's `/predict`, `/statusz` and error bodies)
//! is formatted by hand and quotes its strings with [`quote`], the
//! escaper `dump` uses. Reading back
//! (ledgers for the regression sentry, trace files for validation,
//! scraped documents in `ppm top`/`ppm tail`) is a hand-rolled
//! recursive-descent parser. Zero dependencies, like everything else in
//! the workspace.
//!
//! Objects preserve insertion order (serialization is deterministic for
//! a deterministically built document), and numbers distinguish
//! integers from floats so counters survive a round trip exactly:
//! floats always render with a decimal point or exponent (`{:?}`), so
//! an integral float event field reads `1.0`, not `1`.

use std::fmt::{self, Write};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part or exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; entries keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure with byte offset and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after document"));
        }
        Ok(value)
    }

    /// Serializes the value as compact JSON.
    pub fn dump(&self) -> String {
        let mut s = String::with_capacity(128);
        self.dump_into(&mut s);
        s
    }

    /// Appends the compact serialization to `s`.
    fn dump_into(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(s, "{i}");
            }
            // `{:?}` keeps a decimal point or exponent, so the value
            // stays a float across a round trip. JSON has no NaN/Inf.
            Json::Float(f) if f.is_finite() => {
                let _ = write!(s, "{f:?}");
            }
            Json::Float(_) => s.push_str("null"),
            Json::Str(v) => quote_into(s, v),
            Json::Arr(items) => {
                s.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    v.dump_into(s);
                }
                s.push(']');
            }
            Json::Obj(entries) => obj_into(s, entries),
        }
    }

    /// An object from `(key, value)` entries, in order.
    pub fn obj<'a>(entries: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload (also accepts integral floats).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// The integer payload clamped at zero (counts, offsets, unix
    /// timestamps).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().map(|v| v.max(0) as u64)
    }

    /// The numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }
}

/// Conversions that wrap the value in one variant as it is.
macro_rules! wrap_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::$variant(v)
            }
        }
    )*};
}

wrap_from!(String => Str, i64 => Int, f64 => Float, bool => Bool);

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        // Counters beyond i64::MAX are unreachable in practice; keep
        // exactness where possible and fall back to float.
        i64::try_from(v)
            .map(Json::Int)
            .unwrap_or(Json::Float(v as f64))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::from(v as u64)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Appends `v` to `s` as a quoted JSON string (see [`quote`]).
pub(crate) fn quote_into(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Appends `entries` as a JSON object: what [`Json::Obj`] of them
/// dumps, for callers that hold the entries borrowed.
pub(crate) fn obj_into(s: &mut String, entries: &[(String, Json)]) {
    s.push('{');
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        quote_into(s, k);
        s.push(':');
        v.dump_into(s);
    }
    s.push('}');
}

/// `v` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// `\n`, `\r` and `\t` use their shorthands, and every other control
/// character is written as `\u00XX`.
pub fn quote(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    quote_into(&mut s, v);
    s
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "non-utf8 number"))?;
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| err(start, "invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogate pairs are not needed for our own
                        // files; map lone surrogates to the replacement
                        // character rather than failing.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape at
                // once: both are ASCII, so the run ends on a code-point
                // boundary and each input byte is validated only once.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| err(*pos, "invalid utf-8 in string"))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected string key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after key"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let text =
            r#"{"a":[1,2.5,-3],"b":{"c":"x\"y","d":null,"e":true},"f":[],"g":"C:\\p\"q\"\tr"}"#;
        let parsed = Json::parse(text).unwrap();
        assert_eq!(parsed.dump(), text);
    }

    #[test]
    fn integers_and_floats_stay_distinct() {
        let parsed = Json::parse("[7, 7.0, 1e3, -12]").unwrap();
        let items = parsed.as_arr().unwrap();
        assert_eq!(items[0], Json::Int(7));
        assert_eq!(items[1], Json::Float(7.0));
        assert_eq!(items[2], Json::Float(1000.0));
        assert_eq!(items[3], Json::Int(-12));
        assert_eq!(items[1].dump(), "7.0");
    }

    #[test]
    fn multi_megabyte_documents_parse_in_linear_time() {
        // Thousands of strings mixing multi-byte UTF-8 and escapes: a
        // parser that re-validates the rest of the input per character
        // takes minutes here.
        let items: Vec<Json> = (0..40_000)
            .map(|i| {
                Json::Str(format!(
                    "rec-{i} naïve café → 東京 \"q\"\t{}",
                    "x".repeat(i % 64)
                ))
            })
            .collect();
        let doc = Json::obj([("items", Json::Arr(items))]);
        let text = doc.dump();
        assert!(text.len() > 3_000_000, "{} bytes", text.len());
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn the_escaper_uses_shorthands_then_unicode_escapes() {
        assert_eq!(quote("stage.sampling"), "\"stage.sampling\"");
        assert_eq!(quote("C:\\path\"x\""), "\"C:\\\\path\\\"x\\\"\"");
        assert_eq!(quote("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
        // One rule for the rest of the C0 block, `\b` and `\f` included.
        assert_eq!(
            quote("\u{08}\u{0c}\u{01}\u{1f}"),
            "\"\\u0008\\u000c\\u0001\\u001f\""
        );
        assert_eq!(quote("αβ→é"), "\"αβ→é\"");
        // Every control character leaves as an escape and parses back.
        for c in (0u8..0x20).map(char::from) {
            let text = quote(&format!("a{c}b"));
            assert!(!text.chars().any(char::is_control), "{text:?}");
            assert_eq!(Json::parse(&text), Ok(Json::Str(format!("a{c}b"))));
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        let parsed = Json::parse(r#""\u00e9\u0041""#).unwrap();
        assert_eq!(parsed.as_str(), Some("éA"));
    }

    #[test]
    fn lookup_helpers_navigate_objects() {
        let doc = Json::parse(r#"{"outer":{"n":42,"s":"hi","f":2.5}}"#).unwrap();
        let outer = doc.get("outer").unwrap();
        assert_eq!(outer.get("n").unwrap().as_i64(), Some(42));
        assert_eq!(outer.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(outer.get("f").unwrap().as_f64(), Some(2.5));
        assert!(outer.get("missing").is_none());
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "{",
            "[1,",
            "\"unterminated",
            "{\"k\" 1}",
            "tru",
            "[1] garbage",
            "",
            "{'single': 1}",
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "{bad:?} should fail");
        }
    }

    #[test]
    fn metric_jsonl_lines_parse() {
        // The exact shape ppm-telemetry emits.
        let line = r#"{"t":"metric","kind":"counter","name":"sim.batch_points","value":90}"#;
        let parsed = Json::parse(line).unwrap();
        assert_eq!(parsed.get("t").unwrap().as_str(), Some("metric"));
        assert_eq!(parsed.get("value").unwrap().as_i64(), Some(90));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Float(f64::NAN).dump(), "null");
        assert_eq!(Json::Float(f64::INFINITY).dump(), "null");
        assert_eq!(Json::Float(f64::NEG_INFINITY).dump(), "null");
    }
}
