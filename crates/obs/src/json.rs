//! A minimal JSON tree: recursive-descent parser, pretty-printer, and the
//! string-escaping helper the streaming exporters share.
//!
//! The vendored `serde` is a marker-trait stub (see `vendor/README.md`).
//! The metrics and Chrome-trace exporters stream their byte-pinned
//! formats by hand on top of [`write_json_escaped`]; everything else (the
//! `scalefbp-bench` artefacts) builds a [`JsonValue`] and prints it with
//! [`JsonValue::to_pretty`]. [`parse_json`] is the matching read side —
//! `trace-validate`, the golden tests and the CI smoke steps go through it.

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_json_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON value. Objects keep insertion order (duplicate keys keep
/// the last occurrence on lookup, like every mainstream parser).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => {
                fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, JsonValue::Array(_) | JsonValue::Object(_))
    }

    /// Renders the tree as a document ending in a newline: 2-space indent,
    /// and an array or object whose members are all scalars (or that is
    /// empty) stays on one line. Integral numbers below 1e16 print without
    /// a fraction, every other finite number in Rust's shortest
    /// round-trip form, so `parse_json(&v.to_pretty()) == Ok(v)` for any
    /// finite tree. JSON has no non-finite numbers: NaN and ±∞ are
    /// written as `null`.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) if !n.is_finite() => out.push_str("null"),
            JsonValue::Number(n) if n.fract() == 0.0 && n.abs() < 1e16 => {
                out.push_str(&format!("{n}"))
            }
            JsonValue::Number(n) => out.push_str(&format!("{n:?}")),
            JsonValue::String(s) => write_json_escaped(out, s),
            JsonValue::Array(items) => {
                write_members(out, indent, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            JsonValue::Object(fields) => write_members(
                out,
                indent,
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes one array (keyless members) or object between `brackets`.
fn write_members<'a>(
    out: &mut String,
    indent: usize,
    brackets: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a JsonValue)> + Clone,
) {
    let one_line = members.clone().all(|(_, v)| v.is_scalar());
    let pad = |out: &mut String, width: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width));
    };
    out.push(brackets[0]);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if !one_line {
            pad(out, indent + 2);
        } else if i > 0 {
            out.push(' ');
        }
        if let Some(key) = key {
            write_json_escaped(out, key);
            out.push_str(": ");
        }
        value.write_pretty(out, indent + 2);
    }
    if !one_line {
        pad(out, indent);
    }
    out.push(brackets[1]);
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Number(n)
    }
}

/// An `f32` enters through its shortest decimal form, so `0.1f32` prints
/// as `0.1` and not as the f64 expansion of its bits.
impl From<f32> for JsonValue {
    fn from(n: f32) -> Self {
        JsonValue::Number(n.to_string().parse().expect("f32 Display parses as f64"))
    }
}

/// Numbers are `f64`, so integers are exact only up to 2^53; a counter
/// beyond that is refused rather than silently rounded.
impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        assert!(n <= 1 << 53, "{n} is not exactly representable in JSON");
        JsonValue::Number(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::from(n as u64)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

/// `None` is `null`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// How deeply arrays and objects may nest. Every export of this
/// workspace nests at most five levels; the limit keeps a hostile
/// document from recursing the parser off the end of its stack.
const MAX_DEPTH: usize = 256;

/// Parses a complete JSON document; trailing non-whitespace is an error,
/// and so is nesting deeper than 256 levels.
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {text}")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not paired — the writers here
                            // never emit them; map to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            out.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_document() {
        let v =
            parse_json(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": null}, "e": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-3.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("e"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let mut doc = String::from("{\"k\": ");
        write_json_escaped(&mut doc, nasty);
        doc.push('}');
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("not json").is_err());
        assert!(parse_json("").is_err());
        // Nesting is refused one level past the limit, at that byte.
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse_json(&nested(MAX_DEPTH + 1)).unwrap_err().offset,
            MAX_DEPTH
        );
        assert!(parse_json(&"{\"a\": ".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn u64_extraction_is_strict() {
        assert_eq!(parse_json("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse_json("7.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn pretty_layout_is_pinned() {
        let doc = JsonValue::object([
            ("benchmark", "demo".into()),
            ("seed", 104_435_263_119_393_u64.into()),
            ("empty", JsonValue::Array(vec![])),
            ("modes", vec!["dense", "segmented"].into()),
            (
                "points",
                JsonValue::Array(vec![JsonValue::object([
                    ("f", 2.0.into()),
                    ("secs", 0.000_001_25.into()),
                    ("missing", JsonValue::from(None::<u64>)),
                    ("nan", f64::NAN.into()),
                ])]),
            ),
        ]);
        assert_eq!(
            doc.to_pretty(),
            r#"{
  "benchmark": "demo",
  "seed": 104435263119393,
  "empty": [],
  "modes": ["dense", "segmented"],
  "points": [
    {"f": 2, "secs": 1.25e-6, "missing": null, "nan": null}
  ]
}
"#
        );
    }

    #[test]
    #[should_panic(expected = "not exactly representable")]
    fn counters_beyond_2_pow_53_are_refused() {
        let _ = JsonValue::from((1u64 << 53) + 1);
    }

    /// A random finite tree: nested arrays/objects, strings with every
    /// escape class, counters up to 2^53, negative and sub-normal floats.
    fn random_tree(rng: &mut proptest::TestRng, depth: u32) -> JsonValue {
        const STRINGS: [&str; 5] = ["", "plain", "q\"b\\s/", "\n\r\t\u{1}\u{1f}", "µ→😀"];
        let kinds = if depth == 0 { 8 } else { 10 };
        match rng.below(kinds) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.below(2) == 1),
            2 => JsonValue::from(rng.below((1 << 53) + 1)),
            3 => JsonValue::from(1u64 << 53),
            4 => JsonValue::Number(-(rng.below(1 << 53) as f64)),
            5 => {
                JsonValue::Number((rng.unit_f64() - 0.5) * 10f64.powi(rng.below(600) as i32 - 300))
            }
            6 => JsonValue::Number(
                f64::from_bits(rng.below(1 << 52)) * [1.0, -1.0][rng.below(2) as usize],
            ),
            7 => STRINGS[rng.below(5) as usize].into(),
            8 => JsonValue::Array(
                (0..rng.below(4))
                    .map(|_| random_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => JsonValue::Object(
                (0..rng.below(4))
                    .map(|i| {
                        let key = format!("{}{i}", STRINGS[rng.below(5) as usize]);
                        (key, random_tree(rng, depth - 1))
                    })
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pretty_round_trips_through_the_parser(seed in any::<u32>()) {
            let tree = random_tree(&mut proptest::TestRng::deterministic("json-tree", seed), 4);
            let text = tree.to_pretty();
            prop_assert_eq!(parse_json(&text), Ok(tree), "{}", text);
        }
    }

    #[test]
    fn error_carries_offset() {
        let err = parse_json("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
