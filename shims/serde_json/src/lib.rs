//! Offline stand-in for the `serde_json` crate.
//!
//! Re-exports the [`serde`] shim's [`Value`]/[`Map`] model and provides the
//! encoding entry points the repo uses: [`to_value`] and [`to_string`]. Both
//! are infallible in practice but keep the `Result` signatures so call sites
//! (`.expect(..)` / `?`) compile unchanged.

pub use serde::{Map, Value};
use std::fmt;

/// Serialization/deserialization error. Encoding never produces one;
/// [`from_str`] reports the byte offset where parsing failed.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json shim error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Lower any serializable value to the JSON [`Value`] model.
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value> {
    Ok(value.to_value())
}

/// Encode any serializable value as compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.to_value().encode(&mut out);
    Ok(out)
}

/// Encode with trailing newline-free pretty printing (2-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    pretty(&value.to_value(), 0, &mut out);
    Ok(out)
}

/// Parse JSON text into the [`Value`] model.
///
/// Number mapping mirrors `serde_json`'s arithmetic preference: an integer
/// without sign/fraction/exponent becomes [`Value::U64`] (or [`Value::U128`]
/// past `u64`), a negative integer becomes [`Value::I64`], and anything with
/// a fraction or exponent becomes [`Value::F64`].
///
/// Arrays and objects nest at most 128 deep, as in `serde_json`; deeper
/// input is an error, not a stack overflow.
pub fn from_str(text: &str) -> Result<Value> {
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

/// How deep [`from_str`] lets arrays and objects nest.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object a level deeper, refusing past
    /// `MAX_DEPTH`.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\u` + low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                cp
                            };
                            out.push(
                                char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let mut v = 0;
        for &b in &self.bytes[self.pos..end] {
            // `from_str_radix` would also take a leading sign.
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digits"))?;
            v = v * 16 + d;
        }
        self.pos = end;
        Ok(v)
    }

    /// Skip a run of ASCII digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, as RFC 8259
    /// writes it: no leading zeros, and no bare `.` or exponent.
    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let lead = self.peek();
        match self.digits() {
            0 => return Err(self.err("expected digits")),
            n if n > 1 && lead == Some(b'0') => return Err(self.err("leading zero")),
            _ => {}
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8"))?;
        if integral {
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Value::I64(n));
                }
            } else {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::U64(n));
                }
                if let Ok(n) = text.parse::<u128>() {
                    return Ok(Value::U128(n));
                }
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::F64(f)),
            _ => Err(self.err("number out of range")),
        }
    }
}

fn pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                Value::String(k.clone()).encode(out);
                out.push_str(": ");
                pretty(val, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
        other => other.encode(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_round_trip_shape() {
        let mut m = Map::new();
        m.insert("b".into(), Value::U64(2));
        m.insert("a".into(), Value::String("x\"y".into()));
        let s = to_string(&Value::Object(m)).unwrap();
        assert_eq!(s, r#"{"b":2,"a":"x\"y"}"#);
    }

    #[test]
    fn parse_round_trips_encoded_values() {
        let mut m = Map::new();
        m.insert("n".into(), Value::U64(42));
        m.insert("neg".into(), Value::I64(-7));
        m.insert("f".into(), Value::F64(1.25));
        m.insert("s".into(), Value::String("a\"b\nc".into()));
        m.insert(
            "arr".into(),
            Value::Array(vec![Value::Bool(true), Value::Null]),
        );
        let original = Value::Object(m);
        let text = to_string(&original).unwrap();
        let parsed = from_str(&text).unwrap();
        assert_eq!(parsed, original);
        // And the pretty form parses to the same value.
        let parsed2 = from_str(&to_string_pretty(&original).unwrap()).unwrap();
        assert_eq!(parsed2, original);
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(from_str("7").unwrap(), Value::U64(7));
        assert_eq!(from_str("-7").unwrap(), Value::I64(-7));
        assert_eq!(from_str("7.5").unwrap(), Value::F64(7.5));
        assert_eq!(from_str("1e3").unwrap(), Value::F64(1000.0));
        assert_eq!(
            from_str("18446744073709551616").unwrap(),
            Value::U128(18446744073709551616)
        );
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(
            from_str(r#""A😀""#).unwrap(),
            Value::String("A\u{1F600}".into())
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str("").is_err());
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("1 2").is_err());
        assert!(from_str("nul").is_err());
    }

    #[test]
    fn nesting_stops_at_the_depth_limit() {
        fn arrays(n: usize) -> String {
            "[".repeat(n) + &"]".repeat(n)
        }
        fn objects(n: usize) -> String {
            "{\"k\":".repeat(n) + "0" + &"}".repeat(n)
        }
        for nest in [arrays, objects] {
            assert!(from_str(&nest(MAX_DEPTH)).is_ok(), "{MAX_DEPTH} levels");
            let err = from_str(&nest(MAX_DEPTH + 1)).expect_err("one level more");
            assert!(err.to_string().contains("recursion limit"), "{err}");
        }
        // Far past the limit: an error, not a stack overflow.
        assert!(from_str(&"[".repeat(1_000_000)).is_err());
    }

    /// splitmix64: the shim has no dependencies, so the generator lives
    /// here.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_string(rng: &mut Rng) -> String {
        const POOL: &[char] = &[
            'a',
            'Z',
            '0',
            ' ',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1f}',
            '\u{7f}',
            'é',
            '\u{2028}',
            '\u{fffd}',
            '😀',
            '\u{10ffff}',
        ];
        (0..rng.below(8))
            .map(|_| POOL[rng.below(POOL.len() as u64) as usize])
            .collect()
    }

    /// A random value in the form the encoder maps back one-to-one: `I64`
    /// only below zero, `U128` only past `u64`, `F64` finite and not
    /// integral (the encoder writes `2.0` as `2`), and unique object keys.
    fn random_value(rng: &mut Rng, depth: u32) -> Value {
        let leaf = depth == 0 || rng.below(3) > 0;
        match rng.below(if leaf { 7 } else { 9 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::U64(rng.next() >> rng.below(64)),
            3 => Value::U128(u64::MAX as u128 + 1 + (rng.next() as u128) * (rng.next() as u128)),
            4 => Value::I64(-1 - (rng.next() >> (1 + rng.below(63))) as i64),
            5 => loop {
                let f = f64::from_bits(rng.next());
                if f.is_finite() && f.fract() != 0.0 {
                    break Value::F64(f);
                }
            },
            6 => Value::String(random_string(rng)),
            7 => Value::Array(
                (0..rng.below(5))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => {
                let mut m = Map::new();
                for i in 0..rng.below(5) {
                    let key = format!("{i}{}", random_string(rng));
                    m.insert(key, random_value(rng, depth - 1));
                }
                Value::Object(m)
            }
        }
    }

    #[test]
    fn random_values_round_trip_compact_and_pretty() {
        let mut rng = Rng(0x5EED_0001);
        for case in 0..2_000 {
            let v = random_value(&mut rng, 4);
            for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
                let back = from_str(&text).unwrap_or_else(|e| panic!("case {case}: {e}: {text}"));
                assert_eq!(back, v, "case {case}: {text}");
            }
        }
    }

    #[test]
    fn malformed_input_is_an_error_never_a_panic() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let corpus: &[&str] = &[
            // Numbers outside the RFC 8259 grammar.
            "01",
            "00",
            "-01",
            "-00",
            "1.",
            "-.5",
            ".5",
            "1.e5",
            "1e",
            "1e+",
            "1E-",
            "-",
            "+1",
            "0x10",
            "1.5.2",
            "NaN",
            "Infinity",
            "-Infinity",
            "1e400",
            "-1e400",
            "[01]",
            // Escapes: signed or short hex, unknown letters.
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u12""#,
            r#""\u12G4""#,
            r#""\x41""#,
            r#""\'""#,
            r#""\"#,
            r#""\u"#,
            // Lone or mismatched surrogates.
            r#""\ud800""#,
            r#""\udc00""#,
            r#""\ud800A""#,
            r#""\ud800x""#,
            r#""\udbff\udbff""#,
            // Raw control characters inside a string.
            "\"a\u{1}b\"",
            "\"a\nb\"",
            "\"a\tb\"",
            "\"\u{0}\"",
            // Structure.
            "",
            " ",
            "tru",
            "nulll",
            "[1 2]",
            "[,]",
            "[1,]",
            "{\"a\" 1}",
            "{1:2}",
            "{\"a\":1,}",
            "{\"a\"}",
            "\"abc",
            "]",
            "}",
            "1 2",
            &deep,
        ];
        for text in corpus {
            assert!(from_str(text).is_err(), "accepted {text:?}");
        }
        // Every proper prefix of a nested document is truncated input.
        let mut rng = Rng(0x5EED_0002);
        for _ in 0..200 {
            let v = Value::Array(vec![random_value(&mut rng, 3)]);
            for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
                for (cut, _) in text.char_indices().skip(1) {
                    let head = &text[..cut];
                    assert!(from_str(head).is_err(), "accepted truncation {head:?}");
                }
            }
        }
    }

    #[test]
    fn pretty_indents() {
        let mut m = Map::new();
        m.insert("k".into(), Value::Array(vec![Value::U64(1), Value::U64(2)]));
        let s = to_string_pretty(&Value::Object(m)).unwrap();
        assert_eq!(s, "{\n  \"k\": [\n    1,\n    2\n  ]\n}");
    }
}
