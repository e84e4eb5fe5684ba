//! Offline stand-in for `serde_json`: renders the serde shim's value tree as
//! JSON and parses JSON back. Covers `to_string`, `to_string_pretty` and
//! `from_str` — the API surface this workspace uses.

use serde::value::Value;

/// JSON (de)serialisation error.
pub type Error = serde::value::Error;

/// Serialises a value as compact JSON.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialises a value as human-readable, indented JSON.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Deepest array/object nesting [`from_str`] accepts (the real
/// `serde_json` default). The parser recurses once per level, so without a
/// bound a line of `[`s would overflow the stack and abort the process.
const MAX_DEPTH: usize = 128;

/// Parses JSON text into any deserialisable type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new("trailing characters after JSON value"));
    }
    T::from_value(&value)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                // Rust's shortest round-trip formatting; keep a fraction so
                // the token parses back as a float.
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_json_string(out, s),
        Value::Array(items) => write_sequence(
            out,
            indent,
            level,
            '[',
            ']',
            items.iter(),
            |out, item, lvl| write_value(out, item, indent, lvl),
        ),
        Value::Object(entries) => write_sequence(
            out,
            indent,
            level,
            '{',
            '}',
            entries.iter(),
            |out, (key, value), lvl| {
                write_json_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, value, indent, lvl);
            },
        ),
    }
}

fn write_sequence<I: ExactSizeIterator>(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    items: I,
    mut write_item: impl FnMut(&mut String, I::Item, usize),
) {
    out.push(open);
    let len = items.len();
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (level + 1)));
        }
        write_item(out, item, level + 1);
        if i + 1 < len {
            out.push(',');
        }
    }
    if len > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * level));
        }
    }
    out.push(close);
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(_) => self.parse_number(),
            None => Err(Error::new("unexpected end of JSON input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "JSON nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid JSON near byte {}", self.pos)))
        }
    }

    /// Reads the four hex digits of a `\u` escape. Entered with the cursor on
    /// the `u`; leaves it on the final hex digit.
    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let code = u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| Error::new("invalid \\u escape"))?,
            16,
        )
        .map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'u') => {
                            let mut code = self.parse_hex4()?;
                            // Non-BMP characters arrive as UTF-16 surrogate
                            // pairs (`𝒜`); combine them.
                            if (0xD800..=0xDBFF).contains(&code) {
                                if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 2) != Some(&b'u')
                                {
                                    return Err(Error::new("unpaired surrogate in \\u escape"));
                                }
                                self.pos += 2;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(Error::new("invalid low surrogate in \\u escape"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(Error::new("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| Error::new("invalid UTF-8 in JSON string"))?,
                    );
                }
                None => return Err(Error::new("unterminated JSON string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid JSON number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::new("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn surrogate_pair_escapes_parse() {
        let s: String = crate::from_str("\"\\ud835\\udc9c ok\"").unwrap();
        assert_eq!(s, "\u{1d49c} ok");
        // Unpaired or malformed surrogates are rejected, not mis-decoded.
        assert!(crate::from_str::<String>("\"\\ud835\"").is_err());
        assert!(crate::from_str::<String>("\"\\ud835\\u0041\"").is_err());
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(crate::from_str::<serde::value::Value>(&nested(crate::MAX_DEPTH)).is_ok());
        let err = crate::from_str::<serde::value::Value>(&nested(crate::MAX_DEPTH + 1))
            .expect_err("one level too deep");
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // Objects count too, and a line of 200,000 `[` is an error, not a
        // stack overflow.
        let objects = format!("{}1{}", r#"{"a":"#.repeat(200), "}".repeat(200));
        assert!(crate::from_str::<serde::value::Value>(&objects).is_err());
        assert!(crate::from_str::<serde::value::Value>(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn round_trip_through_json_text() {
        let v = vec![1.5f64, -2.0, 3.25];
        let text = crate::to_string(&v).unwrap();
        let back: Vec<f64> = crate::from_str(&text).unwrap();
        assert_eq!(v, back);
    }
}
