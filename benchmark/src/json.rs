//! A hand-written JSON value, emitter and parser (the build is offline, so
//! no `serde`). The emitter writes the result line and the span files; the
//! parser exists so the self-tests can read them — and `BENCHMARK.json` —
//! back.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (empty for any other value).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes on one line. Numbers print with every digit Rust's
    /// shortest round-trip formatting keeps; non-finite numbers become
    /// `null` (JSON has no spelling for them).
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to String"),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => emit_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.emit_into(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    emit_str(k, out);
                    out.push_str(": ");
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn emit_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document; `Err` carries the byte offset of the problem.
pub fn parse(text: &str) -> Result<Value, usize> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i == p.s.len() {
        Ok(v)
    } else {
        Err(p.i)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), usize> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.i)
        }
    }

    fn value(&mut self) -> Result<Value, usize> {
        self.ws();
        match *self.s.get(self.i).ok_or(self.i)? {
            b'n' => self.eat("null").map(|()| Value::Null),
            b't' => self.eat("true").map(|()| Value::Bool(true)),
            b'f' => self.eat("false").map(|()| Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.seq(b']', |p| p.value()).map(Value::Arr),
            b'{' => self
                .seq(b'}', |p| {
                    p.ws();
                    let k = p.string()?;
                    p.ws();
                    p.eat(":")?;
                    Ok((k, p.value()?))
                })
                .map(Value::Obj),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .ok_or(start)
            }
        }
    }

    /// A bracketed, comma-separated sequence; the opening bracket is under
    /// the cursor.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, usize>,
    ) -> Result<Vec<T>, usize> {
        self.i += 1;
        let mut out = Vec::new();
        loop {
            self.ws();
            if self.s.get(self.i) == Some(&close) {
                self.i += 1;
                return Ok(out);
            }
            if !out.is_empty() {
                self.eat(",")?;
            }
            out.push(item(self)?);
        }
    }

    fn string(&mut self) -> Result<String, usize> {
        self.eat("\"")?;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or(self.i)?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.i),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or(self.i)?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or(self.i)?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(self.i)?;
                            self.i += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_round_trips_through_parser() {
        let v = Value::Obj(vec![
            ("correct".into(), Value::Bool(true)),
            ("attempted".into(), Value::Num(100000.0)),
            (
                "note".into(),
                Value::Str("a \"quoted\"\tline\n\\ \u{1}".into()),
            ),
            (
                "metrics".into(),
                Value::Obj(vec![(
                    "setup_s".into(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(0.812_734_561_9)),
                        ("unit".into(), Value::Str("s".into())),
                    ]),
                )]),
            ),
            (
                "list".into(),
                Value::Arr(vec![Value::Null, Value::Num(-1.5e-9), Value::Arr(vec![])]),
            ),
        ]);
        let text = v.emit();
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text), Ok(v));
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(Value::Num(f64::NAN).emit(), "null");
        assert_eq!(Value::Num(f64::INFINITY).emit(), "null");
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,]x", "{\"a\" 1}", "tru", "\"open", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(
            parse(" [1, 2 ] "),
            Ok(Value::Arr(vec![Value::Num(1.0), Value::Num(2.0)]))
        );
    }
}
