//! The one JSON layer of the report artifacts: a [`Json`] value tree,
//! the single pretty-printer every `BENCH_*.json` goes through
//! ([`write`]), and a minimal recursive-descent reader ([`parse`],
//! [`flatten`]) for `bench-diff`. The repo builds offline, so there is
//! no serde; report structs become trees through small `From` impls
//! in `format`.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (held as `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    #[must_use]
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Self {
        Self::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array of the trees of `items`.
    #[must_use]
    pub fn arr<T>(items: impl IntoIterator<Item = T>) -> Self
    where
        Json: From<T>,
    {
        Self::Arr(items.into_iter().map(Json::from).collect())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

/// Numbers are held as `f64`: exact for every integer below 2^53,
/// which covers any cycle count or counter a report records.
macro_rules! from_number {
    ($($t:ty),+) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Self::Num(v as f64)
            }
        }
    )+};
}
from_number!(f64, u64, u32, i32, usize);

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}

/// Serializes a document: two-space indent, one object member or
/// array element per line, a trailing newline. Integral numbers carry
/// no fraction, very small or large magnitudes use exponent notation,
/// and a non-finite number becomes `null`.
#[must_use]
pub fn write(v: &Json) -> String {
    let mut out = String::new();
    write_value(v, 0, &mut out);
    out.push('\n');
    out
}

fn write_value(v: &Json, depth: usize, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_number(*n, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => write_members(('[', ']'), items, depth, out, |item, out| {
            write_value(item, depth + 1, out);
        }),
        Json::Obj(members) => write_members(('{', '}'), members, depth, out, |(k, v), out| {
            write_string(k, out);
            out.push_str(": ");
            write_value(v, depth + 1, out);
        }),
    }
}

fn write_members<T>(
    (open, close): (char, char),
    items: &[T],
    depth: usize,
    out: &mut String,
    mut item: impl FnMut(&T, &mut String),
) {
    out.push(open);
    for (i, it) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        item(it, out);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_number(n: f64, out: &mut String) {
    // `{}` and `{:e}` both print the shortest digits that parse back to
    // the same f64, and `{}` prints an integral value without ".0".
    if !n.is_finite() {
        out.push_str("null");
    } else if n == 0.0 || (1e-6..1e21).contains(&n.abs()) {
        out.push_str(&format!("{n}"));
    } else {
        out.push_str(&format!("{n:e}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(char::from)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Json::Obj(self.items(b'}', |p| {
                let key = p.string()?;
                p.expect(b':')?;
                Ok((key, p.value()?))
            })?)),
            Some(b'[') => Ok(Json::Arr(self.items(b']', Self::value)?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            s.push_str(&rest[..run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(s);
            }
            let bad = || format!("bad escape at byte {}", self.pos);
            let (c, len) = match self.text.as_bytes().get(self.pos + 1) {
                Some(b'n') => ('\n', 2),
                Some(b't') => ('\t', 2),
                Some(&c @ (b'"' | b'\\' | b'/')) => (char::from(c), 2),
                Some(b'u') => (
                    self.text
                        .get(self.pos + 2..self.pos + 6)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(bad)?,
                    6,
                ),
                _ => return Err(bad()),
            };
            s.push(c);
            self.pos += len;
        }
    }

    /// Parses the `,`-separated items of an array or object, from its
    /// opening bracket through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// A human-readable message with the byte offset of the first syntax
/// error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Flattens a document to `("runs[0].makespan_cycles", value)` pairs,
/// scalars only.
#[must_use]
pub fn flatten(v: &Json) -> Vec<(String, Json)> {
    fn walk(prefix: &str, v: &Json, out: &mut Vec<(String, Json)>) {
        match v {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    walk(&path, v, out);
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    walk(&format!("{prefix}[{i}]"), v, out);
                }
            }
            scalar => out.push((prefix.to_string(), scalar.clone())),
        }
    }
    let mut out = Vec::new();
    walk("", v, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_documents_parse_back_to_the_same_tree() {
        let tree = Json::obj([
            ("name", "say \"hi\" \\ tab\tnew\nline ±".into()),
            ("big", (1u64 << 40).into()),
            ("max_exact", ((1u64 << 53) - 1).into()),
            ("neg", (-17).into()),
            ("neg_frac", (-0.125).into()),
            ("tiny", 3.9e-12.into()),
            ("huge", 6.02e23.into()),
            ("flag", false.into()),
            ("none", Json::Null),
            ("empty", Json::Arr(vec![])),
            (
                "nested",
                Json::arr([Json::obj([("a", Json::arr([1, 2]))]), Json::obj([])]),
            ),
        ]);
        let text = write(&tree);
        assert_eq!(parse(&text), Ok(tree), "{text}");
        for line in [
            "  \"big\": 1099511627776,",
            "  \"neg\": -17,",
            "  \"tiny\": 3.9e-12,",
        ] {
            assert!(text.contains(&format!("\n{line}\n")), "{line} in {text}");
        }
        assert!(
            text.contains(r#""say \"hi\" \\ tab\tnew\nline ±""#),
            "{text}"
        );
        let non_finite = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::NEG_INFINITY)]);
        assert_eq!(write(&non_finite), "[\n  null,\n  null\n]\n");
    }
}
