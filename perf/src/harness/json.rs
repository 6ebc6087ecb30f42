//! A small deterministic JSON value: writer and reader.
//!
//! Result files are written with object members in insertion order and
//! numbers in their shortest round-trip form, so the same measurements
//! give the same bytes; `perf compare` reads them back with the parser
//! here. 64-bit digests travel as hex strings because JSON numbers are
//! doubles.

use std::borrow::Cow;
use std::fmt::Write;

/// A JSON value. Object members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Compact text on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Text indented by two spaces per level, with a final newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !members.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `Display` for f64 is the shortest text that reads back to the
        // same value, without an exponent.
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` quoted and escaped.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean_from..i]);
        clean_from = i + 1;
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

/// Arrays and objects nested deeper than this are refused rather than
/// recursed into.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document.
///
/// # Errors
///
/// A message with the byte offset of the first malformed construct.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader::new(text);
    let value = tree(&mut r)?;
    r.finish()?;
    Ok(value)
}

fn tree(r: &mut Reader<'_>) -> Result<Json, String> {
    match r.peek() {
        None => Err(r.error("unexpected end of input")),
        Some(b'n') if r.eat("null") => Ok(Json::Null),
        Some(b't') if r.eat("true") => Ok(Json::Bool(true)),
        Some(b'f') if r.eat("false") => Ok(Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(r.string()?.into_owned())),
        Some(b'[') => {
            let mut items = Vec::new();
            let mut more = r.open("[", "]")?;
            while more {
                items.push(tree(r)?);
                more = r.more("]")?;
            }
            Ok(Json::Arr(items))
        }
        Some(b'{') => {
            let mut members = Vec::new();
            let mut more = r.open("{", "}")?;
            while more {
                let key = r.key()?.into_owned();
                members.push((key, tree(r)?));
                more = r.more("}")?;
            }
            Ok(Json::Obj(members))
        }
        Some(b'-' | b'0'..=b'9') => {
            let text = r.number()?;
            text.parse()
                .map(Json::Num)
                .map_err(|_| r.error("invalid number"))
        }
        Some(_) => Err(r.error("unexpected character")),
    }
}

/// A cursor over JSON text, one token at a time: what [`parse`] is
/// built on. (The serde stand-in under `perf/shims` includes this file
/// and reads through the same cursor, so the benchmark carries one JSON
/// reader.)
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    src: &'a [u8],
    at: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            src: text.as_bytes(),
            at: 0,
            depth: 0,
        }
    }

    /// `what`, with the byte offset the cursor is at.
    pub fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    /// The next byte after white space, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        while matches!(self.src.get(self.at), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.at += 1;
        }
        self.src.get(self.at).copied()
    }

    /// Consumes `word` if it comes next after white space.
    pub fn eat(&mut self, word: &str) -> bool {
        self.peek();
        let found = self.src[self.at..].starts_with(word.as_bytes());
        if found {
            self.at += word.len();
        }
        found
    }

    /// Consumes `word`, which must come next.
    ///
    /// # Errors
    ///
    /// Something else comes next.
    pub fn expect(&mut self, word: &str) -> Result<(), String> {
        if self.eat(word) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    /// Enters an array or object; `false` if it closes at once.
    ///
    /// # Errors
    ///
    /// `open` does not come next, or the nesting is too deep.
    pub fn open(&mut self, open: &str, close: &str) -> Result<bool, String> {
        self.expect(open)?;
        if self.eat(close) {
            return Ok(false);
        }
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        Ok(true)
    }

    /// After an item: `true` on `,` (another follows), `false` on
    /// `close`.
    ///
    /// # Errors
    ///
    /// Neither comes next.
    pub fn more(&mut self, close: &str) -> Result<bool, String> {
        if self.eat(",") {
            Ok(true)
        } else if self.eat(close) {
            self.depth -= 1;
            Ok(false)
        } else {
            Err(self.error(&format!("expected `,` or `{close}`")))
        }
    }

    /// An object key and its `:`.
    ///
    /// # Errors
    ///
    /// No string and colon come next.
    pub fn key(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a string key"));
        }
        let key = self.string()?;
        self.expect(":")?;
        Ok(key)
    }

    /// The text of a number.
    ///
    /// # Errors
    ///
    /// No digit or `-` comes next.
    pub fn number(&mut self) -> Result<&'a str, String> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.error("expected a number"));
        }
        let start = self.at;
        while matches!(
            self.src.get(self.at),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.at += 1;
        }
        self.text(start)
    }

    /// `src[start..at]`, which lies between ASCII bytes.
    fn text(&self, start: usize) -> Result<&'a str, String> {
        std::str::from_utf8(&self.src[start..self.at]).map_err(|_| self.error("invalid UTF-8"))
    }

    /// A string; borrowed from the input unless it holds escapes.
    ///
    /// # Errors
    ///
    /// No well-formed string comes next.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect("\"")?;
        let mut owned = String::new();
        loop {
            let start = self.at;
            while !matches!(self.src.get(self.at), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.at += 1;
            }
            let run = self.text(start)?;
            match self.src.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(if owned.is_empty() {
                        Cow::Borrowed(run)
                    } else {
                        owned.push_str(run);
                        Cow::Owned(owned)
                    });
                }
                Some(b'\\') => {
                    owned.push_str(run);
                    self.at += 1;
                    owned.push(self.escape()?);
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character an escape stands for; the cursor is past the `\`.
    fn escape(&mut self) -> Result<char, String> {
        let escape = self.src.get(self.at).copied();
        self.at += 1;
        Ok(match escape {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.src[self.at..].starts_with(b"\\u") {
                    self.at += 2;
                    code = 0x10000 + ((code - 0xd800) << 10) + self.hex4()?.wrapping_sub(0xdc00);
                }
                char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))?
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .src
            .get(self.at..self.at + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.at += 4;
        Ok(code)
    }

    /// Passes over one value of any kind.
    ///
    /// # Errors
    ///
    /// No well-formed value comes next.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'[') => {
                let mut more = self.open("[", "]")?;
                while more {
                    self.skip_value()?;
                    more = self.more("]")?;
                }
                Ok(())
            }
            Some(b'{') => {
                let mut more = self.open("{", "}")?;
                while more {
                    self.key()?;
                    self.skip_value()?;
                    more = self.more("}")?;
                }
                Ok(())
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(_) if self.eat("null") || self.eat("true") || self.eat("false") => Ok(()),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// The end of the document: only white space may be left.
    ///
    /// # Errors
    ///
    /// Something is left.
    pub fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str("fed \"write\"\n".into())),
            ("count".into(), Json::Num(40_000.0)),
            ("rate".into(), Json::Num(1234.5678)),
            ("tiny".into(), Json::Num(0.000_000_12)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "chunks".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(-2.0)]),
            ),
            ("empty".into(), Json::Obj(Vec::new())),
        ])
    }

    #[test]
    fn writer_is_deterministic_and_ordered() {
        let text = sample().render();
        assert_eq!(
            text,
            "{\"name\":\"fed \\\"write\\\"\\n\",\"count\":40000,\"rate\":1234.5678,\
             \"tiny\":0.00000012,\"ok\":true,\"none\":null,\"chunks\":[1,-2],\"empty\":{}}"
        );
        assert_eq!(text, sample().render());
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = sample();
        assert_eq!(parse(&v.render()).unwrap(), v);
        let pretty = v.render_pretty();
        assert!(pretty.contains("\n  \"count\": 40000,\n"));
        assert!(pretty.ends_with("}\n"));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"abc",
            "tru",
            "[1 2]",
            "{\"a\":1,}",
            "1 2",
            "\"\\q\"",
            "\"\\u12\"",
            "-",
            "{1:2}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).unwrap_err().contains("nesting too deep"));
    }

    #[test]
    fn accessors_select_by_type() {
        let v = parse("{\"a\":[1,\"x\"],\"b\":{\"c\":2.5}}").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_f64),
            Some(2.5)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_str(),
            Some("x")
        );
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_object().map(<[(String, Json)]>::len), Some(2));
        assert!(Json::Null.get("a").is_none());
    }

    #[test]
    fn reader_walks_tokens_without_building_a_tree() {
        let mut r = Reader::new(" {\"a\": [1, {\"b\": null}, \"x\\ny\"], \"k\\u00e9\": -2.5e1} ");
        assert!(r.open("{", "}").unwrap());
        // A string without escapes is borrowed from the input.
        assert!(matches!(r.key().unwrap(), Cow::Borrowed("a")));
        r.skip_value().unwrap();
        assert!(r.more("}").unwrap());
        assert!(matches!(r.key().unwrap(), Cow::Owned(k) if k == "k\u{e9}"));
        assert_eq!(r.number().unwrap(), "-2.5e1");
        assert!(!r.more("}").unwrap());
        r.finish().unwrap();
        assert!(!Reader::new("[]").open("[", "]").unwrap());
    }

    #[test]
    fn strings_follow_the_json_grammar() {
        let read = |text: &str| Reader::new(text).string().map(Cow::into_owned);
        assert_eq!(
            read("\"\\ud83d\\ude00 \\b\\f\\/\"").unwrap(),
            "\u{1f600} \u{8}\u{c}/"
        );
        assert!(read("\"line\nbreak\"").is_err());
        assert!(read("\"\\ud83d\"").is_err());
        let mut text = String::new();
        write_string("q\"\\\u{1}\u{8}\u{c}\n\u{e9}", &mut text);
        assert_eq!(text, "\"q\\\"\\\\\\u0001\\b\\f\\n\u{e9}\"");
        assert_eq!(read(&text).unwrap(), "q\"\\\u{1}\u{8}\u{c}\n\u{e9}");
    }
}
