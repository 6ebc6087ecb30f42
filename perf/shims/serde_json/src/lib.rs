//! Offline stand-in for `serde_json` over the serde stand-in: the three
//! entry points the product calls. **Not serde_json.**

pub use serde::Error;
use serde::{Deserialize, Serialize};

/// Result alias, as in serde_json.
pub type Result<T> = std::result::Result<T, Error>;

/// Compact JSON text of `value`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::with_capacity(128);
    value.serialize_json(&mut out);
    Ok(out)
}

/// Two-space-indented JSON text of `value`: the compact text with line
/// breaks and indentation put in, so every number keeps its digits.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let compact = to_string(value)?;
    let mut out = String::with_capacity(compact.len() * 2);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for c in compact.chars() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        // An empty array or object stays on one line.
        let after_opener = out.ends_with(['{', '[']);
        match c {
            '}' | ']' => {
                depth -= 1;
                if !after_opener {
                    newline(&mut out, depth);
                }
            }
            _ if after_opener => newline(&mut out, depth),
            _ => {}
        }
        out.push(c);
        match c {
            '"' => in_string = true,
            ':' => out.push(' '),
            ',' => newline(&mut out, depth),
            '{' | '[' => depth += 1,
            _ => {}
        }
    }
    Ok(out)
}

/// Reads `text` into `T`.
pub fn from_str<'a, T: Deserialize<'a>>(text: &'a str) -> Result<T> {
    serde::from_text(text)
}
