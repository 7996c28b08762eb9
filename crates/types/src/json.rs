//! The workspace's one JSON writer.
//!
//! JSON leaves the process in four fixed shapes: the store manifest, the
//! atlas bench file, the stage-profile file and the HAR model. Each builds a
//! [`Json`] value by hand, in its field order, and [`Json::to_pretty`] prints
//! it: two-space indent, `"key": value`, `[]`/`{}` for empty containers,
//! `null` for a non-finite float, and a float that prints without a `.` or
//! exponent gets a `.0` so it stays recognisably a float.

use std::fmt::Write;

/// A JSON value, built field by field by the code that writes it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A non-negative integer, printed exactly.
    UInt(u64),
    /// A signed integer, printed exactly.
    Int(i64),
    /// A float (`null` when not finite).
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array, in order.
    Arr(Vec<Json>),
    /// An object, its fields in order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().collect())
    }

    /// An array of `items` mapped through `to_json`.
    pub fn arr<T>(items: &[T], to_json: impl Fn(&T) -> Json) -> Json {
        Json::Arr(items.iter().map(to_json).collect())
    }

    /// A string value.
    pub fn str(text: &str) -> Json {
        Json::Str(text.to_string())
    }

    /// Pretty-printed text (no trailing newline).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::UInt(value) => write!(out, "{value}").expect("writing to a String"),
            Json::Int(value) => write!(out, "{value}").expect("writing to a String"),
            Json::Num(value) if value.is_finite() => {
                let start = out.len();
                write!(out, "{value}").expect("writing to a String");
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(text) => write_str(out, text),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    separate(out, index, depth + 1);
                    item.write(out, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (index, (key, value)) in fields.iter().enumerate() {
                    separate(out, index, depth + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

/// Unsigned integers of every width the writers hold become [`Json::UInt`].
macro_rules! from_unsigned {
    ($($ty:ty),*) => {$(
        impl From<$ty> for Json {
            fn from(value: $ty) -> Json {
                Json::UInt(value as u64)
            }
        }
    )*};
}

from_unsigned!(u64, u32, u16, usize);

impl From<i64> for Json {
    fn from(value: i64) -> Json {
        Json::Int(value)
    }
}

impl From<f64> for Json {
    fn from(value: f64) -> Json {
        Json::Num(value)
    }
}

/// The `,` before every item but the first, then the item's line.
fn separate(out: &mut String, index: usize, depth: usize) {
    if index > 0 {
        out.push(',');
    }
    newline(out, depth);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

fn write_str(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ch if (ch as u32) < 0x20 => write!(out, "\\u{:04x}", ch as u32).expect("writing to a String"),
            ch => out.push(ch),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_indents_two_spaces_and_empty_containers_stay_inline() {
        let value = Json::Arr(vec![Json::Arr(vec![Json::UInt(1)]), Json::Arr(vec![]), Json::obj([])]);
        assert_eq!(value.to_pretty(), "[\n  [\n    1\n  ],\n  [],\n  {}\n]");
        let object = Json::obj([("a", Json::Int(-1)), ("b", Json::obj([("c", Json::str(""))]))]);
        assert_eq!(object.to_pretty(), "{\n  \"a\": -1,\n  \"b\": {\n    \"c\": \"\"\n  }\n}");
    }

    #[test]
    fn floats_keep_a_fraction_and_non_finite_ones_are_null() {
        let floats = [0.0, -0.0, 1.5, -2.0, 1e21, 1e-7, 123456789.125, f64::NEG_INFINITY, f64::NAN];
        let value = Json::Arr(floats.into_iter().map(Json::Num).collect());
        assert_eq!(
            value.to_pretty(),
            "[\n  0.0,\n  -0.0,\n  1.5,\n  -2.0,\n  1000000000000000000000.0,\n  0.0000001,\n  \
             123456789.125,\n  null,\n  null\n]"
        );
        assert_eq!(Json::UInt(u64::MAX).to_pretty(), "18446744073709551615");
        assert_eq!(Json::Int(i64::MIN).to_pretty(), "-9223372036854775808");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let value = Json::str("q\"b\\n\nr\rt\t\u{1}\u{1f}\u{7f}é😀");
        assert_eq!(value.to_pretty(), "\"q\\\"b\\\\n\\nr\\rt\\t\\u0001\\u001f\u{7f}é😀\"");
    }
}
