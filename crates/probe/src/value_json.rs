//! JSON helpers shared by the sinks: the streaming object writer of the
//! per-event render paths (Chrome trace, JSONL), and `serde::Value` tree
//! shorthands for the once-per-run attribution document and the parsing
//! trace validator.
//!
//! The vendored serde stand-in has no identity `Serialize` impl for its
//! own [`Value`], so tree users wrap trees in [`Raw`] to hand them to
//! `serde_json`.

use crate::{AccessKind, ActKind, DropReason, HitWhere, TierMove};
use serde::{Deserialize, Error, Serialize, Value};
use std::io::Write as _;

/// Identity wrapper: serialises a pre-built [`Value`] tree as-is and
/// deserialises arbitrary JSON into one.
pub(crate) struct Raw(pub Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Raw(v.clone()))
    }
}

/// Shorthand for a map entry.
pub(crate) fn kv(key: &str, v: Value) -> (String, Value) {
    (key.to_string(), v)
}

pub(crate) fn u(n: u64) -> Value {
    Value::U64(n)
}

pub(crate) fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// A value [`JsonObj`] can write, in the bytes the vendored `serde_json`
/// emits for it: `{n}` for integers, `{x:?}` (shortest round-trip, always
/// with a `.` or exponent) for floats. Strings are written unescaped —
/// every key, label and formatted name in this crate is plain ASCII
/// without quotes, backslashes or control characters — so the output is
/// UTF-8 although it is written as bytes.
pub(crate) trait JsonVal {
    fn write_json(self, out: &mut Vec<u8>);
}

/// Append `n` in decimal, zero-padded to `min_width >= 1` digits — what
/// `{n}` prints, at a fraction of `fmt`'s cost (most of a rendered event
/// is integers).
fn push_digits(out: &mut Vec<u8>, mut n: u64, min_width: usize) {
    let mut digits = [b'0'; 20];
    let mut i = digits.len();
    while n > 0 || digits.len() - i < min_width {
        i -= 1;
        digits[i] += (n % 10) as u8;
        n /= 10;
    }
    out.extend_from_slice(&digits[i..]);
}

macro_rules! json_unsigned {
    ($($t:ty),*) => {$(
        impl JsonVal for $t {
            fn write_json(self, out: &mut Vec<u8>) {
                push_digits(out, self as u64, 1);
            }
        }
    )*};
}
json_unsigned!(u8, u32, u64, usize);

/// Virtual picoseconds rendered as trace microseconds: the bytes of
/// `{x:?}` for `x = ps as f64 / 1e6`, without the float formatter that
/// would otherwise be most of the cost of rendering a trace.
pub(crate) struct Micros(pub u64);

impl JsonVal for Micros {
    fn write_json(self, out: &mut Vec<u8>) {
        let Micros(ps) = self;
        // `{x:?}` prints the shortest decimal that parses back to `x`, in
        // exponent form below 1e-4. From there up to 10^15 ps the exact
        // quotient has at most 15 significant digits, and no two such
        // decimals share an `f64`: the quotient's own digits, trailing
        // zeros dropped, are that shortest decimal.
        if !(100..1_000_000_000_000_000).contains(&ps) {
            return (ps as f64 / 1e6).write_json(out);
        }
        push_digits(out, ps / 1_000_000, 1);
        out.push(b'.');
        let (mut frac, mut width) = (ps % 1_000_000, 6);
        while width > 1 && frac % 10 == 0 {
            frac /= 10;
            width -= 1;
        }
        push_digits(out, frac, width);
    }
}

impl JsonVal for bool {
    fn write_json(self, out: &mut Vec<u8>) {
        out.extend_from_slice(if self { b"true" } else { b"false" });
    }
}

impl JsonVal for f64 {
    fn write_json(self, out: &mut Vec<u8>) {
        debug_assert!(self.is_finite(), "JSON has no non-finite numbers");
        write!(out, "{self:?}").expect("writing to a Vec cannot fail");
    }
}

/// True when `s` is its own JSON string body (nothing to escape).
fn is_plain(s: &[u8]) -> bool {
    !s.iter().any(|&c| c == b'"' || c == b'\\' || c < b' ')
}

impl JsonVal for &str {
    fn write_json(self, out: &mut Vec<u8>) {
        debug_assert!(
            is_plain(self.as_bytes()),
            "JSON string would need escaping: {self}"
        );
        out.push(b'"');
        out.extend_from_slice(self.as_bytes());
        out.push(b'"');
    }
}

impl JsonVal for std::fmt::Arguments<'_> {
    fn write_json(self, out: &mut Vec<u8>) {
        out.push(b'"');
        let start = out.len();
        out.write_fmt(self).expect("writing to a Vec cannot fail");
        debug_assert!(is_plain(&out[start..]), "JSON string would need escaping");
        out.push(b'"');
    }
}

macro_rules! json_label {
    ($($t:ty),*) => {$(
        impl JsonVal for $t {
            fn write_json(self, out: &mut Vec<u8>) {
                self.label().write_json(out);
            }
        }
    )*};
}
json_label!(ActKind, AccessKind, HitWhere, DropReason, TierMove);

/// Streams one JSON object, `{"k":v,...}`, into a byte buffer without
/// building a tree. [`JsonObj::end`] closes it.
pub(crate) struct JsonObj<'a> {
    out: &'a mut Vec<u8>,
    sep: u8,
    depth: usize,
}

impl<'a> JsonObj<'a> {
    pub(crate) fn new(out: &'a mut Vec<u8>) -> Self {
        JsonObj {
            out,
            sep: b'{',
            depth: 1,
        }
    }

    fn key(&mut self, key: &str) {
        debug_assert!(
            is_plain(key.as_bytes()),
            "JSON key would need escaping: {key}"
        );
        self.out.extend_from_slice(&[self.sep, b'"']);
        self.sep = b',';
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
    }

    pub(crate) fn field(&mut self, key: &str, v: impl JsonVal) {
        self.key(key);
        v.write_json(self.out);
    }

    /// Open a nested object under `key` as the last entry: every later
    /// field goes into it, and `end` closes it along with its parents.
    pub(crate) fn descend(&mut self, key: &str) {
        self.key(key);
        self.sep = b'{';
        self.depth += 1;
    }

    pub(crate) fn end(self) {
        if self.sep == b'{' {
            self.out.push(b'{');
        }
        self.out.resize(self.out.len() + self.depth, b'}');
    }
}

/// `fields!(obj; a, b, c)` writes the local bindings `a`, `b`, `c` as
/// fields keyed by their own names — event fields are rendered under the
/// names [`crate::SimEvent`] declares them with.
macro_rules! fields {
    ($obj:expr; $($f:ident),* $(,)?) => {{
        $( $obj.field(stringify!($f), $f); )*
    }};
}
pub(crate) use fields;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_prints_what_the_float_formatter_prints() {
        // Every small value (the exponent-form boundary is in here), every
        // power of ten and its neighbours (digit-count and fast-path
        // boundaries), and a pseudo-random walk over all magnitudes.
        let mut cases: Vec<u64> = (0..20_000).collect();
        for exp in 0..20 {
            let p = 10u64.pow(exp);
            cases.extend([p - 1, p, p + 1, p.wrapping_mul(3), p / 7 * 10]);
        }
        cases.extend([u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1]);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..200_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cases.push(x >> (i % 64));
        }
        let mut got = Vec::new();
        for ps in cases {
            got.clear();
            Micros(ps).write_json(&mut got);
            assert_eq!(got, format!("{:?}", ps as f64 / 1e6).as_bytes(), "{ps} ps");
        }
    }

    #[test]
    fn objects_nest_and_close() {
        let mut out = Vec::new();
        let mut o = JsonObj::new(&mut out);
        o.field("a", 7u32);
        o.field("b", format_args!("x{}", 1));
        o.descend("c");
        o.end();
        assert_eq!(out, br#"{"a":7,"b":"x1","c":{}}"#);
    }
}
