//! Canonical JSON scalar formatting shared by every exporter in the
//! workspace: hand-rolled, dependency-free, and byte-deterministic.

use std::fmt::Write;

/// Formats an `f64` for JSON: shortest round-trip decimal, always with a
/// fractional part (`1` → `"1.0"`), non-finite values as `null` (JSON has
/// no NaN/Inf).
pub fn fmt_f64(v: f64) -> String {
    let mut s = String::new();
    push_f64(&mut s, v);
    s
}

/// Appends [`fmt_f64`]'s text for `v` to `out` without a temporary.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let start = out.len();
        write!(out, "{v}").expect("writing to a String cannot fail");
        // `{}` omits ".0" for integral floats (and never uses scientific
        // notation); keep the result visibly a float.
        if !out[start..].contains('.') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// JSON string literal with the escapes our names can need.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_keep_a_fractional_part() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(-3.0), "-3.0");
        // `{}` expands rather than using scientific notation; the result
        // must still round-trip exactly.
        assert_eq!(fmt_f64(1e30).parse::<f64>().unwrap(), 1e30);
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn strings_escape_quotes_and_control_chars() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
