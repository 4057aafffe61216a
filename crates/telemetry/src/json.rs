//! Minimal JSON string building (this workspace builds with no external
//! crates, so serialisation is hand-rolled).

/// Escape `s` as the contents of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Format an `f64` the way JSON expects (finite; no exponent surprises for
/// our magnitudes).
pub(crate) fn num(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `{}` prints integral floats without a dot; keep them valid JSON
        // numbers anyway (they are), just return as-is.
        s
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn num_handles_nonfinite() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1.5), "1.5");
    }
}
