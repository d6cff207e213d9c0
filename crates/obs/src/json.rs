//! The workspace's JSON codec: a small recursive-descent parser
//! producing a [`Value`] tree, the accessors decoders use, and one
//! renderer ([`render`]) that every writer shares — trace exports,
//! checkpoint payloads and `BENCH_sweep.json` alike (there is no serde
//! in the offline build). It lives in this bottom-layer crate so the
//! trace writers can use it; `fred_recover::json` re-exports it. Two deliberate deviations from strict JSON keep non-finite
//! floats representable: the bare tokens `NaN`, `inf` and `-inf` render
//! and parse as their f64 counterparts, so a checkpointed non-finite
//! metric round-trips instead of poisoning the whole envelope. Rejecting
//! such a value is the reader's decision, not the codec's.

/// Numbers at or above this magnitude are not all representable as
/// `f64`, so whole numbers below it are the only integers a JSON number
/// carries exactly: [`Value::as_u64`] and [`Value::as_usize`] reject
/// anything larger, and [`render`] prints whole numbers below it without
/// a fraction.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// Escapes a string for embedding in JSON text: quotes, backslashes and
/// control characters. The one escaper the workspace's JSON writers
/// share.
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

/// A parsed JSON value. Object keys keep insertion order; numbers are
/// all `f64`, which round-trips every integer below [`MAX_EXACT_INT`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, including the non-finite `NaN` / `inf` / `-inf` tokens.
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks a key up in an object; `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number below
    /// [`MAX_EXACT_INT`] (larger numbers may already have been rounded).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < MAX_EXACT_INT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// [`Value::as_u64`] as a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one JSON document. Returns `None` on any syntax error or on
/// trailing non-whitespace — a truncated or bit-flipped checkpoint must
/// fail loudly here, not half-parse.
pub fn parse(text: &str) -> Option<Value> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Some(value)
    } else {
        None
    }
}

/// Rounds `x` to `places` decimals by formatting and re-parsing it, so the
/// value a writer keeps is exactly the value a reader of its rendered
/// text gets back. Idempotent: rounding a rounded value changes nothing.
/// Non-finite values pass through unchanged.
pub fn round_to(x: f64, places: usize) -> f64 {
    format!("{x:.places$}").parse().unwrap_or(x)
}

/// Renders a value as JSON text (no trailing newline). Whole numbers
/// below [`MAX_EXACT_INT`] print as integers, other finite numbers in
/// Rust's shortest round-trip form, non-finite ones as `NaN` / `inf` /
/// `-inf`. An object whose values are all scalars or arrays of scalars
/// renders on one line (`{ "k": 1, "v": [1, 2] }`), as does an array of
/// scalars; every other object or array puts one entry per line,
/// indented two spaces per level.
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out
}

/// Scalars, arrays of scalars, and objects whose values are all such
/// scalars or arrays render on one line.
fn is_one_line(value: &Value) -> bool {
    match value {
        Value::Arr(items) => items
            .iter()
            .all(|v| !matches!(v, Value::Arr(_) | Value::Obj(_))),
        Value::Obj(pairs) => pairs
            .iter()
            .all(|(_, v)| !matches!(v, Value::Obj(_)) && is_one_line(v)),
        _ => true,
    }
}

fn write_num(out: &mut String, n: f64) {
    if n.is_nan() {
        out.push_str("NaN");
    } else if n.is_infinite() {
        out.push_str(if n > 0.0 { "inf" } else { "-inf" });
    } else if n.fract() == 0.0 && n.abs() < MAX_EXACT_INT as f64 {
        out.push_str(&(n as i64).to_string());
    } else {
        out.push_str(&format!("{n:?}"));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

fn write_value(out: &mut String, value: &Value, depth: usize) {
    let (open, close, entries): (char, char, Vec<(Option<&str>, &Value)>) = match value {
        Value::Null => return out.push_str("null"),
        Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => return write_num(out, *n),
        Value::Str(s) => return write_str(out, s),
        Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Value::Obj(pairs) => (
            '{',
            '}',
            pairs.iter().map(|(k, v)| (Some(&**k), v)).collect(),
        ),
    };
    // (before the first entry, between entries, after the last entry)
    let (lead, gap, tail) = if entries.is_empty() {
        (String::new(), String::new(), String::new())
    } else if !is_one_line(value) {
        let pad = "\n".to_string() + &"  ".repeat(depth + 1);
        (pad.clone(), pad, "\n".to_string() + &"  ".repeat(depth))
    } else if open == '{' {
        (" ".into(), " ".into(), " ".into())
    } else {
        (String::new(), " ".into(), String::new())
    };
    out.push(open);
    for (i, (key, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(if i == 0 { &lead } else { &gap });
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        write_value(out, v, depth + 1);
    }
    out.push_str(&tail);
    out.push(close);
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, token: &str) -> Option<()> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Some(())
    } else {
        None
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'n' => eat(bytes, pos, "null").map(|_| Value::Null),
        b't' => eat(bytes, pos, "true").map(|_| Value::Bool(true)),
        b'f' => eat(bytes, pos, "false").map(|_| Value::Bool(false)),
        b'N' => eat(bytes, pos, "NaN").map(|_| Value::Num(f64::NAN)),
        b'i' => eat(bytes, pos, "inf").map(|_| Value::Num(f64::INFINITY)),
        b'"' => parse_string(bytes, pos).map(Value::Str),
        b'[' => parse_array(bytes, pos),
        b'{' => parse_object(bytes, pos),
        b'-' if bytes[*pos..].starts_with(b"-inf") => {
            *pos += 4;
            Some(Value::Num(f64::NEG_INFINITY))
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => None,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Value::Num)
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 character (the input is a &str, so
                // boundaries are valid by construction).
                let rest = std::str::from_utf8(&bytes[*pos..]).ok()?;
                let c = rest.chars().next()?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Value::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return None;
        }
        *pos += 1;
        pairs.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Value::Obj(pairs));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = r#"{"a": 1.5, "b": [true, null, "x\"y"], "c": {"d": -3}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.5));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_str(), Some("x\"y"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-3.0));
    }

    #[test]
    fn non_finite_tokens_round_trip() {
        let doc = format!(
            "[{:?}, {:?}, {:?}]",
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY
        );
        let v = parse(&doc).unwrap();
        let arr = v.as_arr().unwrap();
        assert!(arr[0].as_f64().unwrap().is_nan());
        assert_eq!(arr[1].as_f64(), Some(f64::INFINITY));
        assert_eq!(arr[2].as_f64(), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn shortest_float_repr_round_trips_exactly() {
        for &x in &[0.1, 1.0 / 3.0, 8377.8, 5.38, f64::MIN_POSITIVE, 1e300] {
            let doc = format!("{x:?}");
            let v = parse(&doc).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits(), "{doc}");
        }
    }

    #[test]
    fn rejects_truncated_and_trailing_garbage() {
        assert!(parse(r#"{"a": 1"#).is_none());
        assert!(parse(r#"{"a": 1} extra"#).is_none());
        assert!(parse(r#"[1, 2,"#).is_none());
        assert!(parse("").is_none());
    }

    #[test]
    fn as_usize_guards_fractions_and_negatives() {
        assert_eq!(parse("42").unwrap().as_usize(), Some(42));
        assert_eq!(parse("4.2").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
    }

    #[test]
    fn as_u64_is_exact_below_2_pow_53_only() {
        let max = MAX_EXACT_INT - 1;
        assert_eq!(Value::Num(max as f64).as_u64(), Some(max));
        assert_eq!(Value::Num(MAX_EXACT_INT as f64).as_u64(), None);
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), None);
        assert_eq!(parse("4.2").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("NaN").unwrap().as_u64(), None);
    }

    #[test]
    fn round_to_is_idempotent() {
        for &(x, places) in &[(0.1 + 0.2, 3), (8377.849999, 1), (2.125, 2), (1e-9, 4)] {
            let once = round_to(x, places);
            assert_eq!(round_to(once, places).to_bits(), once.to_bits(), "{x}");
            assert_eq!(format!("{once:.places$}"), format!("{x:.places$}"));
        }
        assert!(round_to(f64::NAN, 3).is_nan());
        assert_eq!(round_to(f64::NEG_INFINITY, 3), f64::NEG_INFINITY);
    }

    #[test]
    fn render_layout_and_round_trip() {
        let doc = r#"{"config": {"size": 120, "ok": true, "v": [1, 2.5]}, "rows": [{"a": NaN, "b": "x\"y"}, {"a": -inf}], "empty": [], "none": {}, "big": 1e300}"#;
        let value = parse(doc).unwrap();
        let text = render(&value);
        let expected = r#"{
  "config": { "size": 120, "ok": true, "v": [1, 2.5] },
  "rows": [
    { "a": NaN, "b": "x\"y" },
    { "a": -inf }
  ],
  "empty": [],
  "none": {},
  "big": 1e300
}"#;
        assert_eq!(text, expected);
        assert_eq!(render(&parse(&text).unwrap()), text);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t unicode é";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }
}
