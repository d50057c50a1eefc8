//! A minimal JSON reader for the perf-regression gate.
//!
//! The bench binaries *write* JSON by hand (the workspace is offline, so
//! there is no serde_json); the CI gate needs to *read* the checked-in
//! baseline back. This is a small recursive-descent parser covering the
//! full JSON grammar — objects, arrays, strings (with escapes), numbers,
//! booleans, null — which is plenty for comparing two benchmark reports.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Descends through nested objects by key path.
    pub fn get(&self, path: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for key in path {
            match cur {
                Json::Obj(map) => cur = map.get(*key)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// The value at `path`, as a number.
    pub fn num_at(&self, path: &[&str]) -> Option<f64> {
        match self.get(path)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value at `path`, as a bool.
    pub fn bool_at(&self, path: &[&str]) -> Option<bool> {
        match self.get(path)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    // Accumulate raw bytes (multibyte UTF-8 passes through intact) and
    // decode once at the closing quote; escapes append their UTF-8 form.
    let mut bytes: Vec<u8> = Vec::new();
    let mut utf8 = [0u8; 4];
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return String::from_utf8(bytes).map_err(|_| "invalid UTF-8 in string".into()),
            b'\\' => {
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                let decoded: char = match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))
                            .map_err(String::from)?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        // Surrogate halves are not combined; good enough
                        // for BMP text in benchmark reports.
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    other => return Err(format!("bad escape '\\{}'", *other as char)),
                };
                bytes.extend_from_slice(decoded.encode_utf8(&mut utf8).as_bytes());
            }
            _ => bytes.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_bench_report_shape() {
        let text = r#"{
  "moderate_scale": {
    "nodes": 4096, "edges": 15668,
    "dense": {"build_ms": 2420.3, "train_compress_query_ms": 59.5, "resident_bytes": 201326592},
    "lazy": {"build_ms": 0.0, "train_compress_query_ms": 187.7, "resident_bytes": 24123488},
    "outputs_identical": true
  },
  "large_scale": {"nodes": 102400, "dense_over_lazy_memory_ratio": 150.0}
}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.num_at(&["moderate_scale", "nodes"]), Some(4096.0));
        assert_eq!(
            v.num_at(&["moderate_scale", "lazy", "train_compress_query_ms"]),
            Some(187.7)
        );
        assert_eq!(
            v.bool_at(&["moderate_scale", "outputs_identical"]),
            Some(true)
        );
        assert_eq!(v.num_at(&["large_scale", "nodes"]), Some(102400.0));
        assert!(v.num_at(&["missing"]).is_none());
        assert!(matches!(
            v.get(&["moderate_scale", "dense"]),
            Some(Json::Obj(map)) if map.contains_key("build_ms")
        ));
    }

    #[test]
    fn parses_arrays_strings_and_literals() {
        let v =
            Json::parse(r#"[1, -2.5e3, "a\"b\\c\nd\u0041", true, false, null, [], {}]"#).unwrap();
        let Json::Arr(items) = v else { panic!() };
        assert_eq!(items[0], Json::Num(1.0));
        assert_eq!(items[1], Json::Num(-2500.0));
        assert_eq!(items[2], Json::Str("a\"b\\c\nd\u{41}".into()));
        assert_eq!(items[3], Json::Bool(true));
        assert_eq!(items[4], Json::Bool(false));
        assert_eq!(items[5], Json::Null);
        assert_eq!(items[6], Json::Arr(vec![]));
        assert_eq!(items[7], Json::Obj(Default::default()));
    }

    #[test]
    fn preserves_multibyte_utf8() {
        let v = Json::parse("{\"caf\u{e9}\": \"\u{65e5}\u{672c}\u{8a9e} caf\u{e9}\"}").unwrap();
        assert_eq!(
            v.get(&["caf\u{e9}"]),
            Some(&Json::Str("\u{65e5}\u{672c}\u{8a9e} caf\u{e9}".into()))
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nope").is_err());
    }
}
