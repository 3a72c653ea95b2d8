//! The workspace's one JSON module. Every JSON artifact — sweep JSONL
//! cells, the `serve` journal, the `BENCH_*.json` rows, the inject and
//! lint reports — is written and read through it.
//!
//! * **Writer.** [`object`] (or [`line`]) writes one object through the
//!   [`Obj`] builder: fields in call order, which keeps every artifact
//!   byte-stable, and nested objects and arrays through closures and
//!   slices, so every bracket is closed by construction. Integer, string and bool
//!   fields neither allocate nor go through `fmt`, so the journal's
//!   reused render buffer stops allocating at its high-water capacity.
//! * **Escaper.** [`escape_into`] and its inverse [`unescape`].
//! * **Scanner.** [`scan_top_level`] walks the top level of one record,
//!   string-aware: free text holding JSON-shaped content (`","seed":9}`)
//!   or nested objects cannot forge a top-level field, and a line cut
//!   anywhere or followed by trailing bytes does not scan — which is how
//!   readers tell a truncated tail from a record.
//!
//! ```
//! use secdir_mem::json;
//!
//! let mut line = String::new();
//! json::object(&mut line, |o| {
//!     o.str("tenant", "a \"quoted\" name");
//!     o.num("tick", 7);
//!     o.nums("causes", &[1, 2]);
//! });
//! assert_eq!(line, r#"{"tenant":"a \"quoted\" name","tick":7,"causes":[1,2]}"#);
//!
//! let fields = json::scan_top_level(&line).unwrap();
//! assert_eq!(fields.num("tick"), Some(7));
//! let raw = fields.str("tenant").unwrap();
//! assert_eq!(json::unescape(raw).as_deref(), Some("a \"quoted\" name"));
//! ```

use std::fmt::Write as _;

// --- writing ----------------------------------------------------------

/// Appends one JSON object to `out` (which is not cleared), with the
/// fields `f` writes, in call order.
pub fn object(out: &mut String, f: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    f(&mut Obj { out, empty: true });
    out.push('}');
}

/// Renders one JSON object into a fresh `String` (one JSONL line, no
/// trailing newline).
pub fn line(f: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    object(&mut out, f);
    out
}

/// The fields of one JSON object under construction; see [`object`].
///
/// Keys are written as they are, not escaped: every key must be text
/// that needs no escaping (no `"`, `\` or control characters).
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Obj<'_> {
    fn key(&mut self, k: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(k);
        self.out.push_str("\":");
    }

    /// A string field, escaped with [`escape_into`].
    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.out.push('"');
        escape_into(self.out, v);
        self.out.push('"');
    }

    /// An unsigned integer field.
    pub fn num(&mut self, k: &str, v: u64) {
        self.key(k);
        push_u64(self.out, v);
    }

    /// An unsigned integer field wider than `u64` (wall-clock
    /// nanoseconds).
    pub fn num_u128(&mut self, k: &str, v: u128) {
        self.key(k);
        let _ = write!(self.out, "{v}");
    }

    /// A `true`/`false` field.
    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// An unsigned integer field, or `null` for `None`.
    pub fn opt_num(&mut self, k: &str, v: Option<u64>) {
        self.key(k);
        match v {
            Some(n) => push_u64(self.out, n),
            None => self.out.push_str("null"),
        }
    }

    /// A float field in Rust's shortest round-trip `Display` form.
    pub fn f64(&mut self, k: &str, v: f64) {
        self.key(k);
        let _ = write!(self.out, "{v}");
    }

    /// A nested object field whose fields `f` writes.
    pub fn obj(&mut self, k: &str, f: impl FnOnce(&mut Obj<'_>)) {
        self.key(k);
        object(self.out, f);
    }

    /// An array field of unsigned integers.
    pub fn nums(&mut self, k: &str, vs: &[u64]) {
        self.array(k, vs, |out, &v| push_u64(out, v));
    }

    /// An array field holding one object per item, whose fields `f`
    /// writes.
    pub fn objs<T>(&mut self, k: &str, items: &[T], mut f: impl FnMut(&mut Obj<'_>, &T)) {
        self.array(k, items, |out, item| object(out, |o| f(o, item)));
    }

    fn array<T>(&mut self, k: &str, items: &[T], mut each: impl FnMut(&mut String, &T)) {
        self.key(k);
        self.out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            each(self.out, item);
        }
        self.out.push(']');
    }
}

/// Appends `v` in decimal without allocating or going through `fmt`.
fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut x = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        out.push(b as char);
    }
}

// --- escaping ---------------------------------------------------------

/// Appends `s` JSON-escaped, without the surrounding quotes: `"` and `\`
/// are backslash-escaped, `\n`, `\r` and `\t` use their short forms, the
/// other control characters below U+0020 become `\u00XX` (lowercase
/// hex), and everything else is copied as it is.
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let n = c as u32;
                for shift in [4u32, 0] {
                    let d = (n >> shift) & 0xf;
                    out.push(char::from_digit(d, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
}

/// Inverts [`escape_into`]: decodes the raw (escaped) text of a string
/// value back to the original string, or `None` if the text is not
/// something the escaper could have produced.
pub fn unescape(raw: &str) -> Option<String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let mut v = 0u32;
                for _ in 0..4 {
                    v = v * 16 + chars.next()?.to_digit(16)?;
                }
                out.push(char::from_u32(v)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

// --- scanning ---------------------------------------------------------

/// A top-level JSON value as seen by the shallow scanner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Prim<'a> {
    /// String value, raw: escapes are not decoded (see [`unescape`]).
    Str(&'a str),
    /// Unsigned integer value that fits a `u64`.
    Num(u64),
    /// Anything else: nested object or array, float, negative or
    /// oversized number, bool, null.
    Other,
}

/// The top-level fields of one scanned object, in line order.
#[derive(Debug)]
pub struct Fields<'a>(Vec<(&'a str, Prim<'a>)>);

impl<'a> Fields<'a> {
    /// The first field named `key` whose value is an unsigned integer.
    pub fn num(&self, key: &str) -> Option<u64> {
        self.0.iter().find_map(|&(k, v)| match v {
            Prim::Num(n) if k == key => Some(n),
            _ => None,
        })
    }

    /// The raw (still escaped) text of the first field named `key` whose
    /// value is a string.
    pub fn str(&self, key: &str) -> Option<&'a str> {
        self.0.iter().find_map(|&(k, v)| match v {
            Prim::Str(s) if k == key => Some(s),
            _ => None,
        })
    }
}

/// Advances past a JSON string literal whose opening quote is at `i`.
/// Returns the index just past the closing quote, or `None` if the line
/// ends first (a record truncated mid-string).
fn skip_string(bytes: &[u8], mut i: usize) -> Option<usize> {
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2, // the escaped byte can never close the string
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// Advances past a balanced nested `{...}`/`[...]` starting at `i`,
/// ignoring brackets inside string literals. Returns the index just past
/// the closing bracket, or `None` if the line ends unbalanced.
fn skip_nested(bytes: &[u8], mut i: usize) -> Option<usize> {
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => i = skip_string(bytes, i)?,
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth -= 1;
                i += 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => i += 1,
        }
    }
    None
}

/// String-aware structural scan of one record line: returns the
/// top-level fields of the outermost object, or `None` when the line is
/// malformed or truncated. The whole line must be consumed by the
/// outermost object — trailing garbage is malformed.
pub fn scan_top_level(line: &str) -> Option<Fields<'_>> {
    let bytes = line.as_bytes();
    let skip_ws = |mut i: usize| {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    };
    let mut i = skip_ws(0);
    if i >= bytes.len() || bytes[i] != b'{' {
        return None;
    }
    i = skip_ws(i + 1);
    let mut fields = Vec::new();
    if i < bytes.len() && bytes[i] == b'}' {
        return (skip_ws(i + 1) == bytes.len()).then_some(Fields(fields));
    }
    loop {
        // Key.
        if i >= bytes.len() || bytes[i] != b'"' {
            return None;
        }
        let key_end = skip_string(bytes, i)?;
        let key = &line[i + 1..key_end - 1];
        i = skip_ws(key_end);
        if i >= bytes.len() || bytes[i] != b':' {
            return None;
        }
        i = skip_ws(i + 1);
        // Value.
        let value = match *bytes.get(i)? {
            b'"' => {
                let end = skip_string(bytes, i)?;
                let v = Prim::Str(&line[i + 1..end - 1]);
                i = end;
                v
            }
            b'{' | b'[' => {
                i = skip_nested(bytes, i)?;
                Prim::Other
            }
            b'0'..=b'9' | b'-' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                match line[start..i].parse::<u64>() {
                    Ok(n) => Prim::Num(n),
                    Err(_) => Prim::Other,
                }
            }
            b't' | b'f' | b'n' => {
                while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
                    i += 1;
                }
                Prim::Other
            }
            _ => return None,
        };
        fields.push((key, value));
        i = skip_ws(i);
        match bytes.get(i) {
            Some(b',') => i = skip_ws(i + 1),
            Some(b'}') => return (skip_ws(i + 1) == bytes.len()).then_some(Fields(fields)),
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    #[test]
    fn push_u64_matches_display() {
        for v in [0u64, 1, 9, 10, 12345, u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn unescape_inverts_escape_into() {
        let hostile = [
            "",
            "plain",
            "quote \" slash \\ newline \n cr \r tab \t",
            "control \u{1} \u{1f} end",
            "unicode \u{00e9}\u{4e16}\u{1f600}",
        ];
        for s in hostile {
            assert_eq!(unescape(&escaped(s)).as_deref(), Some(s), "for {s:?}");
        }
        assert_eq!(escaped("\u{1}\u{1f}\u{7f}"), "\\u0001\\u001f\u{7f}");
        // Text no escaper produces is rejected, not mangled.
        assert_eq!(unescape("\\q"), None);
        assert_eq!(unescape("tail\\"), None);
        assert_eq!(unescape("\\u00"), None);
        assert_eq!(unescape("\\u00zz"), None);
    }

    #[test]
    fn writer_nests_and_separates() {
        let mut out = String::from("prefix ");
        object(&mut out, |o| {
            o.str("s", "x\"y");
            o.obj("empty", |_| {});
            o.nums("n", &[1, 2]);
            o.nums("none", &[]);
            o.objs("a", &[true, false], |e, &t| e.bool("t", t));
            o.opt_num("none", None);
            o.opt_num("some", Some(3));
            o.f64("ipc", 0.5);
            o.num_u128("big", u64::MAX as u128 + 1);
            o.num_u128("small", 42);
        });
        assert_eq!(
            out,
            "prefix {\"s\":\"x\\\"y\",\"empty\":{},\"n\":[1,2],\"none\":[],\"a\":[{\"t\":true},{\"t\":false}],\
             \"none\":null,\"some\":3,\"ipc\":0.5,\"big\":18446744073709551616,\
             \"small\":42}"
        );
        assert_eq!(line(|_| {}), "{}");
    }

    #[test]
    fn scanner_handles_floats_booleans_and_nulls() {
        let fields = scan_top_level(
            "{\"a\":1.5,\"b\":true,\"c\":null,\"d\":-3,\"e\":42,\"f\":[1,{\"x\":2}]}",
        )
        .unwrap();
        assert_eq!(
            fields.0,
            [
                ("a", Prim::Other),
                ("b", Prim::Other),
                ("c", Prim::Other),
                ("d", Prim::Other),
                ("e", Prim::Num(42)),
                ("f", Prim::Other),
            ]
        );
    }

    #[test]
    fn scanner_rejects_truncations_and_trailing_garbage() {
        let whole = "{\"workload\":\"a\",\"directory\":\"baseline\",\"seed\":1,\
                     \"cores\":2,\"warmup\":50,\"measure\":200}";
        assert!(scan_top_level(whole).is_some());
        for cut in 0..whole.len() {
            assert!(
                scan_top_level(&whole[..cut]).is_none(),
                "prefix of length {cut} must not scan"
            );
        }
        assert!(scan_top_level(&format!("{whole}junk")).is_none());
        assert!(scan_top_level(&format!("{whole}{{}}")).is_none());
    }

    #[test]
    fn lookups_take_the_first_field_of_the_right_type() {
        let fields =
            scan_top_level("{\"k\":\"s\",\"k\":1,\"k\":2,\"k\":\"t\",\"n\":null}").unwrap();
        assert_eq!(fields.num("k"), Some(1));
        assert_eq!(fields.str("k"), Some("s"));
        assert_eq!(fields.num("n"), None);
        assert_eq!(fields.str("missing"), None);
    }

    #[test]
    fn json_shaped_text_cannot_forge_a_field() {
        let msg = "boom: {\"seed\":999} \"measure\":7 unbalanced {{{ [";
        let line = line(|o| {
            o.num("seed", 1);
            o.str("msg", msg);
        });
        let fields = scan_top_level(&line).unwrap();
        assert_eq!(fields.0.len(), 2);
        assert_eq!(fields.num("seed"), Some(1));
        assert_eq!(fields.num("measure"), None);
        assert_eq!(unescape(fields.str("msg").unwrap()).as_deref(), Some(msg));
    }

    /// Characters weighted towards the ones JSON treats specially, plus
    /// control characters, the rest of the BMP and non-BMP code points.
    fn any_char() -> impl Strategy<Value = char> {
        let special = "{}[]\":,\\ 0123456789-+.eEtrufalsn\n\r\t";
        prop_oneof![
            (0..special.len()).prop_map(move |i| special.as_bytes()[i] as char),
            (0u32..0x80).prop_map(|c| char::from_u32(c).unwrap_or('?')),
            (0x80u32..0xd800).prop_map(|c| char::from_u32(c).unwrap_or('?')),
            (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        ]
    }

    fn any_string(max: usize) -> impl Strategy<Value = String> {
        prop::collection::vec(any_char(), 0..max).prop_map(|v| v.into_iter().collect())
    }

    /// Keys for the writer round trip: keys are written unescaped, so
    /// they come from a fixed list of names that need no escaping, as
    /// every caller's string-literal keys do.
    const KEYS: [&str; 6] = ["seed", "tenant", "", "k", "measure", "x y"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn unescape_inverts_escape_on_any_string(s in any_string(24)) {
            prop_assert_eq!(unescape(&escaped(&s)), Some(s));
        }

        #[test]
        fn unescape_and_scan_never_panic(s in any_string(48)) {
            let _ = unescape(&s);
            let _ = scan_top_level(&s);
            let _ = scan_top_level(&format!("{{\"k\":{s}}}"));
        }

        #[test]
        fn scan_returns_exactly_the_written_fields(
            keys in prop::collection::vec(0..KEYS.len(), 0..6),
            texts in prop::collection::vec(any_string(12), 6..7),
            nums in prop::collection::vec(any::<u64>(), 6..7),
            kinds in prop::collection::vec(0u8..5, 6..7),
        ) {
            let line = line(|o| {
                for (i, &k) in keys.iter().enumerate() {
                    let (k, inner) = (KEYS[k], KEYS[(k + 1) % KEYS.len()]);
                    match kinds[i] {
                        0 => o.str(k, &texts[i]),
                        1 => o.num(k, nums[i]),
                        2 => o.opt_num(k, None),
                        3 => o.obj(k, |n| n.str(inner, &texts[i])),
                        _ => o.objs(k, &nums[i..], |n, &v| n.num(inner, v)),
                    }
                }
            });
            let fields = scan_top_level(&line).expect("writer output scans");
            prop_assert_eq!(fields.0.len(), keys.len());
            for (i, &(k, v)) in fields.0.iter().enumerate() {
                prop_assert_eq!(k, KEYS[keys[i]]);
                match (kinds[i], v) {
                    (0, Prim::Str(raw)) => {
                        prop_assert_eq!(unescape(raw).as_deref(), Some(texts[i].as_str()));
                    }
                    (1, Prim::Num(n)) => prop_assert_eq!(n, nums[i]),
                    (2..=4, Prim::Other) => {}
                    (kind, v) => panic!("kind {kind} scanned as {v:?}"),
                }
            }
        }
    }
}
