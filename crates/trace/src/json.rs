//! Minimal JSON support (the workspace has no external dependencies): a
//! hand-rolled parser plus the Chrome trace-event schema validator used by
//! the tests and the `tracecheck` binary.
//!
//! [`parse`] decodes fleet ingest bodies (`POST /api/v1/snapshot`) and
//! fleet store documents, so it must take hostile input. It runs in time
//! linear in the input, rejects nesting deeper than [`MAX_DEPTH`] with an
//! error instead of recursing without bound, and takes a `\u` escape only
//! as exactly four hex digits, joining a UTF-16 surrogate pair into one
//! character and rejecting a lone surrogate. Elsewhere the grammar stays
//! lenient: raw control characters inside strings are kept, and a number
//! is whatever `f64::from_str` makes of its run of number characters.

use std::collections::HashMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Store and snapshot
/// documents nest about five levels deep; the bound keeps a body of
/// `[[[[…` from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

/// A cursor over the document. `pos` only ever steps over ASCII bytes or
/// whole runs of string text that stop at `"`, `\` or the end, so it is
/// always a char boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(c), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.nested(Self::obj),
            Some(b'[') => self.nested(Self::arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.num(),
        }
    }

    /// Parse an array or object one level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let b = self.text.as_bytes();
        let mut out = String::new();
        loop {
            // One forward scan per run of plain characters. Both stop bytes
            // are ASCII, so the run is a valid `&str` slice of the input.
            let start = self.pos;
            while self.pos < b.len() && !matches!(b[self.pos], b'"' | b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            let esc = self.pos;
            match b.get(esc) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => self.pos += 2, // the backslash and the escape letter
            }
            out.push(match b.get(esc + 1) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode(esc)?,
                _ => return Err(format!("invalid escape at byte {}", esc + 1)),
            });
        }
    }

    /// The character of a `\u` escape whose backslash is at byte `at`: a
    /// BMP code point, or a high surrogate joined with the low-surrogate
    /// `\u` escape right after it. A lone surrogate is an error.
    fn unicode(&mut self, at: usize) -> Result<char, String> {
        let hi = self.hex4()?;
        let lone = || format!("lone surrogate `\\u{hi:04x}` at byte {at}");
        let code = if (0xd800..0xdc00).contains(&hi) {
            if !self.text[self.pos..].starts_with("\\u") {
                return Err(lone());
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(lone());
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(lone)
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|d| char::from(d).to_digit(16))
                .ok_or_else(|| {
                    format!("`\\u` escape needs four hex digits at byte {}", self.pos)
                })?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn arr(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn obj(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            out.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// Summary returned by a successful [`validate_chrome_trace`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events in `traceEvents` (metadata included).
    pub events: usize,
    /// Matched `B`/`E` pairs.
    pub spans: usize,
    /// Distinct `tid`s carrying duration events.
    pub tracks: usize,
}

impl fmt::Display for TraceCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events, {} spans, {} track(s)",
            self.events, self.spans, self.tracks
        )
    }
}

/// Validate a Chrome trace-event JSON document of the shape
/// [`crate::Trace::chrome_json`] emits:
///
/// * the root is an object whose `traceEvents` member is an array;
/// * every event is an object with string `name` and `ph`;
/// * duration events (`ph` ∈ {`B`, `E`}) carry numeric `ts`, `pid`, `tid`;
/// * per `tid`, in array order: timestamps are monotonically
///   non-decreasing, and `B`/`E` events pair LIFO with matching names —
///   every `B` has its `E`, no `E` arrives unopened.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let root = parse(text)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("root has no `traceEvents` array")?;
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut spans = 0usize;
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing string `name`"))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing string `ph`"))?;
        match ph {
            "M" => continue,
            "B" | "E" => {
                let ts = e
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: missing numeric `ts`"))?;
                e.get("pid")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: missing numeric `pid`"))?;
                let tid = e
                    .get("tid")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: missing numeric `tid`"))?
                    as u64;
                if let Some(&prev) = last_ts.get(&tid) {
                    if ts < prev {
                        return Err(format!(
                            "event {i}: ts {ts} < {prev} — tid {tid} not monotonic"
                        ));
                    }
                }
                last_ts.insert(tid, ts);
                let stack = stacks.entry(tid).or_default();
                if ph == "B" {
                    stack.push(name.to_string());
                } else {
                    match stack.pop() {
                        Some(open) if open == name => spans += 1,
                        Some(open) => {
                            return Err(format!(
                                "event {i}: E `{name}` closes open span `{open}` on tid {tid}"
                            ))
                        }
                        None => {
                            return Err(format!(
                                "event {i}: E `{name}` with no open span on tid {tid}"
                            ))
                        }
                    }
                }
            }
            other => return Err(format!("event {i}: unsupported ph `{other}`")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid}: {} span(s) never closed (first: `{}`)",
                stack.len(),
                stack[0]
            ));
        }
    }
    Ok(TraceCheck {
        events: events.len(),
        spans,
        tracks: stacks.len(),
    })
}
