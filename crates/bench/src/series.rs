//! The one recorded-series document: what every `motif-bench <series>-json`
//! verb writes and what every committed `BENCH_*.json` snapshot is read
//! through.
//!
//! ```text
//! {
//!   "schema": "motif-bench series v2",
//!   "series": "compiled",
//!   "host_parallelism": 2,
//!   "points": [
//!     {"workload": "tree-reduce", "exec": "compiled", "wall_ns": 2861887, "speedup": 5.6234},
//!     {"workload": "seqalign", "exec": "compiled", "wall_ns": 1446422, "speedup": 1.0045}
//!   ]
//! }
//! ```
//!
//! A point is an ordered list of `(key, Text | Int | Real)` fields. The
//! codec knows no series' field list: the measurement function that builds
//! a series is the only place its keys are named, and the parser holds
//! every point to the first point's key list. A `"host_warning"` line
//! follows `host_parallelism` exactly when that is 1 — wall-clock numbers
//! recorded there measure scheduling, not parallelism.
//!
//! Hand-rolled because the workspace vendors no JSON crate, and strict on
//! purpose: [`parse`] accepts only what [`render`] writes, byte for byte,
//! so a drifted field, a reformatted number or a hand edit fails the
//! snapshot gates instead of passing silently.

use std::fmt;

pub const SCHEMA: &str = "motif-bench series v2";

const HOST_WARNING: &str =
    "recorded on a single-core host; wall-clock columns measure scheduling, not parallelism";

/// Every series `motif-bench` records, with its committed snapshot at the
/// repo root (`None`: recorded by the nightly job only).
const KNOWN: &[(&str, Option<&str>)] = &[
    ("parallel", Some("BENCH_parallel_sharded.json")),
    ("compiled", Some("BENCH_compiled.json")),
    ("serve", Some("BENCH_serve.json")),
    ("serve-supervised", None),
];

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Rendered bare between quotes: no `"` or `\` inside.
    Text(String),
    Int(u64),
    /// Rendered to four decimals, which is therefore all a snapshot keeps.
    Real(f64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(t) => write!(f, "\"{t}\""),
            Value::Int(n) => write!(f, "{n}"),
            Value::Real(r) => write!(f, "{r:.4}"),
        }
    }
}

impl From<&str> for Value {
    fn from(t: &str) -> Value {
        Value::Text(t.to_string())
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Int(n.into())
    }
}

impl From<f64> for Value {
    fn from(r: f64) -> Value {
        Value::Real(r)
    }
}

/// One measured row. The accessors panic on a missing or wrongly-typed
/// key: a gate that names a field the series no longer records must fail.
#[derive(Clone, Debug, PartialEq)]
pub struct Point(Vec<(String, Value)>);

impl Point {
    fn get(&self, key: &str) -> &Value {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("point has no field {key:?}: {self:?}"))
    }

    pub fn text(&self, key: &str) -> &str {
        match self.get(key) {
            Value::Text(t) => t,
            other => panic!("field {key:?} is not text: {other:?}"),
        }
    }

    pub fn int(&self, key: &str) -> u64 {
        match self.get(key) {
            Value::Int(n) => *n,
            other => panic!("field {key:?} is not an integer: {other:?}"),
        }
    }

    pub fn real(&self, key: &str) -> f64 {
        match self.get(key) {
            Value::Real(r) => *r,
            other => panic!("field {key:?} is not a real: {other:?}"),
        }
    }

    fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(k, _)| k.as_str())
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    pub name: String,
    pub host_parallelism: u64,
    pub points: Vec<Point>,
}

impl Series {
    /// An empty series recorded on this host.
    pub fn new(name: &str) -> Series {
        Series {
            name: name.to_string(),
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            points: Vec::new(),
        }
    }

    pub fn push<'a>(&mut self, fields: impl IntoIterator<Item = (&'a str, Value)>) {
        self.points.push(Point(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ));
    }
}

pub fn render(series: &Series) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"series\": \"{}\",\n  \"host_parallelism\": {},\n",
        series.name, series.host_parallelism
    );
    if series.host_parallelism <= 1 {
        out.push_str(&format!("  \"host_warning\": \"{HOST_WARNING}\",\n"));
    }
    out.push_str("  \"points\": [\n");
    for (i, point) in series.points.iter().enumerate() {
        let fields: Vec<String> = point
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let comma = if i + 1 == series.points.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Split `"key": value` off the front of `s`.
fn field(s: &str) -> Result<((String, Value), &str), String> {
    let malformed = || format!("malformed field at {s:?}");
    let (key, rest) = s
        .strip_prefix('"')
        .and_then(|r| r.split_once("\": "))
        .ok_or_else(malformed)?;
    let (value, rest) = if let Some(text) = rest.strip_prefix('"') {
        let (text, rest) = text.split_once('"').ok_or_else(malformed)?;
        (Value::Text(text.to_string()), rest)
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        let (token, rest) = rest.split_at(end);
        let value = if token.contains('.') {
            token.parse().ok().map(Value::Real)
        } else {
            token.parse().ok().map(Value::Int)
        };
        (
            value.ok_or_else(|| format!("malformed value {token:?} for {key:?}"))?,
            rest,
        )
    };
    Ok(((key.to_string(), value), rest))
}

pub fn parse(json: &str) -> Result<Series, String> {
    let mut header: Vec<(String, Value)> = Vec::new();
    let mut points: Vec<Point> = Vec::new();
    for line in json.lines().map(str::trim) {
        if let Some(mut rest) = line.strip_prefix('{').filter(|r| !r.is_empty()) {
            let mut fields = Vec::new();
            loop {
                let (f, after) = field(rest)?;
                fields.push(f);
                match after.strip_prefix(", ") {
                    Some(more) => rest = more,
                    None => break,
                }
            }
            let point = Point(fields);
            if let Some(first) = points.first() {
                if !point.keys().eq(first.keys()) {
                    return Err(format!(
                        "point {} has fields {:?}, the first point has {:?}",
                        points.len() + 1,
                        point.keys().collect::<Vec<_>>(),
                        first.keys().collect::<Vec<_>>()
                    ));
                }
            }
            points.push(point);
        } else if line.starts_with('"') && line != "\"points\": [" {
            header.push(field(line)?.0);
        }
    }
    let find = |key: &str| header.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    if find("schema") != Some(&Value::Text(SCHEMA.to_string())) {
        return Err(format!("missing or unknown schema (want {SCHEMA:?})"));
    }
    let name = match find("series") {
        Some(Value::Text(name)) if KNOWN.iter().any(|(known, _)| known == name) => name.clone(),
        other => return Err(format!("missing or unknown series name: {other:?}")),
    };
    let host_parallelism = match find("host_parallelism") {
        Some(Value::Int(n)) => *n,
        other => return Err(format!("missing or malformed host_parallelism: {other:?}")),
    };
    if points.is_empty() {
        return Err("no points".to_string());
    }
    let series = Series {
        name,
        host_parallelism,
        points,
    };
    // Everything layout-shaped (line order, commas, number precision, the
    // host_warning line) is checked at once.
    let canonical = render(&series);
    if canonical != json {
        let same = canonical
            .lines()
            .zip(json.lines())
            .take_while(|(a, b)| a == b)
            .count();
        return Err(format!("line {} is not what the renderer writes", same + 1));
    }
    Ok(series)
}

/// The committed repo-root snapshot of `series`. An absent, renamed or
/// unparsable file is an error, so a snapshot gate cannot pass by default.
pub fn committed(series: &str) -> Result<Series, String> {
    let file = KNOWN
        .iter()
        .find(|(n, _)| *n == series)
        .and_then(|(_, file)| *file)
        .ok_or_else(|| format!("series {series:?} has no committed snapshot"))?;
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let parsed = parse(&json).map_err(|e| format!("{path}: {e}"))?;
    if parsed.name != series {
        return Err(format!("{path} holds series {:?}", parsed.name));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        let mut s = Series::new("compiled");
        s.push([
            ("scenario", "clean".into()),
            ("threads", 2u32.into()),
            ("wall_ns", u64::MAX.into()),
            ("overhead", 1.0.into()),
        ]);
        s.push([
            ("scenario", "crash-drop-dup".into()),
            ("threads", 8u32.into()),
            ("wall_ns", 42u64.into()),
            ("overhead", 4.6667.into()),
        ]);
        s
    }

    #[test]
    fn render_parse_render_is_byte_identical() {
        // All three value kinds, a Real that needs all four decimals, a
        // Text with `-`, a u64-sized Int — on a multi-core and a
        // single-core (host_warning) header.
        for host in [1, 2, 64] {
            let mut s = sample();
            s.host_parallelism = host;
            let json = render(&s);
            assert_eq!(json.contains("host_warning"), host == 1);
            let parsed = parse(&json).expect("round-trip parses");
            assert_eq!(parsed, s);
            assert_eq!(render(&parsed), json);
            let p = &parsed.points[1];
            assert_eq!(p.text("scenario"), "crash-drop-dup");
            assert_eq!(p.int("threads"), 8);
            assert_eq!(parsed.points[0].int("wall_ns"), u64::MAX);
            assert_eq!(p.real("overhead"), 4.6667);
        }
    }

    #[test]
    fn parser_rejects_drift() {
        let json = render(&sample());
        assert!(parse(&json).is_ok());
        let second = json.lines().nth(6).expect("second point line");
        let drifted = [
            // A key renamed in one point only.
            json.replace(second, &second.replace("\"threads\"", "\"workers\"")),
            // Two keys reordered in one point.
            json.replace(
                second,
                &second.replace(
                    "\"threads\": 8, \"wall_ns\": 42",
                    "\"wall_ns\": 42, \"threads\": 8",
                ),
            ),
            json.replace("  \"schema\": \"motif-bench series v2\",\n", ""),
            json.replace("v2", "v1"),
            json.replace("\"series\": \"compiled\"", "\"series\": \"compiledd\""),
            json.replace("\"host_parallelism\": ", "\"host_parallelism\": x"),
            // Malformed values: a negative Int, a Real off the rendered
            // precision, an unterminated Text.
            json.replace("\"wall_ns\": 42", "\"wall_ns\": -42"),
            json.replace("4.6667", "4.66670"),
            json.replace("\"clean\"", "\"clean"),
            // Layout: a trailing comma after the last point.
            json.replace("4.6667}\n", "4.6667},\n"),
            // No points at all.
            json.lines()
                .filter(|l| !l.trim_start().starts_with("{\""))
                .map(|l| format!("{l}\n"))
                .collect(),
            "{}".to_string(),
            String::new(),
        ];
        for doc in &drifted {
            assert_ne!(doc, &json, "the edit did not apply");
            assert!(parse(doc).is_err(), "accepted a drifted document:\n{doc}");
        }
    }

    #[test]
    #[should_panic(expected = "no field \"wall_nanos\"")]
    fn a_missing_key_fails_loudly() {
        sample().points[0].int("wall_nanos");
    }

    #[test]
    #[should_panic(expected = "\"overhead\" is not an integer")]
    fn a_wrongly_typed_key_fails_loudly() {
        sample().points[0].int("overhead");
    }

    #[test]
    fn committed_fails_when_there_is_no_snapshot() {
        assert!(committed("serve-supervised").is_err());
        assert!(committed("no-such-series").is_err());
    }
}
