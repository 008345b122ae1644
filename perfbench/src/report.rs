//! The benchmark's output document: one JSON object on the last line of
//! standard output, with exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`. Rendered and parsed by hand; the benchmark
//! depends on nothing outside the repository.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured, all digits kept.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: String,
}

/// The result of one benchmark run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// True when every output matched its reference.
    pub correct: bool,
    /// Operations attempted: figure renders, batches, restores and
    /// output checks.
    pub attempted: u64,
    /// Operations that failed or whose output mismatched.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Failed operations over attempted ones.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line JSON document. Fails on a non-finite value, which
    /// JSON cannot carry.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                m.value,
                escape(&m.unit)
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Parses a document written by [`Outcome::to_json`].
    pub fn parse(text: &str) -> Result<Outcome, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        let Json::Obj(fields) = v else {
            return Err("document is not an object".into());
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let (correct, attempted, failed, metrics) = match &fields[..] {
            [(_, Json::Bool(c)), (_, Json::Num(a)), (_, Json::Num(f)), (_, Json::Obj(m))] => {
                (*c, *a, *f, m)
            }
            _ => return Err("field of the wrong type".into()),
        };
        let mut out = Outcome {
            correct,
            attempted: whole(attempted)?,
            failed: whole(failed)?,
            metrics: Vec::new(),
        };
        for (name, m) in metrics {
            match m {
                Json::Obj(f) => match &f[..] {
                    [(kv, Json::Num(value)), (ku, Json::Str(unit))]
                        if kv == "value" && ku == "unit" =>
                    {
                        out.push(name.clone(), *value, unit)
                    }
                    _ => return Err(format!("metric {name} is malformed")),
                },
                _ => return Err(format!("metric {name} is not an object")),
            }
        }
        Ok(out)
    }
}

fn whole(x: f64) -> Result<u64, String> {
    if x >= 0.0 && x.fract() == 0.0 && x < 2f64.powi(53) {
        Ok(x as u64)
    } else {
        Err(format!("{x} is not a whole count"))
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The JSON subset the document uses.
#[derive(Debug)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        text.parse()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        '"' | '\\' | '/' => out.push(e),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'u' => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.i += 4;
                        }
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        let mut o = Outcome {
            correct: true,
            attempted: 2131,
            failed: 0,
            metrics: Vec::new(),
        };
        o.push("wall_s", 0.123_456_789_012_345_6, "s");
        o.push("setup_s", 1.0e-7, "s");
        o.push("peak_rss_mb", 41.25, "MB");
        o.push("session.samples_per_s", 512_345.678_9, "1/s");
        o.push("odd \"name\"\\", -3.5, "count");
        o
    }

    #[test]
    fn document_round_trips_exactly() {
        let o = sample();
        let text = o.to_json().expect("finite");
        assert!(!text.contains('\n'));
        assert!(text.starts_with("{\"correct\": true, \"attempted\": 2131, \"failed\": 0"));
        assert_eq!(Outcome::parse(&text), Ok(o));
    }

    #[test]
    fn malformed_documents_are_refused() {
        assert!(Outcome::parse("{\"correct\": true}").is_err());
        assert!(Outcome::parse(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(Outcome::parse(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x"
        )
        .is_err());
        let mut o = sample();
        o.push("nan", f64::NAN, "s");
        assert!(o.to_json().is_err());
    }

    #[test]
    fn fail_ratio_counts_failures_over_attempts() {
        let mut o = sample();
        assert_eq!(o.fail_ratio(), 0.0);
        o.failed = 1;
        o.attempted = 4;
        assert_eq!(o.fail_ratio(), 0.25);
    }
}
