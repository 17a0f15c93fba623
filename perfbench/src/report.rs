//! Sample statistics and the JSON the benchmark prints and stores.

use std::fmt::Write as _;

/// Nearest-rank percentile of `samples` (sorted in place), with the
/// number of samples strictly beyond it.
pub fn percentile(samples: &mut [f64], q: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (f64::NAN, 0);
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let value = samples[rank - 1];
    let beyond = samples.iter().filter(|&&x| x > value).count();
    (value, beyond)
}

pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    percentile(&mut s, 0.5).0
}

/// Quartiles and extremes of `samples`, for manifests.
pub fn quantiles(samples: &[f64]) -> Json {
    let mut s = samples.to_vec();
    let mut obj = Json::obj();
    for (name, q) in [
        ("min", 0.0),
        ("p25", 0.25),
        ("p50", 0.5),
        ("p75", 0.75),
        ("max", 1.0),
    ] {
        obj = obj.num(name, percentile(&mut s, q).0);
    }
    obj
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A minimal JSON value builder (the workspace carries no serde).
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    pub fn set(mut self, key: &str, value: Json) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value));
        }
        self
    }

    pub fn num(self, key: &str, v: f64) -> Json {
        self.set(key, Json::Num(v))
    }

    pub fn int(self, key: &str, v: u64) -> Json {
        self.set(key, Json::Int(v as i64))
    }

    pub fn str(self, key: &str, v: &str) -> Json {
        self.set(key, Json::Str(v.to_string()))
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            // Non-finite numbers have no JSON spelling.
            Json::Num(v) if !v.is_finite() => out.push_str("null"),
            Json::Num(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from, and for a tail percentile the
    /// samples beyond it.
    pub samples: u64,
    pub beyond: Option<u64>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            beyond: None,
        }
    }

    pub fn tail(mut self, beyond: usize) -> Metric {
        self.beyond = Some(beyond as u64);
        self
    }

    /// `{"value": .., "unit": ..}` as the result line carries it.
    pub fn value_json(&self) -> Json {
        Json::obj().num("value", self.value).str("unit", self.unit)
    }

    /// The value with its sample accounting, for the stored report.
    pub fn full_json(&self) -> Json {
        let mut j = self.value_json().int("samples", self.samples);
        if let Some(b) = self.beyond {
            j = j.int("beyond", b);
        }
        j
    }
}
