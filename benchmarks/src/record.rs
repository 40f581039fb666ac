//! The result of one run (one process, one workload) and the results file
//! `run.sh` merges them into. Written with `cyclosa_util::json`, read back
//! with `cyclosa_telemetry::check::parse_json`.

use cyclosa_telemetry::check::parse_json;
use cyclosa_util::json::{Json, ToJson};

/// One named reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The reading, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// The `--seed` every input derives from.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics) or not
    /// (end-to-end metrics).
    pub trace: bool,
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted in the timed repetitions.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Digest of the simulated behaviour, hex.
    pub digest: String,
    /// Timed repetitions.
    pub reps: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Per-repetition values of the metrics that have them.
    pub samples: Vec<(String, Vec<f64>)>,
    /// The first few failed checks.
    pub failures: Vec<String>,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let reading = Json::Obj(vec![
                    ("value".to_owned(), Json::F64(m.value)),
                    ("unit".to_owned(), Json::Str(m.unit.clone())),
                ]);
                (m.name.clone(), reading)
            })
            .collect(),
    )
}

impl RunRecord {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line object the benchmark's driver reads: exactly
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.correct)),
            ("attempted".to_owned(), Json::U64(self.attempted)),
            ("failed".to_owned(), Json::U64(self.failed)),
            ("metrics".to_owned(), metrics_json(&self.metrics)),
        ])
        .compact()
    }

    /// Reads a record back from its JSON form.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let metrics = object(field(json, "metrics")?)?
            .iter()
            .map(|(name, reading)| {
                Ok(Metric {
                    name: name.clone(),
                    value: number(field(reading, "value")?)?,
                    unit: string(field(reading, "unit")?)?,
                })
            })
            .collect::<Result<_, String>>()?;
        let samples = object(field(json, "samples")?)?
            .iter()
            .map(|(name, values)| {
                let values = array(values)?
                    .iter()
                    .map(number)
                    .collect::<Result<_, _>>()?;
                Ok((name.clone(), values))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            workload: string(field(json, "workload")?)?,
            seed: unsigned(field(json, "seed")?)?,
            trace: boolean(field(json, "trace")?)?,
            correct: boolean(field(json, "correct")?)?,
            attempted: unsigned(field(json, "attempted")?)?,
            failed: unsigned(field(json, "failed")?)?,
            digest: string(field(json, "digest")?)?,
            reps: unsigned(field(json, "reps")?)?,
            metrics,
            samples,
            failures: array(field(json, "failures")?)?
                .iter()
                .map(string)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl ToJson for RunRecord {
    fn to_json(&self) -> Json {
        let samples = self
            .samples
            .iter()
            .map(|(name, values)| (name.clone(), values.to_json()))
            .collect();
        Json::Obj(vec![
            ("workload".to_owned(), self.workload.to_json()),
            ("seed".to_owned(), Json::U64(self.seed)),
            ("trace".to_owned(), Json::Bool(self.trace)),
            ("correct".to_owned(), Json::Bool(self.correct)),
            ("attempted".to_owned(), Json::U64(self.attempted)),
            ("failed".to_owned(), Json::U64(self.failed)),
            ("digest".to_owned(), self.digest.to_json()),
            ("reps".to_owned(), Json::U64(self.reps)),
            ("metrics".to_owned(), metrics_json(&self.metrics)),
            ("samples".to_owned(), Json::Obj(samples)),
            ("failures".to_owned(), self.failures.to_json()),
        ])
    }
}

/// A results file: where it was measured and every run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Results {
    /// Host fingerprint: `nproc`, `cpu`, `rustc`, `commit`.
    pub fingerprint: Vec<(String, String)>,
    /// The runs, untraced and traced, of every workload.
    pub runs: Vec<RunRecord>,
}

impl Results {
    /// Parses a results file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let json = parse_json(text)?;
        let fingerprint = object(field(&json, "fingerprint")?)?
            .iter()
            .map(|(key, value)| Ok((key.clone(), string(value)?)))
            .collect::<Result<_, String>>()?;
        let runs = array(field(&json, "runs")?)?
            .iter()
            .map(RunRecord::from_json)
            .collect::<Result<_, _>>()?;
        Ok(Self { fingerprint, runs })
    }
}

impl ToJson for Results {
    fn to_json(&self) -> Json {
        let fingerprint = self
            .fingerprint
            .iter()
            .map(|(key, value)| (key.clone(), value.to_json()))
            .collect();
        Json::Obj(vec![
            ("fingerprint".to_owned(), Json::Obj(fingerprint)),
            ("runs".to_owned(), self.runs.to_json()),
        ])
    }
}

/// Field `name` of a JSON object.
pub fn field<'a>(json: &'a Json, name: &str) -> Result<&'a Json, String> {
    object(json)?
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, value)| value)
        .ok_or_else(|| format!("missing field {name:?}"))
}

/// The fields of a JSON object.
pub fn object(json: &Json) -> Result<&[(String, Json)], String> {
    match json {
        Json::Obj(fields) => Ok(fields),
        other => Err(format!("expected an object, found {}", other.compact())),
    }
}

/// The items of a JSON array.
pub fn array(json: &Json) -> Result<&[Json], String> {
    match json {
        Json::Arr(items) => Ok(items),
        other => Err(format!("expected an array, found {}", other.compact())),
    }
}

/// Any JSON number as `f64`.
pub fn number(json: &Json) -> Result<f64, String> {
    match json {
        Json::F64(v) => Ok(*v),
        Json::U64(v) => Ok(*v as f64),
        Json::I64(v) => Ok(*v as f64),
        other => Err(format!("expected a number, found {}", other.compact())),
    }
}

/// A JSON string.
pub fn string(json: &Json) -> Result<String, String> {
    match json {
        Json::Str(s) => Ok(s.clone()),
        other => Err(format!("expected a string, found {}", other.compact())),
    }
}

fn unsigned(json: &Json) -> Result<u64, String> {
    match json {
        Json::U64(v) => Ok(*v),
        other => Err(format!(
            "expected an unsigned integer, found {}",
            other.compact()
        )),
    }
}

fn boolean(json: &Json) -> Result<bool, String> {
    match json {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("expected a boolean, found {}", other.compact())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Results {
        Results {
            fingerprint: vec![
                ("nproc".to_owned(), "2".to_owned()),
                ("rustc".to_owned(), "rustc 1.95.0".to_owned()),
            ],
            runs: vec![RunRecord {
                workload: "ping_dense_seq".to_owned(),
                seed: 2018,
                trace: false,
                correct: true,
                attempted: 1_199_990,
                failed: 0,
                digest: "00ab".to_owned(),
                reps: 7,
                metrics: vec![
                    Metric {
                        name: "setup_s".to_owned(),
                        value: 0.0213,
                        unit: "s".to_owned(),
                    },
                    Metric {
                        name: "throughput_ops_s".to_owned(),
                        value: 1_250_000.0,
                        unit: "ops/s".to_owned(),
                    },
                ],
                samples: vec![("setup_s".to_owned(), vec![0.02, 0.0213, 0.03])],
                failures: vec!["a \"quoted\" failure".to_owned()],
            }],
        }
    }

    #[test]
    fn results_file_round_trips() {
        let results = sample();
        for text in [results.to_json().pretty(), results.to_json().compact()] {
            assert_eq!(Results::parse(&text).unwrap(), results);
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = sample().runs[0].driver_line();
        assert!(!line.contains('\n'));
        let json = parse_json(&line).unwrap();
        let keys: Vec<&str> = object(&json)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = field(field(&json, "metrics").unwrap(), "setup_s").unwrap();
        assert_eq!(number(field(setup, "value").unwrap()).unwrap(), 0.0213);
        assert_eq!(string(field(setup, "unit").unwrap()).unwrap(), "s");
    }

    #[test]
    fn malformed_files_are_rejected_with_the_field_name() {
        let err = Results::parse("{\"fingerprint\": {}}").unwrap_err();
        assert!(err.contains("runs"), "{err}");
        assert!(Results::parse("[1, 2").is_err());
    }
}
