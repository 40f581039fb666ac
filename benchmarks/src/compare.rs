//! `compare A.json B.json`: for every workload and end-to-end metric, is B
//! the same as A, better, worse — or can the two files not tell, because
//! the run-to-run spread is wider than the bound `BENCHMARK.json` fixes?

use crate::record::{array, field, number, string, Results, RunRecord};
use crate::stats::{median, spread};
use cyclosa_telemetry::check::parse_json;
use std::fmt;

/// An end-to-end metric's direction and regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a higher reading is the better one.
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json`.
pub fn load_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let json = parse_json(benchmark_json)?;
    array(field(&json, "end_to_end")?)?
        .iter()
        .map(|metric| {
            Ok(Bound {
                name: string(field(metric, "name")?)?,
                higher_is_better: match string(field(metric, "better")?)?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better must be higher or lower, not {other:?}")),
                },
                bound: number(field(metric, "bound")?)?,
            })
        })
        .collect()
}

/// What the two files say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound of each other.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B's median is better than A's by more than the bound.
    Better,
    /// The spread of A's or B's own runs exceeds the bound, and B's runs do
    /// not all read better than all of A's.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of A's readings.
    pub a: f64,
    /// Median of B's readings.
    pub b: f64,
    /// How much worse B is, as a share of A (negative when better).
    pub worse_by: f64,
    /// The wider of the two files' interquartile spreads, as a share of
    /// the median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// A metric's reading in each of `runs`.
fn readings(runs: &[&RunRecord], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|run| run.metric(metric)).collect()
}

/// Interquartile spread of a metric over `runs`; over the repetitions of
/// the run when there is only one and it kept them.
fn spread_of(runs: &[&RunRecord], metric: &str) -> f64 {
    if let [run] = runs {
        if let Some((_, samples)) = run.samples.iter().find(|(name, _)| name == metric) {
            return spread(samples);
        }
    }
    spread(&readings(runs, metric))
}

fn judge(a: &[f64], b: &[f64], widest: f64, bound: &Bound) -> (f64, Verdict) {
    let sign = if bound.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (median(b) - median(a)) / median(a).abs();
    let all_better = a.iter().all(|a| b.iter().all(|b| sign * (b - a) < 0.0));
    let verdict = if widest > bound.bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

/// The comparison: rows for every workload both files measured untraced,
/// and a line for every workload whose simulated behaviour differs at the
/// same seed.
pub fn compare(a: &Results, b: &Results, bounds: &[Bound]) -> (Vec<Row>, Vec<String>) {
    fn untraced<'a>(results: &'a Results, workload: &str) -> Vec<&'a RunRecord> {
        let matches = |run: &&RunRecord| !run.trace && run.workload == workload;
        results.runs.iter().filter(matches).collect()
    }
    let mut workloads: Vec<&str> = a.runs.iter().map(|run| run.workload.as_str()).collect();
    workloads.dedup();
    let mut rows = Vec::new();
    let mut changed = Vec::new();
    for workload in workloads {
        let (runs_a, runs_b) = (untraced(a, workload), untraced(b, workload));
        if runs_a.is_empty() || runs_b.is_empty() {
            continue;
        }
        for run_a in &runs_a {
            let differs =
                |run_b: &&&RunRecord| run_b.seed == run_a.seed && run_b.digest != run_a.digest;
            if let Some(run_b) = runs_b.iter().find(differs) {
                changed.push(format!(
                    "{workload}: simulated behaviour changed at seed {} ({} -> {})",
                    run_a.seed, run_a.digest, run_b.digest
                ));
                break;
            }
        }
        for bound in bounds {
            let (values_a, values_b) = (
                readings(&runs_a, &bound.name),
                readings(&runs_b, &bound.name),
            );
            if values_a.is_empty() || values_b.is_empty() {
                continue;
            }
            let spread = spread_of(&runs_a, &bound.name).max(spread_of(&runs_b, &bound.name));
            let (worse_by, verdict) = judge(&values_a, &values_b, spread, bound);
            rows.push(Row {
                workload: workload.to_owned(),
                metric: bound.name.clone(),
                a: median(&values_a),
                b: median(&values_b),
                worse_by,
                spread,
                bound: bound.bound,
                verdict,
            });
        }
    }
    (rows, changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Metric;

    fn bound(name: &str, higher: bool, bound: f64) -> Bound {
        Bound {
            name: name.to_owned(),
            higher_is_better: higher,
            bound,
        }
    }

    fn results(workload: &str, digest: &str, throughputs: &[f64]) -> Results {
        Results {
            fingerprint: Vec::new(),
            runs: throughputs
                .iter()
                .map(|value| RunRecord {
                    workload: workload.to_owned(),
                    seed: 1,
                    digest: digest.to_owned(),
                    metrics: vec![Metric {
                        name: "throughput_ops_s".to_owned(),
                        value: *value,
                        unit: "ops/s".to_owned(),
                    }],
                    ..RunRecord::default()
                })
                .collect(),
        }
    }

    fn verdict(a: &[f64], b: &[f64]) -> Verdict {
        let bounds = [bound("throughput_ops_s", true, 0.07)];
        let (rows, changed) = compare(&results("w", "d", a), &results("w", "d", b), &bounds);
        assert!(changed.is_empty());
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&steady, &[101.0, 100.0, 99.0, 102.0, 100.0]),
            Verdict::Same
        );
        assert_eq!(
            verdict(&steady, &[90.0, 91.0, 89.0, 90.5, 89.5]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &[110.0, 111.0, 109.0, 112.0, 110.0]),
            Verdict::Better
        );
        // A spread wider than the bound hides a 5 % change...
        let noisy = [100.0, 120.0, 80.0, 110.0, 90.0];
        assert_eq!(
            verdict(&noisy, &[95.0, 115.0, 75.0, 105.0, 85.0]),
            Verdict::Unresolved
        );
        // ...but not one where every run of B beats every run of A.
        assert_eq!(
            verdict(&noisy, &[200.0, 260.0, 180.0, 230.0, 190.0]),
            Verdict::Better
        );
    }

    #[test]
    fn lower_is_better_flips_the_sign() {
        let bounds = [bound("setup_s", false, 0.10)];
        let mut a = results("w", "d", &[]);
        let mut b = results("w", "d", &[]);
        for (results, value) in [(&mut a, 1.0), (&mut b, 1.2)] {
            results.runs.push(RunRecord {
                workload: "w".to_owned(),
                metrics: vec![Metric {
                    name: "setup_s".to_owned(),
                    value,
                    unit: "s".to_owned(),
                }],
                ..RunRecord::default()
            });
        }
        let (rows, _) = compare(&a, &b, &bounds);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!((rows[0].worse_by - 0.2).abs() < 1e-12);
        let (rows, _) = compare(&b, &a, &bounds);
        assert_eq!(rows[0].verdict, Verdict::Better);
    }

    #[test]
    fn a_single_run_falls_back_to_its_repetitions() {
        let mut a = results("w", "d", &[100.0]);
        a.runs[0].samples = vec![("throughput_ops_s".to_owned(), vec![60.0, 100.0, 140.0])];
        let b = results("w", "d", &[100.0]);
        let bounds = [bound("throughput_ops_s", true, 0.07)];
        let (rows, _) = compare(&a, &b, &bounds);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
    }

    #[test]
    fn digest_mismatch_is_reported() {
        let bounds = [bound("throughput_ops_s", true, 0.07)];
        let (_, changed) = compare(
            &results("w", "aa", &[1.0]),
            &results("w", "bb", &[1.0]),
            &bounds,
        );
        assert_eq!(changed.len(), 1);
        assert!(changed[0].contains("simulated behaviour changed"));
    }

    #[test]
    fn bounds_load_from_benchmark_json() {
        let text = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1}]}"#;
        assert_eq!(
            load_bounds(text).unwrap(),
            [
                bound("setup_s", false, 0.25),
                bound("throughput_ops_s", true, 0.1)
            ]
        );
        assert!(
            load_bounds(r#"{"end_to_end": [{"name": "x", "better": "up", "bound": 0.1}]}"#)
                .is_err()
        );
    }
}
