//! `--compare A B` and `--summary A`: judge two sets of runs of the
//! benchmark against the bounds in `BENCHMARK.json`.
//!
//! A set file holds one JSON object per line, as `--out` appends them:
//! `{"workload": .., "seed": .., "trace": 0|1, "result": <result line>}`.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;

/// The runs of one set: per workload, per end-to-end metric, the values
/// in run order; and per workload (attempted, failed) summed.
#[derive(Debug, Default)]
pub struct Set {
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub ops: BTreeMap<String, (f64, f64)>,
    pub incorrect_runs: usize,
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn read_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?;
    list.iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end entry lacks name, better or bound".into())
}

/// Reads a set file, keeping the untraced runs.
pub fn read_set(text: &str) -> Result<Set, String> {
    let mut set = Set::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let row = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| row.get(k).ok_or_else(|| format!("line {}: no {k}", i + 1));
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string();
        let result = field("result")?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            set.incorrect_runs += 1;
        }
        let count = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let ops = set.ops.entry(workload.clone()).or_default();
        ops.0 += count("attempted");
        ops.1 += count("failed");
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            let per_metric = set.values.entry(workload).or_default();
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    per_metric.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    if set.values.is_empty() {
        return Err("no untraced run in the set".into());
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side spread wider than the bound, so a difference
    /// of the size of the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median of `values`, and their inter-quartile spread as a share of it
/// (0 for a single run).
fn centre(values: &[f64]) -> (f64, f64) {
    (
        stats::median(values),
        if values.len() >= 2 {
            stats::spread(values)
        } else {
            0.0
        },
    )
}

/// `new` against `base` under `b`: worse when the median moved the wrong
/// way by more than the bound, better when it moved the right way by
/// more than the bound, unresolved when either side's spread exceeds
/// the bound.
pub fn verdict(base: &[f64], new: &[f64], b: &Bound) -> (f64, Verdict) {
    let (base_med, base_spread) = centre(base);
    let (new_med, new_spread) = centre(new);
    let ratio = new_med / base_med;
    let change = if b.higher_is_better {
        1.0 - ratio
    } else {
        ratio - 1.0
    };
    let v = if base_spread.max(new_spread) > b.bound {
        Verdict::Unresolved
    } else if change > b.bound {
        Verdict::Worse
    } else if change < -b.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (ratio, v)
}

/// Prints one row per (workload, end-to-end metric). `Err` when any row
/// is worse, a run was incorrect, or a workload's failed share rose.
pub fn compare(base: &Set, new: &Set, bounds: &[Bound]) -> Result<(), String> {
    let mut bad = Vec::new();
    println!(
        "{:<12} {:<10} {:>14} {:>14} {:>22}  verdict",
        "workload", "metric", "base", "new", "new/base (base)"
    );
    for (workload, metrics) in &base.values {
        for b in bounds {
            let (Some(old), Some(new_values)) = (
                metrics.get(&b.name),
                new.values.get(workload).and_then(|m| m.get(&b.name)),
            ) else {
                bad.push(format!("{workload} {}: missing on one side", b.name));
                continue;
            };
            let (ratio, v) = verdict(old, new_values, b);
            let (base_med, new_med) = (stats::median(old), stats::median(new_values));
            println!(
                "{workload:<12} {:<10} {base_med:>14.4} {new_med:>14.4} {ratio:>10.4} ({base_med:>9.4})  {}",
                b.name,
                v.label()
            );
            if v == Verdict::Worse {
                bad.push(format!(
                    "{workload} {} is worse: {ratio:.4} of {base_med:.4}",
                    b.name
                ));
            }
        }
        let share = |s: &Set| {
            s.ops
                .get(workload)
                .map_or(0.0, |(a, f)| if *a > 0.0 { f / a } else { 0.0 })
        };
        if share(new) > share(base) {
            bad.push(format!(
                "{workload}: failed share rose from {} to {}",
                share(base),
                share(new)
            ));
        }
    }
    if new.incorrect_runs > 0 {
        bad.push(format!(
            "{} incorrect runs in the new set",
            new.incorrect_runs
        ));
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// Noise calibration of one set: per (workload, end-to-end metric) the
/// median, the quartiles, the spread, the bound in force, and the bound
/// the rule suggests — the larger of the bound in force and twice the
/// observed spread.
pub fn summary(set: &Set, bounds: &[Bound]) -> Json {
    let mut rows = Vec::new();
    for (workload, metrics) in &set.values {
        for b in bounds {
            let Some(values) = metrics.get(&b.name).filter(|v| v.len() >= 2) else {
                continue;
            };
            let (q1, med, q3) = stats::quartiles(values);
            let spread = (q3 - q1) / med;
            rows.push(Json::obj([
                ("workload", Json::Str(workload.clone())),
                ("metric", Json::Str(b.name.clone())),
                ("runs", Json::Num(values.len() as f64)),
                ("median", Json::Num(med)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("spread", Json::Num(spread)),
                ("bound", Json::Num(b.bound)),
                ("suggested_bound", Json::Num(b.bound.max(2.0 * spread))),
            ]));
        }
    }
    Json::Arr(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, higher: bool, bound: f64) -> Bound {
        Bound {
            name: name.into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let thr = bound("ops_per_s", true, 0.05);
        let lat = bound("p50_us", false, 0.05);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |f: f64| steady.map(|v| v * f);
        assert_eq!(verdict(&steady, &scaled(1.0), &thr).1, Verdict::Same);
        assert_eq!(verdict(&steady, &scaled(0.96), &thr).1, Verdict::Same);
        assert_eq!(verdict(&steady, &scaled(0.90), &thr).1, Verdict::Worse);
        assert_eq!(verdict(&steady, &scaled(1.10), &thr).1, Verdict::Better);
        // Lower is better: the same ratios read the other way round.
        assert_eq!(verdict(&steady, &scaled(1.10), &lat).1, Verdict::Worse);
        assert_eq!(verdict(&steady, &scaled(0.90), &lat).1, Verdict::Better);
        // Spread beyond the bound on either side: no verdict.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(verdict(&noisy, &scaled(0.5), &thr).1, Verdict::Unresolved);
        assert_eq!(verdict(&steady, &noisy, &thr).1, Verdict::Unresolved);
        // One run a side has no spread and is judged on its value.
        assert_eq!(verdict(&[100.0], &[80.0], &thr), (0.8, Verdict::Worse));
    }

    const LINE: &str = r#"{"workload": "asm.warm", "seed": 1, "trace": 0, "result": {"correct": true, "attempted": 1000, "failed": 0, "metrics": {"ops_per_s": {"value": 100.5, "unit": "1/s"}, "setup_s": {"value": 4.25, "unit": "s"}}}}"#;

    #[test]
    fn reads_sets_and_bounds() {
        let traced = LINE.replace("\"trace\": 0", "\"trace\": 1");
        let failing = LINE
            .replace("\"failed\": 0", "\"failed\": 10")
            .replace("true", "false");
        let set = read_set(&format!("{LINE}\n{traced}\n\n{failing}\n")).unwrap();
        assert_eq!(set.values["asm.warm"]["ops_per_s"], vec![100.5, 100.5]);
        assert_eq!(set.ops["asm.warm"], (2000.0, 10.0));
        assert_eq!(set.incorrect_runs, 1);
        assert!(read_set(&traced).is_err());

        let bounds = read_bounds(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.05}]}"#,
        )
        .unwrap();
        assert_eq!(bounds, vec![bound("ops_per_s", true, 0.05)]);
        let clean = read_set(LINE).unwrap();
        assert!(compare(&clean, &clean, &bounds).is_ok());
        // A higher failed share fails the comparison even with equal metrics.
        assert!(compare(&clean, &set, &bounds).is_err());
    }
}
