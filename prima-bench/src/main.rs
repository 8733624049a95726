//! `prima-bench`: the repository's benchmark. One closed-loop driver,
//! four workloads on the Fig. 2.3 mesh, end-to-end numbers from an
//! untraced run and per-layer numbers from a traced one. See README.md.

mod compare;
mod driver;
mod json;
mod layers;
mod mesh;
mod run;
mod stats;
mod trace;
mod workload;

use json::Json;
use run::{RunCfg, RunOut};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

/// Length of the measured window when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;

const USAGE: &str = "usage:
  prima-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--runs K] [--out FILE]
      Run one workload (default: all four) for K consecutive seeds from N. Each run prints
      one result line; --out appends it, with workload and seed, to a set file.
  prima-bench --smoke
      All workloads, 500 solids, 1 s windows, one set-up each, every check on.
  prima-bench --compare BASE.set NEW.set
      One row per (workload, end-to-end metric), judged by the bounds in ./BENCHMARK.json.
  prima-bench --summary RUNS.set
      Median, quartiles, spread and suggested bound per (workload, end-to-end metric).";

struct Cli {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
    smoke: bool,
}

enum Command {
    Run(Cli),
    Compare(PathBuf, PathBuf),
    Summary(PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut cli = Cli {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w =
                    workload::by_name(name).ok_or_else(|| format!("no workload named {name}"))?;
                cli.workloads = vec![w];
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => cli.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            "--compare" => return Ok(Command::Compare(value()?.into(), value()?.into())),
            "--summary" => return Ok(Command::Summary(value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(cli))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &RunOut) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::obj(out.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })),
        ),
    ])
}

/// Scratch space inside the checkout: cargo's target directory.
fn scratch_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("prima-bench")
}

fn run_all(cli: &Cli) -> Result<bool, String> {
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut all_correct = true;
    for seed in cli.seed..cli.seed + cli.runs {
        for w in &cli.workloads {
            let cfg = RunCfg {
                seed,
                seconds: if cli.smoke { 1.0 } else { cli.seconds },
                trace: cli.trace,
                smoke: cli.smoke,
                scratch: scratch.clone(),
            };
            let out = run::run(w, &cfg)?;
            for note in &out.notes {
                eprintln!("{note}");
            }
            for v in &out.violations {
                eprintln!("CHECK FAILED: {v}");
            }
            all_correct &= out.correct;
            let result = result_json(&out);
            if let Some(path) = &cli.out {
                let row = Json::obj([
                    ("workload", Json::Str(w.name.into())),
                    ("seed", Json::Num(seed as f64)),
                    ("trace", Json::Num(f64::from(u8::from(cli.trace)))),
                    ("result", result.clone()),
                ]);
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                writeln!(f, "{row}").map_err(|e| format!("{}: {e}", path.display()))?;
            }
            println!("{result}");
        }
    }
    Ok(all_correct)
}

fn read(path: &PathBuf) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let bounds = || compare::read_bounds(&read(&PathBuf::from("BENCHMARK.json"))?);
    match parse_args(args)? {
        Command::Run(cli) => run_all(&cli),
        Command::Compare(base, new) => {
            let (base, new) = (
                compare::read_set(&read(&base)?)?,
                compare::read_set(&read(&new)?)?,
            );
            match compare::compare(&base, &new, &bounds()?) {
                Ok(()) => Ok(true),
                Err(why) => {
                    eprintln!("{why}");
                    Ok(false)
                }
            }
        }
        Command::Summary(set) => {
            let rows = compare::summary(&compare::read_set(&read(&set)?)?, &bounds()?);
            for row in rows.as_arr().unwrap_or_default() {
                println!("{row}");
            }
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("prima-bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let Ok(Command::Run(cli)) =
            parse_args(&args("--workload asm.cold --seed 7 --seconds 3 --trace 1"))
        else {
            panic!("not a run");
        };
        assert_eq!(cli.workloads.len(), 1);
        assert_eq!(cli.workloads[0].name, "asm.cold");
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 3.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
    }

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// metrics, or the driver would miss a metric in a result line.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("workloads", "why"), WORKLOADS.map(|w| w.why));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert_eq!(names("end_to_end", "name"), run::END_TO_END.map(|m| m.0));
        assert_eq!(names("end_to_end", "unit"), run::END_TO_END.map(|m| m.1));
        assert_eq!(names("end_to_end", "better"), run::END_TO_END.map(|m| m.2));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );

        let listed: Vec<(String, String)> = names("per_layer", "name")
            .into_iter()
            .zip(names("per_layer", "unit"))
            .collect();
        let built: Vec<(String, String)> = layers::listed()
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, built);
    }
}
