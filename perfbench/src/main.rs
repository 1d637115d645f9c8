//! `javmm-perfbench` — the simulator's wall-clock benchmark.
//!
//! ```text
//! javmm-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded migration workload (or all four) in a closed loop on one
//! thread, checks every VM's output, and prints each metric by name with
//! its unit, then one JSON result line. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` runs the per-layer
//! timing adapter and writes its spans to `perfbench/out/`. Exit status:
//! 0 when every VM passed, 1 when any failed, 2 on bad arguments. See
//! `perfbench/README.md` for the metrics and workloads.

mod adapter;
mod measure;
mod report;
mod roster;
mod spans;
mod traced;

use std::fmt;
use std::process::ExitCode;

use report::{result_line, Metric, Outcome};
use roster::Workload;
use spans::SpanLog;

/// A command-line error.
#[derive(Debug, PartialEq)]
enum UsageError {
    UnknownFlag(String),
    MissingValue(&'static str),
    MissingFlag(&'static str),
    UnknownWorkload(String),
    BadValue {
        flag: &'static str,
        value: String,
        expected: &'static str,
    },
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            UsageError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            UsageError::MissingFlag(flag) => write!(f, "{flag} is required"),
            UsageError::UnknownWorkload(name) => write!(
                f,
                "unknown workload {name:?}; known: {}, all",
                Workload::ALL.map(Workload::name).join(", ")
            ),
            UsageError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} {value:?}: expected {expected}"),
        }
    }
}

/// Parsed, checked arguments.
#[derive(Debug, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: javmm-perfbench --workload <javmm-specjvm|xen-specjvm|cold-cache|evac48|all> \
     --seed <u64> --seconds <positive number> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, UsageError> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key: &'static str = match flag.as_str() {
            "--workload" => "--workload",
            "--seed" => "--seed",
            "--seconds" => "--seconds",
            "--trace" => "--trace",
            _ => return Err(UsageError::UnknownFlag(flag.clone())),
        };
        let value = it.next().ok_or(UsageError::MissingValue(key))?;
        let bad = |expected| UsageError::BadValue {
            flag: key,
            value: value.clone(),
            expected,
        };
        match key {
            "--workload" => {
                workload = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(value)
                        .ok_or_else(|| UsageError::UnknownWorkload(value.clone()))?]
                })
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number of seconds"))?,
                )
            }
            _ => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
        }
    }
    Ok(Args {
        workloads: workload.ok_or(UsageError::MissingFlag("--workload"))?,
        seed: seed.ok_or(UsageError::MissingFlag("--seed"))?,
        seconds: seconds.ok_or(UsageError::MissingFlag("--seconds"))?,
        trace: trace.ok_or(UsageError::MissingFlag("--trace"))?,
    })
}

/// Runs one workload and prints its human-readable report.
fn run(workload: Workload, args: &Args) -> Outcome {
    let mut spans = SpanLog::new();
    let mut out = match (roster::roster(workload, args.seed), args.trace) {
        (Some(roster), false) => measure::single(&roster, args.seconds),
        (Some(roster), true) => traced::single(workload, &roster, args.seconds, &mut spans),
        (None, false) => measure::evac48(args.seed, args.seconds),
        (None, true) => traced::evac48(args.seed, &mut spans),
    };
    if args.trace {
        let path = traced::span_path(workload, args.seed);
        match spans.write(&path) {
            Ok(()) => out.notes.push(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => out.fail(format!("writing spans to {}: {e}", path.display())),
        }
    }
    println!(
        "== {} (seed {}, {} s, trace {})",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &out.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for failure in &out.failures {
        println!("FAILED {failure}");
    }
    println!(
        "# VMs attempted {}, failed {}",
        out.attempted,
        out.failures.len()
    );
    out
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let [workload] = args.workloads[..] {
        run(workload, &args)
    } else {
        // `all`: one combined line, metric names prefixed by workload.
        let mut all = Outcome::default();
        for workload in args.workloads.iter().copied() {
            let o = run(workload, &args);
            let prefixed = o.metrics.iter().map(|m| Metric {
                name: format!("{}/{}", workload.name(), m.name),
                ..m.clone()
            });
            all.metrics.extend(prefixed.collect::<Vec<_>>());
            all.absorb(o);
        }
        all
    };
    println!("{}", result_line(&result));
    if result.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a =
            parse_args(&args("--workload evac48 --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(a.workloads, vec![Workload::Evac48]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let all =
            parse_args(&args("--workload all --seed 0 --seconds 1.5 --trace 0")).expect("valid");
        assert_eq!(all.workloads.len(), 4);
    }

    #[test]
    fn rejects_bad_input_with_typed_errors() {
        let base = "--seed 1 --seconds 10 --trace 0";
        assert_eq!(
            parse_args(&args(&format!("--workload nope {base}"))),
            Err(UsageError::UnknownWorkload("nope".into()))
        );
        assert!(matches!(
            parse_args(&args("--workload evac48 --seed -3 --seconds 10 --trace 0")),
            Err(UsageError::BadValue { flag: "--seed", .. })
        ));
        assert!(matches!(
            parse_args(&args("--workload evac48 --seed 1 --seconds 0 --trace 0")),
            Err(UsageError::BadValue {
                flag: "--seconds",
                ..
            })
        ));
        assert!(matches!(
            parse_args(&args("--workload evac48 --seed 1 --seconds 5 --trace 2")),
            Err(UsageError::BadValue {
                flag: "--trace",
                ..
            })
        ));
        assert_eq!(
            parse_args(&args(&format!("--workload evac48 {base} --fast"))),
            Err(UsageError::UnknownFlag("--fast".into()))
        );
        assert_eq!(
            parse_args(&args("--workload evac48 --seed")),
            Err(UsageError::MissingValue("--seed"))
        );
        assert_eq!(
            parse_args(&args("--seed 1 --seconds 10 --trace 0")),
            Err(UsageError::MissingFlag("--workload"))
        );
    }
}
