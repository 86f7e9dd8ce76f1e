//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ler_d7|design_sweep|serve_tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) time the workload end to end and report the
//! end-to-end metrics; traced runs (`--trace 1`) record spans around the
//! benchmark's calls into each crate and report the per-layer metrics. Both
//! check the program's outputs, print a table, and end with one JSON line.
//! See `README.md` in this directory for the metrics and workloads.

mod ler;
mod openloop;
mod pipeline;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;
mod traced;
mod util;

use std::io::Write;
use std::process::ExitCode;

use report::{Values, END_TO_END, PER_LAYER};
use util::Checks;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One paper LER point, decode-bound.
    LerD7,
    /// The compile-only Figure 8(a) design sweep.
    DesignSweep,
    /// The decode service over loopback TCP.
    ServeTcp,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::LerD7, Workload::DesignSweep, Workload::ServeTcp];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LerD7 => "ler_d7",
            Workload::DesignSweep => "design_sweep",
            Workload::ServeTcp => "serve_tcp",
        }
    }
}

/// What every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measuring time of one run.
    pub seconds: u64,
    /// Logical CPUs (caps threads and connections).
    pub nproc: usize,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Checked operations.
    pub checks: Checks,
    /// Metric values (peak RSS is added by `main`).
    pub values: Values,
    /// Lines printed above the table.
    pub lines: Vec<String>,
}

const USAGE: &str =
    "usage: perfbench --workload <ler_d7|design_sweep|serve_tcp> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(Ctx, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be between 1 and 600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let ctx = Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        nproc: util::nproc(),
    };
    Ok((ctx, trace.ok_or("--trace is required")?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ctx, traced) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if traced {
        traced::run(&ctx)
    } else {
        match ctx.workload {
            Workload::LerD7 => ler::run(&ctx),
            Workload::DesignSweep => sweep::run(&ctx),
            Workload::ServeTcp => serve::run(&ctx),
        }
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let defs = if traced { PER_LAYER } else { END_TO_END };
    if !traced {
        match util::peak_rss_mb() {
            Some(mb) => outcome.values.set("peak_rss_mb", mb),
            None => {
                eprintln!("perfbench: /proc/self/status has no VmHWM");
                return ExitCode::FAILURE;
            }
        }
    }
    let line = match report::result_line(&outcome.checks, defs, &outcome.values) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = std::io::stdout().lock();
    let mut print = || -> std::io::Result<()> {
        writeln!(
            out,
            "perfbench {} seed {} seconds {} trace {} nproc {}",
            ctx.workload.name(),
            ctx.seed,
            ctx.seconds,
            u8::from(traced),
            ctx.nproc
        )?;
        for l in &outcome.lines {
            writeln!(out, "{l}")?;
        }
        for l in report::table(defs, &outcome.values) {
            writeln!(out, "{l}")?;
        }
        let c = &outcome.checks;
        writeln!(
            out,
            "  failed_frac          {} ({} failed of {} checked operations)",
            c.failed as f64 / c.attempted.max(1) as f64,
            c.failed,
            c.attempted
        )?;
        for note in &c.notes {
            writeln!(out, "  FAILED: {note}")?;
        }
        writeln!(out, "{line}")?;
        out.flush()
    };
    if let Err(e) = print() {
        eprintln!("perfbench: writing the report: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let (ctx, traced) = parse_args(&args(&[
            "--workload",
            "serve_tcp",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(ctx.workload, Workload::ServeTcp);
        assert_eq!((ctx.seed, ctx.seconds, traced), (17, 10, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "ler_d7",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "ler_d7",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "ler_d7",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "ler_d7", "--seed", "1", "--seconds", "1"],
            &["--workload"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
