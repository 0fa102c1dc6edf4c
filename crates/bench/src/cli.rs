//! The one argument parser of `bench_suite`.
//!
//! The first argument names a subcommand; [`parse`] fills the flat
//! [`Args`] from the rest. Each [`Command`] lists the flags it reads, and
//! any other flag is a usage error, so no flag is accepted and then
//! ignored. Arguments that do not start with `--` are positional.

use std::error::Error;
use std::fmt;
use std::ops::RangeInclusive;
use std::path::PathBuf;

/// What a subcommand returns. An `Err` fails the process: with exit
/// code 2 when it is a [`Usage`] error, 1 otherwise.
pub type Outcome = Result<(), Box<dyn Error>>;

/// Largest `--max-log-n` accepted: 2^26 complex points already fill
/// 1 GiB before any scratch.
pub const MAX_LOG_N: u32 = 26;

/// `--max-log-n` when the flag is absent.
const DEFAULT_MAX_LOG_N: u32 = 22;

/// One subcommand.
pub struct Command {
    /// The first argument that selects it.
    pub name: &'static str,
    /// The flags it reads; [`parse`] refuses any other.
    pub flags: &'static [&'static str],
    /// How many positional arguments it takes (an open range ends at
    /// `usize::MAX`).
    pub positional: RangeInclusive<usize>,
    /// What it runs.
    pub run: fn(&Args) -> Outcome,
}

/// Every flag of every subcommand, in one flat struct.
#[derive(Debug, Default)]
pub struct Args {
    /// `--quick`: smaller sizes and shorter measurement floors.
    pub quick: bool,
    /// `--max-log-n <k>`: the largest transform size as a power of two.
    pub max_log: Option<u32>,
    /// `--label <s>`: the suite run's label (`local` when absent).
    pub label: String,
    /// `--out <path>`: the TLB ablation's rendered table, or the host
    /// fit's `ddl-report`.
    pub out: Option<PathBuf>,
    /// `--report-out <path>`: the suite's `ddl-report` of plan records.
    pub report_out: Option<PathBuf>,
    /// `--trace-out <path>`: the suite's Chrome trace.
    pub trace_out: Option<PathBuf>,
    /// `--ledger <path>`: the trajectory ledger the suite appends to.
    pub ledger: Option<PathBuf>,
    /// `--metrics-out <path>`: a `ddl-report` of an experiment's plans.
    pub metrics_out: Option<PathBuf>,
    /// `--artifact <path>`: the TLB ablation's `ddl-report`.
    pub artifact: Option<PathBuf>,
    /// `--check <path>`: the smoke report `obs_smoke` validates.
    pub check: Option<PathBuf>,
    /// Positional arguments: artifact paths or tree expressions.
    pub positional: Vec<String>,
}

impl Args {
    /// The largest size as a power of two: `--max-log-n`, capped at
    /// `quick_cap` with `--quick` and at `cap` without.
    pub fn max_log(&self, quick_cap: u32, cap: u32) -> u32 {
        let cap = if self.quick { quick_cap } else { cap };
        self.max_log.unwrap_or(DEFAULT_MAX_LOG_N).min(cap)
    }
}

/// A usage error: an unknown subcommand or flag, a missing or malformed
/// value, or a value its subcommand cannot run with.
#[derive(Debug, PartialEq)]
pub struct Usage(pub String);

impl fmt::Display for Usage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for Usage {}

fn usage<T>(msg: String) -> Result<T, Usage> {
    Err(Usage(msg))
}

/// Parses `argv` (without the program name) against `commands` into the
/// subcommand it names and its arguments.
pub fn parse(
    argv: impl IntoIterator<Item = String>,
    commands: &'static [Command],
) -> Result<(&'static Command, Args), Usage> {
    let names = || {
        commands
            .iter()
            .map(|c| c.name)
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut argv = argv.into_iter();
    let Some(name) = argv.next() else {
        return usage(format!("missing subcommand (one of: {})", names()));
    };
    let Some(command) = commands.iter().find(|c| c.name == name) else {
        return usage(format!("unknown subcommand {name:?} (one of: {})", names()));
    };
    let mut args = Args {
        label: "local".into(),
        ..Args::default()
    };
    while let Some(arg) = argv.next() {
        if !arg.starts_with("--") {
            args.positional.push(arg);
            continue;
        }
        if !command.flags.contains(&arg.as_str()) {
            let reads = command.flags.join(" ");
            return usage(format!("{name} does not take {arg} (it reads: {reads})"));
        }
        if arg == "--quick" {
            args.quick = true;
            continue;
        }
        let Some(value) = argv.next().filter(|v| !v.starts_with("--")) else {
            return usage(format!("{arg} needs a value"));
        };
        let path = Some(PathBuf::from(&value));
        match arg.as_str() {
            "--max-log-n" => match value.parse() {
                Ok(k) if (1..=MAX_LOG_N).contains(&k) => args.max_log = Some(k),
                _ => return usage(format!("--max-log-n needs an integer in 1..={MAX_LOG_N}")),
            },
            "--label" => args.label = value,
            "--out" => args.out = path,
            "--report-out" => args.report_out = path,
            "--trace-out" => args.trace_out = path,
            "--ledger" => args.ledger = path,
            "--metrics-out" => args.metrics_out = path,
            "--artifact" => args.artifact = path,
            "--check" => args.check = path,
            other => return usage(format!("{name} lists {other}, which no field holds")),
        }
    }
    let (got, want) = (args.positional.len(), &command.positional);
    if !want.contains(&got) {
        let want = match (want.start(), want.end()) {
            (lo, &usize::MAX) => format!("at least {lo}"),
            (lo, hi) if lo == hi => lo.to_string(),
            (lo, hi) => format!("{lo} to {hi}"),
        };
        return usage(format!(
            "{name} takes {want} positional argument(s), got {got}"
        ));
    }
    Ok((command, args))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sizes_cover_the_cache_crossover() {
        // Without --max-log-n the measured sweeps run 2^10 up to this
        // size: they must cross the 2^15 cache point and reach 2^20.
        let k = Args::default().max_log(16, MAX_LOG_N);
        assert!((10..=k).contains(&15) && k >= 20);
    }
}
