//! The command-line skeleton every binary of this crate shares: one
//! [`Flag`] table per binary drives both the argv pass and the `--help`
//! text. Binaries read the parsed [`Args`] by name after the pass, so a
//! preset (`--quick`, `--full`, `--million`) picks the base configuration
//! and explicit flags override it wherever they appear. [`run`] owns the
//! exit contract: 0 on success, 1 when the run fails, 2 on a bad argument,
//! whose `error:` line and usage go to stderr. Everything a binary prints to
//! stdout goes through [`print_line`]: a reader that has gone away ends the
//! run quietly with 0, like `yes | head`, instead of a panic.

use std::error::Error;
use std::fmt;
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// The last line of every binary's usage text.
pub const EXIT_STATUS: &str = "exit status: 0 on success, 1 on check/IO failure, 2 on bad arguments";

/// One entry of a binary's flag table.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The flag as typed, e.g. `--sites`.
    pub name: &'static str,
    /// The value's placeholder in the usage text; `None` for a switch.
    pub metavar: Option<&'static str>,
    /// Help text; each `\n` starts an indented continuation line.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes exactly one value.
    pub const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
        Flag { name, metavar: Some(metavar), help }
    }

    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag { name, metavar: None, help }
    }
}

/// A binary's command line. Its [`Display`](fmt::Display) form is the
/// usage text.
#[derive(Clone, Copy, Debug)]
pub struct Spec<'a> {
    /// The binary's name.
    pub name: &'a str,
    /// What it does.
    pub about: &'a str,
    /// The synopsis of bare arguments, or empty if it takes none. A binary
    /// that takes operands prints its usage when given none.
    pub operands: &'a str,
    /// A paragraph printed before the options, or empty.
    pub notes: &'a str,
    /// The flag table.
    pub flags: &'a [Flag],
}

impl<'a> Spec<'a> {
    /// A binary that takes no operands and prints no notes.
    pub const fn new(name: &'a str, about: &'a str, flags: &'a [Flag]) -> Spec<'a> {
        Spec { name, about, operands: "", notes: "", flags }
    }
}

const HELP: Flag = Flag::switch("-h, --help", "print this help and exit");

impl fmt::Display for Spec<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} — {}\n", self.name, self.about)?;
        let operands = if self.operands.is_empty() { String::new() } else { format!(" {}", self.operands) };
        writeln!(f, "usage: {}{operands} [options]\n", self.name)?;
        if !self.notes.is_empty() {
            writeln!(f, "{}\n", self.notes)?;
        }
        writeln!(f, "options:")?;
        for flag in self.flags.iter().chain([&HELP]) {
            let head = match flag.metavar {
                Some(metavar) => format!("{} {metavar}", flag.name),
                None => flag.name.to_string(),
            };
            let mut lines = flag.help.lines();
            writeln!(f, "  {head:<20} {}", lines.next().unwrap_or_default())?;
            for line in lines {
                writeln!(f, "  {:<20} {line}", "")?;
            }
        }
        write!(f, "\n{EXIT_STATUS}")
    }
}

/// Why a command line was refused. Every variant exits 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// An argument that is not in the flag table.
    Unknown(String),
    /// A value flag given as the last argument.
    MissingValue(&'static str),
    /// A value that does not parse as the flag's type.
    BadValue { flag: &'static str, value: String },
    /// Values that parse but cannot run together: a zero size, two presets,
    /// a missing required flag, an unknown experiment or query.
    Invalid(String),
}

impl CliError {
    /// The refusal of a zero count or size.
    pub fn zero(flag: &str) -> CliError {
        CliError::Invalid(format!("{flag} must be at least 1"))
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Unknown(arg) => write!(f, "unknown option {arg}"),
            CliError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            CliError::BadValue { flag, value } => write!(f, "invalid value for {flag}: {value}"),
            CliError::Invalid(message) => f.write_str(message),
        }
    }
}

impl Error for CliError {}

/// A parsed command line: every flag given, in argv order, plus operands.
#[derive(Debug)]
pub struct Args<'a> {
    flags: &'a [Flag],
    given: Vec<(&'static str, Option<String>)>,
    /// Bare arguments, for a binary whose [`Spec::operands`] is set.
    pub operands: Vec<String>,
}

impl<'a> Args<'a> {
    /// The single pass over argv. `Ok(None)` means help was asked for.
    pub fn parse(
        spec: &Spec<'a>,
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Option<Args<'a>>, CliError> {
        let mut args = Args { flags: spec.flags, given: Vec::new(), operands: Vec::new() };
        let mut help = false;
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if arg == "--help" || arg == "-h" {
                help = true;
            } else if let Some(flag) = spec.flags.iter().find(|flag| flag.name == arg) {
                let value = match flag.metavar {
                    Some(_) => Some(argv.next().ok_or(CliError::MissingValue(flag.name))?),
                    None => None,
                };
                args.given.push((flag.name, value));
            } else if !spec.operands.is_empty() && !arg.starts_with('-') {
                args.operands.push(arg);
            } else {
                return Err(CliError::Unknown(arg));
            }
        }
        Ok((!help).then_some(args))
    }

    /// Every value given for `flag`, in argv order.
    pub fn all<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'s str> {
        assert!(self.flags.iter().any(|known| known.name == flag), "{flag} is not in the flag table");
        self.given
            .iter()
            .filter(move |(name, _)| *name == flag)
            .map(|(_, value)| value.as_deref().unwrap_or_default())
    }

    /// Whether `flag` was given at all.
    pub fn has(&self, flag: &str) -> bool {
        self.all(flag).next().is_some()
    }

    /// The last value given for `flag`, parsed.
    pub fn value<T: FromStr>(&self, flag: &'static str) -> Result<Option<T>, CliError> {
        self.all(flag).last().map(|value| parse_value(flag, value)).transpose()
    }

    /// Overwrites `slot` with `flag`'s value, if given.
    pub fn set<T: FromStr>(&self, flag: &'static str, slot: &mut T) -> Result<(), CliError> {
        if let Some(value) = self.value(flag)? {
            *slot = value;
        }
        Ok(())
    }

    /// [`set`](Self::set) for a count or size that must be at least 1.
    pub fn set_count(&self, flag: &'static str, slot: &mut usize) -> Result<(), CliError> {
        match self.value(flag)? {
            Some(0) => return Err(CliError::zero(flag)),
            Some(count) => *slot = count,
            None => {}
        }
        Ok(())
    }

    /// A comma-separated list of thread counts, each at least 1.
    pub fn counts(&self, flag: &'static str) -> Result<Option<Vec<usize>>, CliError> {
        let Some(list) = self.all(flag).last() else { return Ok(None) };
        match list.split(',').map(|item| item.trim().parse()).collect::<Result<Vec<usize>, _>>() {
            Ok(counts) if counts.contains(&0) => Err(CliError::zero(flag)),
            Ok(counts) => Ok(Some(counts)),
            Err(_) => Err(CliError::BadValue { flag, value: list.to_string() }),
        }
    }

    /// The one preset of `presets` that was given, if any; two distinct
    /// presets are refused rather than letting the last one win.
    pub fn preset(&self, presets: &[&'static str]) -> Result<Option<&'static str>, CliError> {
        let mut given = presets.iter().copied().filter(|preset| self.has(preset));
        match (given.next(), given.next()) {
            (Some(one), Some(other)) => {
                Err(CliError::Invalid(format!("{one} and {other} cannot be combined")))
            }
            (one, _) => Ok(one),
        }
    }
}

fn parse_value<T: FromStr>(flag: &'static str, value: &str) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::BadValue { flag, value: value.to_string() })
}

/// A binary's `main`: parses argv against `spec`, lets `parse` check the
/// [`Args`] and return the run, and maps the outcome onto the exit contract.
pub fn run<F: FnOnce() -> Result<(), Box<dyn Error>>>(
    spec: &Spec,
    parse: impl FnOnce(&Args) -> Result<F, CliError>,
) -> ExitCode {
    let parsed = match Args::parse(spec, std::env::args().skip(1)) {
        Ok(Some(args)) => {
            parse(&args).map(|body| (spec.operands.is_empty() || !args.operands.is_empty()).then_some(body))
        }
        other => other.map(|_| None),
    };
    match parsed {
        Ok(Some(body)) => exit(body()),
        Ok(None) => exit(print_line(spec)),
        Err(error) => {
            eprintln!("error: {error}\n{spec}");
            ExitCode::from(2)
        }
    }
}

/// The exit code of a finished run: 0 on success or when stdout's reader
/// went away, 1 after an `error:` line for any other failure.
fn exit(outcome: Result<(), Box<dyn Error>>) -> ExitCode {
    match outcome {
        Err(error) if !error.is::<StdoutClosed>() => {
            eprintln!("error: {error}");
            ExitCode::from(1)
        }
        _ => ExitCode::SUCCESS,
    }
}

/// The reader of stdout has gone away (`EPIPE`): nobody reads what is left,
/// so [`run`] stops with exit 0.
#[derive(Debug)]
struct StdoutClosed;

impl fmt::Display for StdoutClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("stdout closed")
    }
}

impl Error for StdoutClosed {}

/// Writes `text` and a newline to stdout and flushes it. A closed reader
/// yields the error [`run`] turns into a quiet exit 0; any other write
/// error is a failed run.
pub fn print_line(text: impl fmt::Display) -> Result<(), Box<dyn Error>> {
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{text}").and_then(|()| stdout.flush()).map_err(|error| match error.kind() {
        ErrorKind::BrokenPipe => Box::new(StdoutClosed) as Box<dyn Error>,
        _ => format!("cannot write to stdout: {error}").into(),
    })
}

/// Writes `text` to `path`, creating the parent directory first.
pub fn write_output(path: &Path, text: &str) -> Result<(), Box<dyn Error>> {
    if let Some(parent) = path.parent().filter(|parent| !parent.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|error| format!("cannot create {}: {error}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|error| format!("cannot write {}: {error}", path.display()).into())
}

/// Runs `run` once per thread count (a non-empty list), requires every
/// rendered report to be byte-identical to the first — the determinism
/// contract, checked on the real workload — and returns that report.
pub fn check_threads(counts: &[usize], mut run: impl FnMut(usize) -> String) -> Result<String, String> {
    let (&base, rest) = counts.split_first().expect("check_threads needs at least one thread count");
    let reference = run(base);
    for &threads in rest {
        if run(threads) != reference {
            return Err(format!("report at threads={threads} differs from threads={base}"));
        }
        eprintln!("threads={threads}: byte-identical to threads={base}");
    }
    Ok(reference)
}
