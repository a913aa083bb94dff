//! Minimal flag parsing for the CLI (no external dependency).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors from command-line parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No command was given.
    MissingCommand,
    /// A flag was given without a value.
    MissingValue(String),
    /// A flag appeared twice.
    Duplicate(String),
    /// A value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
        /// Expected kind, e.g. "integer".
        expected: &'static str,
    },
    /// A positional argument appeared where a flag was expected.
    Unexpected(String),
    /// The command word names no command.
    UnknownCommand(String),
    /// A flag the command does not accept.
    UnknownFlag {
        /// The command word.
        command: String,
        /// The rejected flag.
        flag: String,
    },
    /// A required flag is absent.
    Required(&'static str),
    /// A command that acts on an address was given none.
    MissingAddress(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command given (try `ppm help`)"),
            ArgError::MissingValue(flag) => write!(f, "flag {flag} needs a value"),
            ArgError::Duplicate(flag) => write!(f, "flag {flag} given twice"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "flag {flag}: {value:?} is not a valid {expected}"),
            ArgError::Unexpected(arg) => write!(f, "unexpected argument {arg:?}"),
            ArgError::UnknownCommand(command) => {
                write!(f, "unknown command {command:?} (try `ppm help`)")
            }
            ArgError::UnknownFlag { command, flag } => {
                write!(f, "`ppm {command}` does not accept {flag} (try `ppm help`)")
            }
            ArgError::Required(flag) => write!(f, "missing required flag {flag}"),
            ArgError::MissingAddress(command) => {
                write!(f, "usage: ppm {command} <addr> [flags] (see `ppm help`)")
            }
        }
    }
}

impl Error for ArgError {}

/// A parsed command line: the command word plus `--flag value` pairs
/// and boolean `--flag` switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The first positional argument.
    pub command: String,
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

/// The simulated machine's configuration flags (`config_from`).
macro_rules! config_flags {
    () => {
        "--depth --rob --iq --lsq --l2-kb --l2-lat --il1-kb --dl1-kb --dl1-lat "
    };
}

/// The configuration flags as one list, for `ppm simulate --batch`,
/// which draws its own configurations and so rejects them.
pub(crate) const CONFIG_FLAGS: &str = config_flags!();

/// The workload surrogate and its trace.
macro_rules! workload_flags {
    () => {
        "--benchmark --instructions --seed "
    };
}

/// Every command with the flags it accepts: its name, the flags that
/// take a value, then `|` and the switches. `<addr>` marks a command
/// that takes bare positional arguments (`ppm serve 127.0.0.1:8080`).
const COMMANDS: &[&str] = &[
    "help",
    "benchmarks",
    concat!(
        "simulate ",
        workload_flags!(),
        config_flags!(),
        "--batch | --energy"
    ),
    concat!(
        "build ",
        workload_flags!(),
        "--out --sample --metric --holdout --train-threads --lhs-candidates --checkpoint \
         | --resume"
    ),
    concat!("predict ", config_flags!(), "--model"),
    "screen --benchmark --instructions",
    concat!("firstorder ", workload_flags!(), config_flags!()),
    concat!("workload-info ", workload_flags!()),
    "report --candidate --against --json-out --max-stage-ratio --min-stage-us \
     --max-error-ratio --error-slack-pp --counter-tol",
    "check-trace --file",
    "bench-export --ledger --stage --bench --out",
    "lint --root --conf --format --rule",
    "top <addr> --interval-ms | --once",
    "tail <addr> --interval-ms --limit --outcome --min-ms | --once",
    "serve <addr> --registry --benchmark --chaos --workers --queue --deadline-ms \
     --max-deadline-ms --degrade-depth --fail-streak --probe-every --trace-ring \
     --trace-sample --trace-slow-keep --slo-availability --slo-latency-ms | --no-trace",
    "publish --model --registry",
    "loadtest <addr> --requests --concurrency --rate --deadline-ms --slo-p99-ms --out \
     --ab --ab-out | --no-trace-check",
];

/// The observability flags, accepted by every command.
const OBSERVABILITY: &str =
    "--metrics-out --live --trace-out --ledger-out --ledger-dir | --quiet --trace --no-ledger";

/// `Some(true)` when `accepts` (a [`COMMANDS`] entry past its name)
/// lists `flag` as a switch, `Some(false)` when it takes a value, `None`
/// when absent.
fn is_switch(accepts: &str, flag: &str) -> Option<bool> {
    let (values, switches) = accepts.split_once('|').unwrap_or((accepts, ""));
    let listed = |list: &str| list.split_whitespace().any(|f| f == flag);
    if listed(values) {
        Some(false)
    } else {
        listed(switches).then_some(true)
    }
}

impl Parsed {
    /// Parses raw arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// See [`ArgError`].
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let args: Vec<String> = args.into_iter().collect();
        // `--help` / `-h` anywhere asks for the usage text: `ppm help`.
        if args.iter().any(|a| a == "--help" || a == "-h") {
            return Ok(Parsed {
                command: "help".to_string(),
                values: BTreeMap::new(),
                switches: Vec::new(),
                positionals: Vec::new(),
            });
        }
        let mut iter = args.into_iter();
        let command = iter.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with('-') {
            return Err(ArgError::Unexpected(command));
        }
        let accepts = COMMANDS
            .iter()
            .find_map(|spec| {
                let (name, accepts) = spec.split_once(' ').unwrap_or((spec, ""));
                (name == command).then_some(accepts)
            })
            .ok_or_else(|| ArgError::UnknownCommand(command.clone()))?;
        let mut values = BTreeMap::new();
        let mut switches = Vec::new();
        let mut positionals = Vec::new();
        while let Some(arg) = iter.next() {
            if !arg.starts_with("--") {
                if accepts.starts_with("<addr>") {
                    positionals.push(arg);
                    continue;
                }
                return Err(ArgError::Unexpected(arg));
            }
            match is_switch(accepts, &arg).or_else(|| is_switch(OBSERVABILITY, &arg)) {
                Some(true) => {
                    switches.push(arg);
                    continue;
                }
                Some(false) => {}
                None => return Err(ArgError::UnknownFlag { command, flag: arg }),
            }
            let value = iter
                .next()
                .ok_or_else(|| ArgError::MissingValue(arg.clone()))?;
            if values.insert(arg.clone(), value).is_some() {
                return Err(ArgError::Duplicate(arg));
            }
        }
        Ok(Parsed {
            command,
            values,
            switches,
            positionals,
        })
    }

    /// Positional arguments after the command word (only positional
    /// commands ever have any).
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The first positional argument: the address a positional
    /// command acts on.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingAddress`] when there is none.
    pub(crate) fn address(&self) -> Result<String, ArgError> {
        self.positionals
            .first()
            .cloned()
            .ok_or_else(|| ArgError::MissingAddress(self.command.clone()))
    }

    /// A string flag's value, if present.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// [`ArgError::Required`] when absent.
    pub fn require(&self, flag: &'static str) -> Result<&str, ArgError> {
        self.get(flag).ok_or(ArgError::Required(flag))
    }

    /// A numeric flag with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when present but unparseable.
    pub fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                value: v.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// True if a boolean switch was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// Every provided flag as a `(name, value)` pair, sorted by name,
    /// with switches valued `"true"` — the run ledger's `args` block.
    pub fn flag_pairs(&self) -> Vec<(String, String)> {
        let mut pairs: Vec<(String, String)> = self
            .values
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        pairs.extend(
            self.switches
                .iter()
                .map(|s| (s.clone(), "true".to_string())),
        );
        pairs.sort();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Parsed, ArgError> {
        Parsed::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_flags_and_switches() {
        let p = parse(&["simulate", "--benchmark", "mcf", "--rob", "64", "--energy"]).unwrap();
        assert_eq!(p.command, "simulate");
        assert_eq!(p.get("--benchmark"), Some("mcf"));
        assert_eq!(p.num("--rob", 0u32).unwrap(), 64);
        assert!(p.switch("--energy"));
        assert!(!p.switch("--quiet"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let p = parse(&["simulate"]).unwrap();
        assert_eq!(p.num("--rob", 76u32).unwrap(), 76);
        assert_eq!(p.num("--iq", 0.5f64).unwrap(), 0.5);
    }

    #[test]
    fn error_cases() {
        assert_eq!(parse(&[]), Err(ArgError::MissingCommand));
        assert!(matches!(
            parse(&["build", "--out"]),
            Err(ArgError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&["simulate", "--rob", "1", "--rob", "2"]),
            Err(ArgError::Duplicate(_))
        ));
        assert!(matches!(
            parse(&["build", "stray"]),
            Err(ArgError::Unexpected(_))
        ));
        let p = parse(&["simulate", "--rob", "lots"]).unwrap();
        assert!(matches!(
            p.num("--rob", 0u32),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(
            p.require("--out"),
            Err(ArgError::Required("--out"))
        ));
    }

    #[test]
    fn flags_outside_the_command_table_are_rejected() {
        // Flags are per command: `build` reads no machine configuration
        // and `--once` is a switch of `top` and `tail` only.
        for args in [&["build", "--rob", "96"][..], &["build", "--once"]] {
            assert!(
                matches!(parse(args), Err(ArgError::UnknownFlag { .. })),
                "{args:?}"
            );
        }
        // The observability flags ride along on every command.
        for spec in COMMANDS {
            let command = spec.split(' ').next().unwrap_or_default();
            let p = parse(&[command, "--quiet", "--metrics-out", "m.jsonl"]).unwrap();
            assert!(p.switch("--quiet"), "{command}");
        }
        assert_eq!(
            parse(&["analyze"]),
            Err(ArgError::UnknownCommand("analyze".into()))
        );
    }

    #[test]
    fn top_accepts_a_positional_address_others_do_not() {
        let p = parse(&["top", "127.0.0.1:9090", "--once"]).unwrap();
        assert_eq!(p.positionals(), ["127.0.0.1:9090".to_string()]);
        assert!(p.switch("--once"));
        // The strict surface is preserved everywhere else.
        assert!(matches!(
            parse(&["build", "127.0.0.1:9090"]),
            Err(ArgError::Unexpected(_))
        ));
        let bare = parse(&["top"]).unwrap();
        assert!(bare.positionals().is_empty());
    }

    #[test]
    fn flag_pairs_are_sorted_and_include_switches() {
        let p = parse(&["build", "--seed", "7", "--no-ledger", "--benchmark", "mcf"]).unwrap();
        assert_eq!(
            p.flag_pairs(),
            vec![
                ("--benchmark".to_string(), "mcf".to_string()),
                ("--no-ledger".to_string(), "true".to_string()),
                ("--seed".to_string(), "7".to_string()),
            ]
        );
        assert!(p.switch("--no-ledger"));
    }

    #[test]
    fn errors_display_helpfully() {
        let e = ArgError::BadValue {
            flag: "--rob".into(),
            value: "x".into(),
            expected: "u32",
        };
        assert!(e.to_string().contains("--rob"));
        assert!(ArgError::MissingCommand.to_string().contains("help"));
    }
}
