//! The one command-line reader of the bench bins.
//!
//! [`read`] owns the flag loop: it walks the argument list, stops at
//! `--help` / `-h`, and hands every other argument to the bin's handler
//! together with an [`Args`] cursor from which the handler pulls that
//! flag's typed value ([`Args::value`], [`Args::value_where`]) or
//! comma-separated list ([`Args::list`]). The handler answers `Ok(false)`
//! for a flag it does not know and the reader turns that into the
//! `unknown argument` error. A repeated flag simply runs its arm again,
//! so the last occurrence wins (or, for a bin that pushes, accumulates).
//!
//! [`from_env`] is the process edge every bin's `main` goes through: usage
//! on stdout and exit 0 for [`Stop::Help`], `error: …` on stderr and exit
//! 2 for [`Stop::Bad`]. Bins keep only what is theirs — flag names,
//! defaults, ranges and cross-field checks — and leave through [`fail`]
//! (also behind [`read_file`] / [`write_file`]) when they cannot go on.

use crate::observe::ObserveFlags;
use std::fmt::Display;
use std::str::FromStr;

/// Why reading the command line ended without options to run with.
#[derive(Debug, PartialEq)]
pub enum Stop {
    /// `--help` / `-h` was given: print the usage, exit 0.
    Help,
    /// The command line is wrong: print the message, exit 2.
    Bad(String),
}

impl From<String> for Stop {
    fn from(message: String) -> Self {
        Stop::Bad(message)
    }
}

impl From<&str> for Stop {
    fn from(message: &str) -> Self {
        Stop::Bad(message.to_owned())
    }
}

/// The arguments after the flag being handled.
pub struct Args {
    rest: std::vec::IntoIter<String>,
    /// The flag whose arm is running, for error messages.
    flag: String,
}

impl Args {
    fn raw(&mut self) -> Result<String, String> {
        self.rest
            .next()
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    fn parse<T: FromStr>(&self, text: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        text.parse()
            .map_err(|err| format!("bad {} value {text:?}: {err}", self.flag))
    }

    /// The current flag's value, parsed as `T`.
    pub fn value<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let text = self.raw()?;
        self.parse(&text)
    }

    /// [`Args::value`], additionally requiring `ok(&value)`; `wants`
    /// words the requirement for the error (`"positive"`, `"in [0, 1]"`).
    pub fn value_where<T: FromStr + Display>(
        &mut self,
        wants: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String>
    where
        T::Err: Display,
    {
        let value = self.value()?;
        if ok(&value) {
            Ok(value)
        } else {
            Err(format!("{} must be {wants}, got {value}", self.flag))
        }
    }

    /// The current flag's value as a comma-separated list of `T`, every
    /// entry satisfying `ok`. An empty entry (and so an empty list) is a
    /// parse error.
    pub fn list<T: FromStr + Display>(
        &mut self,
        wants: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Vec<T>, String>
    where
        T::Err: Display,
    {
        let text = self.raw()?;
        text.split(',')
            .map(|entry| {
                let value: T = self.parse(entry.trim())?;
                if ok(&value) {
                    Ok(value)
                } else {
                    Err(format!(
                        "{} entries must be {wants}, got {value}",
                        self.flag
                    ))
                }
            })
            .collect()
    }

    /// Takes `--trace PATH` / `--metrics PATH` into `flags`. `Ok(false)`
    /// when the current flag is neither — the tail of a handler's match.
    pub fn observe(&mut self, flags: &mut ObserveFlags) -> Result<bool, String> {
        match self.flag.as_str() {
            "--trace" => flags.trace = Some(self.raw()?),
            "--metrics" => flags.metrics = Some(self.raw()?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Reads `argv` (without the program name) into `options`: `on_flag` is
/// called once per argument with the argument and the cursor behind it,
/// and returns whether it recognised the flag.
pub fn read<O>(
    argv: Vec<String>,
    mut options: O,
    mut on_flag: impl FnMut(&mut O, &str, &mut Args) -> Result<bool, String>,
) -> Result<O, Stop> {
    let mut args = Args {
        rest: argv.into_iter(),
        flag: String::new(),
    };
    while let Some(flag) = args.rest.next() {
        if flag == "--help" || flag == "-h" {
            return Err(Stop::Help);
        }
        args.flag.clone_from(&flag);
        if !on_flag(&mut options, &flag, &mut args)? {
            return Err(Stop::Bad(format!("unknown argument {flag:?}")));
        }
    }
    Ok(options)
}

/// Runs a bin's `read_options` over the process arguments and exits on
/// anything but success: usage and 0 for `--help`, [`fail`] with 2 for a
/// bad command line.
pub fn from_env<O>(usage: &str, read_options: impl FnOnce(Vec<String>) -> Result<O, Stop>) -> O {
    match read_options(std::env::args().skip(1).collect()) {
        Ok(options) => options,
        Err(Stop::Help) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(Stop::Bad(message)) => fail(2, message),
    }
}

/// Ends the process with `error: …` on stderr. The bins' exit codes: 2
/// when what they were given cannot be understood (command line, input
/// contents), 1 when a gate or check fails or a file cannot be read or
/// written.
pub fn fail(code: i32, message: impl Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(code)
}

/// The contents of the file at `path`; unreadable is fatal.
pub fn read_file(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|err| fail(1, format!("cannot read {path}: {err}")))
}

/// Writes `contents` to `path`. Failure is fatal — a bin that silently
/// drops its artifacts would look like success to CI.
pub fn write_file(path: &str, contents: &str) {
    if let Err(err) = std::fs::write(path, contents) {
        fail(1, format!("cannot write {path}: {err}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One flag of each shape the bins use.
    #[derive(Debug, Default, PartialEq)]
    struct Options {
        seed: u64,
        shards: usize,
        rates: Vec<f64>,
        fractions: Vec<f64>,
        counts: Vec<usize>,
        json: bool,
        out: String,
    }

    fn read_options(argv: &[&str]) -> Result<Options, Stop> {
        let argv = argv.iter().map(|arg| arg.to_string()).collect();
        read(argv, Options::default(), |options, flag, args| {
            match flag {
                "--seed" => options.seed = args.value()?,
                "--shards" => options.shards = args.value_where("positive", |&n| n > 0)?,
                "--rates" => options.rates = args.list("in [0, 1]", |r| (0.0..=1.0).contains(r))?,
                "--fractions" => {
                    options.fractions = args.list("in (0, 1)", |&f| f > 0.0 && f < 1.0)?;
                }
                "--counts" => options.counts = args.list("positive", |&n| n > 0)?,
                "--json" => options.json = true,
                "--out" => options.out = args.value()?,
                _ => return Ok(false),
            }
            Ok(true)
        })
    }

    fn bad(argv: &[&str]) -> String {
        match read_options(argv) {
            Err(Stop::Bad(message)) => message,
            other => panic!("{argv:?} should be refused, got {other:?}"),
        }
    }

    #[test]
    fn flags_fill_their_fields_and_the_rest_keep_their_defaults() {
        let options = read_options(&[
            "--seed",
            "7",
            "--rates",
            "0, 0.5,1",
            "--json",
            "--out",
            " spaced path ",
        ])
        .unwrap();
        assert_eq!(
            options,
            Options {
                seed: 7,
                rates: vec![0.0, 0.5, 1.0],
                json: true,
                out: " spaced path ".to_owned(),
                ..Options::default()
            }
        );
        assert_eq!(read_options(&[]).unwrap(), Options::default());
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let options = read_options(&["--seed", "1", "--rates", "0.1", "--seed", "2"]).unwrap();
        assert_eq!(options.seed, 2);
        let options = read_options(&["--rates", "0.1,0.2", "--rates", "0.3"]).unwrap();
        assert_eq!(options.rates, vec![0.3]);
    }

    #[test]
    fn missing_and_malformed_values_are_refused() {
        assert_eq!(bad(&["--seed"]), "--seed needs a value");
        assert_eq!(bad(&["--json", "--rates"]), "--rates needs a value");
        assert!(bad(&["--seed", "seven"]).starts_with("bad --seed value \"seven\""));
        assert!(bad(&["--seed", "-1"]).starts_with("bad --seed value"));
        assert!(bad(&["--seed", " 7"]).starts_with("bad --seed value"));
        // The next flag is not a value.
        assert!(bad(&["--seed", "--json"]).starts_with("bad --seed value \"--json\""));
        assert_eq!(bad(&["--shards", "0"]), "--shards must be positive, got 0");
    }

    #[test]
    fn lists_refuse_empty_and_out_of_range_entries() {
        for empty in ["", ",", "0.1,", ",0.1", "0.1,,0.2"] {
            assert!(
                bad(&["--rates", empty]).starts_with("bad --rates value \"\""),
                "{empty:?}"
            );
        }
        assert!(bad(&["--rates", "0.1,x"]).starts_with("bad --rates value \"x\""));
        for outside in ["NaN", "-0.1", "1.5", "inf", "0.2,1.5"] {
            let message = bad(&["--rates", outside]);
            assert!(
                message.starts_with("--rates entries must be in [0, 1]"),
                "{message}"
            );
        }
        assert_eq!(read_options(&["--rates", "0,1"]).unwrap().rates, [0.0, 1.0]);
        for outside in ["0", "1", "NaN", "0.5,1"] {
            let message = bad(&["--fractions", outside]);
            assert!(
                message.starts_with("--fractions entries must be in (0, 1)"),
                "{message}"
            );
        }
        assert_eq!(
            bad(&["--counts", "4,0"]),
            "--counts entries must be positive, got 0"
        );
        assert!(bad(&["--counts", "4,-1"]).starts_with("bad --counts value \"-1\""));
    }

    #[test]
    fn unknown_flags_and_help_stop_the_read() {
        assert_eq!(
            bad(&["--no-such-flag"]),
            "unknown argument \"--no-such-flag\""
        );
        assert_eq!(bad(&["--seed", "1", "stray"]), "unknown argument \"stray\"");
        // Help wins wherever it stands, but only in flag position.
        assert_eq!(read_options(&["--help"]), Err(Stop::Help));
        assert_eq!(
            read_options(&["--seed", "1", "-h", "--bogus"]),
            Err(Stop::Help)
        );
        assert_eq!(read_options(&["--out", "--help"]).unwrap().out, "--help");
        // An earlier error is reported before a later --help is seen.
        assert_eq!(bad(&["--bogus", "--help"]), "unknown argument \"--bogus\"");
    }
}
