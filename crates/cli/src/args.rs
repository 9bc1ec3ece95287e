//! The command table's types, and the `--name value` parsing they drive
//! (no external dependencies).
//!
//! Each subcommand is one [`Command`]: its name, summary, prose, options
//! and handler. Each option is declared once, as an [`Opt`]; parsing,
//! defaults, `--help`, the usage list and the unknown-option error all
//! read that one declaration.

use std::collections::HashMap;
use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// One declared option, named without its leading `--`. A value-taking
/// option shows its value as `<METAVAR>` in `--help`. Each help text may
/// hold `\n`s, which continue it on aligned lines; `--help` appends
/// "(required)" or "(default …)" from the variant.
#[derive(Debug, Clone, Copy)]
pub enum Opt {
    /// `Flag(name, help)`: a boolean flag, present or absent.
    Flag(&'static str, &'static str),
    /// `Required(name, metavar, help)`: takes a value that must be given.
    Required(&'static str, &'static str, &'static str),
    /// `Optional(name, metavar, help)`: takes a value; when absent there is
    /// none.
    Optional(&'static str, &'static str, &'static str),
    /// `Defaulted(name, metavar, default, help)`: takes a value; when
    /// absent it is the default, parsed like a given value.
    Defaulted(&'static str, &'static str, &'static str, &'static str),
}

impl Opt {
    /// The option's name, without the leading `--`.
    pub fn name(&self) -> &'static str {
        match *self {
            Opt::Flag(name, _)
            | Opt::Required(name, ..)
            | Opt::Optional(name, ..)
            | Opt::Defaulted(name, ..) => name,
        }
    }
}

/// One subcommand, declared completely: the command table's entry.
#[derive(Debug)]
pub struct Command {
    /// The name that selects the command: `robusthd <name>`.
    pub name: &'static str,
    /// The command's line in the usage list.
    pub summary: &'static str,
    /// The `--help` prose: a title line, then any paragraphs.
    pub about: &'static str,
    /// The options in `--help` order, as groups that commands share.
    /// `--help` itself is accepted by every command and is not declared.
    pub options: &'static [&'static [Opt]],
    /// Runs the command on its parsed options, returning the report.
    pub run: fn(&Args) -> Result<String, String>,
}

impl Command {
    /// The declared options, in order.
    pub fn opts(&self) -> impl Iterator<Item = &'static Opt> {
        self.options.iter().flat_map(|group| group.iter())
    }

    /// Parses `argv` and runs the command, or renders its help when
    /// `--help` is among the options.
    ///
    /// # Errors
    ///
    /// Returns the parse error, or the command's own error.
    pub fn invoke(&'static self, argv: &[String]) -> Result<String, String> {
        let args = Args::parse(self, argv)?;
        if args.help {
            return Ok(self.help());
        }
        (self.run)(&args)
    }

    /// The `--help` text: the prose, then one aligned line per option.
    pub fn help(&self) -> String {
        let mut rows: Vec<(String, String)> = self
            .opts()
            .map(|opt| match *opt {
                Opt::Flag(name, help) => (format!("--{name}"), help.to_owned()),
                Opt::Required(name, metavar, help) => (
                    format!("--{name} <{metavar}>"),
                    format!("{help} (required)"),
                ),
                Opt::Optional(name, metavar, help) => {
                    (format!("--{name} <{metavar}>"), help.to_owned())
                }
                Opt::Defaulted(name, metavar, default, help) => (
                    format!("--{name} <{metavar}>"),
                    format!("{help} (default {default})"),
                ),
            })
            .collect();
        if rows.is_empty() {
            rows.push(("--help".to_owned(), "show this help".to_owned()));
        }
        let width = rows.iter().map(|(left, _)| left.len()).max().unwrap_or(0) + 3;
        let indent = format!("\n{:width$}", "", width = width + 4);
        let mut out = format!("robusthd {} — {}\n\nOPTIONS:", self.name, self.about);
        for (left, help) in rows {
            let _ = write!(out, "\n    {left:<width$}{}", help.replace('\n', &indent));
        }
        out
    }
}

/// The top-level usage text, listing `commands` with their summaries.
pub fn usage(commands: &[Command]) -> String {
    let width = commands.iter().map(|c| c.name.len()).max().unwrap_or(0);
    let mut out = "\
robusthd — RobustHD (DAC 2022) pipeline on CSV datasets

USAGE:
    robusthd <COMMAND> [OPTIONS]

COMMANDS:"
        .to_owned();
    for command in commands {
        let _ = write!(out, "\n    {:<width$} {}", command.name, command.summary);
    }
    out.push_str("\n\nRun `robusthd <COMMAND> --help` for per-command options.");
    out
}

/// One command's parsed options, read through their declarations.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    values: HashMap<&'static str, String>,
    flags: Vec<&'static str>,
    help: bool,
}

impl Args {
    /// Parses `argv` against `command`'s declared options. A value-taking
    /// option takes the next argument as its value; a flag takes none.
    ///
    /// # Errors
    ///
    /// Returns an error for an undeclared option (listing the declared
    /// ones), a positional argument, and a value-taking option given
    /// without its value (followed by another option, or by nothing).
    pub fn parse(command: &'static Command, argv: &[String]) -> Result<Self, String> {
        let mut args = Self {
            command,
            values: HashMap::new(),
            flags: Vec::new(),
            help: false,
        };
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            match command.opts().find(|opt| opt.name() == name) {
                Some(Opt::Flag(name, _)) => args.flags.push(name),
                Some(opt) => match rest.next() {
                    Some(value) if !value.starts_with("--") => {
                        args.values.insert(opt.name(), value.clone());
                    }
                    _ => return Err(format!("`--{name}` needs a value")),
                },
                None if name == "help" => args.help = true,
                None => return Err(unknown_option(command, name)),
            }
        }
        Ok(args)
    }

    /// The option's value parsed as `T`: the given value, else the
    /// declared default.
    ///
    /// # Errors
    ///
    /// Returns an error when the option was not given and has no default,
    /// or when its value does not parse as `T`.
    pub fn get<T>(&self, name: &str) -> Result<T, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        self.opt(name)?
            .ok_or_else(|| format!("missing required option `--{name}`"))
    }

    /// Like [`Args::get`], but an option that was not given and has no
    /// default is `None`.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse as `T`.
    pub fn opt<T>(&self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        let raw = match (self.values.get(name), self.declared(name)) {
            (Some(value), _) => value.as_str(),
            (None, Opt::Defaulted(_, _, default, _)) => default,
            (None, _) => return Ok(None),
        };
        raw.parse()
            .map(Some)
            .map_err(|e| format!("invalid value `{raw}` for `--{name}`: {e}"))
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.declared(name);
        self.flags.contains(&name)
    }

    /// The declaration of `name`; asking for an undeclared option is a bug
    /// in the command, not a user error.
    fn declared(&self, name: &str) -> &'static Opt {
        self.command
            .opts()
            .find(|opt| opt.name() == name)
            .unwrap_or_else(|| panic!("`robusthd {}` declares no `--{name}`", self.command.name))
    }
}

/// The unknown-option error: the value-taking options, then the flags,
/// then `--help`, each in declaration order.
fn unknown_option(command: &Command, name: &str) -> String {
    let (flags, values): (Vec<&Opt>, Vec<&Opt>) =
        command.opts().partition(|opt| matches!(opt, Opt::Flag(..)));
    let expected: Vec<String> = values
        .iter()
        .chain(&flags)
        .map(|opt| format!("--{}", opt.name()))
        .chain(["--help".to_owned()])
        .collect();
    format!(
        "unknown option `--{name}` (expected one of: {})",
        expected.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::Opt::{Defaulted, Flag, Optional, Required};
    use super::*;

    static TOY: Command = Command {
        name: "toy",
        summary: "A toy command",
        about: "a toy command",
        options: &[
            &[
                Required("train", "PATH", "training CSV"),
                Defaulted("dim", "N", "4096", "dimensionality"),
                Flag("json", "emit JSON\nacross two lines"),
            ],
            &[Optional("only", "NAME", "one artifact")],
        ],
        run: |_| Ok("ran".to_owned()),
    };

    fn parse(parts: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        Args::parse(&TOY, &argv)
    }

    #[test]
    fn parses_values_flags_and_defaults() {
        let args = parse(&["--train", "t.csv", "--json"]).expect("valid");
        assert_eq!(args.get::<String>("train").expect("given"), "t.csv");
        assert_eq!(args.get::<usize>("dim").expect("default"), 4096);
        assert_eq!(args.opt::<String>("only").expect("absent"), None);
        assert!(args.flag("json"));
        let args = parse(&["--dim", "2048", "--only", "fig2"]).expect("valid");
        assert_eq!(args.get::<usize>("dim").expect("given"), 2048);
        assert_eq!(
            args.opt::<String>("only").expect("given").as_deref(),
            Some("fig2")
        );
        assert!(!args.flag("json"));
    }

    #[test]
    fn rejects_unknown_options_listing_values_then_flags_then_help() {
        let err = parse(&["--bogus", "1"]).unwrap_err();
        assert_eq!(
            err,
            "unknown option `--bogus` (expected one of: --train, --dim, --only, --json, --help)"
        );
    }

    #[test]
    fn rejects_positional_arguments() {
        let err = parse(&["stray"]).unwrap_err();
        assert!(err.contains("positional"), "{err}");
        // A flag never swallows the argument after it.
        let err = parse(&["--json", "fig2"]).unwrap_err();
        assert!(err.contains("positional"), "{err}");
    }

    #[test]
    fn reports_missing_and_unparsable_values() {
        let args = parse(&["--dim", "abc"]).expect("valid");
        assert_eq!(
            args.get::<String>("train").unwrap_err(),
            "missing required option `--train`"
        );
        assert!(args
            .get::<usize>("dim")
            .unwrap_err()
            .contains("`abc` for `--dim`"));
    }

    #[test]
    fn value_option_without_its_value_is_an_error() {
        for parts in [
            &["--only"][..],
            &["--only", "--json"],
            &["--json", "--only"],
        ] {
            let err = parse(parts).unwrap_err();
            assert_eq!(err, "`--only` needs a value", "{parts:?}");
        }
    }

    #[test]
    fn help_is_implicit_and_rendered_from_the_declarations() {
        let argv = ["--help".to_owned()];
        let help = TOY.invoke(&argv).expect("help");
        assert_eq!(
            help,
            "robusthd toy — a toy command

OPTIONS:
    --train <PATH>   training CSV (required)
    --dim <N>        dimensionality (default 4096)
    --json           emit JSON
                     across two lines
    --only <NAME>    one artifact"
        );
        assert_eq!(TOY.invoke(&[]).expect("runs"), "ran");
    }

    #[test]
    #[should_panic(expected = "declares no `--threads`")]
    fn asking_for_an_undeclared_option_panics() {
        let _ = parse(&[]).expect("valid").get::<usize>("threads");
    }
}
