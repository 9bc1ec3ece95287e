//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Error produced while parsing command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(String);

impl ArgError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for ArgError {}

/// Parsed `--key value` options with typed accessors.
///
/// # Example
///
/// ```
/// use robusthd_cli::ParsedArgs;
///
/// let argv: Vec<String> = ["--dim", "4096", "--help"]
///     .iter()
///     .map(|s| s.to_string())
///     .collect();
/// let args = ParsedArgs::parse(&argv, &["dim"], &["help"])?;
/// assert_eq!(args.get_parsed_or("dim", 10_000usize)?, 4096);
/// assert!(args.flag("help"));
/// # Ok::<(), robusthd_cli::ArgError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl ParsedArgs {
    /// Parses an argument list. Each name in `options` takes the next
    /// argument as its value; each name in `flags` is a boolean flag and
    /// takes none.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for unknown options, positional arguments, and
    /// a value-taking option given without its value (followed by another
    /// option, or by nothing).
    pub fn parse(argv: &[String], options: &[&str], flags: &[&str]) -> Result<Self, ArgError> {
        let mut parsed = Self::default();
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(ArgError::new(format!(
                    "unexpected positional argument `{arg}`"
                )));
            };
            if flags.contains(&name) {
                parsed.flags.push(name.to_owned());
            } else if options.contains(&name) {
                match rest.next() {
                    Some(value) if !value.starts_with("--") => {
                        parsed.values.insert(name.to_owned(), value.clone());
                    }
                    _ => return Err(ArgError::new(format!("`--{name}` needs a value"))),
                }
            } else {
                return Err(ArgError::new(format!(
                    "unknown option `--{name}` (expected one of: {})",
                    options
                        .iter()
                        .chain(flags)
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(parsed)
    }

    /// The raw string value of an option, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A required option's value.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the option is missing.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError::new(format!("missing required option `--{name}`")))
    }

    /// An optional typed value with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse as `T`.
    pub fn get_parsed_or<T>(&self, name: &str, default: T) -> Result<T, ArgError>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<T>()
                .map_err(|e| ArgError::new(format!("invalid value `{raw}` for `--{name}`: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_and_flags() {
        let args = ParsedArgs::parse(
            &argv(&["--rate", "0.1", "--verbose"]),
            &["rate"],
            &["verbose"],
        )
        .expect("valid");
        assert_eq!(args.get("rate"), Some("0.1"));
        assert!(args.flag("verbose"));
        assert!(!args.flag("rate"));
    }

    #[test]
    fn rejects_unknown_options() {
        let err = ParsedArgs::parse(&argv(&["--bogus", "1"]), &["rate"], &[]).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
        assert!(err.to_string().contains("--rate"));
    }

    #[test]
    fn rejects_positional_arguments() {
        let err = ParsedArgs::parse(&argv(&["stray"]), &["rate"], &[]).unwrap_err();
        assert!(err.to_string().contains("positional"));
    }

    #[test]
    fn typed_accessor_parses_and_defaults() {
        let args = ParsedArgs::parse(&argv(&["--dim", "2048"]), &["dim"], &[]).expect("valid");
        assert_eq!(args.get_parsed_or("dim", 0usize).expect("parses"), 2048);
        assert_eq!(args.get_parsed_or("seed", 7u64).expect("default"), 7);
        let bad = ParsedArgs::parse(&argv(&["--dim", "abc"]), &["dim"], &[]).expect("valid");
        assert!(bad.get_parsed_or("dim", 0usize).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let args = ParsedArgs::parse(&[], &["train"], &[]).expect("valid");
        assert!(args
            .require("train")
            .unwrap_err()
            .to_string()
            .contains("--train"));
    }

    #[test]
    fn value_option_without_its_value_is_an_error() {
        for parts in [
            &["--only"][..],
            &["--only", "--json"],
            &["--json", "--only"],
        ] {
            let err = ParsedArgs::parse(&argv(parts), &["only"], &["json"]).unwrap_err();
            assert_eq!(err.to_string(), "`--only` needs a value", "{parts:?}");
        }
    }

    #[test]
    fn flags_take_no_value() {
        let args = ParsedArgs::parse(
            &argv(&["--json", "--only", "fig2", "--burst"]),
            &["only"],
            &["json", "burst", "help"],
        )
        .expect("valid");
        assert!(args.flag("json") && args.flag("burst") && !args.flag("help"));
        assert_eq!(args.get("only"), Some("fig2"));
        // A flag never swallows the argument after it.
        let err = ParsedArgs::parse(&argv(&["--json", "fig2"]), &[], &["json"]).unwrap_err();
        assert!(err.to_string().contains("positional"));
    }
}
