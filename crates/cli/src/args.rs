//! A small `--flag value` argument parser (no CLI crate is on the
//! offline dependency list).

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone)]
pub struct Args {
    command: String,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `argv[1..]`: the first token is the subcommand, the rest
    /// must be `--key value` pairs.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut it = argv.iter();
        let command = it.next().cloned().ok_or("missing subcommand")?;
        let mut flags = HashMap::new();
        while let Some(token) = it.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{token}`"))?;
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            if flags.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(Args { command, flags })
    }

    /// The subcommand.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// A required string flag.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A parsed flag with a default.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse `{raw}`")),
        }
    }

    /// A required parsed flag.
    pub fn get<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.required(key)?;
        raw.parse()
            .map_err(|_| format!("flag --{key}: cannot parse `{raw}`"))
    }

    /// A parsed flag — `default` when absent, required when `None` —
    /// that `ok` accepts. A value outside what a library asserts on is
    /// refused here, naming the flag and `want`, instead of panicking
    /// further down.
    pub fn get_valid<T: FromStr + Display>(
        &self,
        key: &str,
        default: Option<T>,
        want: &str,
        ok: impl FnOnce(&T) -> bool,
    ) -> Result<T, String> {
        let value = match default {
            Some(default) => self.get_or(key, default)?,
            None => self.get(key)?,
        };
        if ok(&value) {
            Ok(value)
        } else {
            Err(format!("--{key} must be {want}, got {value}"))
        }
    }

    /// Rejects unknown flags (typo protection).
    pub fn expect_only(&self, known: &[&str]) -> Result<(), String> {
        for key in self.flags.keys() {
            if !known.contains(&key.as_str()) {
                return Err(format!(
                    "unknown flag --{key} for `{}` (known: {})",
                    self.command,
                    known.join(", ")
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(&argv("train --input x.csv --period 300")).unwrap();
        assert_eq!(a.command(), "train");
        assert_eq!(a.required("input").unwrap(), "x.csv");
        assert_eq!(a.get::<u32>("period").unwrap(), 300);
        assert_eq!(a.get_or("eps", 30.0).unwrap(), 30.0);
    }

    #[test]
    fn missing_subcommand() {
        assert!(Args::parse(&[]).is_err());
    }

    #[test]
    fn flag_without_value() {
        assert!(Args::parse(&argv("x --input")).is_err());
    }

    #[test]
    fn non_flag_token_rejected() {
        assert!(Args::parse(&argv("x input.csv")).is_err());
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert!(Args::parse(&argv("x --a 1 --a 2")).is_err());
    }

    #[test]
    fn unknown_flag_detected() {
        let a = Args::parse(&argv("x --good 1 --bad 2")).unwrap();
        assert!(a.expect_only(&["good"]).unwrap_err().contains("--bad"));
        assert!(a.expect_only(&["good", "bad"]).is_ok());
    }

    #[test]
    fn out_of_range_values_name_the_flag_and_the_range() {
        let a = Args::parse(&argv("x --k 0")).unwrap();
        let positive = |v: &u32| *v > 0;
        assert_eq!(
            a.get_valid("k", Some(1), "positive", positive).unwrap_err(),
            "--k must be positive, got 0"
        );
        assert_eq!(a.get_valid("n", Some(3), "positive", positive), Ok(3));
        assert!(a.get_valid("n", None, "positive", positive).is_err());
    }

    #[test]
    fn parse_errors_name_the_flag() {
        let a = Args::parse(&argv("x --n abc")).unwrap();
        assert!(a.get::<u32>("n").unwrap_err().contains("--n"));
        assert!(a.get::<u32>("missing").unwrap_err().contains("--missing"));
    }
}
