//! Minimal `--flag value` argument parsing (no external dependencies —
//! the workspace's dependency policy allows only the approved crates, and
//! the CLI surface is small enough that a parser crate would be overkill).

use std::collections::HashMap;

/// Parsed arguments: positionals in order, flags as `--name value`.
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `argv`. Flags must be `--name value` pairs; a flag followed
    /// by another flag (or by nothing) has no value and is an error.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                if flags.insert(name.to_string(), value.clone()).is_some() {
                    return Err(format!("flag --{name} given twice"));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(|s| s.as_str())
    }

    /// A required flag.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// An optional flag parsed to a type, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse {v:?}")),
        }
    }

    /// A `true | false` flag; absent means `false`.
    pub fn flag_bool(&self, name: &str) -> Result<bool, String> {
        match self.optional(name) {
            None | Some("false") => Ok(false),
            Some("true") => Ok(true),
            Some(other) => Err(format!("bad --{name} {other:?} (true | false)")),
        }
    }

    /// Error if any flag was not consumed by the command (catches typos).
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        for k in self.flags.keys() {
            if !known.contains(&k.as_str()) {
                return Err(format!("unknown flag --{k}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_and_flags() {
        let a = Args::parse(&sv(&["run", "bfs", "--source", "7", "--gpus", "2"])).unwrap();
        assert_eq!(a.positional(0), Some("run"));
        assert_eq!(a.positional(1), Some("bfs"));
        assert_eq!(a.required("source").unwrap(), "7");
        assert_eq!(a.get_or("gpus", 1usize).unwrap(), 2);
        assert_eq!(a.get_or("streams", 16usize).unwrap(), 16);
    }

    #[test]
    fn trailing_flag_without_value_is_an_error() {
        assert!(Args::parse(&sv(&["--out"])).is_err());
    }

    #[test]
    fn a_flag_is_never_taken_as_another_flags_value() {
        let err = Args::parse(&sv(&["run", "--json", "--host-threads", "4"])).err();
        assert_eq!(err.as_deref(), Some("flag --json needs a value"));
    }

    #[test]
    fn boolean_flags_accept_only_true_or_false() {
        let a = Args::parse(&sv(&["--json", "true", "--resume", "false", "--x", "yes"])).unwrap();
        assert_eq!(a.flag_bool("json"), Ok(true));
        assert_eq!(a.flag_bool("resume"), Ok(false));
        assert_eq!(a.flag_bool("absent"), Ok(false));
        assert!(a.flag_bool("x").unwrap_err().contains("--x"));
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(Args::parse(&sv(&["--x", "1", "--x", "2"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let a = Args::parse(&sv(&["--scale", "10", "--oops", "1"])).unwrap();
        assert!(a.reject_unknown(&["scale"]).is_err());
        assert!(a.reject_unknown(&["scale", "oops"]).is_ok());
    }

    #[test]
    fn bad_parse_reports_flag_name() {
        let a = Args::parse(&sv(&["--gpus", "two"])).unwrap();
        let err = a.get_or("gpus", 1usize).unwrap_err();
        assert!(err.contains("--gpus"));
    }
}
