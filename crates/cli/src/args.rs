//! Minimal `--flag value` argument parsing (no external dependencies —
//! the workspace's dependency policy allows only the approved crates, and
//! the CLI surface is small enough that a parser crate would be overkill).
//!
//! A command's synopsis — the text `gts help` prints for it — is its flag
//! table: [`Args::declare`] reads the accepted `--name` set and the
//! positional arity out of it, so a flag exists by being documented.

use std::collections::HashMap;

/// Parsed arguments: positionals in order, flags as `--name value`.
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
    /// The flag names of the synopsis this command line was checked
    /// against.
    declared: Vec<&'static str>,
}

/// What a synopsis declares: every `--name` in it, and how many `<...>`
/// placeholders stand on their own rather than as a flag's value.
fn read_synopsis(synopsis: &'static str) -> (Vec<&'static str>, usize) {
    let mut flags = Vec::new();
    let mut positionals = 0;
    let mut after_flag = false;
    for word in synopsis.split_whitespace() {
        let flag = word.trim_start_matches('[').strip_prefix("--");
        if let Some(name) = flag {
            flags.push(name.trim_end_matches(']'));
        } else if word.starts_with('<') && !after_flag {
            positionals += 1;
        }
        after_flag = flag.is_some();
    }
    (flags, positionals)
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
        Ok(Args {
            positional,
            flags,
            declared: Vec::new(),
        })
    }

    /// Check the command line against `synopsis` (`gts <command> ...`):
    /// a flag it does not name is an error (catches typos), and so is a
    /// missing or stray positional after the command word.
    pub fn declare(&mut self, synopsis: &'static str) -> Result<(), String> {
        let (declared, arity) = read_synopsis(synopsis);
        let unknown = self
            .flags
            .keys()
            .filter(|k| !declared.contains(&k.as_str()));
        if let Some(k) = unknown.min() {
            return Err(format!("unknown flag --{k}"));
        }
        if let Some(stray) = self.positional.get(1 + arity) {
            return Err(format!("unexpected argument {stray:?}\nusage: {synopsis}"));
        }
        if self.positional.len() < 1 + arity {
            return Err(format!("usage: {synopsis}"));
        }
        self.declared = declared;
        Ok(())
    }

    /// The command word (`gts <command> ...`), when there is one.
    pub fn command(&self) -> Option<&str> {
        self.positional.first().map(|s| s.as_str())
    }

    /// The `i`-th positional after the command word; [`Args::declare`]
    /// checked that there are exactly as many as the synopsis shows.
    pub fn positional(&self, i: usize) -> &str {
        &self.positional[1 + i]
    }

    /// An optional flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.declared.contains(&name),
            "--{name} is read but not in the command's synopsis"
        );
        self.flags.get(name).map(|s| s.as_str())
    }

    /// A required flag.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.optional(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional flag parsed to a type; `hint` says what a good value
    /// looks like.
    pub fn parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        hint: &str,
    ) -> Result<Option<T>, String> {
        self.optional(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad --{name} {v:?} ({hint})"))
            })
            .transpose()
    }

    /// An optional flag parsed to a type, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self
            .parsed(name, std::any::type_name::<T>())?
            .unwrap_or(default))
    }

    /// A `true | false` flag; absent means `false`.
    pub fn flag_bool(&self, name: &str) -> Result<bool, String> {
        Ok(self.parsed(name, "true | false")?.unwrap_or(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn declared(argv: &[&str], synopsis: &'static str) -> Result<Args, String> {
        let mut a = Args::parse(&sv(argv))?;
        a.declare(synopsis)?;
        Ok(a)
    }

    #[test]
    fn parses_positionals_and_flags() {
        let a = declared(
            &["run", "bfs", "--source", "7", "--gpus", "2"],
            "gts run <algorithm> [--source N] [--gpus N] [--streams N]",
        )
        .unwrap();
        assert_eq!(a.command(), Some("run"));
        assert_eq!(a.positional(0), "bfs");
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
        let a = declared(
            &["x", "--json", "true", "--resume", "false", "--x", "yes"],
            "gts x [--json true] [--resume true] [--absent true] [--x true]",
        )
        .unwrap();
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
        let argv = ["x", "--scale", "10", "--oops", "1"];
        let err = declared(&argv, "gts x [--scale N]").err();
        assert_eq!(err.as_deref(), Some("unknown flag --oops"));
        assert!(declared(&argv, "gts x [--scale N] [--oops N]").is_ok());
    }

    #[test]
    fn bad_parse_reports_flag_name() {
        let a = declared(&["x", "--gpus", "two"], "gts x [--gpus N]").unwrap();
        let err = a.get_or("gpus", 1usize).unwrap_err();
        assert!(err.contains("--gpus"));
    }

    #[test]
    fn a_synopsis_declares_its_flags_and_its_arity() {
        let (flags, arity) = read_synopsis(
            "gts run      <algorithm>\n               --store <store file>\n               \
             [--source N] [--strategy p|s] [--storage mem|ssd:N|hdd:N] [--json true]",
        );
        assert_eq!(flags, ["store", "source", "strategy", "storage", "json"]);
        assert_eq!(
            arity, 1,
            "<store file> is --store's value, not a positional"
        );
        assert_eq!(read_synopsis("gts help"), (vec![], 0));
        // Arity is exact: a missing positional and a stray one both fail.
        let synopsis = "gts info     <store file>";
        assert!(declared(&["info", "s"], synopsis).is_ok());
        let err = declared(&["info"], synopsis).err().unwrap();
        assert!(err.starts_with("usage: gts info"), "{err}");
        let err = declared(&["info", "s", "extra"], synopsis).err().unwrap();
        assert!(err.contains("unexpected argument \"extra\""), "{err}");
    }
}
