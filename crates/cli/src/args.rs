//! Minimal flag parser: `--key value` pairs and boolean `--key` switches.
//! Hand-rolled to keep the dependency set at zero (the allowed workspace
//! crates include no argument parser).

use std::collections::BTreeMap;

/// Parsed `--key value` / `--switch` arguments.
#[derive(Debug, Default)]
pub struct ParsedArgs {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &[
    "no-stemming",
    "no-fallback",
    "stdin",
    "outcome",
    "invalidate-on-swap",
    "json",
    "strict",
    "heap",
    "overlay",
    "no-trace",
    "no-history",
    "no-live",
    "no-eval",
    "slow",
];

impl ParsedArgs {
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut out = ParsedArgs::default();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {arg:?}"))?;
            if SWITCHES.contains(&key) {
                out.switches.push(key.to_string());
                i += 1;
            } else {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                if out.values.insert(key.to_string(), value.clone()).is_some() {
                    return Err(format!("duplicate flag --{key}"));
                }
                i += 2;
            }
        }
        Ok(out)
    }

    /// Required string value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.values.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
    }

    /// Optional string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Optional parsed number with default.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("--{key}: cannot parse {raw:?}")),
        }
    }

    /// Boolean switch present?
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let p = ParsedArgs::parse(&argv(&["--input", "a.tsv", "--no-stemming", "--k", "7"])).unwrap();
        assert_eq!(p.require("input").unwrap(), "a.tsv");
        assert!(p.switch("no-stemming"));
        assert!(!p.switch("no-fallback"));
        assert_eq!(p.get_num::<usize>("k", 20).unwrap(), 7);
        assert_eq!(p.get_num::<usize>("absent", 20).unwrap(), 20);
    }

    #[test]
    fn rejects_malformed() {
        assert!(ParsedArgs::parse(&argv(&["input"])).is_err());
        assert!(ParsedArgs::parse(&argv(&["--input"])).is_err());
        assert!(ParsedArgs::parse(&argv(&["--k", "1", "--k", "2"])).is_err());
        let p = ParsedArgs::parse(&argv(&["--k", "x"])).unwrap();
        assert!(p.get_num::<usize>("k", 1).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let p = ParsedArgs::parse(&argv(&[])).unwrap();
        assert_eq!(p.require("model").unwrap_err(), "missing --model");
    }
}
