//! Shared command-line front end of every binary in this crate.
//!
//! Each binary declares one option table; this module parses it and gives
//! all of them one contract:
//!
//! - `--help` prints a generated usage text and exits 0;
//! - any usage error (unknown option, bad value) prints a one-line error
//!   plus the usage text on **stderr** and exits **2** — no panic backtrace;
//! - the common observability options (`--analyze`, `--perfetto`) are
//!   declared once ([`OBS_OPTS`]) and parsed uniformly.
//!
//! ```no_run
//! use bench::cli::{Cli, Opt, OBS_OPTS};
//!
//! let cli = Cli::parse(
//!     "fig6",
//!     "influence of the initial particle distribution",
//!     &[
//!         Opt::new("cells", "N", "crystal cells per dimension (default 44)"),
//!         Opt::new("procs", "P", "simulated process count (default 256)"),
//!     ],
//!     OBS_OPTS,
//! );
//! let cells: usize = cli.get("cells", 44);
//! let analyze = cli.analyze(&cli.timeline());
//! ```

use std::collections::HashMap;

use crate::TimelineSink;

/// One declared option of a binary: key, value placeholder (empty for a
/// boolean flag) and help line.
#[derive(Clone, Copy)]
pub struct Opt {
    /// Option key (without the `--`).
    pub key: &'static str,
    /// Value placeholder shown in usage (e.g. `"N"`); empty means the option
    /// is a boolean flag.
    pub value: &'static str,
    /// One-line help text.
    pub help: &'static str,
}

impl Opt {
    /// Declare a value option.
    pub const fn new(key: &'static str, value: &'static str, help: &'static str) -> Opt {
        Opt { key, value, help }
    }

    /// Declare a boolean flag.
    pub const fn flag(key: &'static str, help: &'static str) -> Opt {
        Opt { key, value: "", help }
    }
}

/// The observability options every world-running harness accepts.
pub const OBS_OPTS: &[Opt] = &[
    Opt::flag("analyze", "run traced and print the critical-path analysis"),
    Opt::new("perfetto", "PATH", "write a Perfetto timeline of all runs to PATH"),
];

/// Parsed command line of a harness binary — `--key value` pairs plus
/// `--flag` booleans — with accessors that exit with code 2 (and the usage
/// text) on bad values.
pub struct Cli {
    name: &'static str,
    usage: String,
    /// The declared keys plus `help`; any other key is a usage error.
    allowed: Vec<&'static str>,
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Cli {
    /// Parse `std::env::args` against the binary's declared options plus
    /// `common` (typically [`OBS_OPTS`], or `&[]` for a world-less tool).
    /// Handles `--help` (exit 0) and usage errors (stderr + exit 2).
    pub fn parse(name: &'static str, about: &str, opts: &[Opt], common: &[Opt]) -> Cli {
        let all: Vec<Opt> = opts.iter().chain(common).copied().collect();
        let mut cli = Cli {
            name,
            usage: render_usage(name, about, &all),
            allowed: all.iter().map(|o| o.key).chain(std::iter::once("help")).collect(),
            values: HashMap::new(),
            flags: Vec::new(),
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            let Some(key) = a.strip_prefix("--") else {
                cli.fail(format!("unexpected argument '{a}' (allowed: {:?})", cli.allowed))
            };
            if !cli.allowed.contains(&key) {
                cli.fail(format!("unknown option '--{key}' (allowed: {:?})", cli.allowed));
            }
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                cli.values.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                cli.flags.push(key.to_string());
                i += 1;
            }
        }
        if cli.flag("help") {
            println!("{}", cli.usage);
            std::process::exit(0);
        }
        cli
    }

    /// Report a usage/input error: one line on stderr, the usage text, exit 2.
    pub fn fail(&self, msg: impl std::fmt::Display) -> ! {
        eprintln!("{}: {msg}\n\n{}", self.name, self.usage);
        std::process::exit(2)
    }

    /// The raw value of a declared option, if given.
    fn value(&self, key: &str) -> Option<&str> {
        assert!(self.allowed.contains(&key), "option '{key}' not declared");
        self.values.get(key).map(String::as_str)
    }

    /// Typed value with a default; bad values exit 2.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.value(key) {
            None => default,
            Some(v) => {
                v.parse().unwrap_or_else(|e| self.fail(format!("bad value for --{key}: {e:?}")))
            }
        }
    }

    /// Was a boolean flag given?
    pub fn flag(&self, key: &str) -> bool {
        assert!(self.allowed.contains(&key), "flag '{key}' not declared");
        self.flags.iter().any(|f| f == key)
    }

    /// Comma-separated list of usizes; bad entries exit 2.
    pub fn list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.value(key) {
            None => default.to_vec(),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim().parse().unwrap_or_else(|e| {
                        self.fail(format!("bad entry '{x}' for --{key}: {e:?}"))
                    })
                })
                .collect(),
        }
    }

    /// The `--perfetto` timeline sink (inactive when the flag was not given).
    pub fn timeline(&self) -> TimelineSink {
        TimelineSink::from_path(self.get("perfetto", String::new()))
    }

    /// The shared `--analyze` decision: analysis was requested explicitly or
    /// is implied by an active `--perfetto` timeline (which needs traces).
    pub fn analyze(&self, timeline: &TimelineSink) -> bool {
        self.flag("analyze") || timeline.active()
    }
}

/// Render the `--help`/usage text from the option table.
fn render_usage(name: &str, about: &str, opts: &[Opt]) -> String {
    use std::fmt::Write as _;
    let mut u = format!("{name} — {about}\n\nUSAGE:\n  {name}");
    for o in opts {
        if o.value.is_empty() {
            let _ = write!(u, " [--{}]", o.key);
        } else {
            let _ = write!(u, " [--{} {}]", o.key, o.value);
        }
    }
    u.push_str("\n\nOPTIONS:\n");
    let left: Vec<String> = opts
        .iter()
        .map(|o| {
            if o.value.is_empty() {
                format!("--{}", o.key)
            } else {
                format!("--{} {}", o.key, o.value)
            }
        })
        .chain(std::iter::once("--help".to_string()))
        .collect();
    let width = left.iter().map(String::len).max().unwrap_or(0);
    for (l, help) in left.iter().zip(opts.iter().map(|o| o.help).chain(["print this text"])) {
        let _ = writeln!(u, "  {l:width$}  {help}");
    }
    u.push_str(
        "\nAll times are virtual seconds of the simulated machine model; see\n\
         docs/OBSERVABILITY.md for the report schema and DESIGN.md for the\n\
         virtual-time rationale.",
    );
    u
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_option_and_help() {
        let opts =
            [Opt::new("cells", "N", "crystal cells"), Opt::flag("fresh", "discard prior state")];
        let u = render_usage("figx", "a test harness", &opts);
        assert!(u.starts_with("figx — a test harness"));
        assert!(u.contains("[--cells N]"));
        assert!(u.contains("[--fresh]"), "flags render without a placeholder: {u}");
        assert!(u.contains("--help"));
        assert!(u.contains("crystal cells"));
    }

    #[test]
    fn obs_opts_cover_the_shared_preamble() {
        let keys: Vec<&str> = OBS_OPTS.iter().map(|o| o.key).collect();
        assert_eq!(keys, ["analyze", "perfetto"]);
    }
}
