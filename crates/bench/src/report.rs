//! The harness the report binaries share: one flag parser, one
//! regression gate and one finish step.
//!
//! `sp_backend_report`, `ingest_report` and `query_report` each run
//! their phases, write a JSON report by hand and declare what it gates;
//! everything around that lives here (`repro` uses the flag parser).
//!
//! * **Flags.** [`parse_env_flags`] walks the arguments and hands each to
//!   the binary's handler, which takes its value with [`Args::value`]
//!   (a number, or a path as `String`) or takes none (a switch). An
//!   unknown flag, a missing value or a value that does not parse is a
//!   usage error: the message and the usage line go to stderr and the
//!   process exits 2.
//! * **Gate.** [`Gate`] holds the baseline named by `--check` and the
//!   declared [`Check`]s. Identity bools must read `true`; a metric
//!   compared with the baseline must stay within `--tolerance` of it in
//!   its good direction ([`Better`]); a fresh value may have to meet a
//!   fixed limit. A check can name a noise floor, below which it is
//!   logged instead of gated. A gated metric missing from the baseline
//!   or from the fresh run always fails, and every failure is collected
//!   — one red metric never masks another.
//! * **Finish.** [`Report::finish`] writes `--out`, prints the report,
//!   runs the gate, prints the `[gate] …` lines and exits 1 on any
//!   failure.
//!
//! Checks against the baseline run only with `--check`; identity and
//! fixed-limit checks run on every report.

use crate::Json;
use std::str::FromStr;
use std::time::Instant;

/// Prints `error: {msg}` and exits 2: the run cannot go on (a failed
/// fixture, an unreadable artifact, an unwritable output).
pub fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Prints a usage error and the usage line, and exits 2.
pub fn usage_error(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Milliseconds elapsed since `t0`.
pub fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The worker count a `--threads` value asks for: 0 means one per core.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// The arguments not yet consumed, as a flag handler sees them.
pub struct Args {
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// Consumes the value after `flag` and parses it: a number, or a
    /// path when `T` is `String`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self
            .rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'"))
    }
}

/// [`parse_env_flags`] over `args`, returning the first usage error.
fn parse_flags(
    args: Vec<String>,
    mut handle: impl FnMut(&str, &mut Args) -> Result<bool, String>,
) -> Result<(), String> {
    let mut args = Args {
        rest: args.into_iter(),
    };
    while let Some(arg) = args.rest.next() {
        if !handle(&arg, &mut args)? {
            return Err(format!("unknown flag {arg}"));
        }
    }
    Ok(())
}

/// Hands each process argument to `handle`, which takes a flag's value
/// with [`Args::value`] and returns `Ok(false)` for an argument it does
/// not take. An unknown flag, a missing value or one that does not parse
/// prints `usage` and exits 2.
pub fn parse_env_flags(usage: &str, handle: impl FnMut(&str, &mut Args) -> Result<bool, String>) {
    if let Err(e) = parse_flags(std::env::args().skip(1).collect(), handle) {
        usage_error(usage, &e);
    }
}

/// Which direction of a metric is good.
#[derive(Clone, Copy, Debug)]
pub enum Better {
    Higher,
    Lower,
}

enum Rule {
    /// The fresh bool must be `true`.
    Identity,
    /// Within `tolerance` of the baseline's value of the same key.
    Baseline(Better),
    /// At or above (`Higher`) or at or below (`Lower`) a fixed limit.
    Limit(Better, f64),
}

struct NoiseFloor {
    key: String,
    in_baseline: bool,
    below: f64,
}

/// One gated metric, named by its dotted key path in the report.
pub struct Check {
    key: String,
    rule: Rule,
    noise: Option<NoiseFloor>,
}

impl Check {
    /// Logs instead of gating while the baseline's `key` reads below
    /// `below` (a timing too close to the timer's resolution to compare).
    pub fn unless_baseline_below(&mut self, key: &str, below: f64) {
        self.noise = Some(NoiseFloor {
            key: key.to_string(),
            in_baseline: true,
            below,
        });
    }

    /// Logs instead of gating while the fresh run's `key` reads below
    /// `below`.
    pub fn unless_fresh_below(&mut self, key: &str, below: f64) {
        self.noise = Some(NoiseFloor {
            key: key.to_string(),
            in_baseline: false,
            below,
        });
    }
}

/// The regression gate of one report: the `--check` baseline, if any,
/// and every declared check.
pub struct Gate {
    tolerance: f64,
    /// `Some` with `--check`: the parsed baseline, or why it could not
    /// be read.
    baseline: Option<Result<Json, String>>,
    checks: Vec<Check>,
    failures: Vec<String>,
}

impl Gate {
    /// A gate over `baseline` (read from the `--check` path) with the
    /// given slowdown tolerance.
    fn new(baseline: Option<Result<Json, String>>, tolerance: f64) -> Gate {
        Gate {
            tolerance,
            baseline,
            checks: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Reads and parses the baseline at `path`.
    fn load_baseline(path: &str) -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("baseline {path} is not JSON: {e}"))
    }

    /// True when the run compares against a baseline (`--check`).
    pub fn has_baseline(&self) -> bool {
        self.baseline.is_some()
    }

    /// The keys under `path` in the baseline whose values are objects.
    pub fn baseline_objects(&self, path: &str) -> Vec<String> {
        let Some(Ok(baseline)) = &self.baseline else {
            return Vec::new();
        };
        match baseline.get(&split(path)) {
            Some(Json::Obj(map)) => map
                .iter()
                .filter(|(_, v)| matches!(v, Json::Obj(_)))
                .map(|(k, _)| k.clone())
                .collect(),
            _ => Vec::new(),
        }
    }

    fn push(&mut self, key: &str, rule: Rule) -> &mut Check {
        self.checks.push(Check {
            key: key.to_string(),
            rule,
            noise: None,
        });
        self.checks.last_mut().expect("just pushed")
    }

    /// The fresh bool at `key` must be `true`.
    pub fn identity(&mut self, key: &str) -> &mut Check {
        self.push(key, Rule::Identity)
    }

    /// The fresh value at `key` must stay at or above `baseline /
    /// tolerance` (`Higher`) or at or below `baseline × tolerance`
    /// (`Lower`); runs only with a baseline.
    pub fn vs_baseline(&mut self, key: &str, better: Better) -> &mut Check {
        self.push(key, Rule::Baseline(better))
    }

    /// The fresh value at `key` must be at or above `floor`.
    pub fn at_least(&mut self, key: &str, floor: f64) -> &mut Check {
        self.push(key, Rule::Limit(Better::Higher, floor))
    }

    /// The fresh value at `key` must be at or below `ceiling`.
    pub fn at_most(&mut self, key: &str, ceiling: f64) -> &mut Check {
        self.push(key, Rule::Limit(Better::Lower, ceiling))
    }

    /// Records a failure a phase found outside the report's fields.
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Runs every check against the fresh report: `(log, failures)`.
    fn run(&self, fresh: &Json) -> (Vec<String>, Vec<String>) {
        let mut log = Vec::new();
        let mut failures = self.failures.clone();
        let baseline = match &self.baseline {
            Some(Ok(b)) => Some(b),
            Some(Err(e)) => {
                failures.push(e.clone());
                None
            }
            None => None,
        };
        for check in &self.checks {
            match self.judge(check, fresh, baseline) {
                Some(Ok(line)) => log.push(line),
                Some(Err(failure)) => failures.push(failure),
                None => {}
            }
        }
        (log, failures)
    }

    /// One check's log line (`Ok`) or failure (`Err`); `None` when it
    /// compares with a baseline the run does not have (no `--check`, or
    /// an unreadable baseline, which fails on its own).
    fn judge(
        &self,
        check: &Check,
        fresh: &Json,
        baseline: Option<&Json>,
    ) -> Option<Result<String, String>> {
        let key = &check.key;
        let path = split(key);
        let missing = || Err(format!("metric '{key}': missing from the fresh run"));
        let (better, limit, basis) = match check.rule {
            Rule::Identity => {
                return Some(match fresh.bool_at(&path) {
                    Some(true) => Ok(format!("metric '{key}': true")),
                    Some(false) => Err(format!("metric '{key}': expected true, measured false")),
                    None => missing(),
                })
            }
            Rule::Baseline(better) => {
                let Some(base) = baseline?.num_at(&path) else {
                    return Some(Err(format!(
                        "metric '{key}': missing from the baseline — a gated metric cannot \
                         be un-gated by deleting its baseline key"
                    )));
                };
                let tol = self.tolerance;
                let (limit, op) = match better {
                    Better::Higher => (base / tol, "/"),
                    Better::Lower => (base * tol, "x"),
                };
                let basis = format!(" (baseline {} {op} tolerance {tol})", show(base));
                (better, limit, basis)
            }
            Rule::Limit(better, limit) => (better, limit, String::new()),
        };
        let Some(v) = fresh.num_at(&path) else {
            return Some(missing());
        };
        if let Some(noise) = &check.noise {
            let (source, side) = if noise.in_baseline {
                (baseline, "baseline")
            } else {
                (Some(fresh), "fresh")
            };
            if let Some(n) = source.and_then(|j| j.num_at(&split(&noise.key))) {
                if n < noise.below {
                    return Some(Ok(format!(
                        "metric '{key}': {side} '{}' = {} is below its noise floor {} — \
                         not gated (measured {})",
                        noise.key,
                        show(n),
                        show(noise.below),
                        show(v)
                    )));
                }
            }
        }
        let (ok, bound, side) = match better {
            Better::Higher => (v >= limit, "floor", "below"),
            Better::Lower => (v <= limit, "ceiling", "above"),
        };
        Some(if ok {
            Ok(format!(
                "metric '{key}': {} within the allowed {bound} {}{basis}",
                show(v),
                show(limit)
            ))
        } else {
            Err(format!(
                "metric '{key}': measured {} is {side} the allowed {bound} {}{basis}",
                show(v),
                show(limit)
            ))
        })
    }
}

fn split(key: &str) -> Vec<&str> {
    key.split('.').collect()
}

/// Two decimals below 100, whole numbers above.
fn show(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// A report binary's output path and gate, from the flags every report
/// binary takes (`--out PATH`, `--check BASELINE`, `--tolerance X`).
pub struct Report {
    out: String,
    /// What the report gates; the binary declares it as its phases run.
    pub gate: Gate,
}

impl Report {
    /// Parses the process arguments: the shared flags here, every other
    /// one through `handle` (see [`parse_env_flags`]). `--out` defaults to
    /// `default_out` and `--tolerance` to 3, which must exceed 1.
    pub fn from_env_flags(
        usage: &str,
        default_out: &str,
        mut handle: impl FnMut(&str, &mut Args) -> Result<bool, String>,
    ) -> Report {
        let mut out = default_out.to_string();
        let mut check: Option<String> = None;
        let mut tolerance = 3.0f64;
        parse_env_flags(usage, |flag, args| {
            match flag {
                "--out" => out = args.value(flag)?,
                "--check" => check = Some(args.value(flag)?),
                "--tolerance" => tolerance = args.value(flag)?,
                _ => return handle(flag, args),
            }
            Ok(true)
        });
        if tolerance <= 1.0 {
            usage_error(usage, "--tolerance must be > 1");
        }
        Report {
            out,
            gate: Gate::new(check.as_deref().map(Gate::load_baseline), tolerance),
        }
    }

    /// Writes `json` to `--out`, prints it, runs the gate and prints its
    /// `[gate]` lines; exits 1 if any check failed.
    pub fn finish(&self, json: &str) {
        std::fs::write(&self.out, json)
            .unwrap_or_else(|e| fatal(&format!("cannot write {}: {e}", self.out)));
        println!("wrote {}", self.out);
        print!("{json}");
        let fresh = Json::parse(json).expect("the report is well-formed JSON by construction");
        let (log, failures) = self.gate.run(&fresh);
        for l in &log {
            println!("[gate] {l}");
        }
        if failures.is_empty() {
            if self.gate.has_baseline() {
                println!("[gate] OK (tolerance {}x)", self.gate.tolerance);
            }
            return;
        }
        for f in &failures {
            eprintln!("[gate] FAIL: {f}");
        }
        eprintln!("[gate] {} failure(s) — see above", failures.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(text: &str) -> Json {
        Json::parse(text).expect("test JSON")
    }

    fn gate(baseline: &str) -> Gate {
        Gate::new(Some(Ok(json(baseline))), 2.0)
    }

    #[test]
    fn floor_and_ceiling_pass_within_tolerance_and_fail_beyond() {
        let baseline = r#"{"qps": 100, "lat_us": 10}"#;
        let mut g = gate(baseline);
        g.vs_baseline("qps", Better::Higher);
        g.vs_baseline("lat_us", Better::Lower);
        // At the limits exactly: qps 100 / 2 = 50, lat 10 × 2 = 20.
        let (log, failures) = g.run(&json(r#"{"qps": 50, "lat_us": 20}"#));
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(log.len(), 2);
        let (_, failures) = g.run(&json(r#"{"qps": 49, "lat_us": 21}"#));
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("'qps'") && failures[0].contains("below the allowed floor"));
        assert!(
            failures[1].contains("'lat_us'") && failures[1].contains("above the allowed ceiling")
        );
    }

    #[test]
    fn fixed_limits_gate_the_fresh_run_without_a_baseline() {
        let mut g = Gate::new(None, 3.0);
        g.at_least("speedup", 10.0);
        g.at_most("incr_ms", 5.0);
        g.vs_baseline("qps", Better::Higher); // needs --check: skipped
        let (_, failures) = g.run(&json(r#"{"speedup": 10, "incr_ms": 5}"#));
        assert!(failures.is_empty(), "{failures:?}");
        let (_, failures) = g.run(&json(r#"{"speedup": 9.9, "incr_ms": 5.1}"#));
        assert_eq!(failures.len(), 2, "{failures:?}");
    }

    #[test]
    fn a_key_missing_from_the_baseline_fails() {
        let mut g = gate(r#"{"a": {"x": 1}}"#);
        g.vs_baseline("a.y", Better::Lower);
        let (_, failures) = g.run(&json(r#"{"a": {"x": 1, "y": 1}}"#));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("'a.y': missing from the baseline"));
    }

    #[test]
    fn a_key_missing_from_the_fresh_run_fails() {
        let mut g = gate(r#"{"a": {"x": 1}}"#);
        g.vs_baseline("a.x", Better::Lower);
        g.at_least("a.z", 1.0);
        let (_, failures) = g.run(&json(r#"{"a": {}}"#));
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("'a.x': missing from the fresh run"));
        assert!(failures[1].contains("'a.z': missing from the fresh run"));
    }

    #[test]
    fn an_identity_bool_must_be_true() {
        let mut g = Gate::new(None, 3.0);
        g.identity("same");
        assert!(g.run(&json(r#"{"same": true}"#)).1.is_empty());
        let (_, failures) = g.run(&json(r#"{"same": false}"#));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("'same': expected true, measured false"));
        assert_eq!(g.run(&json("{}")).1.len(), 1, "a missing bool fails too");
    }

    #[test]
    fn a_noise_floor_logs_instead_of_gating() {
        let mut g = gate(r#"{"lat_us": 0.01, "reopen_ms": 3, "pps": 1000}"#);
        g.vs_baseline("lat_us", Better::Lower)
            .unless_baseline_below("lat_us", 0.5);
        g.vs_baseline("pps", Better::Higher)
            .unless_baseline_below("reopen_ms", 5.0);
        g.at_least("open_speedup", 20.0)
            .unless_fresh_below("load_ms", 10.0);
        let fresh = json(r#"{"lat_us": 5, "pps": 1, "open_speedup": 2, "load_ms": 4}"#);
        let (log, failures) = g.run(&fresh);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(log.len(), 3);
        assert!(log
            .iter()
            .all(|l| l.contains("noise floor") && l.contains("not gated")));
        // Above the floor the same values are gated.
        let fresh = json(r#"{"lat_us": 5, "pps": 1, "open_speedup": 2, "load_ms": 40}"#);
        assert_eq!(g.run(&fresh).1.len(), 1);
    }

    #[test]
    fn every_failure_is_reported() {
        let mut g = gate(r#"{"qps": 100, "lat_us": 10}"#);
        g.fail("a phase failed".to_string());
        g.identity("same");
        g.vs_baseline("qps", Better::Higher);
        g.vs_baseline("lat_us", Better::Lower);
        g.vs_baseline("gone", Better::Lower);
        let (_, failures) = g.run(&json(r#"{"same": false, "qps": 1, "lat_us": 100}"#));
        assert_eq!(failures.len(), 5, "{failures:?}");
        assert_eq!(failures[0], "a phase failed");
    }

    #[test]
    fn an_unreadable_baseline_fails_once_and_fresh_checks_still_run() {
        let mut g = Gate::new(Some(Gate::load_baseline("/nonexistent/baseline.json")), 3.0);
        g.vs_baseline("qps", Better::Higher);
        g.identity("same");
        let (_, failures) = g.run(&json(r#"{"qps": 1, "same": false}"#));
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("cannot read baseline"));
    }

    #[test]
    fn baseline_objects_are_the_object_valued_keys() {
        let g = gate(r#"{"m": {"nodes": 4, "dense": {}, "ch": {"x": 1}, "ok": true}}"#);
        assert_eq!(g.baseline_objects("m"), ["ch", "dense"]);
        assert!(Gate::new(None, 3.0).baseline_objects("m").is_empty());
    }

    fn parse(args: &[&str]) -> Result<(usize, Option<String>, bool), String> {
        let (mut n, mut path, mut switch) = (0usize, None, false);
        parse_flags(
            args.iter().map(|a| a.to_string()).collect(),
            |flag, args| {
                match flag {
                    "--n" => n = args.value(flag)?,
                    "--path" => path = Some(args.value(flag)?),
                    "--switch" => switch = true,
                    _ => return Ok(false),
                }
                Ok(true)
            },
        )?;
        Ok((n, path, switch))
    }

    #[test]
    fn flags_parse_numbers_paths_and_switches() {
        assert_eq!(
            parse(&["--n", "7", "--switch", "--path", "out.json"]),
            Ok((7, Some("out.json".to_string()), true))
        );
        assert_eq!(parse(&[]), Ok((0, None, false)));
    }

    #[test]
    fn flag_errors_are_usage_errors() {
        assert_eq!(parse(&["--bogus"]), Err("unknown flag --bogus".to_string()));
        assert_eq!(parse(&["--n"]), Err("--n needs a value".to_string()));
        assert_eq!(
            parse(&["--n", "x"]),
            Err("--n: cannot parse 'x'".to_string())
        );
        assert_eq!(
            parse(&["--n", "-1"]),
            Err("--n: cannot parse '-1'".to_string())
        );
    }
}
