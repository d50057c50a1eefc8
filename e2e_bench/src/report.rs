//! Output: the metric list a run prints, the provenance recorded with
//! it, and a minimal JSON writer (the workspace has no serde_json).

use crate::stats::Aggregate;
use std::fmt::{self, Write as _};
use std::path::Path;
use std::process::Command;

/// A JSON value.
pub enum J {
    Num(f64),
    Int(u64),
    Str(String),
    Bool(bool),
    Obj(Vec<(String, J)>),
}

impl J {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn s(v: impl Into<String>) -> J {
        J::Str(v.into())
    }
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Rust's shortest round-trip form keeps every digit measured.
            J::Num(v) if v.is_finite() => write!(f, "{v:?}"),
            J::Num(_) => f.write_str("null"),
            J::Int(v) => write!(f, "{v}"),
            J::Bool(v) => write!(f, "{v}"),
            J::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            J::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", J::s(k.as_str()))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// One reported metric: its value, unit, and the per-pass values
/// behind it (when it has them).
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub passes: Option<Aggregate>,
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric with no per-pass breakdown.
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name,
            unit,
            value,
            passes: None,
        });
    }

    /// Adds a metric with the per-pass values behind it.
    pub fn add_passes(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        passes: &[f64],
    ) {
        self.0.push(Metric {
            name,
            unit,
            value,
            passes: Aggregate::of(passes),
        });
    }

    /// Adds a metric whose value is the median of per-pass values.
    pub fn add_median(&mut self, name: &'static str, unit: &'static str, passes: &[f64]) {
        let passes = Aggregate::of(passes);
        self.0.push(Metric {
            name,
            unit,
            value: passes.as_ref().map_or(f64::NAN, |a| a.median),
            passes,
        });
    }

    /// The first non-finite metric, if any (a broken measurement).
    pub fn non_finite(&self) -> Option<&'static str> {
        self.0.iter().find(|m| !m.value.is_finite()).map(|m| m.name)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` as the result line
    /// carries it.
    pub fn result_json(&self) -> J {
        J::obj(self.0.iter().map(|m| {
            (
                m.name,
                J::obj([("value", J::Num(m.value)), ("unit", J::s(m.unit))]),
            )
        }))
    }

    /// Each metric with its per-pass trials, median and quartiles.
    pub fn detail_json(&self) -> J {
        J::obj(self.0.iter().map(|m| {
            let mut fields = vec![("value", J::Num(m.value)), ("unit", J::s(m.unit))];
            if let Some(a) = &m.passes {
                fields.extend([
                    ("trials", J::Int(a.trials as u64)),
                    ("median", J::Num(a.median)),
                    ("q1", J::Num(a.q1)),
                    ("q3", J::Num(a.q3)),
                    ("spread", J::Num(a.spread())),
                ]);
            }
            (m.name, J::obj(fields))
        }))
    }
}

/// Where and with what the numbers were measured.
pub fn environment() -> J {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let first_line = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_owned))
            .unwrap_or_else(|| "unknown".to_owned())
    };
    J::obj([
        ("nproc", J::Int(nproc as u64)),
        ("commit", J::s(first_line("git", &["rev-parse", "HEAD"]))),
        (
            "source_crc32",
            J::s(format!("{:08x}", source_digest(Path::new("crates")))),
        ),
        ("rustc", J::s(first_line("rustc", &["--version"]))),
        ("os", J::s(std::env::consts::OS)),
        ("arch", J::s(std::env::consts::ARCH)),
    ])
}

/// CRC-32 over every file under `root` (paths sorted, each path and
/// its bytes hashed) — identifies the measured code where no git
/// metadata exists.
fn source_digest(root: &Path) -> u32 {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    press_store::crc32(&all)
}
