//! Hot-path benchmark harness with a committed trajectory.
//!
//! The repository keeps a record of hot-path medians in
//! `BENCH_net_hotpath.json` at the workspace root. The schema is
//!
//! ```json
//! {
//!   "schema": "qic-hotpath-bench/v1",
//!   "tolerance_pct": 15,
//!   "benches": {
//!     "net_sim_one_comm_4x4": [
//!       { "median_ns": 2670.4, "samples": 15, "date": "2026-08-08",
//!         "git_rev": "9a5d8f3", "note": "pre-optimization" }
//!     ]
//!   }
//! }
//! ```
//!
//! Each bench name maps to a **history** (oldest first); the last entry
//! is the current baseline. `cargo run --release -p qic-bench --bin
//! bench_gate -- --record "<note>"` measures every hot-path bench and
//! appends a new entry, unless a bench regressed beyond the tolerance
//! against its best recorded median ([`record_note`]); a plain
//! `bench_gate` run (CI's `bench-gate` step, usually with
//! `QIC_BENCH_QUICK=1`) re-measures and fails if any median regressed
//! more than [`TOLERANCE_PCT`] percent against the baseline.
//!
//! [`measure`] is the workspace's one timing loop: a warm-up pass
//! sizes a batch, then a fixed number of timed batches run and the
//! median batch is reported. The file is read and written through
//! `qic_sweep::json`, the workspace's one JSON codec.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration as WallDuration, Instant};

use qic_sweep::json::{get, write_str, Json, JsonError};

/// Regression tolerance, in percent, applied by [`gate`].
pub const TOLERANCE_PCT: f64 = 15.0;

/// Name of the machine-speed yardstick bench: a fixed-work integer
/// loop with no dependence on simulator code. [`gate`] divides every
/// current median by `current_calibration / baseline_calibration`
/// (clamped to ≥ 1), so a uniformly slower machine — CPU throttling, a
/// busy shared runner — does not fail the gate, while a real per-bench
/// regression still does. On a *faster* machine the clamp keeps raw
/// numbers, which can only make the gate stricter.
pub const CALIBRATION_BENCH: &str = "calibration_spin";

/// The calibration workload: a serial chain of 256 multiply/xor-shift
/// steps. The seed must be [`black_box`](std::hint::black_box)ed by
/// the caller; the xor-shift makes each step non-affine, so the loop
/// cannot be folded into one composed transform (a plain LCG chain
/// can — LLVM composes affine steps), and the serial dependency chain
/// keeps the timing a pure function of core speed.
#[inline]
pub fn calibration_spin(seed: u64) -> u64 {
    let mut x = seed;
    for _ in 0..256 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    x
}

/// Schema identifier written to / expected in the baseline file.
pub const SCHEMA: &str = "qic-hotpath-bench/v1";

/// Baseline file name, resolved against the workspace root.
pub const BASELINE_FILE: &str = "BENCH_net_hotpath.json";

/// One recorded measurement of one bench.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Number of timed batches the median was taken over.
    pub samples: u32,
    /// ISO-8601 date (UTC) the entry was recorded.
    pub date: String,
    /// Short git revision the entry was recorded at.
    pub git_rev: String,
    /// Free-form annotation (e.g. `"pre-optimization"`).
    pub note: String,
}

/// The committed trajectory: bench name → history, oldest first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trajectory {
    /// Per-bench histories, keyed by bench name (sorted for stable JSON).
    pub benches: BTreeMap<String, Vec<BenchEntry>>,
}

impl Trajectory {
    /// The current baseline for `name`: the last recorded entry.
    pub fn baseline(&self, name: &str) -> Option<&BenchEntry> {
        self.benches.get(name).and_then(|h| h.last())
    }

    /// The best (lowest) median ever recorded for `name`.
    fn best(&self, name: &str) -> Option<f64> {
        self.benches
            .get(name)?
            .iter()
            .map(|e| e.median_ns)
            .min_by(f64::total_cmp)
    }

    /// Appends `entry` to the history of `name`.
    pub fn record(&mut self, name: &str, entry: BenchEntry) {
        self.benches
            .entry(name.to_string())
            .or_default()
            .push(entry);
    }

    /// Serializes to the committed JSON format (pretty, sorted keys,
    /// trailing newline) so diffs stay minimal.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"tolerance_pct\": {TOLERANCE_PCT},");
        out.push_str("  \"benches\": {\n");
        let n = self.benches.len();
        for (i, (name, history)) in self.benches.iter().enumerate() {
            out.push_str("    ");
            write_str(&mut out, name);
            out.push_str(": [\n");
            for (j, e) in history.iter().enumerate() {
                out.push_str("      { \"median_ns\": ");
                out.push_str(&Json::Float(e.median_ns).emit());
                let _ = write!(out, ", \"samples\": {}, \"date\": ", e.samples);
                write_str(&mut out, &e.date);
                out.push_str(", \"git_rev\": ");
                write_str(&mut out, &e.git_rev);
                out.push_str(", \"note\": ");
                write_str(&mut out, &e.note);
                out.push_str(" }");
                out.push_str(if j + 1 < history.len() { ",\n" } else { "\n" });
            }
            out.push_str(if i + 1 < n { "    ],\n" } else { "    ]\n" });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses the committed JSON format.
    ///
    /// # Errors
    ///
    /// Returns a message if the text is not valid JSON or does not carry
    /// the expected [`SCHEMA`] marker and field types.
    pub fn parse(text: &str) -> Result<Trajectory, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        Trajectory::from_json(&doc).map_err(|e| e.problem)
    }

    fn from_json(doc: &Json) -> Result<Trajectory, JsonError> {
        let top = doc.obj_of("top level")?;
        let schema = get(top, "schema", "top level")?.str_of("schema")?;
        if schema != SCHEMA {
            return Err(Json::schema_err(format!(
                "unexpected schema marker {schema:?}"
            )));
        }
        let mut benches = BTreeMap::new();
        for (name, history) in get(top, "benches", "top level")?.obj_of("benches")? {
            let ctx = format!("bench {name:?}");
            let entries = history
                .arr_of(&ctx)?
                .iter()
                .map(|item| {
                    let obj = item.obj_of(&ctx)?;
                    let text = |key: &str| get(obj, key, &ctx)?.str_of(&ctx).map(str::to_string);
                    Ok(BenchEntry {
                        median_ns: get(obj, "median_ns", &ctx)?.f64_of(&ctx)?,
                        samples: get(obj, "samples", &ctx)?.u32_of(&ctx)?,
                        date: text("date")?,
                        git_rev: text("git_rev")?,
                        note: text("note")?,
                    })
                })
                .collect::<Result<_, _>>()?;
            benches.insert(name.clone(), entries);
        }
        Ok(Trajectory { benches })
    }
}

/// Whether quick mode is requested (`QIC_BENCH_QUICK=1`): shorter
/// warm-ups and fewer samples, for the CI gate.
pub fn quick_mode() -> bool {
    std::env::var("QIC_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Times `inner`: a warm-up pass sizes a batch (~2 ms of work), then
/// `samples` timed batches; returns `(median_ns, samples)`.
pub fn measure<O, F: FnMut() -> O>(quick: bool, mut inner: F) -> (f64, u32) {
    let (warm, batch_ns, samples) = if quick {
        (WallDuration::from_millis(5), 1_000_000.0, 9usize)
    } else {
        (WallDuration::from_millis(20), 2_000_000.0, 15usize)
    };
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < warm {
        std::hint::black_box(inner());
        warm_iters += 1;
        if warm_iters >= 1_000_000 {
            break;
        }
    }
    let per_iter = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;
    let batch = ((batch_ns / per_iter.max(1.0)) as u64).clamp(1, 1_000_000);

    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(inner());
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    timings.sort_by(f64::total_cmp);
    (timings[timings.len() / 2], samples as u32)
}

/// One measured hot-path bench: name and median.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Bench name, the key in the committed trajectory.
    pub name: &'static str,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Timed batches behind the median.
    pub samples: u32,
}

/// Compares measurements against the committed baseline with the
/// [`TOLERANCE_PCT`] tolerance; returns `(markdown_table, failures)`.
///
/// If both sides carry the [`CALIBRATION_BENCH`] yardstick, every
/// current median is first divided by the machine-speed scale
/// `max(1, current_calibration / baseline_calibration)`, so uniform
/// machine slowdown is factored out of the comparison. The ratio
/// column shows the scaled ratio; the raw current medians are printed
/// unscaled. Benches without a baseline entry are listed as `new` and
/// do not fail the gate. Recorded benches that regress more than the
/// tolerance, and baseline benches absent from `current` (listed as
/// `MISSING`), are returned in `failures`.
pub fn gate(current: &[Measured], baseline: &Trajectory) -> (String, Vec<String>) {
    let scale = machine_scale(current, baseline);
    let mut table = String::from(
        "| bench | baseline (ns) | current (ns) | ratio | status |\n|---|---:|---:|---:|---|\n",
    );
    let mut failures = Vec::new();
    let limit = 1.0 + TOLERANCE_PCT / 100.0;
    for m in current {
        if m.name == CALIBRATION_BENCH {
            let base = baseline.baseline(m.name).map_or(f64::NAN, |b| b.median_ns);
            let _ = writeln!(
                table,
                "| {} | {:.1} | {:.1} | — | yardstick (scale {:.2}x) |",
                m.name, base, m.median_ns, scale
            );
            continue;
        }
        match baseline.baseline(m.name) {
            Some(base) => {
                let ratio = m.median_ns / scale / base.median_ns;
                let status = if ratio > limit {
                    failures.push(format!(
                        "{}: {:.1} ns vs baseline {:.1} ns ({:+.1}% at scale {:.2}x)",
                        m.name,
                        m.median_ns,
                        base.median_ns,
                        (ratio - 1.0) * 100.0,
                        scale
                    ));
                    "REGRESSED"
                } else if ratio < 1.0 / limit {
                    "improved"
                } else {
                    "ok"
                };
                let _ = writeln!(
                    table,
                    "| {} | {:.1} | {:.1} | {:.2}x | {} |",
                    m.name, base.median_ns, m.median_ns, ratio, status
                );
            }
            None => {
                let _ = writeln!(table, "| {} | — | {:.1} | — | new |", m.name, m.median_ns);
            }
        }
    }
    for (name, history) in &baseline.benches {
        if current.iter().any(|m| m.name == name) {
            continue;
        }
        let base = history.last().map_or(f64::NAN, |b| b.median_ns);
        let _ = writeln!(table, "| {name} | {base:.1} | — | — | MISSING |");
        failures.push(format!("{name}: in the baseline but not measured"));
    }
    (table, failures)
}

/// The machine-speed scale [`gate`] divides current medians by:
/// `max(1, current_calibration / baseline_calibration)`, or 1 when
/// either side lacks the [`CALIBRATION_BENCH`] yardstick.
fn machine_scale(current: &[Measured], baseline: &Trajectory) -> f64 {
    match (
        current.iter().find(|m| m.name == CALIBRATION_BENCH),
        baseline.baseline(CALIBRATION_BENCH),
    ) {
        (Some(cur), Some(base)) if base.median_ns > 0.0 => {
            (cur.median_ns / base.median_ns).max(1.0)
        }
        _ => 1.0,
    }
}

/// Decides whether `bench_gate --record` may append `current` to the
/// trajectory, and with which note.
///
/// Each bench is compared against the best (lowest) median in its
/// history, after the same machine-speed scaling as [`gate`], so a
/// baseline can only be raised on purpose: a bench beyond
/// [`TOLERANCE_PCT`] refuses the record (`Err` lists them) unless
/// `accept_regression` gives a reason, which is then appended to the
/// note. Benches with no history are new and always accepted.
pub fn record_note(
    current: &[Measured],
    trajectory: &Trajectory,
    note: &str,
    accept_regression: Option<&str>,
) -> Result<String, Vec<String>> {
    let scale = machine_scale(current, trajectory);
    let limit = 1.0 + TOLERANCE_PCT / 100.0;
    let regressions: Vec<String> = current
        .iter()
        .filter(|m| m.name != CALIBRATION_BENCH)
        .filter_map(|m| {
            let best = trajectory.best(m.name)?;
            let ratio = m.median_ns / scale / best;
            (ratio > limit).then(|| {
                format!(
                    "{}: {:.1} ns vs best recorded {:.1} ns ({:+.1}% at scale {:.2}x)",
                    m.name,
                    m.median_ns,
                    best,
                    (ratio - 1.0) * 100.0,
                    scale
                )
            })
        })
        .collect();
    match accept_regression {
        _ if regressions.is_empty() => Ok(note.to_string()),
        Some(reason) => Ok(format!("{note} (accepted regression: {reason})")),
        None => Err(regressions),
    }
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, no chrono).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// The short git revision of the working tree, or `"unknown"`.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The workspace root (two levels above this crate's manifest).
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(median: f64, note: &str) -> BenchEntry {
        BenchEntry {
            median_ns: median,
            samples: 15,
            date: "2026-08-08".into(),
            git_rev: "abc1234".into(),
            note: note.into(),
        }
    }

    #[test]
    fn trajectory_round_trips_through_json() {
        let mut t = Trajectory::default();
        t.record("net_sim_one_comm_4x4", entry(2670.4, "pre-optimization"));
        t.record("net_sim_one_comm_4x4", entry(850.0, "post-optimization"));
        t.record("dor_route_mesh_16x16", entry(30.0, "pre-optimization"));
        let text = t.to_json();
        let back = Trajectory::parse(&text).expect("parses");
        assert_eq!(back, t);
        assert_eq!(
            back.baseline("net_sim_one_comm_4x4").unwrap().median_ns,
            850.0
        );
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let err = Trajectory::parse("{\"schema\": \"other\", \"benches\": {}}").unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn committed_trajectory_round_trips_byte_for_byte() {
        let text = include_str!("../../../BENCH_net_hotpath.json");
        let parsed = Trajectory::parse(text).expect("committed trajectory parses");
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn parse_reads_escapes_and_rejects_malformed_documents() {
        let mut t = Trajectory::default();
        t.record("a\"b", entry(1.5, "line\nbreak \\ \u{1}"));
        assert_eq!(Trajectory::parse(&t.to_json()), Ok(t));
        assert!(Trajectory::parse("{").is_err());
        assert!(Trajectory::parse("[1,]").is_err());
        assert!(Trajectory::parse("1 2").is_err());
    }

    #[test]
    fn gate_flags_regressions_and_tolerates_noise() {
        let mut base = Trajectory::default();
        base.record("a", entry(100.0, ""));
        base.record("b", entry(100.0, ""));
        let current = [
            Measured {
                name: "a",
                median_ns: 110.0,
                samples: 9,
            }, // within 15%
            Measured {
                name: "b",
                median_ns: 130.0,
                samples: 9,
            }, // regressed
            Measured {
                name: "c",
                median_ns: 50.0,
                samples: 9,
            }, // no baseline
        ];
        let (table, regressions) = gate(&current, &base);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].starts_with("b:"), "{regressions:?}");
        assert!(
            table.contains("| a | 100.0 | 110.0 | 1.10x | ok |"),
            "{table}"
        );
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("| c | — | 50.0 | — | new |"), "{table}");
    }

    #[test]
    fn gate_normalizes_by_calibration_scale() {
        let mut base = Trajectory::default();
        base.record(CALIBRATION_BENCH, entry(100.0, ""));
        base.record("a", entry(100.0, ""));
        base.record("b", entry(100.0, ""));
        // Machine 1.5x slower: `a` moved with the machine (ok after
        // scaling), `b` regressed 2x on top of it (still flagged).
        let current = [
            Measured {
                name: CALIBRATION_BENCH,
                median_ns: 150.0,
                samples: 9,
            },
            Measured {
                name: "a",
                median_ns: 150.0,
                samples: 9,
            },
            Measured {
                name: "b",
                median_ns: 300.0,
                samples: 9,
            },
        ];
        let (table, regressions) = gate(&current, &base);
        assert_eq!(regressions.len(), 1, "{table}");
        assert!(regressions[0].starts_with("b:"), "{regressions:?}");
        assert!(table.contains("yardstick (scale 1.50x)"), "{table}");
        assert!(
            table.contains("| a | 100.0 | 150.0 | 1.00x | ok |"),
            "{table}"
        );

        // A faster machine clamps to scale 1: raw ratios apply, so a
        // genuine regression cannot hide behind the speed-up.
        let faster = [
            Measured {
                name: CALIBRATION_BENCH,
                median_ns: 50.0,
                samples: 9,
            },
            Measured {
                name: "a",
                median_ns: 120.0,
                samples: 9,
            },
            Measured {
                name: "b",
                median_ns: 100.0,
                samples: 9,
            },
        ];
        let (table, regressions) = gate(&faster, &base);
        assert_eq!(regressions.len(), 1, "{table}");
        assert!(table.contains("scale 1.00x"), "{table}");
    }

    #[test]
    fn gate_fails_on_a_baseline_bench_that_was_not_measured() {
        let mut base = Trajectory::default();
        base.record("a", entry(100.0, ""));
        base.record("gone", entry(40.0, ""));
        let current = [Measured {
            name: "a",
            median_ns: 100.0,
            samples: 9,
        }];
        let (table, failures) = gate(&current, &base);
        assert_eq!(failures.len(), 1, "{table}");
        assert!(failures[0].starts_with("gone:"), "{failures:?}");
        assert!(
            table.contains("| gone | 40.0 | — | — | MISSING |"),
            "{table}"
        );
    }

    #[test]
    fn record_refuses_a_regression_against_the_best_median_unless_accepted() {
        let mut t = Trajectory::default();
        t.record(CALIBRATION_BENCH, entry(100.0, ""));
        t.record("a", entry(100.0, ""));
        t.record("a", entry(130.0, "drifted")); // the last entry is not the bar
        let run = |cal: f64, a: f64| {
            [
                Measured {
                    name: CALIBRATION_BENCH,
                    median_ns: cal,
                    samples: 9,
                },
                Measured {
                    name: "a",
                    median_ns: a,
                    samples: 9,
                },
                Measured {
                    name: "new",
                    median_ns: 1e6,
                    samples: 9,
                },
            ]
        };
        // Within 15% of the best (100), not of the last (130).
        assert_eq!(
            record_note(&run(100.0, 114.0), &t, "n", None),
            Ok("n".into())
        );
        let refused = record_note(&run(100.0, 120.0), &t, "n", None).unwrap_err();
        assert_eq!(refused.len(), 1, "{refused:?}");
        assert!(refused[0].starts_with("a:"), "{refused:?}");
        // A uniformly 1.5x slower machine scales out, as in `gate`…
        assert_eq!(
            record_note(&run(150.0, 165.0), &t, "n", None),
            Ok("n".into())
        );
        // …and a faster one clamps to scale 1.
        assert!(record_note(&run(50.0, 120.0), &t, "n", None).is_err());
        // An explicit reason lets the regression through, into the note.
        assert_eq!(
            record_note(&run(100.0, 120.0), &t, "n", Some("new model")),
            Ok("n (accepted regression: new model)".into())
        );
    }

    #[test]
    fn calibration_spin_is_deterministic() {
        assert_eq!(calibration_spin(7), calibration_spin(7));
        assert_ne!(calibration_spin(7), calibration_spin(8));
    }

    #[test]
    fn today_is_plausible_iso_date() {
        let d = today_utc();
        assert_eq!(d.len(), 10, "{d}");
        assert_eq!(&d[4..5], "-");
        let year: i32 = d[..4].parse().unwrap();
        assert!(year >= 2024, "{d}");
    }
}
