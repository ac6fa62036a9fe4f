//! Paired-ratio timing and JSON reporting for the pipeline benchmark
//! binary (`pipeline_bench`).
//!
//! Every entry compares a baseline arm with a new arm through one timer,
//! [`time_paired`], and is gated by the ratio it measures. The workspace
//! has no serde, so the report is hand-rolled JSON: a flat list of
//! entries, each with its arms' median times and the median per-pair
//! speedup, so a single binary can emit one machine-readable file
//! (`BENCH_pipeline.json`) that CI checks in.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;
use vbr_stats::obs::CounterSnapshot;

/// Allowed per-entry slowdown before [`check_against`] fails: an
/// entry's speedup must stay ≥ recorded / 1.15. Documented in the
/// emitted JSON so the checked-in report carries its own gate contract.
/// A paired ratio cancels the host load both arms share; what is left
/// is load that slows one arm more than the other, which keeps most
/// ratios within ±10% of their median between runs on the shared 2-vCPU
/// recording host. 15% rides above that while still catching the
/// regressions this gate exists for (an accidental de-vectorization or
/// algorithmic slip is ≥ 30%).
pub const REGRESSION_TOLERANCE: f64 = 1.15;

/// Fewest and most timed pairs [`time_paired`] runs, whatever the budget.
const PAIRS: (usize, usize) = (7, 1000);

/// One baseline-vs-new measurement from [`time_paired`].
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Median seconds of one baseline-arm call.
    pub baseline_secs: f64,
    /// Median seconds of one new-arm call.
    pub secs: f64,
    /// Median over pairs of baseline / new time: the gated number.
    pub speedup: f64,
    /// Timed pairs the medians were taken over.
    pub pairs: usize,
}

/// Times `baseline` against `new` in pairs and returns the median
/// per-pair speedup. Each arm first runs once to warm caches; the slower
/// of those two calls sets the pair count, so each arm spends about
/// `budget_secs` (clamped to [`PAIRS`]). Pairs alternate which
/// arm runs first, so drift in host load or a periodic stall lands on
/// both arms alike and cancels in each pair's ratio.
pub fn time_paired(budget_secs: f64, mut baseline: impl FnMut(), mut new: impl FnMut()) -> Paired {
    fn timed(f: &mut impl FnMut()) -> f64 {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    }
    let warm = timed(&mut baseline).max(timed(&mut new));
    let pairs = ((budget_secs / warm).ceil() as usize).clamp(PAIRS.0, PAIRS.1);
    let (mut base, mut newt, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for p in 0..pairs {
        let (b, n) = if p % 2 == 0 {
            let b = timed(&mut baseline);
            (b, timed(&mut new))
        } else {
            let n = timed(&mut new);
            (timed(&mut baseline), n)
        };
        base.push(b);
        newt.push(n);
        ratios.push(b / n);
    }
    Paired {
        baseline_secs: median(&mut base),
        secs: median(&mut newt),
        speedup: median(&mut ratios),
        pairs,
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The `rustc --version` string of the toolchain on `PATH`, so a checked
/// in report records which compiler produced the timed code ("unknown"
/// when rustc cannot be invoked).
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPU model name from `/proc/cpuinfo` ("unknown" elsewhere) and
/// the logical CPU count, so a checked-in report names the host its
/// ratios were taken on.
pub fn host_cpu() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{model}, {cpus} logical CPUs")
}

/// One benchmark result: a baseline arm timed against a new arm.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Tier the entry belongs to (`kernels`, `estimators`, `simulation`).
    pub group: String,
    /// Benchmark name.
    pub name: String,
    /// The paired measurement.
    pub timing: Paired,
    /// Free-form description of the workload and what is compared.
    pub note: String,
    /// Pipeline-counter activity attributed to this entry: the non-zero
    /// increases of every [`vbr_stats::obs`] counter since the previous
    /// [`PerfReport::record`] call (so warmup + timed pairs of *this*
    /// benchmark, not the process lifetime).
    pub metrics: Vec<(&'static str, u64)>,
}

/// The full report written as `BENCH_pipeline.json`.
#[derive(Debug)]
pub struct PerfReport {
    entries: Vec<PerfEntry>,
    /// Per-arm time budget every entry was timed with.
    budget_secs: f64,
    /// Counter state at the previous `record` call (initially at
    /// construction), so each entry gets the delta of *its* benchmark.
    last_counters: CounterSnapshot,
}

impl PerfReport {
    /// Empty report for entries timed with a `budget_secs` per-arm
    /// budget. Counter attribution starts here: the first entry recorded
    /// absorbs whatever ran between construction and that `record` call.
    pub fn new(budget_secs: f64) -> Self {
        PerfReport { entries: Vec::new(), budget_secs, last_counters: CounterSnapshot::capture() }
    }

    /// Records one paired measurement, with the counter delta since the
    /// previous record.
    pub fn record(&mut self, group: &str, name: &str, timing: Paired, note: &str) {
        let now = CounterSnapshot::capture();
        let metrics = now.delta(&self.last_counters).into_iter().filter(|&(_, v)| v > 0).collect();
        self.last_counters = now;
        self.entries.push(PerfEntry {
            group: group.to_string(),
            name: name.to_string(),
            timing,
            note: note.to_string(),
            metrics,
        });
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[PerfEntry] {
        &self.entries
    }

    /// Serialises the report (plus host metadata) to pretty JSON.
    ///
    /// Schema v2 added the compiler version and each entry's iteration
    /// schedule. Schema v3 added a `metrics` section: every
    /// [`vbr_stats::obs`] pipeline counter at serialisation time plus the
    /// process peak RSS. Schema v4 added the SIMD chunk width, the CPU
    /// target features, the regression tolerance the CI gate enforces
    /// (see [`check_against`]) and per-entry counter deltas. Schema v5
    /// times every entry as a paired ratio: each entry's `speedup` is the
    /// median per-pair baseline/new ratio over `pairs` pairs, the gated
    /// number; the arms' median `secs` are informational. It also names
    /// the host CPU and how the ratios were taken.
    pub fn to_json(&self, host_threads: usize, rustc: &str) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"vbr-bench/pipeline/v5\",");
        let _ = writeln!(s, "  \"host_cpu\": {},", json_str(&host_cpu()));
        let _ = writeln!(s, "  \"host_threads\": {host_threads},");
        let _ = writeln!(s, "  \"rustc\": {},", json_str(rustc));
        let _ = writeln!(s, "  \"simd_width\": {},", vbr_stats::simd::LANES);
        let _ = writeln!(
            s,
            "  \"target_features\": {},",
            json_str(&vbr_stats::simd::target_features())
        );
        let _ = writeln!(
            s,
            "  \"timing_note\": {},",
            json_str(&format!(
                "pipeline_bench at {host_threads} worker thread(s): each entry warms both arms \
                 once, then times baseline and new in pairs alternating which arm runs first; \
                 speedup is the median per-pair baseline/new ratio, with the pair count set so \
                 each arm spends about {} s ({}..={} pairs)",
                self.budget_secs, PAIRS.0, PAIRS.1
            ))
        );
        let _ = writeln!(s, "  \"regression_tolerance\": {REGRESSION_TOLERANCE},");
        let _ = writeln!(
            s,
            "  \"regression_note\": {},",
            json_str(
                "CI gate: pipeline_bench --check-against fails if any entry of this file \
                 is missing from the run, carries no numeric speedup, or runs with a speedup \
                 below this file's divided by the tolerance factor; speedups are \
                 host-relative ratios, comparable on a host with this file's target_features"
            )
        );
        s.push_str("  \"metrics\": {\n");
        for (name, value) in vbr_stats::obs::counters() {
            let _ = writeln!(s, "    \"{name}\": {value},");
        }
        match vbr_stats::obs::peak_rss_kib() {
            Some(kib) => {
                let _ = writeln!(s, "    \"peak_rss_kib\": {kib}");
            }
            None => s.push_str("    \"peak_rss_kib\": null\n"),
        }
        s.push_str("  },\n");
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let t = &e.timing;
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"group\": {},", json_str(&e.group));
            let _ = writeln!(s, "      \"name\": {},", json_str(&e.name));
            let _ = writeln!(s, "      \"baseline_secs\": {},", json_f64(t.baseline_secs));
            let _ = writeln!(s, "      \"secs\": {},", json_f64(t.secs));
            let _ = writeln!(s, "      \"speedup\": {},", json_f64(t.speedup));
            let _ = writeln!(s, "      \"pairs\": {},", t.pairs);
            s.push_str("      \"metrics\": {");
            for (j, (name, value)) in e.metrics.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{name}\": {value}");
            }
            s.push_str("},\n");
            let _ = writeln!(s, "      \"note\": {}", json_str(&e.note));
            s.push_str(if i + 1 == self.entries.len() { "    }\n" } else { "    },\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Writes the JSON report to `path`.
    pub fn write(&self, path: &Path, host_threads: usize, rustc: &str) -> io::Result<()> {
        std::fs::write(path, self.to_json(host_threads, rustc))
    }

    /// Prints a human-readable summary table to stdout.
    pub fn print_summary(&self) {
        println!(
            "{:<18} {:<42} {:>12} {:>12} {:>8} {:>6}",
            "group", "name", "baseline", "secs", "speedup", "pairs"
        );
        for e in &self.entries {
            let t = &e.timing;
            println!(
                "{:<18} {:<42} {:>12.6} {:>12.6} {:>7.2}x {:>6}",
                e.group, e.name, t.baseline_secs, t.secs, t.speedup, t.pairs
            );
        }
    }
}

/// Extracts `(group, name, speedup)` for every entry of a previously
/// written report (hand-rolled line scan — the workspace has no serde;
/// the emitter in [`PerfReport::to_json`] pins the line shapes this
/// reads). An entry whose speedup is absent, `null` or not a positive
/// finite number yields `None`, so the gate can name it rather than lose
/// it.
pub fn parse_entry_speedups(json: &str) -> Vec<(String, String, Option<f64>)> {
    let mut out: Vec<(String, String, Option<f64>)> = Vec::new();
    let mut group = String::new();
    let entries = json.split_once("\"entries\"").map_or("", |(_, rest)| rest);
    for line in entries.lines() {
        let t = line.trim().trim_end_matches(',');
        let string = |s: &str| s.strip_prefix('"')?.strip_suffix('"').map(str::to_string);
        if let Some(g) = t.strip_prefix("\"group\": ").and_then(string) {
            group = g;
        } else if let Some(n) = t.strip_prefix("\"name\": ").and_then(string) {
            out.push((group.clone(), n, None));
        } else if let (Some(v), Some(last)) = (t.strip_prefix("\"speedup\": "), out.last_mut()) {
            last.2 = v.parse::<f64>().ok().filter(|v| v.is_finite() && *v > 0.0);
        }
    }
    out
}

/// The reference report's `target_features`, when it differs from this
/// host's: the gate prints both before gating, since ratios are
/// host-relative.
pub fn feature_mismatch(old_json: &str) -> Option<String> {
    let here = vbr_stats::simd::target_features();
    let theirs = old_json
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"target_features\": \""))?
        .trim_end_matches(',')
        .trim_end_matches('"');
    (theirs != here).then(|| {
        format!(
            "reference target features '{theirs}', this host '{here}': \
             ratios may not carry over"
        )
    })
}

/// The CI bench regression gate: compares this run's entries against a
/// checked-in report, entry by entry. Every `(group, name)` entry of the
/// old report must appear in this run with a speedup of at least its
/// recorded speedup / `tolerance` (e.g. [`REGRESSION_TOLERANCE`] = 1.15).
/// A reference entry the run does not produce fails, as does one whose
/// recorded speedup does not parse — silently dropping a benchmark must
/// not pass the gate. New entries (absent from the old report) are
/// reported, not gated; they become gated once the report is
/// regenerated.
///
/// Returns the per-entry comparison lines on success, or the failure
/// lines on failure.
pub fn check_against(
    old_json: &str,
    entries: &[PerfEntry],
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let old = parse_entry_speedups(old_json);
    let mut report = Vec::new();
    let mut failures = Vec::new();
    for (g, n, recorded) in &old {
        let run = entries.iter().find(|e| &e.group == g && &e.name == n);
        match (recorded, run) {
            (None, _) => failures.push(format!(
                "entry '{g}/{n}': reference speedup is missing or not a positive number"
            )),
            (_, None) => {
                failures.push(format!("entry '{g}/{n}' in baseline report but not in this run"))
            }
            (Some(rec), Some(e)) => {
                let (got, floor) = (e.timing.speedup, rec / tolerance);
                let line = format!(
                    "entry '{g}/{n}': {got:.3}x vs recorded {rec:.3}x (floor {floor:.3}x)"
                );
                // A NaN speedup fails too.
                if got >= floor {
                    report.push(line);
                } else {
                    failures.push(format!("REGRESSION {line}"));
                }
            }
        }
    }
    for e in entries {
        if !old.iter().any(|(g, n, _)| *g == e.group && *n == e.name) {
            report.push(format!("entry '{}/{}': new (no baseline, not gated)", e.group, e.name));
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures)
    }
}

/// Escapes a string as a JSON string literal (ASCII control chars only —
/// benchmark names and notes are plain ASCII by construction).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite f64 as JSON (JSON has no NaN/Inf; those become null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn paired(speedup: f64) -> Paired {
        Paired { baseline_secs: speedup, secs: 1.0, speedup, pairs: 5 }
    }

    #[test]
    fn json_report_shape() {
        let mut r = PerfReport::new(0.5);
        r.record("kernels", "fft", paired(2.0), "plain");
        r.record("estimators", "whittle", paired(4.0), "note \"quoted\"");
        let j = r.to_json(4, "rustc 1.99.0 (test)");
        assert!(j.contains("\"schema\": \"vbr-bench/pipeline/v5\""));
        assert!(j.contains("\"host_cpu\": "));
        assert!(j.contains("\"simd_width\": "));
        assert!(j.contains("\"target_features\": "));
        assert!(j.contains("\"timing_note\": ") && j.contains("about 0.5 s"));
        assert!(j.contains("\"regression_tolerance\": 1.15"));
        assert!(j.contains("\"metrics\": {"));
        assert!(j.contains("\"fft_plan_hit\":"));
        assert!(j.contains("\"fgn_cache_evict\":"));
        assert!(j.contains("\"peak_rss_kib\":"));
        assert!(j.contains("\"host_threads\": 4"));
        assert!(j.contains("\"rustc\": \"rustc 1.99.0 (test)\""));
        assert!(j.contains("\"speedup\": 4.000000000"));
        assert!(j.contains("\"pairs\": 5"));
        assert!(j.contains("\\\"quoted\\\""));
        // Balanced braces/brackets — parseable shape.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert_eq!(feature_mismatch(&j), None, "a report matches its own host");
        let here = vbr_stats::simd::target_features();
        let other = j.replace(
            &format!("\"target_features\": \"{here}\""),
            "\"target_features\": \"other-host\"",
        );
        let note = feature_mismatch(&other).expect("differing features are reported");
        assert!(note.contains("'other-host'") && note.contains(&format!("'{here}'")), "{note}");
    }

    #[test]
    fn rustc_version_is_nonempty() {
        assert!(!rustc_version().is_empty());
    }

    /// The paired timer warms each arm once, then alternates which arm
    /// leads each pair; it never runs one arm twice in a row inside a
    /// pair.
    #[test]
    fn paired_timer_alternates_arm_order() {
        let log = RefCell::new(String::new());
        let t = time_paired(0.0, || log.borrow_mut().push('b'), || log.borrow_mut().push('n'));
        assert_eq!(t.pairs, PAIRS.0, "a zero budget runs the fewest pairs");
        // Warm calls, then pairs bn, nb, bn, nb, ...
        let pairs: String = (0..PAIRS.0).map(|p| if p % 2 == 0 { "bn" } else { "nb" }).collect();
        assert_eq!(log.into_inner(), format!("bn{pairs}"));
    }

    /// Round-trips a report through `to_json` → `parse_entry_speedups`
    /// and exercises the gate: pass within tolerance, fail (naming the
    /// entry) below recorded / tolerance, fail on a missing entry, fail
    /// on an unparseable reference speedup, report new entries as not
    /// gated.
    #[test]
    fn check_against_gate() {
        let mut old = PerfReport::new(0.5);
        old.record("kernels", "a", paired(2.0), "");
        old.record("kernels", "b", paired(1.0), "");
        old.record("streaming", "s", paired(4.0), "");
        let old_json = old.to_json(4, "rustc test");
        let parsed = parse_entry_speedups(&old_json);
        assert_eq!(parsed.len(), 3, "one (group, name, speedup) per entry: {parsed:?}");
        assert!(parsed.contains(&("streaming".to_string(), "s".to_string(), Some(4.0))));

        let run = |speedups: &[(&str, &str, f64)]| {
            let mut r = PerfReport::new(0.5);
            for &(g, n, s) in speedups {
                r.record(g, n, paired(s), "");
            }
            r
        };
        let gate = |r: &PerfReport| check_against(&old_json, r.entries(), REGRESSION_TOLERANCE);

        // Within tolerance (one entry 10% slower), plus a brand-new
        // entry: pass, with one line per entry.
        let ok = run(&[("kernels", "a", 1.82), ("kernels", "b", 1.0), ("streaming", "s", 5.0),
            ("brand_new", "x", 0.01)]);
        let lines = gate(&ok).unwrap();
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("brand_new/x") && l.contains("not gated")));

        // One entry below recorded / 1.15: fail, naming only that entry.
        let slow = run(&[("kernels", "a", 2.0), ("kernels", "b", 0.85), ("streaming", "s", 4.0)]);
        let fails = gate(&slow).unwrap_err();
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("REGRESSION") && fails[0].contains("kernels/b"));

        // A reference entry the run does not produce fails, even when
        // everything else is faster.
        let gone = run(&[("kernels", "a", 9.0), ("streaming", "s", 9.0)]);
        let fails = gate(&gone).unwrap_err();
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("kernels/b") && fails[0].contains("not in this run"));

        // A reference speedup written as null (a non-finite ratio)
        // fails the gate and names the entry instead of ungating it.
        let null_json = old_json.replacen("\"speedup\": 1.000000000", "\"speedup\": null", 1);
        assert_ne!(null_json, old_json);
        let fails = check_against(&null_json, ok.entries(), REGRESSION_TOLERANCE).unwrap_err();
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("kernels/b") && fails[0].contains("not a positive number"));
    }
}
