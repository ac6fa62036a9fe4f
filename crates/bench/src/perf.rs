//! Wall-clock measurement and JSON reporting for the pipeline benchmark
//! binary (`pipeline_bench`).
//!
//! The workspace has no serde, so the report is hand-rolled JSON: a flat
//! list of entries, each with a measured median time, an optional
//! baseline it is compared against, and the resulting speedup, so a
//! single binary can emit one machine-readable before/after file
//! (`BENCH_pipeline.json`) that CI checks in.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;
use vbr_stats::obs::CounterSnapshot;

/// Allowed per-group slowdown before [`check_against`] fails: new group
/// total ≤ old × 1.15. Documented in the emitted JSON (schema v4) so
/// the checked-in report carries its own gate contract. 15% rides above
/// shared-CI noise (observed ≤ ~10% run-to-run) while still catching
/// any real regression of the kind this gate exists for (an accidental
/// de-vectorization or algorithmic slip is ≥ 30%).
pub const REGRESSION_TOLERANCE: f64 = 1.15;

/// Times `f` for `reps` repetitions after `warmup` untimed runs and
/// returns the median wall-clock seconds of a single run.
pub fn time_median<F: FnMut()>(warmup: usize, reps: usize, mut f: F) -> f64 {
    assert!(reps >= 1);
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
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

/// One benchmark result: a measured time, optionally compared to a
/// baseline measurement of the same work done the old/serial way.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Tier the entry belongs to (`kernels`, `estimators`, `simulation`).
    pub group: String,
    /// Benchmark name.
    pub name: String,
    /// Median seconds of the measured (new/parallel) path.
    pub secs: f64,
    /// Median seconds of the baseline (old/serial) path, if compared.
    pub baseline_secs: Option<f64>,
    /// Untimed runs before measurement started.
    pub warmup: usize,
    /// Timed repetitions the median was taken over.
    pub reps: usize,
    /// Free-form description of the workload and what is compared.
    pub note: String,
    /// Pipeline-counter activity attributed to this entry: the non-zero
    /// increases of every [`vbr_stats::obs`] counter since the previous
    /// `record*` call (so warmup + timed reps of *this* benchmark, not
    /// the process lifetime). Captured automatically by
    /// [`PerfReport::record`]/[`PerfReport::record_vs`].
    pub metrics: Vec<(&'static str, u64)>,
}

impl PerfEntry {
    /// `baseline_secs / secs`, when a baseline was measured.
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_secs.map(|b| b / self.secs)
    }
}

/// The full report written as `BENCH_pipeline.json`.
#[derive(Debug)]
pub struct PerfReport {
    entries: Vec<PerfEntry>,
    /// Counter state at the previous `record*` call (initially at
    /// construction), so each entry gets the delta of *its* benchmark.
    last_counters: CounterSnapshot,
}

impl Default for PerfReport {
    fn default() -> Self {
        PerfReport::new()
    }
}

impl PerfReport {
    /// Empty report. Counter attribution starts here: the first entry
    /// recorded absorbs whatever ran between construction and that
    /// `record*` call.
    pub fn new() -> Self {
        PerfReport { entries: Vec::new(), last_counters: CounterSnapshot::capture() }
    }

    /// Captures the counter delta since the previous record and
    /// advances the attribution cursor.
    fn take_metrics(&mut self) -> Vec<(&'static str, u64)> {
        let now = CounterSnapshot::capture();
        let delta: Vec<(&'static str, u64)> =
            now.delta(&self.last_counters).into_iter().filter(|&(_, v)| v > 0).collect();
        self.last_counters = now;
        delta
    }

    /// Records a standalone timing measured over `(warmup, reps)` runs.
    pub fn record(
        &mut self,
        group: &str,
        name: &str,
        secs: f64,
        (warmup, reps): (usize, usize),
        note: &str,
    ) {
        let metrics = self.take_metrics();
        self.entries.push(PerfEntry {
            group: group.to_string(),
            name: name.to_string(),
            secs,
            baseline_secs: None,
            warmup,
            reps,
            note: note.to_string(),
            metrics,
        });
    }

    /// Records a baseline-vs-new comparison, both sides measured over
    /// the same `(warmup, reps)` schedule.
    pub fn record_vs(
        &mut self,
        group: &str,
        name: &str,
        baseline_secs: f64,
        secs: f64,
        (warmup, reps): (usize, usize),
        note: &str,
    ) {
        let metrics = self.take_metrics();
        self.entries.push(PerfEntry {
            group: group.to_string(),
            name: name.to_string(),
            secs,
            baseline_secs: Some(baseline_secs),
            warmup,
            reps,
            note: note.to_string(),
            metrics,
        });
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[PerfEntry] {
        &self.entries
    }

    /// Folds another run of the same suite into this report, keeping
    /// the per-entry minimum of `secs` and `baseline_secs` (matched by
    /// `(group, name)`; entries only present in `other` are appended).
    ///
    /// Medians of short benchmarks still carry host noise — frequency
    /// boost state, a background daemon — that only ever *adds* time,
    /// so the minimum over several runs is the stable statistic: it
    /// converges on the true floor, while a real regression raises the
    /// floor itself and survives any number of merges. Counter metrics
    /// are kept from the first run that recorded the entry; the
    /// pipelines are deterministic, so reruns produce identical deltas.
    pub fn merge_min(&mut self, other: &PerfReport) {
        for o in &other.entries {
            match self.entries.iter_mut().find(|e| e.group == o.group && e.name == o.name) {
                Some(e) => {
                    e.secs = e.secs.min(o.secs);
                    e.baseline_secs = match (e.baseline_secs, o.baseline_secs) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
                None => self.entries.push(o.clone()),
            }
        }
    }

    /// Serialises the report (plus host metadata) to pretty JSON.
    ///
    /// Schema v2 added the compiler version and, per entry, the
    /// iteration schedule (`warmup`/`reps`) the median was taken over —
    /// enough provenance to judge whether two checked-in reports are
    /// comparable. Schema v3 added a `metrics` section: every
    /// [`vbr_stats::obs`] pipeline counter as observed at serialisation
    /// time, plus the process peak RSS, so a checked-in report also
    /// records *what the benchmark exercised* (cache hits, fallbacks,
    /// overflow slots), not just how long it took. Schema v4 adds the
    /// SIMD chunk width and CPU target features (entries are
    /// only comparable across hosts when these match), the documented
    /// regression tolerance the CI gate enforces (see
    /// [`check_against`]), and per-entry `metrics`: each entry's own
    /// counter deltas, so process-lifetime sums in the top-level block
    /// can be attributed benchmark by benchmark.
    pub fn to_json(&self, host_threads: usize, rustc: &str) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"vbr-bench/pipeline/v4\",");
        let _ = writeln!(s, "  \"host_threads\": {host_threads},");
        let _ = writeln!(s, "  \"rustc\": {},", json_str(rustc));
        let _ = writeln!(s, "  \"simd_width\": {},", vbr_stats::simd::LANES);
        let _ = writeln!(
            s,
            "  \"target_features\": {},",
            json_str(&vbr_stats::simd::target_features())
        );
        let _ = writeln!(s, "  \"regression_tolerance\": {REGRESSION_TOLERANCE},");
        let _ = writeln!(
            s,
            "  \"regression_note\": {},",
            json_str(
                "CI gate: pipeline_bench --check-against fails if any entry \
                 of this file is missing from the run or any group's summed \
                 secs exceeds this file's by more than the tolerance \
                 factor; both sides are per-entry minima over repeated runs \
                 (--best-of / gate retries), so the comparison is floor vs \
                 floor, not one noisy sample vs another"
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
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"group\": {},", json_str(&e.group));
            let _ = writeln!(s, "      \"name\": {},", json_str(&e.name));
            let _ = writeln!(s, "      \"secs\": {},", json_f64(e.secs));
            match e.baseline_secs {
                Some(b) => {
                    let _ = writeln!(s, "      \"baseline_secs\": {},", json_f64(b));
                    let _ = writeln!(
                        s,
                        "      \"speedup\": {},",
                        json_f64(e.speedup().unwrap())
                    );
                }
                None => {
                    s.push_str("      \"baseline_secs\": null,\n");
                    s.push_str("      \"speedup\": null,\n");
                }
            }
            let _ = writeln!(s, "      \"warmup\": {},", e.warmup);
            let _ = writeln!(s, "      \"reps\": {},", e.reps);
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
        println!("{:<12} {:<42} {:>12} {:>12} {:>8}", "group", "name", "secs", "baseline", "speedup");
        for e in &self.entries {
            let base = e
                .baseline_secs
                .map(|b| format!("{b:.6}"))
                .unwrap_or_else(|| "-".to_string());
            let sp = e
                .speedup()
                .map(|v| format!("{v:.2}x"))
                .unwrap_or_else(|| "-".to_string());
            println!("{:<12} {:<42} {:>12.6} {:>12} {:>8}", e.group, e.name, e.secs, base, sp);
        }
    }
}

/// Extracts the `(group, name, secs)` triple of every entry from a
/// previously written report (hand-rolled line scan — the workspace has
/// no serde; the emitter in [`PerfReport::to_json`] pins the line
/// shapes this reads). `baseline_secs` lines do not match the `"secs"`
/// prefix, so only measured times are collected.
pub fn parse_entry_secs(json: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    let mut in_entries = false;
    let mut group: Option<String> = None;
    let mut name: Option<String> = None;
    for line in json.lines() {
        let t = line.trim();
        if t.starts_with("\"entries\"") {
            in_entries = true;
            continue;
        }
        if !in_entries {
            continue;
        }
        if let Some(rest) = t.strip_prefix("\"group\": \"") {
            group = rest.strip_suffix("\",").map(|s| s.to_string());
        } else if let Some(rest) = t.strip_prefix("\"name\": \"") {
            name = rest.strip_suffix("\",").map(|s| s.to_string());
        } else if let Some(rest) = t.strip_prefix("\"secs\": ") {
            if let (Some(g), Some(n)) = (group.take(), name.take()) {
                if let Ok(v) = rest.trim_end_matches(',').parse::<f64>() {
                    out.push((g, n, v));
                }
            }
        }
    }
    out
}

/// The CI bench regression gate: compares this run's entries against a
/// checked-in report, group by group. Every `(group, name)` entry of
/// the old report must appear in this run — silently dropping a
/// benchmark must not pass the gate, and dropping one would otherwise
/// shrink its group's sum. For every group whose entries are all
/// present, the new summed `secs` over those entries must not exceed
/// the old sum by more than `tolerance` (a factor, e.g.
/// [`REGRESSION_TOLERANCE`] = 1.15 → 15% slowdown budget). New entries
/// (absent from the old report) are allowed and not summed; they
/// become gated once the report is regenerated.
///
/// Returns the per-group comparison lines on success, or the failure
/// lines (regressed groups / missing entries) on failure.
pub fn check_against(
    old_json: &str,
    entries: &[PerfEntry],
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    use std::collections::BTreeMap;
    let new: BTreeMap<(&str, &str), f64> =
        entries.iter().map(|e| ((e.group.as_str(), e.name.as_str()), e.secs)).collect();
    let old = parse_entry_secs(old_json);
    let mut report = Vec::new();
    let mut failures = Vec::new();
    // Per group: (old sum, new sum, every entry present).
    let mut sums: BTreeMap<&str, (f64, f64, bool)> = BTreeMap::new();
    for (g, n, old_secs) in &old {
        let sum = sums.entry(g.as_str()).or_insert((0.0, 0.0, true));
        match new.get(&(g.as_str(), n.as_str())) {
            None => {
                failures.push(format!("entry '{g}/{n}' in baseline report but not in this run"));
                sum.2 = false;
            }
            Some(&new_secs) => {
                sum.0 += old_secs;
                sum.1 += new_secs;
            }
        }
    }
    for (g, &(old_sum, new_sum, complete)) in &sums {
        if !complete {
            continue;
        }
        let ratio = new_sum / old_sum;
        let line = format!(
            "group '{g}': {new_sum:.6}s vs baseline {old_sum:.6}s ({ratio:.3}x, budget {tolerance:.2}x)"
        );
        if new_sum > old_sum * tolerance {
            failures.push(format!("REGRESSION {line}"));
        } else {
            report.push(line);
        }
    }
    for &(g, n) in new.keys() {
        if !old.iter().any(|(og, on, _)| og == g && on == n) {
            report.push(format!("entry '{g}/{n}': new (no baseline, not gated)"));
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

    #[test]
    fn time_median_returns_positive_seconds() {
        let t = time_median(1, 3, || {
            let v: f64 = (0..1000).map(|i| (i as f64).sqrt()).sum();
            assert!(v > 0.0);
        });
        assert!(t > 0.0 && t < 1.0);
    }

    #[test]
    fn json_report_shape() {
        let mut r = PerfReport::new();
        r.record("kernels", "fft", 0.5, (1, 3), "plain");
        r.record_vs("estimators", "whittle", 1.0, 0.25, (2, 5), "note \"quoted\"");
        let j = r.to_json(4, "rustc 1.99.0 (test)");
        assert!(j.contains("\"schema\": \"vbr-bench/pipeline/v4\""));
        assert!(j.contains("\"simd_width\": "));
        assert!(j.contains("\"target_features\": "));
        assert!(j.contains("\"regression_tolerance\": 1.15"));
        assert!(j.contains("\"metrics\": {"));
        assert!(j.contains("\"fft_plan_hit\":"));
        assert!(j.contains("\"fgn_cache_evict\":"));
        assert!(j.contains("\"peak_rss_kib\":"));
        assert!(j.contains("\"host_threads\": 4"));
        assert!(j.contains("\"rustc\": \"rustc 1.99.0 (test)\""));
        assert!(j.contains("\"speedup\": 4.000000000"));
        assert!(j.contains("\"warmup\": 2"));
        assert!(j.contains("\"reps\": 5"));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"baseline_secs\": null"));
        // Balanced braces/brackets — parseable shape.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn rustc_version_is_nonempty() {
        assert!(!rustc_version().is_empty());
    }

    #[test]
    fn speedup_math() {
        let e = PerfEntry {
            group: "g".into(),
            name: "n".into(),
            secs: 0.5,
            baseline_secs: Some(2.0),
            warmup: 1,
            reps: 3,
            note: String::new(),
            metrics: Vec::new(),
        };
        assert_eq!(e.speedup(), Some(4.0));
    }

    /// Round-trips a report through `to_json` → `parse_entry_secs` and
    /// exercises the gate: pass within tolerance, fail beyond it, fail
    /// on a dropped group or entry, ignore brand-new entries.
    #[test]
    fn check_against_gate() {
        let mut old = PerfReport::new();
        old.record("kernels", "a", 1.0, (1, 3), "");
        old.record("kernels", "b", 1.0, (1, 3), "");
        old.record_vs("streaming", "s", 4.0, 2.0, (1, 3), "baseline_secs must not be summed");
        let old_json = old.to_json(4, "rustc test");

        let parsed = parse_entry_secs(&old_json);
        assert_eq!(parsed.len(), 3, "one (group, name, secs) per entry: {parsed:?}");
        assert!(parsed.contains(&("streaming".to_string(), "s".to_string(), 2.0)));

        // Same groups, slightly faster → pass, with one line per group.
        let mut ok = PerfReport::new();
        ok.record("kernels", "a", 0.9, (1, 3), "");
        ok.record("kernels", "b", 1.0, (1, 3), "");
        ok.record("streaming", "s", 2.1, (1, 3), "");
        ok.record("brand_new", "x", 99.0, (1, 3), "");
        let lines = check_against(&old_json, ok.entries(), REGRESSION_TOLERANCE).unwrap();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().any(|l| l.contains("brand_new") && l.contains("not gated")));

        // kernels regresses past 15% → fail and name the group.
        let mut slow = PerfReport::new();
        slow.record("kernels", "a", 1.5, (1, 3), "");
        slow.record("kernels", "b", 1.0, (1, 3), "");
        slow.record("streaming", "s", 2.0, (1, 3), "");
        let fails = check_against(&old_json, slow.entries(), REGRESSION_TOLERANCE).unwrap_err();
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("REGRESSION") && fails[0].contains("kernels"));

        // Dropping a benchmarked group entirely must not pass the gate.
        let mut dropped = PerfReport::new();
        dropped.record("kernels", "a", 0.1, (1, 3), "");
        dropped.record("kernels", "b", 0.1, (1, 3), "");
        let fails = check_against(&old_json, dropped.entries(), REGRESSION_TOLERANCE).unwrap_err();
        assert!(fails.iter().any(|l| l.contains("streaming") && l.contains("not in this run")));

        // Dropping one entry of a group must not pass either, even
        // though the group's remaining sum is well inside the budget.
        let mut one_gone = PerfReport::new();
        one_gone.record("kernels", "a", 1.0, (1, 3), "");
        one_gone.record("streaming", "s", 2.0, (1, 3), "");
        let fails = check_against(&old_json, one_gone.entries(), REGRESSION_TOLERANCE).unwrap_err();
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("kernels/b") && fails[0].contains("not in this run"));

        // A new entry in a gated group is reported, not summed.
        let mut extra = PerfReport::new();
        extra.record("kernels", "a", 1.0, (1, 3), "");
        extra.record("kernels", "b", 1.0, (1, 3), "");
        extra.record("kernels", "c", 50.0, (1, 3), "");
        extra.record("streaming", "s", 2.0, (1, 3), "");
        let lines = check_against(&old_json, extra.entries(), REGRESSION_TOLERANCE).unwrap();
        assert!(lines.iter().any(|l| l.contains("kernels/c") && l.contains("not gated")));
    }

    /// `merge_min` keeps the fastest observation per `(group, name)` on
    /// both sides of a comparison, and appends entries it has not seen.
    #[test]
    fn merge_min_keeps_fastest() {
        let mut a = PerfReport::new();
        a.record_vs("kernels", "fft", 2.0, 1.0, (1, 3), "");
        a.record("streaming", "gen", 5.0, (1, 3), "");

        let mut b = PerfReport::new();
        b.record_vs("kernels", "fft", 1.8, 1.2, (1, 3), "");
        b.record("streaming", "gen", 4.0, (1, 3), "");
        b.record("brand_new", "x", 9.0, (1, 3), "");

        a.merge_min(&b);
        let fft = &a.entries()[0];
        assert_eq!(fft.secs, 1.0, "kept the faster measured side");
        assert_eq!(fft.baseline_secs, Some(1.8), "kept the faster baseline side");
        assert_eq!(a.entries()[1].secs, 4.0);
        assert_eq!(a.entries()[2].name, "x", "unseen entry appended");

        // Merging is idempotent at the floor: a third, slower run
        // changes nothing.
        let mut c = PerfReport::new();
        c.record_vs("kernels", "fft", 3.0, 2.0, (1, 3), "");
        a.merge_min(&c);
        assert_eq!(a.entries()[0].secs, 1.0);
    }
}
