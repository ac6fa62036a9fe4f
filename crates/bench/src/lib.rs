//! Shared plumbing for the reproduction harness: the experiment context
//! (cached default trace, output directory) and small output helpers.

#![warn(missing_docs)]

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use vbr_video::{generate_screenplay, ScreenplayConfig, Trace};

pub mod checkpoint;
pub mod experiments;
pub mod faults;
pub mod perf;

pub use checkpoint::{CheckpointStore, PipelineConfig, PipelineState, Recovery, TraceDigest};
pub use faults::{Corruption, FaultInjector, FileCorruption, KillPoint};
pub use perf::{PerfEntry, PerfReport};

/// Execution context shared by every experiment.
pub struct Ctx {
    /// The synthetic movie trace under analysis.
    pub trace: Trace,
    /// Directory where CSV series are written.
    pub out_dir: PathBuf,
    /// Reduced-effort mode (shorter sweeps, fewer bisection iterations).
    pub quick: bool,
}

impl Ctx {
    /// Builds the context, generating (or loading a cached copy of) the
    /// default trace.
    pub fn new(frames: usize, seed: u64, out_dir: PathBuf, quick: bool) -> Ctx {
        fs::create_dir_all(&out_dir).expect("cannot create output directory");
        let cache = out_dir.join(format!("trace_{frames}_{seed}.bin"));
        let trace = if cache.exists() {
            match Trace::load(&cache) {
                Ok(t) if t.frames() == frames => t,
                _ => Self::generate_and_cache(frames, seed, &cache),
            }
        } else {
            Self::generate_and_cache(frames, seed, &cache)
        };
        Ctx { trace, out_dir, quick }
    }

    fn generate_and_cache(frames: usize, seed: u64, cache: &Path) -> Trace {
        eprintln!("[repro] generating {frames}-frame synthetic movie trace…");
        let trace =
            generate_screenplay(&ScreenplayConfig { frames, seed, ..Default::default() });
        if let Err(e) = trace.save(cache) {
            eprintln!("[repro] warning: could not cache trace: {e}");
        }
        trace
    }

    /// Bisection depth for capacity searches.
    pub fn search_iters(&self) -> usize {
        if self.quick {
            16
        } else {
            22
        }
    }

    /// Writes a CSV file into the output directory.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[Vec<f64>]) {
        let path = self.out_dir.join(name);
        let mut f = fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        writeln!(f, "{header}").unwrap();
        for row in rows {
            let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            writeln!(f, "{}", line.join(",")).unwrap();
        }
        eprintln!("[repro] wrote {}", path.display());
    }
}

/// Pretty separator for experiment headers.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats a paper-vs-measured comparison row.
pub fn compare(label: &str, paper: &str, measured: &str) {
    println!("{label:<44} paper: {paper:<18} measured: {measured}");
}
