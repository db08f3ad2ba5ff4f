//! # lpb-bench — the experiment and benchmark harness
//!
//! Every table and figure of the paper's evaluation (Appendix C and the
//! tightness results of §6 / Appendix D) has a corresponding experiment
//! module here that regenerates it on the synthetic stand-in workloads of
//! [`lpb_datagen`]:
//!
//! | Experiment | Paper artifact | Module |
//! |------------|----------------|--------|
//! | E1 | Appendix C.1, triangle-query table | [`experiments::e1_triangle`] |
//! | E2 | Appendix C.1, one-join-query table | [`experiments::e2_onejoin`] |
//! | E3 | Figure 1 (33 acyclic JOB queries) | [`experiments::e3_job`] |
//! | E4 | Appendix C.3, DSB vs ℓp-bound gap | [`experiments::e4_dsb_gap`] |
//! | E5 | Appendix C.5, cycle query norms | [`experiments::e5_cycle`] |
//! | E6 | §6 / Example 6.7, worst-case databases | [`experiments::e6_worstcase`] |
//! | E7 | Appendix D.2, non-Shannon 35/36 gap | [`experiments::e7_nonshannon`] |
//! | E8 | §2.2 / Theorem 2.6, partitioned evaluation | [`experiments::e8_partition`] |
//!
//! Each module exposes a `run(scale)` function returning structured rows (so
//! the experiments are unit-testable) and the `experiments` binary prints
//! them as tables.  The `benches/` directory holds one Criterion benchmark
//! per experiment plus micro-benchmarks of the LP solver and the join
//! algorithms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

/// Workload scale shared by all experiments.
///
/// The default is sized so that the full suite runs in a couple of minutes on
/// a laptop in release mode; `Scale::tiny()` is used by unit tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Multiplier applied to the SNAP-like graph presets.
    pub graph_scale: usize,
    /// Number of movies in the JOB-like catalog.
    pub job_movies: usize,
    /// Per-movie link fan-out in the JOB-like catalog.
    pub job_fanout: usize,
    /// Largest finite ℓp norm harvested (`{1, …, max_norm, ∞}`).
    pub max_norm: u32,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            graph_scale: 4,
            job_movies: 2_000,
            job_fanout: 4,
            max_norm: 10,
        }
    }
}

impl Scale {
    /// A tiny scale for unit tests and smoke runs.
    pub fn tiny() -> Self {
        Scale {
            graph_scale: 1,
            job_movies: 200,
            job_fanout: 2,
            max_norm: 4,
        }
    }
}

/// The environment stamp each `BENCH_*.json` emitter writes into its
/// header, as JSON object members: the git revision of the checkout and
/// the machine's `available_parallelism`, so a committed number names the
/// code and the core count that produced it.
pub fn bench_stamp() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"git_revision\": \"{}\", \"available_parallelism\": {cores}",
        git_revision(&root)
    )
}

/// The commit the checkout at `root` is at, read from `.git` without
/// running git; `unknown` outside a git checkout.
fn git_revision(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_stamp_names_the_revision_and_core_count() {
        let stamp = super::bench_stamp();
        assert!(stamp.starts_with("\"git_revision\": \""), "{stamp}");
        assert!(stamp.contains("\"available_parallelism\": "), "{stamp}");
        let outside = super::git_revision(std::path::Path::new("/nonexistent"));
        assert_eq!(outside, "unknown");
    }
}
