//! The server's statistics: [`STATS`] declares every `stats` key once, in
//! wire order, and `mf-stats v1` is the machine-readable report.
//!
//! The plain `stats` command answers a session of version v the table's
//! prefix up to v; this module also renders the same counters — plus the
//! per-worker breakdown of a sharded server — as **one JSON document** for
//! the `status-export` protocol command and the `microfactory stats --json`
//! CLI. The document is written by hand (the build environment is offline;
//! no serde) in a canonical form: fixed key order, two-space indentation,
//! integers only — so two reports with equal counters are byte-identical
//! and the CI can diff and archive them.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use mf_obs::HistogramSnapshot;

use crate::proto::ProtoVersion;

/// One row of [`STATS`]: a key, its wire name and the protocol version
/// that first answers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatRow {
    /// The key.
    pub stat: Stat,
    /// Its name on the wire, in `stats` answers and `mf-stats v1`.
    pub key: &'static str,
    /// The first protocol version whose `stats` answer carries it.
    pub since: ProtoVersion,
}

/// Declares [`Stat`] and [`STATS`] from one list in wire order, so a
/// variant's discriminant is its row.
macro_rules! declare_stats {
    ($($stat:ident => $key:literal, $since:ident;)*) => {
        /// One `stats` key; `stat as usize` is its row in [`STATS`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stat {
            $(
                #[doc = concat!("`", $key, "`")]
                $stat,
            )*
        }

        /// Every `stats` key, in wire order. README's `stats-keys` table
        /// documents each row.
        pub const STATS: &[StatRow] = &[
            $(StatRow { stat: Stat::$stat, key: $key, since: ProtoVersion::$since },)*
        ];
    };
}

declare_stats! {
    Instances => "instances", V1;
    InstanceBytes => "instance-bytes", V1;
    InstanceHits => "instance-hits", V1;
    InstanceEvictions => "instance-evictions", V1;
    Loads => "loads", V1;
    Unloads => "unloads", V1;
    Evaluations => "evaluations", V1;
    Whatifs => "whatifs", V1;
    EvaluatorResumes => "evaluator-resumes", V1;
    SnapshotHits => "snapshot-hits", V1;
    SnapshotEvictions => "snapshot-evictions", V1;
    SolvesHeuristic => "solves-heuristic", V1;
    SolvesPortfolio => "solves-portfolio", V1;
    Sessions => "sessions", V1;
    Requests => "requests", V1;
    Errors => "errors", V1;
    EvaluatorBuilds => "evaluator-builds", V2;
    EvaluateCacheHits => "evaluate-cache-hits", V2;
    EvaluateCacheMisses => "evaluate-cache-misses", V2;
    EvaluateCacheEvictions => "evaluate-cache-evictions", V2;
    WhatifDense => "whatif-dense", V2;
    WhatifExact => "whatif-exact", V2;
    MassRowBuilds => "mass-row-builds", V2;
    // The deleted sweep cache's keys: they read 0 until a stats version
    // retires them.
    SweepProbes => "sweep-probes", V2;
    SweepEvaluations => "sweep-evaluations", V2;
    SweepSkips => "sweep-skips", V2;
    SweepReuses => "sweep-reuses", V2;
    SweepRescales => "sweep-rescales", V2;
    SolvesAnytime => "solves-anytime", V3;
    AnytimeReports => "anytime-reports", V3;
    AnytimeProven => "anytime-proven", V3;
    BnbNodes => "bnb-nodes", V3;
    LpSolves => "lp-solves", V3;
    LpReuses => "lp-reuses", V3;
}

// Versions never decrease down the table, so each version's answer is a
// prefix of the next one's.
const _: () = {
    let mut row = 1;
    while row < STATS.len() {
        assert!(STATS[row - 1].since as u8 <= STATS[row].since as u8);
        row += 1;
    }
};

/// The `stats` answer of a session of `version`: the prefix of [`STATS`]
/// up to that version, each key with its `value`.
pub(crate) fn answer(version: ProtoVersion, value: impl Fn(Stat) -> u64) -> Vec<(String, u64)> {
    STATS
        .iter()
        .take_while(|row| row.since <= version)
        .map(|row| (row.key.to_string(), value(row.stat)))
        .collect()
}

/// One relaxed counter per [`STATS`] row, indexed by [`Stat`]. Rows whose
/// value lives elsewhere (the store's, the evaluate cache's, the retired
/// ones) are never bumped.
pub(crate) struct Counters([AtomicU64; STATS.len()]);

impl Counters {
    pub(crate) fn new() -> Self {
        Counters(std::array::from_fn(|_| AtomicU64::new(0)))
    }

    pub(crate) fn add(&self, stat: Stat, n: u64) {
        if n > 0 {
            self.0[stat as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn bump(&self, stat: Stat) {
        self.add(stat, 1);
    }

    pub(crate) fn get(&self, stat: Stat) -> u64 {
        self.0[stat as usize].load(Ordering::Relaxed)
    }
}

/// The `format` tag every report carries, versioned independently of the
/// wire protocol.
pub const STATS_FORMAT: &str = "mf-stats v1";

/// A statistics report: the aggregated counters of the serving tier plus
/// one raw counter list per worker.
///
/// For a single-engine server the report has one worker whose counters equal
/// the global list; for a router, `global` sums each key over the workers,
/// except the session-level counters (`sessions`, `requests`, `errors`),
/// which are the router's own — exactly what its `stats` command answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReport {
    /// Journal-replay counters of a durable server (empty on in-memory
    /// servers, which keeps their documents byte-identical to before
    /// `mf-journal` existed).
    pub recovery: Vec<(String, u64)>,
    /// The aggregated counters, in `stats` presentation order.
    pub global: Vec<(String, u64)>,
    /// Per-command request-latency histograms, in
    /// [`TRACKED_COMMANDS`](crate::obs::TRACKED_COMMANDS) order. On a
    /// router this is the bucket-wise sum over its workers. Commands never
    /// seen are skipped in the JSON; an entirely idle tier omits the block
    /// (which keeps pre-`mf-obs` documents byte-identical).
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Per-worker raw counters, indexed by shard.
    pub workers: Vec<Vec<(String, u64)>>,
}

impl StatsReport {
    /// The canonical JSON document, one element per line (the payload lines
    /// of an `ok status-export` response).
    pub fn json_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push("{".to_string());
        lines.push(format!("  \"format\": {},", json_string(STATS_FORMAT)));
        lines.push(format!("  \"workers\": {},", self.workers.len()));
        if !self.recovery.is_empty() {
            lines.push("  \"recovery\": {".to_string());
            push_counters(&mut lines, "    ", &self.recovery);
            lines.push("  },".to_string());
        }
        let histograms: Vec<&(String, HistogramSnapshot)> = self
            .histograms
            .iter()
            .filter(|(_, snapshot)| snapshot.count() > 0)
            .collect();
        lines.push("  \"global\": {".to_string());
        push_counters(&mut lines, "    ", &self.global);
        let trailer = if histograms.is_empty() && self.workers.is_empty() {
            ""
        } else {
            ","
        };
        lines.push(format!("  }}{trailer}"));
        if !histograms.is_empty() {
            lines.push("  \"histograms\": {".to_string());
            for (index, (command, snapshot)) in histograms.iter().enumerate() {
                lines.push(format!("    {}: {{", json_string(command)));
                lines.push(format!("      \"count\": {},", snapshot.count()));
                lines.push(format!("      \"sum-ns\": {},", snapshot.sum_ns()));
                lines.push(format!("      \"max-ns\": {},", snapshot.max_ns()));
                lines.push(format!("      \"p50-ns\": {},", snapshot.p50_ns()));
                lines.push(format!("      \"p90-ns\": {},", snapshot.p90_ns()));
                lines.push(format!("      \"p99-ns\": {},", snapshot.p99_ns()));
                let buckets: Vec<String> = snapshot
                    .nonzero_buckets()
                    .iter()
                    .map(|(bucket, count)| format!("[{bucket}, {count}]"))
                    .collect();
                lines.push(format!("      \"buckets\": [{}]", buckets.join(", ")));
                let comma = if index + 1 < histograms.len() {
                    ","
                } else {
                    ""
                };
                lines.push(format!("    }}{comma}"));
            }
            let trailer = if self.workers.is_empty() { "" } else { "," };
            lines.push(format!("  }}{trailer}"));
        }
        if !self.workers.is_empty() {
            lines.push("  \"per-worker\": [".to_string());
            for (index, worker) in self.workers.iter().enumerate() {
                lines.push("    {".to_string());
                push_counters(&mut lines, "      ", worker);
                let comma = if index + 1 < self.workers.len() {
                    ","
                } else {
                    ""
                };
                lines.push(format!("    }}{comma}"));
            }
            lines.push("  ]".to_string());
        }
        lines.push("}".to_string());
        lines
    }

    /// The canonical JSON document as one string (trailing newline
    /// included) — what `stats --json` prints and the CI archives.
    pub fn to_json(&self) -> String {
        let mut out = self.json_lines().join("\n");
        out.push('\n');
        out
    }
}

fn push_counters(lines: &mut Vec<String>, indent: &str, counters: &[(String, u64)]) {
    for (index, (key, value)) in counters.iter().enumerate() {
        let comma = if index + 1 < counters.len() { "," } else { "" };
        lines.push(format!("{indent}{}: {value}{comma}", json_string(key)));
    }
}

/// Minimal JSON string encoder. Counter keys are protocol-name tokens, but
/// escaping here keeps the document well-formed for any future key.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    /// The document shape is pinned literally: `status-export` consumers
    /// (CI artifact diffs, dashboards) parse this exact form.
    #[test]
    fn json_document_is_pinned() {
        let report = StatsReport {
            recovery: Vec::new(),
            global: counters(&[("loads", 3), ("errors", 0)]),
            histograms: Vec::new(),
            workers: vec![
                counters(&[("loads", 1), ("errors", 0)]),
                counters(&[("loads", 2), ("errors", 0)]),
            ],
        };
        let expected = "\
{
  \"format\": \"mf-stats v1\",
  \"workers\": 2,
  \"global\": {
    \"loads\": 3,
    \"errors\": 0
  },
  \"per-worker\": [
    {
      \"loads\": 1,
      \"errors\": 0
    },
    {
      \"loads\": 2,
      \"errors\": 0
    }
  ]
}
";
        assert_eq!(report.to_json(), expected);
        // The lines form is exactly the document split on newlines — the
        // payload a `status-export` response carries.
        assert_eq!(
            report.json_lines(),
            expected.trim_end().split('\n').collect::<Vec<_>>()
        );
    }

    /// The `histograms` block sits between `global` and `per-worker`;
    /// commands with no samples are skipped, and an all-empty list omits
    /// the block entirely — so the documents of a tier that predates
    /// `mf-obs` are byte-identical to before the block existed.
    #[test]
    fn histogram_block_is_pinned_and_empty_commands_are_skipped() {
        let solve = mf_obs::Histogram::new();
        solve.record(900);
        solve.record(1000);
        solve.record(70_000);
        let report = StatsReport {
            recovery: Vec::new(),
            global: counters(&[("loads", 1)]),
            histograms: vec![
                ("hello".to_string(), HistogramSnapshot::empty()),
                ("solve".to_string(), solve.snapshot()),
            ],
            workers: vec![counters(&[("loads", 1)])],
        };
        let expected = "\
{
  \"format\": \"mf-stats v1\",
  \"workers\": 1,
  \"global\": {
    \"loads\": 1
  },
  \"histograms\": {
    \"solve\": {
      \"count\": 3,
      \"sum-ns\": 71900,
      \"max-ns\": 70000,
      \"p50-ns\": 1023,
      \"p90-ns\": 70000,
      \"p99-ns\": 70000,
      \"buckets\": [[10, 2], [17, 1]]
    }
  },
  \"per-worker\": [
    {
      \"loads\": 1
    }
  ]
}
";
        assert_eq!(report.to_json(), expected);

        // All histograms empty: the block vanishes and the document equals
        // one built with no histogram list at all.
        let silent = StatsReport {
            histograms: vec![("hello".to_string(), HistogramSnapshot::empty())],
            workers: Vec::new(),
            ..report.clone()
        };
        let bare = StatsReport {
            histograms: Vec::new(),
            ..silent.clone()
        };
        assert_eq!(silent.to_json(), bare.to_json());
        assert!(!silent.to_json().contains("histograms"));
    }

    #[test]
    fn workerless_reports_omit_the_per_worker_array() {
        let report = StatsReport {
            recovery: Vec::new(),
            global: counters(&[("requests", 1)]),
            histograms: Vec::new(),
            workers: Vec::new(),
        };
        let json = report.to_json();
        assert!(!json.contains("per-worker"), "{json}");
        assert!(!json.contains("recovery"), "{json}");
        assert!(json.contains("\"workers\": 0"), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
    }

    /// A durable server's report carries the journal-replay block between
    /// the worker count and the global counters; its shape is pinned
    /// literally like the base document.
    #[test]
    fn recovery_block_is_pinned_when_present() {
        let report = StatsReport {
            recovery: counters(&[("journal-entries-replayed", 3), ("journal-compactions", 1)]),
            global: counters(&[("loads", 2)]),
            histograms: Vec::new(),
            workers: vec![counters(&[("loads", 2)])],
        };
        let expected = "\
{
  \"format\": \"mf-stats v1\",
  \"workers\": 1,
  \"recovery\": {
    \"journal-entries-replayed\": 3,
    \"journal-compactions\": 1
  },
  \"global\": {
    \"loads\": 2
  },
  \"per-worker\": [
    {
      \"loads\": 2
    }
  ]
}
";
        assert_eq!(report.to_json(), expected);
    }

    #[test]
    fn keys_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
