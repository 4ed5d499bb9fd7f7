//! Counter harvest: the server's own `stats` (v3) and `status-export`
//! values, read over a monitor session before and after a phase, and the
//! deltas between the two reads.

use mf_obs::HistogramSnapshot;
use mf_server::{Client, ClientError};
use std::collections::BTreeMap;

/// One read of the server's counters.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// The `stats` keys (v3 session: every counter).
    pub stats: BTreeMap<String, u64>,
    /// The `recovery` block of a durable server's `status-export`.
    pub recovery: BTreeMap<String, u64>,
    /// The per-command latency histograms of `status-export`.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Counters {
    /// Reads `stats` and `status-export` over `client` (a v3 session).
    pub fn read(client: &mut Client) -> Result<Counters, ClientError> {
        let stats = client.stats()?.into_iter().collect();
        let document = client.status_export()?;
        let (recovery, histograms) = parse_status_export(&document);
        Ok(Counters {
            stats,
            recovery,
            histograms,
        })
    }

    /// What moved between `before` and `self`.
    pub fn since(&self, before: &Counters) -> Delta {
        let minus = |after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>| {
            after
                .iter()
                .map(|(key, value)| {
                    let base = before.get(key).copied().unwrap_or(0);
                    (key.clone(), value.saturating_sub(base))
                })
                .collect()
        };
        let histograms = self
            .histograms
            .iter()
            .map(|(command, after)| {
                let before = before.histograms.get(command).cloned().unwrap_or_default();
                (command.clone(), histogram_delta(after, &before))
            })
            .collect();
        Delta {
            stats: minus(&self.stats, &before.stats),
            recovery: minus(&self.recovery, &before.recovery),
            histograms,
        }
    }
}

/// Counter movement over one phase.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    stats: BTreeMap<String, u64>,
    recovery: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Delta {
    /// A `stats` key's movement (0 for an unknown key).
    pub fn stat(&self, key: &str) -> u64 {
        self.stats.get(key).copied().unwrap_or(0)
    }

    /// A `recovery` key's movement.
    pub fn recovery(&self, key: &str) -> u64 {
        self.recovery.get(key).copied().unwrap_or(0)
    }

    /// The latency histogram of one command over the phase.
    pub fn histogram(&self, command: &str) -> HistogramSnapshot {
        self.histograms.get(command).cloned().unwrap_or_default()
    }
}

/// The samples recorded between two snapshots of one histogram. The
/// phase's own maximum is not exposed, so quantiles clamp to the
/// cumulative maximum — an upper bound, like the buckets themselves.
fn histogram_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let old: BTreeMap<usize, u64> = before.nonzero_buckets().into_iter().collect();
    let buckets: Vec<(usize, u64)> = after
        .nonzero_buckets()
        .into_iter()
        .map(|(bucket, count)| (bucket, count - old.get(&bucket).copied().unwrap_or(0)))
        .collect();
    HistogramSnapshot::from_parts(
        &buckets,
        after.count() - before.count(),
        after.sum_ns().wrapping_sub(before.sum_ns()),
        after.max_ns(),
    )
    .expect("bucket indices come from a snapshot")
}

/// Pulls the `recovery` counters and the `histograms` block out of an
/// `mf-stats v1` document. The document is canonical — one element per
/// line, fixed key order — so a line scanner suffices.
fn parse_status_export(
    document: &str,
) -> (BTreeMap<String, u64>, BTreeMap<String, HistogramSnapshot>) {
    #[derive(PartialEq)]
    enum Section {
        Other,
        Recovery,
        Histograms,
    }
    let mut section = Section::Other;
    let mut recovery = BTreeMap::new();
    let mut histograms = BTreeMap::new();
    let mut command: Option<String> = None;
    let mut fields: BTreeMap<String, u64> = BTreeMap::new();
    for line in document.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.ends_with('{') || line.ends_with('[') {
            let key = line.split('"').nth(1).unwrap_or_default();
            match key {
                "recovery" => section = Section::Recovery,
                "histograms" => section = Section::Histograms,
                "global" | "per-worker" => section = Section::Other,
                name if section == Section::Histograms => command = Some(name.to_string()),
                _ => {}
            }
            continue;
        }
        let Some((key, value)) = line.split_once(": ") else {
            if line == "}" && section == Section::Histograms {
                if command.take().is_none() {
                    section = Section::Other;
                }
                fields.clear();
            }
            continue;
        };
        let key = key.trim_matches('"');
        match section {
            Section::Recovery => {
                if let Ok(value) = value.parse() {
                    recovery.insert(key.to_string(), value);
                }
            }
            Section::Histograms if key == "buckets" => {
                let numbers: Vec<u64> = value
                    .split(|c: char| !c.is_ascii_digit())
                    .filter(|s| !s.is_empty())
                    .filter_map(|s| s.parse().ok())
                    .collect();
                let buckets: Vec<(usize, u64)> = numbers
                    .chunks_exact(2)
                    .map(|pair| (pair[0] as usize, pair[1]))
                    .collect();
                let field = |name: &str| fields.get(name).copied().unwrap_or(0);
                if let (Some(name), Some(snapshot)) = (
                    command.as_ref(),
                    HistogramSnapshot::from_parts(
                        &buckets,
                        field("count"),
                        field("sum-ns"),
                        field("max-ns"),
                    ),
                ) {
                    histograms.insert(name.clone(), snapshot);
                }
            }
            Section::Histograms => {
                if let Ok(value) = value.parse() {
                    fields.insert(key.to_string(), value);
                }
            }
            Section::Other => {}
        }
    }
    (recovery, histograms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_obs::Histogram;
    use mf_server::stats::StatsReport;

    #[test]
    fn status_export_round_trips_histograms_and_recovery() {
        let histogram = Histogram::new();
        for ns in [0, 5, 900, 70_000, 70_001] {
            histogram.record(ns);
        }
        let report = StatsReport {
            recovery: vec![("journal-compactions".to_string(), 3)],
            global: vec![("requests".to_string(), 9)],
            histograms: vec![
                ("load".to_string(), HistogramSnapshot::empty()),
                ("evaluate".to_string(), histogram.snapshot()),
            ],
            workers: vec![vec![("requests".to_string(), 9)]],
        };
        let (recovery, histograms) = parse_status_export(&report.to_json());
        assert_eq!(recovery["journal-compactions"], 3);
        assert_eq!(histograms.len(), 1, "empty commands are not exported");
        assert_eq!(histograms["evaluate"], histogram.snapshot());

        histogram.record(1_000_000);
        let later = Counters {
            histograms: [("evaluate".to_string(), histogram.snapshot())].into(),
            ..Counters::default()
        };
        let earlier = Counters {
            histograms,
            ..Counters::default()
        };
        let delta = later.since(&earlier).histogram("evaluate");
        assert_eq!(delta.count(), 1);
        assert_eq!(delta.p50_ns(), 1_000_000);
    }
}
