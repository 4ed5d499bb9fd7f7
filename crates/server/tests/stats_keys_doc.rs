//! Pins the README's `stats` key table to the declaration: the rows between
//! the `stats-keys` markers must be `STATS` row by row — same key, same
//! `Since` version, same order — and a session of each version must be
//! answered exactly the table's prefix up to that version. The table
//! replaced stale prose once; this test makes that class of drift
//! impossible to reintroduce.

use mf_server::{ProtoVersion, Router, STATS};

/// The backticked key and the `Since` cell of each table row between the
/// `<!-- stats-keys:begin -->` / `<!-- stats-keys:end -->` markers.
fn documented_rows(readme: &str) -> Vec<(String, String)> {
    let begin = readme
        .find("<!-- stats-keys:begin -->")
        .expect("README is missing the stats-keys:begin marker");
    let end = readme
        .find("<!-- stats-keys:end -->")
        .expect("README is missing the stats-keys:end marker");
    assert!(begin < end, "stats-keys markers are out of order");
    readme[begin..end]
        .lines()
        .filter_map(|line| {
            let (key, rest) = line.strip_prefix("| `")?.split_once('`')?;
            let since = rest.strip_prefix(" | ")?.split(' ').next()?;
            Some((key.to_string(), since.to_string()))
        })
        .collect()
}

#[test]
fn readme_stats_key_table_matches_the_declaration() {
    let declared: Vec<(String, String)> = STATS
        .iter()
        .map(|row| (row.key.to_string(), format!("v{}", row.since.number())))
        .collect();
    assert_eq!(
        documented_rows(include_str!("../../../README.md")),
        declared,
        "README stats-key table drifted from STATS; \
         update the table between the stats-keys markers"
    );
}

#[test]
fn each_version_answers_its_prefix_of_the_table() {
    let router = Router::new(1, 1);
    for version in [ProtoVersion::V1, ProtoVersion::V2, ProtoVersion::V3] {
        let answered: Vec<String> = router
            .stats_for(version)
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        let prefix: Vec<&str> = STATS
            .iter()
            .take_while(|row| row.since <= version)
            .map(|row| row.key)
            .collect();
        assert_eq!(answered, prefix, "{version:?}");
    }
    assert_eq!(
        router.stats_for(ProtoVersion::V3).len(),
        STATS.len(),
        "the newest version answers every row"
    );
}
