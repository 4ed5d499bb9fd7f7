//! Pins the README's `stats` key table to the code: the keys documented
//! between the `stats-keys` markers must equal `Router::stats_for(V3)` —
//! same names, same wire order, nothing missing, nothing extra — and the
//! `Since` column's v1/v2 rows must be exactly the v1/v2 wire prefixes.
//! The table replaced stale prose once; this test makes that class of
//! drift impossible to reintroduce.

use mf_server::{ProtoVersion, Router};

/// Extracts the backticked key from each table row between the
/// `<!-- stats-keys:begin -->` / `<!-- stats-keys:end -->` markers.
fn documented_keys(readme: &str) -> Vec<String> {
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
            let cell = line.strip_prefix("| `")?;
            let (key, _) = cell.split_once('`')?;
            Some(key.to_string())
        })
        .collect()
}

#[test]
fn readme_stats_key_table_matches_the_wire_order() {
    let readme = include_str!("../../../README.md");
    let documented = documented_keys(readme);
    let actual: Vec<String> = Router::new(1, 1)
        .stats_for(ProtoVersion::V3)
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    assert!(
        !actual.is_empty(),
        "stats_for returned no keys — the pin is vacuous"
    );
    assert_eq!(
        documented, actual,
        "README stats-key table drifted from Router::stats_for(V3); \
         update the table between the stats-keys markers"
    );
}

/// Each older version's rows are a strict prefix of the next: the table's
/// vN-tagged rows, in order, must be exactly `stats_for(vN)` — so a client
/// on any negotiated version can read the same table.
#[test]
fn readme_documents_each_version_prefix_in_order() {
    let readme = include_str!("../../../README.md");
    let begin = readme.find("<!-- stats-keys:begin -->").unwrap();
    let end = readme.find("<!-- stats-keys:end -->").unwrap();
    for (tag_limit, version) in [("v1", ProtoVersion::V1), ("v2", ProtoVersion::V2)] {
        let documented: Vec<String> = readme[begin..end]
            .lines()
            .filter_map(|line| {
                let cell = line.strip_prefix("| `")?;
                let (key, rest) = cell.split_once('`')?;
                let tag = rest.strip_prefix(" | ")?.split(' ').next()?;
                (tag <= tag_limit).then(|| key.to_string())
            })
            .collect();
        let actual: Vec<String> = Router::new(1, 1)
            .stats_for(version)
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        assert_eq!(
            documented, actual,
            "the table's ≤{tag_limit} rows drifted from Router::stats_for({tag_limit})"
        );
    }
}

#[test]
fn readme_documents_the_v1_prefix_in_order() {
    // The v1 list is a strict prefix of the v2 list: the `Since` column's
    // v1 rows must be exactly `stats()` in order, so a v1-only client can
    // read the same table.
    let readme = include_str!("../../../README.md");
    let begin = readme.find("<!-- stats-keys:begin -->").unwrap();
    let end = readme.find("<!-- stats-keys:end -->").unwrap();
    let v1_documented: Vec<String> = readme[begin..end]
        .lines()
        .filter_map(|line| {
            let cell = line.strip_prefix("| `")?;
            let (key, rest) = cell.split_once('`')?;
            rest.starts_with(" | v1 |").then(|| key.to_string())
        })
        .collect();
    let v1_actual: Vec<String> = Router::new(1, 1)
        .stats_for(ProtoVersion::V1)
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    assert_eq!(
        v1_documented, v1_actual,
        "the table's v1-tagged rows drifted from Router::stats_for(V1)"
    );
}
