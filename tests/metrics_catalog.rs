//! The metric catalogue, held three ways: the registry after the one
//! chained `register()` equals the golden `(name, kind, unit)` dump
//! written at the commit before `hpm_obs::catalog!` replaced the six
//! hand-written `register()` bodies; and docs/OBSERVABILITY.md lists
//! exactly the names the per-crate `CATALOG`s declare, kind and unit
//! included.
//!
//! A file of its own, so nothing else in the process touches the
//! registry (shard gauges and ad-hoc test metrics register lazily).

use hpm_obs::{Kind, MetricDef, Unit};
use std::collections::BTreeMap;

const CATALOGS: [&[MetricDef]; 6] = [
    hpm_core::metrics::CATALOG,
    hpm_tpt::metrics::CATALOG,
    hpm_patterns::metrics::CATALOG,
    hpm_store::metrics::CATALOG,
    hpm_objectstore::metrics::CATALOG,
    hpm_server::metrics::CATALOG,
];

#[test]
fn registry_matches_the_golden_dump() {
    hpm_server::metrics::register();
    let snap = hpm_obs::snapshot();
    let mut lines: Vec<String> = Vec::new();
    lines.extend(snap.counters.iter().map(|(n, _)| format!("{n} counter -")));
    lines.extend(snap.gauges.iter().map(|(n, _)| format!("{n} gauge -")));
    lines.extend(
        snap.histograms
            .iter()
            .map(|h| format!("{} histogram {}", h.name, h.unit.as_str())),
    );
    lines.sort();
    assert_eq!(
        lines.join("\n") + "\n",
        include_str!("fixtures/metrics_v1.txt")
    );
    let declared: usize = CATALOGS.iter().map(|c| c.len()).sum();
    assert_eq!(lines.len(), declared, "a name is declared twice");
}

/// `(kind, unit)` as the docs spell them; the unit column of a counter
/// or gauge is prose (`count` / `bytes`) the registry does not carry.
fn documented(kind: Kind) -> (&'static str, Option<&'static str>) {
    match kind {
        Kind::Counter => ("counter", None),
        Kind::Gauge => ("gauge", None),
        Kind::Histogram(Unit::Nanos) => ("span", Some("ns")),
        Kind::Histogram(unit) => ("histogram", Some(unit.as_str())),
    }
}

#[test]
fn observability_doc_lists_exactly_the_catalogue() {
    let doc = include_str!("../docs/OBSERVABILITY.md");
    let catalogue = doc
        .split("\n## Catalogue\n")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("a `## Catalogue` section");
    // `| `name` | kind | unit | meaning |` rows.
    let mut rows: BTreeMap<&str, (&str, &str)> = BTreeMap::new();
    for line in catalogue.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let name = cells[1].trim_matches('`');
        assert!(
            rows.insert(name, (cells[2], cells[3])).is_none(),
            "`{name}` has two rows"
        );
    }
    // The one pattern row: shard gauges register lazily, one per shard.
    assert_eq!(
        rows.remove("objectstore.shard.objects.<i>"),
        Some(("gauge", "count"))
    );
    for def in CATALOGS.iter().copied().flatten() {
        let (kind, unit) = documented(def.kind);
        let (doc_kind, doc_unit) = rows
            .remove(def.name)
            .unwrap_or_else(|| panic!("`{}` is not documented", def.name));
        assert_eq!(doc_kind, kind, "kind of `{}`", def.name);
        if let Some(unit) = unit {
            assert_eq!(doc_unit, unit, "unit of `{}`", def.name);
        }
    }
    assert!(rows.is_empty(), "documented but not declared: {rows:?}");
}
