//! The analyzer folds each record into one partition, keyed by
//! (allocation site, last-use site), and derives the nested-site,
//! coarse-site and totals tables from it by exact integer merges. This
//! property pins the derivation against an oracle that folds random
//! records directly into all three partitions — at shard counts 1, 4 and
//! 7, under the identity resolver and under a many-to-one resolver (the
//! only case where the coarse table differs from the nested one).

use std::collections::HashMap;
use std::hash::Hash;

use heapdrag::core::analyzer::{AllocUsePairEntry, CoarseSiteEntry, GroupStats, NestedSiteEntry};
use heapdrag::core::pattern::classify;
use heapdrag::core::{
    DragReport, Integrals, LifetimePattern, ObjectRecord, PatternConfig, Pipeline,
};
use heapdrag::vm::{ChainId, ClassId, ObjectId, SiteId};
use heapdrag_testkit::{check, Rng};

fn random_records(rng: &mut Rng) -> Vec<ObjectRecord> {
    let sites = rng.range_u32(1, 12);
    let mut clock = 0u64;
    rng.vec(0, 300, |rng| {
        clock += rng.range_u64(0, 4_096);
        let created = clock;
        let life = rng.range_u64(0, 200_000);
        // A third never used; of the rest, some only inside the
        // constructor window (folded into never-used) and some later.
        let last_use = match rng.range_u32(0, 3) {
            0 => None,
            1 => Some(created + rng.range_u64(0, 2_048).min(life)),
            _ => Some(created + rng.range_u64(0, life + 1)),
        };
        ObjectRecord {
            object: ObjectId(clock),
            class: ClassId(0),
            size: rng.range_u64(8, 1_024),
            created,
            freed: created + life,
            last_use,
            alloc_site: ChainId(rng.range_u32(0, sites)),
            last_use_site: last_use.map(|_| ChainId(100 + rng.range_u32(0, 6))),
            at_exit: rng.ratio(1, 10),
        }
    })
}

/// The oracle: group the records under `key` and compute every
/// `GroupStats` field straight from the members.
fn direct_fold<K, E>(
    records: &[ObjectRecord],
    key: impl Fn(&ObjectRecord) -> Option<K>,
    make: impl Fn(K, GroupStats) -> E,
) -> Vec<E>
where
    K: Eq + Hash + Copy,
{
    let config = PatternConfig::default();
    let mut groups: HashMap<K, Vec<&ObjectRecord>> = HashMap::new();
    for r in records {
        if let Some(k) = key(r) {
            groups.entry(k).or_default().push(r);
        }
    }
    groups
        .into_iter()
        .map(|(k, members)| {
            let never_used = |r: &&&ObjectRecord| r.is_never_used(config.ctor_use_window);
            let stats = GroupStats {
                objects: members.len() as u64,
                never_used: members.iter().filter(never_used).count() as u64,
                bytes: members.iter().map(|r| r.size).sum(),
                drag: members.iter().map(|r| r.drag()).sum(),
                never_used_drag: members.iter().filter(never_used).map(|r| r.drag()).sum(),
                reachable: members.iter().map(|r| r.reachable_product()).sum(),
                in_use: members.iter().map(|r| r.in_use_product()).sum(),
                pattern: classify(&members, &config),
            };
            make(k, stats)
        })
        .collect()
}

fn oracle(records: &[ObjectRecord], innermost: impl Fn(ChainId) -> Option<SiteId>) -> DragReport {
    let window = PatternConfig::default().ctor_use_window;
    let mut by_nested_site = direct_fold(
        records,
        |r| Some(r.alloc_site),
        |site, stats| NestedSiteEntry { site, stats },
    );
    by_nested_site.sort_by(|a, b| b.stats.drag.cmp(&a.stats.drag).then(a.site.cmp(&b.site)));
    let mut by_coarse_site = direct_fold(
        records,
        |r| innermost(r.alloc_site),
        |site, stats| CoarseSiteEntry { site, stats },
    );
    by_coarse_site.sort_by(|a, b| b.stats.drag.cmp(&a.stats.drag).then(a.site.cmp(&b.site)));
    let mut by_alloc_and_last_use = direct_fold(
        records,
        |r| {
            let use_site = if r.is_never_used(window) {
                None
            } else {
                r.last_use_site
            };
            Some((r.alloc_site, use_site))
        },
        |(alloc_site, last_use_site), stats| AllocUsePairEntry {
            alloc_site,
            last_use_site,
            stats,
        },
    );
    by_alloc_and_last_use.sort_by(|a, b| {
        b.stats
            .drag
            .cmp(&a.stats.drag)
            .then(a.alloc_site.cmp(&b.alloc_site))
            .then(a.last_use_site.cmp(&b.last_use_site))
    });
    let never_used_sites = by_nested_site
        .iter()
        .filter(|e| e.stats.pattern == LifetimePattern::AllNeverUsed)
        .cloned()
        .collect();
    DragReport {
        by_nested_site,
        by_coarse_site,
        by_alloc_and_last_use,
        never_used_sites,
        retaining: Vec::new(),
        totals: Integrals::from_records(records),
    }
}

#[test]
fn derived_tables_equal_a_direct_three_partition_fold() {
    check("derived-tables", 96, |rng: &mut Rng| {
        let records = random_records(rng);
        // Many-to-one: chains sharing a residue share an innermost site,
        // and one residue resolves to no site at all.
        let fold_to = rng.range_u32(2, 5);
        let identity = |c: ChainId| Some(SiteId(c.0));
        let many_to_one =
            move |c: ChainId| (!c.0.is_multiple_of(fold_to)).then_some(SiteId(c.0 % fold_to));

        let want = oracle(&records, identity);
        for shards in [1usize, 4, 7] {
            let (got, _) = Pipeline::options()
                .shards(shards)
                .analyze_records(&records, identity);
            assert_eq!(got, want, "identity resolver, {shards} shards");
        }

        let want = oracle(&records, many_to_one);
        for shards in [1usize, 4, 7] {
            let (got, _) = Pipeline::options()
                .shards(shards)
                .analyze_records(&records, many_to_one);
            assert_eq!(got, want, "many-to-one resolver, {shards} shards");
        }
        assert_eq!(
            Pipeline::options().analyze_records_seq(&records, many_to_one),
            want,
            "sequential, many-to-one resolver"
        );
    });
}
