//! Property tests for the hotpath profiler's stage tables: shard merging
//! must be a commutative monoid (associative, commutative, with the empty
//! table as identity) and must preserve every aggregate exactly — the same
//! contract the atlas demands of `Accumulator`/`CostTotals` shards, so a
//! profile collected at `--threads 8` describes the identical work as one
//! collected serially.

use netsim_types::profile::{Stage, StageTable};
use proptest::prelude::*;

/// One recorded stage entry: a stage index into [`Stage::ALL`] and a
/// duration in nanoseconds.
type Event = (usize, u64);

fn replay(events: &[Event]) -> StageTable {
    let mut table = StageTable::new();
    for &(stage, nanos) in events {
        table.record(Stage::ALL[stage % Stage::COUNT], nanos);
    }
    table
}

fn events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0usize..Stage::COUNT, 1u64..5_000_000), 0usize..60)
}

fn merged(left: &StageTable, right: &StageTable) -> StageTable {
    let mut out = *left;
    out.merge(right);
    out
}

proptest! {
    #[test]
    fn merging_shards_equals_recording_in_one_table(
        a in events(),
        b in events(),
        c in events(),
    ) {
        // Shard-and-merge sees exactly the aggregates a single table would.
        let whole: Vec<Event> = a.iter().chain(&b).chain(&c).copied().collect();
        let sharded = merged(&merged(&replay(&a), &replay(&b)), &replay(&c));
        prop_assert_eq!(sharded, replay(&whole));
    }

    #[test]
    fn merge_is_associative_and_commutative(a in events(), b in events(), c in events()) {
        let (ta, tb, tc) = (replay(&a), replay(&b), replay(&c));
        prop_assert_eq!(merged(&merged(&ta, &tb), &tc), merged(&ta, &merged(&tb, &tc)));
        prop_assert_eq!(merged(&ta, &tb), merged(&tb, &ta));
    }

    #[test]
    fn the_empty_table_is_the_merge_identity(a in events()) {
        let table = replay(&a);
        prop_assert_eq!(merged(&table, &StageTable::new()), table);
        prop_assert_eq!(merged(&StageTable::new(), &table), table);
    }

    #[test]
    fn aggregates_match_a_direct_fold(a in events()) {
        let table = replay(&a);
        for (index, stage) in Stage::ALL.iter().enumerate() {
            let mine: Vec<u64> = a
                .iter()
                .filter(|(s, _)| s % Stage::COUNT == index)
                .map(|&(_, nanos)| nanos)
                .collect();
            let stats = table.stats(*stage);
            prop_assert_eq!(stats.count, mine.len() as u64);
            prop_assert_eq!(stats.total_nanos, mine.iter().sum::<u64>());
            if !mine.is_empty() {
                prop_assert_eq!(stats.min_nanos, *mine.iter().min().expect("non-empty"));
                prop_assert_eq!(stats.max_nanos, *mine.iter().max().expect("non-empty"));
            }
        }
        // The measured total is the visit slice of the same fold, the
        // covered total its non-scaffold slice.
        let total_where = |keep: fn(Stage) -> bool| -> u64 {
            a.iter().filter(|(s, _)| keep(Stage::ALL[s % Stage::COUNT])).map(|&(_, nanos)| nanos).sum()
        };
        prop_assert_eq!(table.measured_total_nanos(), total_where(Stage::is_visit));
        prop_assert_eq!(table.covered_nanos(), total_where(|stage| !stage.is_scaffold()));
    }
}
