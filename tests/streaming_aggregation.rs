//! Property tests for the streaming aggregation layer: folding per-shard
//! `Accumulator`s and merging them — in any shard layout and any merge order
//! — must reproduce the batch pass byte-for-byte.

use connreuse::core::{Accumulator, Cause, ClassifiedConnection, SiteClassification};
use connreuse::types::DomainName;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Build one site classification from compact per-connection masks:
/// bit 0 = CERT, bit 1 = IP, bit 2 = CRED, bit 3 = excluded (421).
fn classification(site_index: usize, masks: &[u8]) -> SiteClassification {
    let site = DomainName::parse(&format!("prop-site-{site_index:03}.example")).expect("valid");
    let connections = masks
        .iter()
        .enumerate()
        .map(|(index, mask)| {
            let mut causes: BTreeMap<Cause, Vec<usize>> = BTreeMap::new();
            for (bit, cause) in [(0, Cause::Cert), (1, Cause::Ip), (2, Cause::Cred)] {
                if mask & (1 << bit) != 0 {
                    causes.insert(cause, vec![0]);
                }
            }
            ClassifiedConnection { index, origin: site, causes, excluded: mask & 8 != 0 }
        })
        .collect();
    SiteClassification { site, total_connections: masks.len(), connections }
}

prop_compose! {
    /// A random dataset: up to 24 sites, each with 0..6 connections carrying
    /// random cause/exclusion masks (zero-connection sites exercise the
    /// "outside the HTTP/2 population" branch).
    fn dataset()(per_site in prop::collection::vec(prop::collection::vec(0u8..16, 0usize..6), 1usize..24))
        -> Vec<SiteClassification> {
        per_site
            .iter()
            .enumerate()
            .map(|(index, masks)| classification(index, masks))
            .collect()
    }
}

/// Deterministically permute indices by a rotation + stride (enough to vary
/// merge order without needing a full shuffle strategy).
fn permuted(count: usize, rotation: usize, stride: usize) -> Vec<usize> {
    let stride = (stride % count).max(1);
    let stride = if gcd(stride, count) == 1 { stride } else { 1 };
    (0..count).map(|i| (rotation + i * stride) % count).collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

proptest! {
    #[test]
    fn sharded_merge_in_any_order_equals_the_batch_pass(
        classifications in dataset(),
        shard_count in 1usize..6,
        rotation in 0usize..97,
        stride in 1usize..13,
    ) {
        // The batch pass: one accumulator folding every classification.
        let mut batch = Accumulator::new();
        classifications.iter().for_each(|site| batch.observe(site));
        let batch = batch.finish("prop");

        // Shard round-robin, fold each shard independently.
        let mut shards: Vec<Accumulator> = (0..shard_count).map(|_| Accumulator::new()).collect();
        for (index, site) in classifications.iter().enumerate() {
            shards[index % shard_count].observe(site);
        }

        // Merge the shards in a permuted order.
        let mut merged = Accumulator::new();
        for shard_index in permuted(shard_count, rotation, stride) {
            merged.merge(&shards[shard_index]);
        }
        prop_assert_eq!(merged.observed_sites(), classifications.len());

        let streamed = merged.finish("prop");
        prop_assert_eq!(&streamed, &batch);
        // Byte-for-byte: the debug renderings are identical, not merely
        // structurally equal.
        prop_assert_eq!(format!("{streamed:?}"), format!("{batch:?}"));
    }

    #[test]
    fn merge_is_associative(
        classifications in dataset(),
        split_a in 1usize..97,
        split_b in 1usize..97,
    ) {
        // Partition into three shards at two random cut points.
        let len = classifications.len();
        let (low, high) = {
            let a = split_a % (len + 1);
            let b = split_b % (len + 1);
            (a.min(b), a.max(b))
        };
        let mut parts = [Accumulator::new(), Accumulator::new(), Accumulator::new()];
        for (index, site) in classifications.iter().enumerate() {
            let slot = if index < low { 0 } else if index < high { 1 } else { 2 };
            parts[slot].observe(site);
        }
        let [a, b, c] = parts;

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.finish("prop"), right.finish("prop"));
    }
}
