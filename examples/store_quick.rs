//! Build a small persistent shard store, answer what-if queries from it
//! without re-crawling, and show the incremental rebuild doing nothing.
//!
//! ```text
//! cargo run --release --example store_quick
//! ```

use connreuse::experiments::{answer_query, build_store, open_store, StoreConfig, StoreQuery};

fn main() {
    let config = StoreConfig::quick();
    let dir = std::env::temp_dir().join(format!("connreuse-store-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First build crawls every chunk once and persists one shard per chunk.
    let report = build_store(&config, &dir).expect("build store");
    println!("{}", report.render());

    // A second build over the same configuration finds nothing to do.
    let again = build_store(&config, &dir).expect("rebuild store");
    println!(
        "rebuild: {} rewritten, {} reused — the store is a cache of pure functions\n",
        again.rewritten, again.reused
    );

    // Opening verifies every shard once; what-ifs then fold the verified
    // records in memory, and no site is crawled again.
    let store = open_store(&config, &dir).expect("open store");
    for text in [
        "mitigations=none",
        "mitigations=all profile=lossy-cellular",
        &format!("mitigations=all ranks=0..{}", config.chunk_sites),
    ] {
        let query = StoreQuery::parse(text, &config).expect("parse query");
        let answer = answer_query(&store, &config, &query).expect("answer query");
        println!("{}", answer.render(&config));
    }

    std::fs::remove_dir_all(&dir).expect("clean up");
}
