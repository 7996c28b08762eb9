//! A fixed reference kernel that tracks how fast the machine runs right now.
//!
//! `run.py` runs it right before every measured repetition and set-up, and
//! scales their timed figures by its wall time, so that a shared machine's
//! drift in speed cancels out. It is the benchmark's own code, and shares
//! none with the simulator: a change to the simulator cannot move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 96;
const ITEMS: usize = 1 << 15;

/// Run the kernel on `threads` threads at once; return the wall seconds.
pub fn run(threads: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            scope.spawn(move || black_box(kernel(thread as u64 + 1)));
        }
    });
    started.elapsed().as_secs_f64()
}

/// Hashing, sorting and short-string allocation over about 2 MiB per thread:
/// the kinds of work the simulator's visit loop does.
fn kernel(seed: u64) -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(ITEMS);
    let mut values = Vec::with_capacity(ITEMS);
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        values.clear();
        for i in 0..ITEMS as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.push(x);
            *map.entry(x & 0xffff).or_insert(0) += i;
        }
        values.sort_unstable();
        let names: Vec<String> = (0..2048u64).map(|i| format!("site-{}.example", x ^ i)).collect();
        acc ^= values[ITEMS / 2] ^ map.len() as u64 ^ names.iter().map(|name| name.len() as u64).sum::<u64>();
    }
    acc
}
