//! Known-bad T1 shape: a replay entry point reaches ambient inputs
//! transitively. The wall-clock read sits TWO calls below the entry —
//! exactly the case a file scope can never catch, because `stamp` could
//! live in a crate no scope names.

use std::collections::HashMap;

pub struct Campaign;

impl Campaign {
    /// The replay entry point.
    pub fn run(&self) -> u64 {
        checkpoint() + hash_summary()
    }
}

/// One hop down: an innocent-looking helper.
fn checkpoint() -> u64 {
    stamp()
}

/// Two hops down: the actual ambient read.
fn stamp() -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}

/// One hop down: hash-order iteration feeding the entry's result.
fn hash_summary() -> u64 {
    let counts: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0;
    for (k, v) in counts.iter() {
        acc += k + v;
    }
    acc
}
