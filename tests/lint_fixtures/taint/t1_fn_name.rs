//! Known-bad T1 shape: the replay entry point never calls the tainted
//! helper itself — it passes the bare fn `stamp_tag` to `.map(..)`, and
//! the iterator calls it. A fn passed by name is still a call edge.

pub struct Campaign;

impl Campaign {
    /// The replay entry point.
    pub fn run(&self, tags: &[u64]) -> u64 {
        tags.iter().map(stamp_tag).sum()
    }
}

/// The ambient read, reached only through the fn name above.
fn stamp_tag(tag: &u64) -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64 + tag
}
