//! Known-bad T1 shape: the replay entry point never calls the tainted
//! helper by name — it passes `Helper::stamp` to `.map(..)`, and the
//! iterator calls it. A fn passed by path is still a call edge.

pub struct Campaign;

impl Campaign {
    /// The replay entry point.
    pub fn run(&self, tags: &[u64]) -> u64 {
        tags.iter().map(Helper::stamp).sum()
    }
}

pub struct Helper;

impl Helper {
    /// The ambient read, reached only through the fn path above.
    fn stamp(tag: &u64) -> u64 {
        let t = Instant::now();
        t.elapsed().as_nanos() as u64 + tag
    }
}
