//! Clean T1 shape: the entry threads a virtual clock through, ambient
//! reads live only in unreachable dev helpers, tests, or behind a
//! reasoned `lint:allow(T1)`.

pub struct Campaign;

impl Campaign {
    /// The replay entry point: time is handed in, never read.
    pub fn run(&self, now: u64) -> u64 {
        advance(now) + salted()
    }
}

fn advance(now: u64) -> u64 {
    now + 1
}

/// Reachable, but the justified allow silences T1.
fn salted() -> u64 {
    // lint:allow(T1): fixture proves a reasoned allow silences T1
    let rng = thread_rng();
    rng as u64
}

/// Tainted but unreachable from the entry: T1 stays quiet.
pub fn dev_tool_stamp() -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn wall_clock_is_fine_in_tests() {
        let _ = super::Campaign.run(Instant::now().elapsed().as_nanos() as u64);
    }
}
