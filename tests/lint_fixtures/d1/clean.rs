//! Ambient-input known-clean fixture: virtual time and seeded draws in
//! real code, ambient inputs confined to tests, one justified
//! suppression — clean under T1's file scope.

pub fn virtual_now(queue: &EventQueue) -> SimTime {
    queue.now()
}

pub fn seeded_rng(seed: u64, tag: u64, attempt: u32) -> StdRng {
    StdRng::seed_from_u64(mix64(seed, &[tag, attempt as u64]))
}

pub fn banner_tz() -> Option<String> {
    // lint:allow(T1): startup banner only — never feeds the replay schedule
    std::env::var("TZ").ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_use_real_time() {
        let started = std::time::Instant::now();
        let _ = seeded_rng(1, 2, 3);
        assert!(started.elapsed().as_secs() < 60);
    }
}
