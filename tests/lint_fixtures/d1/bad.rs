//! Ambient-input known-bad fixture: every ambient input T1 bans, in
//! non-test code no entry point reaches. Expected T1 scope findings (in
//! line order): the `std::time::Instant` import, `Instant::now()`,
//! `SystemTime::now()`, `std::env`, `thread_rng`, `from_entropy`.
use std::time::Instant;

pub fn stamp_wall_clock() -> Instant {
    Instant::now()
}

pub fn stamp_epoch_ms() -> u64 {
    let t = SystemTime::now();
    t.elapsed().unwrap_or_default().as_millis() as u64
}

pub fn ambient_config() -> Option<String> {
    std::env::var("BQT_SEED").ok()
}

pub fn ambient_rng() -> u64 {
    let mut rng = thread_rng();
    rng.next_u64()
}

pub fn ambient_seed() -> StdRng {
    StdRng::from_entropy()
}
