//! Panic known-bad fixture: panicking extractors in non-test code no
//! entry point reaches. Expected T2 scope findings: the `.unwrap()` and
//! the `.expect()`.

pub fn first_attempt(attempts: &[u32]) -> u32 {
    *attempts.first().unwrap()
}

pub fn parse_limit(raw: &str) -> u32 {
    raw.parse().expect("limit must be numeric")
}
