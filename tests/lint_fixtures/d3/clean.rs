//! Panic known-clean fixture: total alternatives, a same-line
//! suppression, a line-above suppression, and free use inside tests.

pub fn first_attempt(attempts: &[u32]) -> u32 {
    attempts.first().copied().unwrap_or(0)
}

pub fn parse_limit(raw: &str) -> u32 {
    raw.parse().unwrap_or_else(|_| 1)
}

pub fn mutex_style(v: Option<u32>) -> u32 {
    v.unwrap() // lint:allow(T2): fixture — caller guarantees Some
}

pub fn invariant_style(v: Option<u32>) -> u32 {
    // lint:allow(T2): fixture — invariant documented one line above
    v.expect("checked by caller")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_unwrap() {
        assert_eq!(first_attempt(&[7]), 7);
        assert_eq!("3".parse::<u32>().unwrap(), 3);
    }
}
