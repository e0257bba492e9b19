//! Clean T2 shape: the same pipeline returns typed errors, confines
//! panics to tests, and justifies one infallible spot with an allow.

pub enum RowError {
    Empty,
    Malformed,
}

/// The supervision entry point.
pub fn supervise(rows: &[&str]) -> Result<u32, RowError> {
    let mut acc = 0;
    for row in rows {
        acc += parse_row_checked(row)?;
    }
    acc += known_good();
    Ok(acc)
}

fn parse_row_checked(row: &str) -> Result<u32, RowError> {
    if row.is_empty() {
        return Err(RowError::Empty);
    }
    row.parse().map_err(|_| RowError::Malformed)
}

/// Reachable, but the justified allow silences T2.
fn known_good() -> u32 {
    // lint:allow(T2): constant literal always parses
    "7".parse().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(super::supervise(&["3"]).ok().unwrap(), 10);
    }
}
