//! Known-bad T2 shape: a supervision entry reaches panic sites through
//! two layers of helpers — `.unwrap()` and a panicking macro. A bare
//! slice index is not a panic source.

/// The supervision entry point.
pub fn supervise(rows: &[&str]) -> u32 {
    tally(rows) + first_row(rows)
}

/// One hop down.
fn tally(rows: &[&str]) -> u32 {
    let mut acc = 0;
    for row in rows {
        acc += parse_row(row);
    }
    acc
}

/// Two hops down: the panic sites.
fn parse_row(row: &str) -> u32 {
    if row.is_empty() {
        panic!("empty row");
    }
    row.parse().unwrap()
}

/// Reachable indexing: not flagged.
fn first_row(rows: &[&str]) -> u32 {
    rows[0].len() as u32
}
