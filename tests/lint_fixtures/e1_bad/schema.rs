//! E1 known-bad fixture. Expected findings: the replay-stable filter
//! misses `Kind::B` and `Kind::C` behind a wildcard arm (three
//! findings).

pub enum Kind {
    A,
    B,
    C,
}

impl Kind {
    pub fn name(&self) -> &'static str {
        match self {
            Kind::A => "a",
            Kind::B => "b",
            Kind::C => "c",
        }
    }

    pub fn replay_stable(&self) -> bool {
        match self {
            Kind::A => true,
            _ => false,
        }
    }
}

pub fn to_line(kind: &Kind) -> String {
    match kind {
        Kind::A => String::from("a"),
        Kind::B => String::from("b"),
        Kind::C => String::from("c"),
    }
}

pub fn observe(kind: &Kind, hits: &mut u64) {
    match kind {
        Kind::A => *hits += 1,
        Kind::B => {}
        Kind::C => {}
    }
}
