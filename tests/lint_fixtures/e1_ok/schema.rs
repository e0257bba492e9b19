//! E1 known-clean fixture: a two-variant event schema whose four
//! surfaces (wire-name map, replay-stable filter, serializer,
//! aggregator) each cover every variant. No wildcard arms anywhere.

pub enum Kind {
    A,
    B { n: u64 },
}

impl Kind {
    pub fn name(&self) -> &'static str {
        match self {
            Kind::A => "a",
            Kind::B { .. } => "b",
        }
    }

    pub fn replay_stable(&self) -> bool {
        match self {
            Kind::A => true,
            Kind::B { .. } => false,
        }
    }
}

pub fn to_line(kind: &Kind) -> String {
    match kind {
        Kind::A => String::from("a"),
        Kind::B { n } => format!("b {n}"),
    }
}

pub fn observe(kind: &Kind, hits: &mut u64) {
    match kind {
        Kind::A => *hits += 1,
        Kind::B { .. } => {}
    }
}
