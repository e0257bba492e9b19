//! E1 canary for the drift event slice: a mirror of the four drift
//! `EventKind` variants with every surface — wire-name map, replay-stable
//! filter, serializer, aggregator — covering all of them and no
//! wildcard arms. Adding a fifth drift variant here without extending
//! every surface trips E1, the same contract the real telemetry schema
//! is held to.

pub enum Kind {
    DriftSuspected { rate_pm: u32 },
    RebootstrapStarted,
    TemplateSwapped { generation: u32 },
    RebootstrapCompleted { probes: u32 },
}

impl Kind {
    pub fn name(&self) -> &'static str {
        match self {
            Kind::DriftSuspected { .. } => "drift_suspected",
            Kind::RebootstrapStarted => "rebootstrap_started",
            Kind::TemplateSwapped { .. } => "template_swapped",
            Kind::RebootstrapCompleted { .. } => "rebootstrap_completed",
        }
    }

    pub fn replay_stable(&self) -> bool {
        match self {
            Kind::DriftSuspected { .. } => true,
            Kind::RebootstrapStarted => true,
            Kind::TemplateSwapped { .. } => true,
            Kind::RebootstrapCompleted { .. } => true,
        }
    }
}

pub fn to_line(kind: &Kind) -> String {
    match kind {
        Kind::DriftSuspected { rate_pm } => format!("drift_suspected {rate_pm}"),
        Kind::RebootstrapStarted => String::from("rebootstrap_started"),
        Kind::TemplateSwapped { generation } => format!("template_swapped {generation}"),
        Kind::RebootstrapCompleted { probes } => format!("rebootstrap_completed {probes}"),
    }
}

pub fn observe(kind: &Kind, rebootstraps: &mut u64) {
    match kind {
        Kind::DriftSuspected { .. } => {}
        Kind::RebootstrapStarted => {}
        Kind::TemplateSwapped { .. } => {}
        Kind::RebootstrapCompleted { .. } => *rebootstraps += 1,
    }
}
