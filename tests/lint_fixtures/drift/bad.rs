//! Drift-monitor known-bad fixture: the ambient inputs a naive
//! self-healing loop reaches for, each of which would make a re-bootstrap
//! unreplayable. Expected T1 scope findings (in line order): the
//! `SystemTime::now()` sighting stamp, the `std::env` rebootstrap
//! toggle, and the `thread_rng` probe jitter.

pub struct WallClockDriftMonitor {
    sightings: Vec<u64>,
}

impl WallClockDriftMonitor {
    pub fn record_sighting(&mut self) {
        let t = SystemTime::now();
        self.sightings
            .push(t.elapsed().unwrap_or_default().as_millis() as u64);
    }

    pub fn rebootstrap_enabled(&self) -> bool {
        std::env::var("BQT_REBOOTSTRAP").is_ok()
    }

    pub fn probe_jitter_ms(&self) -> u64 {
        let mut rng = thread_rng();
        rng.next_u64() % 500
    }
}
