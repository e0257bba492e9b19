//! Deterministic template-drift schedules.
//!
//! The paper's §3 limitation — "any changes made to the interfaces of
//! these BATs by the ISPs ... will require updating BQT" — becomes a
//! scenario axis here: a [`DriftSchedule`] flips a BAT's rendered markup
//! generation at fixed points on the *virtual* clock, mid-campaign. The
//! schedule is a pure function of its construction arguments, so two runs
//! of the same campaign redesign their sites at exactly the same virtual
//! instants and the drift-recovery machinery in `bqt` can be tested
//! byte-identically across crash/resume and thread counts.

use crate::templates::TemplateVersion;
use bbsim_net::SimTime;

/// A piecewise-constant map from virtual time to markup generation.
///
/// Before the first flip the site renders [`TemplateVersion::V1`]; from
/// each flip instant (inclusive) onward it renders that flip's version.
/// Flips are kept sorted by time at construction, so `version_at` is a
/// deterministic lookup whatever order the caller supplied them in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DriftSchedule {
    /// `(from, version)` pairs, sorted ascending by `from`.
    flips: Vec<(SimTime, TemplateVersion)>,
}

impl DriftSchedule {
    /// The one-redesign schedule: V1 until `at`, `to` from then on.
    pub fn flip_at(at: SimTime, to: TemplateVersion) -> Self {
        Self::default().then(at, to)
    }

    /// Appends a flip; flips are re-sorted so call order never matters.
    /// Two flips at the same instant keep insertion order (the later call
    /// wins, as a real redeploy would).
    pub fn then(mut self, at: SimTime, to: TemplateVersion) -> Self {
        self.flips.push((at, to));
        self.flips.sort_by_key(|(from, _)| *from);
        self
    }

    /// The generation the site renders at virtual time `now`.
    pub fn version_at(&self, now: SimTime) -> TemplateVersion {
        self.flips
            .iter()
            .take_while(|(from, _)| *from <= now)
            .last()
            .map(|(_, v)| *v)
            .unwrap_or(TemplateVersion::V1)
    }

    /// The scheduled flips, ascending by time.
    pub fn flips(&self) -> &[(SimTime, TemplateVersion)] {
        &self.flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn empty_schedule_stays_on_v1() {
        let s = DriftSchedule::default();
        assert!(s.flips().is_empty());
        assert_eq!(s.version_at(SimTime::ZERO), TemplateVersion::V1);
        assert_eq!(s.version_at(at(u64::MAX)), TemplateVersion::V1);
    }

    #[test]
    fn flip_is_inclusive_at_its_instant() {
        let s = DriftSchedule::flip_at(at(60_000), TemplateVersion::V2);
        assert_eq!(s.version_at(at(59_999)), TemplateVersion::V1);
        assert_eq!(s.version_at(at(60_000)), TemplateVersion::V2);
        assert_eq!(s.version_at(at(1_000_000)), TemplateVersion::V2);
    }

    #[test]
    fn flips_sort_regardless_of_insertion_order() {
        let s = DriftSchedule::default()
            .then(at(200), TemplateVersion::V1)
            .then(at(100), TemplateVersion::V2);
        assert_eq!(s.version_at(at(50)), TemplateVersion::V1);
        assert_eq!(s.version_at(at(150)), TemplateVersion::V2);
        assert_eq!(s.version_at(at(250)), TemplateVersion::V1, "rollback flip");
        assert_eq!(s.flips().len(), 2);
    }
}
