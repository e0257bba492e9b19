//! BQT client configuration and calibration.

use crate::scrape::TemplateSet;
use bbsim_net::{Request, SimDuration, SimIp, SimTime, Transport};

pub use bbsim_address::matching::Measure;

/// How BQT waits for a page's DOM to settle before acting (§3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WaitPolicy {
    /// The paper's rule: pause for the maximum observed download time of
    /// the template, measured during calibration. Safe but slow.
    MaxObserved { pause: SimDuration },
    /// Ablation alternative: poll the DOM every `poll` until it is ready.
    /// Fast, at the cost of one extra poll round per step.
    Adaptive { poll: SimDuration },
}

/// Tunable behaviour of the BQT driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BqtConfig {
    /// Similarity measure for suggestion matching.
    pub measure: Measure,
    /// Minimum similarity for accepting a suggestion.
    pub match_threshold: f64,
    /// Maximum workflow steps per address before giving up.
    pub max_steps: u32,
    /// Reload attempts on transient (HTTP 500 / premature-read) failures.
    pub transient_retries: u32,
    /// DOM settle policy.
    pub wait: WaitPolicy,
    /// Back-off applied when the BAT answers 429, before retrying.
    pub rate_limit_backoff: SimDuration,
    /// The bootstrapped template generation to detect pages with.
    pub templates: &'static TemplateSet,
}

impl BqtConfig {
    /// The configuration used for the headline dataset: token-sort matching
    /// (robust to word order and abbreviation), threshold 0.82, and the
    /// paper's max-observed wait rule with `pause` from [`calibrate_pause`].
    pub fn paper_default(pause: SimDuration) -> Self {
        Self {
            measure: Measure::TokenSort,
            match_threshold: 0.82,
            max_steps: 6,
            transient_retries: 2,
            wait: WaitPolicy::MaxObserved { pause },
            rate_limit_backoff: SimDuration::from_secs(30),
            templates: TemplateSet::v1(),
        }
    }

    /// The same configuration with a re-bootstrapped template set (used
    /// after a detected front-end redesign).
    pub fn with_templates(mut self, templates: &'static TemplateSet) -> Self {
        self.templates = templates;
        self
    }

    /// The adaptive-wait variant for the ablation experiment.
    pub fn adaptive(poll: SimDuration) -> Self {
        Self {
            wait: WaitPolicy::Adaptive { poll },
            ..Self::paper_default(SimDuration::ZERO)
        }
    }
}

/// Measures an endpoint's settle pause the way the paper does: issue `n`
/// plain locate queries, record the slowest observed page load, and pad it
/// by 5%.
///
/// The calibration addresses should be known-good lines (the paper used its
/// bootstrapping sample); their responses are discarded.
pub fn calibrate_pause(
    transport: &mut Transport,
    endpoint: &str,
    sample_lines: &[String],
    src: SimIp,
) -> SimDuration {
    assert!(
        !sample_lines.is_empty(),
        "calibration needs sample addresses"
    );
    let mut worst = SimDuration::ZERO;
    let mut now = SimTime::ZERO;
    for line in sample_lines {
        let req = Request::post("/locate", format!("address={line}"));
        if let Ok((_, elapsed)) = transport.round_trip(endpoint, src, &req, now) {
            worst = worst.max(elapsed);
            // Space calibration probes out politely.
            now += elapsed + SimDuration::from_secs(5);
        }
    }
    SimDuration::from_millis((worst.as_millis() as f64 * 1.05) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_net::{Endpoint, Exchange, LatencyModel, Response, Service};
    use rand::rngs::StdRng;

    struct SlowPage;
    impl Service for SlowPage {
        fn handle(&mut self, _: SimIp, _: &Request, _: SimTime, rng: &mut StdRng) -> Exchange {
            let latency = LatencyModel::new(SimDuration::from_secs(10), 0.4);
            Exchange {
                response: Response::ok("<html>ok</html>"),
                processing: latency.sample(rng),
            }
        }
    }

    #[test]
    fn calibrated_pause_exceeds_typical_latency() {
        let mut t = Transport::new(1);
        t.register(
            "isp",
            Endpoint::new(
                Box::new(SlowPage),
                LatencyModel::constant(SimDuration::ZERO),
            ),
        );
        let lines: Vec<String> = (0..25).map(|i| format!("{i} Main St")).collect();
        let src = SimIp(0x6440_0001);
        let pause = calibrate_pause(&mut t, "isp", &lines, src);
        // The max of 25 lognormal(10s, 0.4) draws is comfortably above the
        // median and below a pathological bound.
        assert!(pause > SimDuration::from_secs(10), "pause {pause}");
        assert!(pause < SimDuration::from_secs(60), "pause {pause}");
    }

    #[test]
    fn paper_default_uses_max_observed_wait() {
        let c = BqtConfig::paper_default(SimDuration::from_secs(30));
        assert_eq!(
            c.wait,
            WaitPolicy::MaxObserved {
                pause: SimDuration::from_secs(30)
            }
        );
        assert_eq!(c.measure, Measure::TokenSort);
        assert!(
            c.max_steps >= 4,
            "flows can chain interstitial + MDU + select"
        );
    }

    #[test]
    #[should_panic(expected = "calibration needs")]
    fn calibration_requires_samples() {
        let mut t = Transport::new(1);
        calibrate_pause(&mut t, "isp", &[], SimIp(1));
    }
}
