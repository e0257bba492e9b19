//! Property-based tests over the core data structures and invariants,
//! spanning crate boundaries (proptest).

use decoding_divide::address::abbrev::{
    directional_variants, normalize_line, suffix_variants, UNIT_MARKERS,
};
use decoding_divide::address::{jaro_winkler, levenshtein, token_sort_similarity};
use decoding_divide::address::{Directional, Suffix};
use decoding_divide::geo::BlockGroupId;
use decoding_divide::net::{FrameCodec, Request, Response};
use decoding_divide::stats::{
    coefficient_of_variation, ks_two_sample, mean, median, quantile, Ecdf, PlanVector,
};
use proptest::prelude::*;

/// The token-at-a-time normalizer the single-pass `normalize_line`
/// replaced, kept as the reference it must agree with.
fn oracle_tokens(text: &str) -> Vec<String> {
    let fold = |t: String| {
        let variants = Suffix::ALL.into_iter().map(suffix_variants);
        match variants
            .chain(Directional::ALL.into_iter().map(directional_variants))
            .find(|v| v.contains(&t.as_str()))
        {
            Some(v) => v[0].to_string(),
            None if UNIT_MARKERS.contains(&t.as_str()) => "apt".to_string(),
            None => t,
        }
    };
    let mut out = Vec::new();
    for raw in text.split(|c: char| c.is_whitespace() || c == ',' || c == '.') {
        let token: String = raw.chars().filter(char::is_ascii_alphanumeric).collect();
        if raw.starts_with('#') {
            out.push("apt".to_string());
        }
        if !token.is_empty() {
            out.push(fold(token.to_ascii_lowercase()));
        }
    }
    out
}

proptest! {
    // ---- geo ----------------------------------------------------------

    #[test]
    fn geoid_roundtrips(state in 1u8..=99, county in 1u16..=999, tract in 0u32..=999_999, bg in 0u8..=9) {
        let id = BlockGroupId::new(state, county, tract, bg);
        let parsed: BlockGroupId = id.to_string().parse().unwrap();
        prop_assert_eq!(parsed, id);
        prop_assert_eq!(id.to_string().len(), 12);
    }

    #[test]
    fn geoid_ordering_matches_u64_encoding(
        a in (1u8..=99, 1u16..=999, 0u32..=999_999, 0u8..=9),
        b in (1u8..=99, 1u16..=999, 0u32..=999_999, 0u8..=9),
    ) {
        let x = BlockGroupId::new(a.0, a.1, a.2, a.3);
        let y = BlockGroupId::new(b.0, b.1, b.2, b.3);
        prop_assert_eq!(x < y, x.as_u64() < y.as_u64());
        prop_assert_eq!(x == y, x.as_u64() == y.as_u64());
    }

    // ---- net ----------------------------------------------------------

    #[test]
    fn frames_roundtrip_arbitrary_payloads(payload in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut buf = bytes::BytesMut::new();
        FrameCodec.encode(&payload, &mut buf);
        let out = FrameCodec.decode(&mut buf).unwrap().unwrap();
        prop_assert_eq!(&out[..], &payload[..]);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn frame_decoder_never_consumes_partial_frames(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        cut in 0usize..4,
    ) {
        let mut full = bytes::BytesMut::new();
        FrameCodec.encode(&payload, &mut full);
        let cut = cut.min(full.len() - 1);
        let mut partial = bytes::BytesMut::from(&full[..full.len() - 1 - cut]);
        let before = partial.len();
        prop_assert_eq!(FrameCodec.decode(&mut partial).unwrap(), None);
        prop_assert_eq!(partial.len(), before);
    }

    // Bodies may start with (and contain runs of) newlines: the body is
    // everything after the first blank line, verbatim.
    #[test]
    fn requests_roundtrip_wire_format(
        path in "[a-z/]{1,24}",
        body in "\n{0,3}(\n|[ -~&&[^\r]]{1,8}){0,30}",
        cookie in "[a-z0-9=]{0,32}",
    ) {
        let mut req = Request::post(format!("/{path}"), body);
        if !cookie.is_empty() {
            req = req.with_cookie(cookie);
        }
        let parsed = Request::from_wire(&req.to_wire()).unwrap();
        prop_assert_eq!(parsed, req);
    }

    #[test]
    fn responses_roundtrip_wire_format(body in "\n{0,3}(\n|[ -~&&[^\r]]{1,8}){0,40}") {
        let resp = Response::ok(body).with_set_cookie("sid=1");
        let parsed = Response::from_wire(&resp.to_wire()).unwrap();
        prop_assert_eq!(parsed, resp);
    }

    // ---- address ------------------------------------------------------

    #[test]
    fn normalization_is_idempotent(line in "[A-Za-z0-9 ,.#]{0,80}") {
        let once = normalize_line(&line);
        let twice = normalize_line(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn single_pass_normalization_matches_the_token_oracle(
        text in "([ -~]{1,4}|[A-Za-z0-9]{1,7}|#[0-9a-zA-Z]{0,3}|, |\\.|\t|\n|Apt|APARTMENT|unit|Ste|suite|North|no|NE|Ave|AV|Str|Court|CT|é|ß|Ω|№|\u{a0}|\u{2003}|\u{3000}|1½|Ä#){0,18}",
    ) {
        let oracle = oracle_tokens(&text);
        prop_assert_eq!(normalize_line(&text), oracle.join(" "));
    }

    #[test]
    fn normalization_is_case_insensitive(line in "[A-Za-z0-9 ,.]{0,60}") {
        prop_assert_eq!(normalize_line(&line.to_uppercase()), normalize_line(&line.to_lowercase()));
    }

    #[test]
    fn normalized_tokens_are_lowercase_alphanumeric(line in "[ -~]{0,80}") {
        let norm = normalize_line(&line);
        for tok in norm.split(' ').filter(|_| !norm.is_empty()) {
            prop_assert!(!tok.is_empty());
            prop_assert!(
                tok.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()),
                "token {tok:?}"
            );
        }
    }

    #[test]
    fn levenshtein_is_a_metric(a in "[a-z ]{0,24}", b in "[a-z ]{0,24}", c in "[a-z ]{0,24}") {
        // Symmetry, identity and the triangle inequality.
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn similarities_are_bounded(a in "[ -~]{0,40}", b in "[ -~]{0,40}") {
        let jw = jaro_winkler(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&jw), "jw {jw}");
        let ts = token_sort_similarity(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ts), "ts {ts}");
    }

    #[test]
    fn identical_strings_have_maximal_similarity(a in "[a-z0-9 ]{1,40}") {
        prop_assert!((jaro_winkler(&a, &a) - 1.0).abs() < 1e-12);
    }

    // ---- stats --------------------------------------------------------

    #[test]
    fn quantile_is_monotone_and_bounded(
        mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        xs.iter_mut().for_each(|x| *x = x.trunc()); // avoid float-compare noise
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo).unwrap();
        let b = quantile(&xs, hi).unwrap();
        prop_assert!(a <= b);
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(a >= min && b <= max);
    }

    #[test]
    fn mean_lies_between_extremes(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let m = mean(&xs).unwrap();
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
    }

    #[test]
    fn median_splits_the_sample(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let m = median(&xs).unwrap();
        let below = xs.iter().filter(|&&x| x <= m).count();
        let above = xs.iter().filter(|&&x| x >= m).count();
        prop_assert!(below * 2 >= xs.len());
        prop_assert!(above * 2 >= xs.len());
    }

    #[test]
    fn cov_is_scale_invariant(
        xs in proptest::collection::vec(1.0f64..1e4, 2..50),
        scale in 0.1f64..100.0,
    ) {
        let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
        let a = coefficient_of_variation(&xs).unwrap();
        let b = coefficient_of_variation(&scaled).unwrap();
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn ks_statistic_is_bounded_and_symmetric(
        a in proptest::collection::vec(-100f64..100.0, 2..80),
        b in proptest::collection::vec(-100f64..100.0, 2..80),
    ) {
        let ab = ks_two_sample(&a, &b);
        let ba = ks_two_sample(&b, &a);
        prop_assert!((0.0..=1.0).contains(&ab.statistic));
        prop_assert!((ab.statistic - ba.statistic).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab.p_value));
    }

    #[test]
    fn ks_of_identical_samples_never_rejects(a in proptest::collection::vec(-100f64..100.0, 2..100)) {
        let out = ks_two_sample(&a, &a);
        prop_assert_eq!(out.statistic, 0.0);
        prop_assert!(out.p_value > 0.99);
    }

    #[test]
    fn ecdf_is_monotone_from_zero_to_one(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
        probe in proptest::collection::vec(-2e3f64..2e3, 1..20),
    ) {
        let e = Ecdf::new(xs.clone());
        let mut probes = probe;
        probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for p in probes {
            let v = e.eval(p);
            prop_assert!(v >= prev);
            prop_assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(e.eval(max), 1.0);
    }

    #[test]
    fn plan_vector_weights_always_sum_to_one(cvs in proptest::collection::vec(0.0f64..40.0, 1..200)) {
        let v = PlanVector::from_carriage_values(&cvs).unwrap();
        let total: f64 = v.weights().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn l1_distance_is_a_bounded_metric(
        a in proptest::collection::vec(0.0f64..40.0, 1..100),
        b in proptest::collection::vec(0.0f64..40.0, 1..100),
        c in proptest::collection::vec(0.0f64..40.0, 1..100),
    ) {
        use decoding_divide::stats::l1_distance;
        let va = PlanVector::from_carriage_values(&a).unwrap();
        let vb = PlanVector::from_carriage_values(&b).unwrap();
        let vc = PlanVector::from_carriage_values(&c).unwrap();
        let dab = l1_distance(&va, &vb);
        prop_assert!((0.0..=2.0 + 1e-12).contains(&dab));
        prop_assert!((dab - l1_distance(&vb, &va)).abs() < 1e-12);
        prop_assert!(l1_distance(&va, &vc) <= dab + l1_distance(&vb, &vc) + 1e-9);
        prop_assert_eq!(l1_distance(&va, &va), 0.0);
    }
}

// ---- retry/backoff ----------------------------------------------------

proptest! {
    #[test]
    fn backoff_schedule_is_monotone_capped_and_seed_stable(
        base_s in 1u64..=30,
        cap_mult in 1u64..=64,
        jitter in 0.0f64..=0.5,
        seed in any::<u64>(),
        tag in any::<u64>(),
    ) {
        use decoding_divide::bqt::BackoffPolicy;
        use decoding_divide::net::SimDuration;

        let policy = BackoffPolicy {
            base: SimDuration::from_secs(base_s),
            cap: SimDuration::from_secs(base_s * cap_mult),
            jitter,
            seed,
        };
        let schedule: Vec<SimDuration> = (1..=12).map(|n| policy.delay(tag, n)).collect();

        // Monotone non-decreasing, and never past the cap.
        for w in schedule.windows(2) {
            prop_assert!(w[0] <= w[1], "schedule not monotone: {:?}", schedule);
        }
        for d in &schedule {
            prop_assert!(*d <= policy.cap, "{d:?} exceeds cap {:?}", policy.cap);
            prop_assert!(*d > SimDuration::ZERO);
        }

        // Identical seeds reproduce the schedule byte for byte.
        let again: Vec<SimDuration> = (1..=12).map(|n| policy.delay(tag, n)).collect();
        prop_assert_eq!(&schedule, &again);

        // A different seed perturbs the jittered schedule (jitter 0 makes
        // the schedule seed-independent by construction, so skip there).
        if jitter > 0.01 {
            let other = BackoffPolicy { seed: seed ^ 0x9E37_79B9, ..policy };
            let differs = (1..=12).any(|n| other.delay(tag, n) != policy.delay(tag, n));
            prop_assert!(differs, "seed change left the schedule untouched");
        }
    }
}

proptest! {
    // Each case drives a real orchestrator run, so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn retry_attempts_never_exceed_the_budget(seed in any::<u64>(), max_attempts in 1u32..=5) {
        use decoding_divide::bat::{templates, BatServer};
        use decoding_divide::bqt::{Campaign, Orchestrator, QueryJob, RetryPolicy};
        use decoding_divide::census::city_by_name;
        use decoding_divide::isp::{CityWorld, Isp};
        use decoding_divide::net::{
            FaultPlan, IpPool, RotationPolicy, SimDuration, SimTime, Transport,
        };
        use std::sync::{Arc, OnceLock};

        static WORLD: OnceLock<Arc<CityWorld>> = OnceLock::new();
        let world = WORLD
            .get_or_init(|| Arc::new(CityWorld::build(city_by_name("Billings").unwrap())))
            .clone();

        let mut t = Transport::new(7);
        t.register("centurylink/billings", BatServer::new(Isp::CenturyLink, world.clone()).endpoint());
        // Every request times out forever: all jobs must dead-letter after
        // exactly `max_attempts` tries, regardless of seed.
        let horizon = SimTime::ZERO + SimDuration::from_secs(1_000_000);
        t.set_fault_plan(FaultPlan::new(seed).lossy_network(SimTime::ZERO, horizon, 1.0));

        let jobs: Vec<QueryJob> = world
            .addresses()
            .records()
            .iter()
            .take(8)
            .map(|r| QueryJob::listing("centurylink/billings", templates::dialect_of(Isp::CenturyLink), r))
            .collect();

        let mut policy = RetryPolicy::paper_default(seed);
        policy.max_attempts = max_attempts;
        let orch = Orchestrator {
            n_workers: 2,
            retry: Some(policy),
            ..Orchestrator::paper_default(seed)
        };
        let mut pool = IpPool::residential(8, RotationPolicy::RoundRobin, seed);
        let report = Campaign::from_orchestrator(orch)
            .run(&mut t, &jobs, &mut pool);

        prop_assert_eq!(report.records.len(), jobs.len());
        prop_assert_eq!(report.dead_letters.len(), jobs.len());
        for dl in &report.dead_letters {
            prop_assert_eq!(dl.attempts, max_attempts);
        }
        prop_assert_eq!(
            report.metrics.retries,
            (max_attempts as u64 - 1) * jobs.len() as u64
        );
    }
}

proptest! {
    // Each case drives a real traced campaign; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Telemetry's span discipline: under any seed, worker count and fault
    /// rate, every span-opening event (campaign, worker, job, attempt,
    /// page fetch) is closed exactly once, never reopened, and never ends
    /// before it begins on the virtual clock.
    #[test]
    fn every_span_begin_has_exactly_one_end(
        seed in any::<u64>(),
        workers in 1usize..=8,
        flake in 0u32..=5,
    ) {
        use decoding_divide::bat::{templates, BatServer};
        use decoding_divide::bqt::{
            Campaign, Event, EventKind, Orchestrator, QueryJob,
        };
        use decoding_divide::census::city_by_name;
        use decoding_divide::isp::{CityWorld, Isp};
        use decoding_divide::net::{
            FaultPlan, IpPool, RotationPolicy, SimDuration, SimTime, Transport,
        };
        use std::collections::{HashMap, HashSet};
        use std::sync::{Arc, OnceLock};

        static WORLD: OnceLock<Arc<CityWorld>> = OnceLock::new();
        let world = WORLD
            .get_or_init(|| Arc::new(CityWorld::build(city_by_name("Billings").unwrap())))
            .clone();

        let mut t = Transport::hermetic(seed);
        t.register("centurylink/billings", BatServer::new(Isp::CenturyLink, world.clone()).endpoint());
        if flake > 0 {
            let horizon = SimTime::ZERO + SimDuration::from_secs(1_000_000);
            t.set_fault_plan(
                FaultPlan::new(seed)
                    .flaky_endpoint("centurylink/billings", SimTime::ZERO, horizon, flake as f64 / 10.0)
                    .hermetic(),
            );
        }
        let jobs: Vec<QueryJob> = world
            .addresses()
            .records()
            .iter()
            .take(12)
            .map(|r| QueryJob::listing("centurylink/billings", templates::dialect_of(Isp::CenturyLink), r))
            .collect();

        let orch = Orchestrator {
            n_workers: workers,
            ..Orchestrator::with_retries(seed)
        };
        let mut pool = IpPool::residential(16, RotationPolicy::RoundRobin, seed);
        let mut stream: Vec<Event> = Vec::new();
        let report = Campaign::from_orchestrator(orch)
            .recorder(&mut stream)
            .run(&mut t, &jobs, &mut pool);
        prop_assert_eq!(report.records.len(), jobs.len());

        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Key {
            Campaign,
            Worker(u32),
            Job(u64),
            Attempt(u64, u32),
            Fetch(u64, u32, u32),
        }
        let mut open: HashMap<Key, SimTime> = HashMap::new();
        let mut closed: HashSet<Key> = HashSet::new();
        for e in &stream {
            let (key, is_begin) = match e.kind {
                EventKind::CampaignBegin { .. } => (Key::Campaign, true),
                EventKind::CampaignEnd { .. } => (Key::Campaign, false),
                EventKind::WorkerBegin { worker } => (Key::Worker(worker), true),
                EventKind::WorkerEnd { worker } => (Key::Worker(worker), false),
                EventKind::JobBegin { tag, .. } => (Key::Job(tag), true),
                EventKind::JobEnd { tag, .. } => (Key::Job(tag), false),
                EventKind::AttemptBegin { tag, attempt, .. } => (Key::Attempt(tag, attempt), true),
                EventKind::AttemptEnd { tag, attempt, .. } => (Key::Attempt(tag, attempt), false),
                EventKind::PageFetchBegin { tag, attempt, fetch } => {
                    (Key::Fetch(tag, attempt, fetch), true)
                }
                EventKind::PageFetchEnd { tag, attempt, fetch, .. } => {
                    (Key::Fetch(tag, attempt, fetch), false)
                }
                _ => continue,
            };
            if is_begin {
                prop_assert!(!closed.contains(&key), "span reopened: {key:?}");
                prop_assert!(open.insert(key, e.at).is_none(), "double begin: {key:?}");
            } else {
                let begun = open.remove(&key);
                prop_assert!(begun.is_some(), "end without begin: {key:?}");
                prop_assert!(
                    e.at >= begun.unwrap(),
                    "span {key:?} ends at {:?}, before its begin at {:?}",
                    e.at,
                    begun.unwrap()
                );
                prop_assert!(closed.insert(key), "double end: {key:?}");
            }
        }
        prop_assert!(open.is_empty(), "unclosed spans: {:?}", open.keys());
        prop_assert!(closed.contains(&Key::Campaign), "the campaign span closed");
    }
}

proptest! {
    // ---- telemetry schema codes --------------------------------------

    #[test]
    fn outcome_codes_roundtrip_through_their_wire_strings(i in 0usize..6) {
        use decoding_divide::bqt::telemetry::OutcomeCode;
        const ALL: [OutcomeCode; 6] = [
            OutcomeCode::Plans,
            OutcomeCode::NoService,
            OutcomeCode::Unserviceable,
            OutcomeCode::Blocked,
            OutcomeCode::Failed,
            OutcomeCode::Stalled,
        ];
        let code = ALL[i];
        prop_assert_eq!(OutcomeCode::parse(code.as_str()), Some(code));
    }

    #[test]
    fn fault_classes_roundtrip_through_their_wire_strings(i in 0usize..3) {
        use decoding_divide::bqt::telemetry::FaultClass;
        const ALL: [FaultClass; 3] = [FaultClass::Timeout, FaultClass::Reset, FaultClass::Stall];
        let class = ALL[i];
        prop_assert_eq!(FaultClass::parse(class.as_str()), Some(class));
    }

    #[test]
    fn junk_never_parses_as_a_schema_code(s in "[a-z_]{0,16}") {
        use decoding_divide::bqt::telemetry::{FaultClass, OutcomeCode};
        const OUTCOMES: [&str; 6] = [
            "plans", "no_service", "unserviceable", "blocked", "failed", "stalled",
        ];
        const FAULTS: [&str; 3] = ["timeout", "reset", "stall"];
        prop_assert_eq!(OutcomeCode::parse(&s).is_some(), OUTCOMES.contains(&s.as_str()));
        prop_assert_eq!(FaultClass::parse(&s).is_some(), FAULTS.contains(&s.as_str()));
    }
}

// ---- shard merge (differential determinism) ---------------------------
//
// The sharded-campaign contract reduces to one algebraic fact: merging
// `(at, seq)`-stamped streams through the watermark heap is a function of
// the event *set* alone — any partition into shards, pushed in any
// interleaving, drains in the one canonical order.

mod shard_merge {
    use super::*;
    use decoding_divide::bqt::monitor::WatermarkHeap;
    use decoding_divide::bqt::{
        merge_order, merge_seq_streams, merge_sorted, shard_seq, Event, EventKind, MergeKey,
        MergeSink, SeqEvent, ShardRecorder, StreamMerger, FINISHED,
    };
    use decoding_divide::net::SimTime;

    /// One message a running shard sends the streaming merge.
    enum Msg {
        Declare(u64),
        Chunk(Vec<SeqEvent>, MergeKey),
    }

    /// Per-shard streams in emission order that keep the serve
    /// watermark contract, and the messages a shard would send for them.
    ///
    /// Each shard emits a start event at 0, then walks its arrivals in
    /// time order; an arrival emits up to three events stamped at or
    /// after it, by a per-arrival delay, so a later arrival's events can
    /// sort before an earlier one's (a shed before an earlier lookup's
    /// completion). Before any flagged arrival the shard seals at its
    /// time (about 3 arrivals in 10). The first message declares the
    /// arrival count; the last seals with `FINISHED`.
    #[allow(clippy::type_complexity)]
    fn sealed_streams(
        arrivals: &[(u8, u64, u8, u64, u8)],
        n_shards: u8,
    ) -> (Vec<Vec<SeqEvent>>, Vec<Vec<Msg>>, u64) {
        let n = n_shards as usize;
        let mut recorders: Vec<ShardRecorder> =
            (0..n_shards as u32).map(ShardRecorder::new).collect();
        let mut complete: Vec<Vec<SeqEvent>> = vec![Vec::new(); n];
        let mut chunks: Vec<Vec<Msg>> = (0..n).map(|_| Vec::new()).collect();
        let mut now = vec![0u64; n];
        let mut count = vec![0u64; n];
        let mut worker = 0u32;
        let mut emit = |rec: &mut ShardRecorder, stream: &mut Vec<SeqEvent>, at: u64| {
            let event = Event {
                at: SimTime::from_millis(at),
                kind: EventKind::WorkerBegin { worker },
            };
            worker += 1;
            stream.push(SeqEvent {
                seq: rec.frontier(at).1,
                event: event.clone(),
            });
            rec.push(event);
        };
        for s in 0..n {
            emit(&mut recorders[s], &mut complete[s], 0);
        }
        for &(shard, gap, events, delay, seal) in arrivals {
            let s = (shard % n_shards) as usize;
            now[s] += gap;
            count[s] += 1;
            if seal < 77 {
                let frontier = recorders[s].frontier(now[s]);
                chunks[s].push(Msg::Chunk(recorders[s].seal(frontier), frontier));
            }
            for k in 0..u64::from(events % 4) {
                emit(&mut recorders[s], &mut complete[s], now[s] + delay * k);
            }
        }
        let mut messages = Vec::with_capacity(n);
        for (s, (rec, later)) in recorders.iter_mut().zip(chunks).enumerate() {
            let mut msgs = vec![Msg::Declare(count[s])];
            msgs.extend(later);
            msgs.push(Msg::Chunk(rec.seal(FINISHED), FINISHED));
            messages.push(msgs);
        }
        (complete, messages, count.iter().sum())
    }

    /// Records what a merger released: `(events before it, total)` per
    /// `begin`, and the events.
    #[derive(Default)]
    struct Seen {
        begins: Vec<(usize, u64)>,
        events: Vec<Event>,
    }

    impl MergeSink for Seen {
        fn begin(&mut self, total: u64) {
            self.begins.push((self.events.len(), total));
        }

        fn event(&mut self, event: Event) {
            self.events.push(event);
        }
    }

    /// What a by-reference merge released: `(events before it, total)`
    /// per `begin`, each borrowed event, and a clone of each.
    #[derive(Default)]
    struct Delivered<'a> {
        begins: Vec<(usize, u64)>,
        delivered: Vec<&'a Event>,
        stored: Vec<Event>,
    }

    impl<'a> MergeSink<&'a Event> for Delivered<'a> {
        fn begin(&mut self, total: u64) {
            self.begins.push((self.delivered.len(), total));
        }

        fn event(&mut self, event: &'a Event) {
            self.delivered.push(event);
            self.stored.push(event.clone());
        }
    }

    /// A synthetic recorded stream: `n` events with bounded timestamps
    /// (dense ties), assigned to shards by `assign`, with per-shard
    /// contiguous counters — exactly how `ShardRecorder` stamps them.
    fn stamped(at_ms: &[u64], assign: &[u8], n_shards: u8) -> Vec<Vec<SeqEvent>> {
        let mut streams: Vec<Vec<SeqEvent>> = vec![Vec::new(); n_shards as usize];
        for (i, (&at, &a)) in at_ms.iter().zip(assign).enumerate() {
            let shard = (a % n_shards) as usize;
            let counter = streams[shard].len() as u64;
            streams[shard].push(SeqEvent {
                seq: shard_seq(shard as u32, counter),
                event: Event {
                    at: SimTime::from_millis(at),
                    kind: EventKind::WorkerBegin { worker: i as u32 },
                },
            });
        }
        streams
    }

    fn workers(events: &[Event]) -> Vec<u32> {
        events
            .iter()
            .map(|e| match e.kind {
                EventKind::WorkerBegin { worker } => worker,
                _ => unreachable!("synthetic streams only hold WorkerBegin"),
            })
            .collect()
    }

    proptest! {
        /// Any partition of the same event set merges to the order given
        /// by sorting on `(at, seq)` — the canonical order.
        #[test]
        fn any_partition_reproduces_canonical_order(
            at_ms in proptest::collection::vec(0u64..50, 1..120),
            assign in proptest::collection::vec(any::<u8>(), 120),
            n_shards in 1u8..6,
        ) {
            let streams = stamped(&at_ms, &assign, n_shards);
            let mut expected: Vec<(u64, u64, u32)> = streams
                .iter()
                .flatten()
                .map(|se| {
                    let w = match se.event.kind {
                        EventKind::WorkerBegin { worker } => worker,
                        _ => unreachable!("synthetic streams only hold WorkerBegin"),
                    };
                    (se.event.at.as_millis(), se.seq, w)
                })
                .collect();
            expected.sort();
            let merged = merge_seq_streams(streams.iter().map(|s| s.as_slice()));
            prop_assert_eq!(
                workers(&merged),
                expected.into_iter().map(|(_, _, w)| w).collect::<Vec<_>>()
            );
        }

        /// Two different partitions (and stream orders) of the same events
        /// merge identically: thread count and scheduling cannot matter.
        #[test]
        fn merge_is_partition_invariant(
            at_ms in proptest::collection::vec(0u64..40, 1..100),
            assign_a in proptest::collection::vec(any::<u8>(), 100),
            assign_b in proptest::collection::vec(any::<u8>(), 100),
            shards_a in 1u8..6,
            shards_b in 1u8..6,
        ) {
            // Both partitions must namespace by a *global* canonical seq —
            // per-partition counters would name different totals. Use the
            // event index as the canonical seq for both.
            let stamp = |assign: &[u8], n: u8| -> Vec<Vec<SeqEvent>> {
                let mut streams: Vec<Vec<SeqEvent>> = vec![Vec::new(); n as usize];
                for (i, (&at, &a)) in at_ms.iter().zip(assign).enumerate() {
                    streams[(a % n) as usize].push(SeqEvent {
                        seq: i as u64,
                        event: Event {
                            at: SimTime::from_millis(at),
                            kind: EventKind::WorkerBegin { worker: i as u32 },
                        },
                    });
                }
                streams
            };
            let a = stamp(&assign_a, shards_a);
            let b = stamp(&assign_b, shards_b);
            let merged_a = merge_seq_streams(a.iter().map(|s| s.as_slice()));
            let merged_b = merge_seq_streams(b.iter().rev().map(|s| s.as_slice()));
            prop_assert_eq!(workers(&merged_a), workers(&merged_b));
        }

        /// The streaming merge, fed sealed chunks in any cross-shard
        /// interleaving, releases exactly what `merge_seq_streams` makes
        /// of the complete streams, and begins once, first, with the
        /// total of every shard's declared count.
        #[test]
        fn streaming_merge_matches_the_complete_merge_in_any_interleaving(
            arrivals in proptest::collection::vec(
                (any::<u8>(), 0u64..6, any::<u8>(), 0u64..9, any::<u8>()),
                0..160,
            ),
            picks in proptest::collection::vec(any::<u8>(), 0..400),
            n_shards in 1u8..5,
        ) {
            let (complete, messages, total) = sealed_streams(&arrivals, n_shards);
            let expected = merge_seq_streams(complete.iter().map(Vec::as_slice));

            let mut merger = StreamMerger::new(messages.len());
            let mut pending: Vec<std::vec::IntoIter<Msg>> =
                messages.into_iter().map(Vec::into_iter).collect();
            let mut live: Vec<usize> = (0..pending.len()).collect();
            let mut seen = Seen::default();
            let mut picks = picks.into_iter();
            while !live.is_empty() {
                let at = picks.next().map_or(0, |p| p as usize % live.len());
                let s = live[at];
                match pending[s].next() {
                    Some(Msg::Declare(n)) => merger.declare(s, n),
                    Some(Msg::Chunk(chunk, frontier)) => merger.push(s, chunk, frontier),
                    None => {
                        live.remove(at);
                        continue;
                    }
                }
                merger.release(&mut seen);
            }
            merger.release(&mut seen);
            prop_assert_eq!(seen.begins, vec![(0, total)]);
            prop_assert_eq!(workers(&seen.events), workers(&expected));
        }

        /// The by-reference merge of complete streams, each walked in its
        /// own `merge_order` and handed over in any completion order,
        /// releases exactly `merge_seq_streams`'s sequence and the
        /// canonical `(at, seq)` sort. Every released event is borrowed
        /// from its stream, not copied, and a sink that delivers each
        /// event and then keeps a clone (as a sharded run feeds its
        /// recorders and its merged stream) stores what it delivered.
        #[test]
        fn by_reference_merge_matches_the_copying_merge_and_the_model(
            at_ms in proptest::collection::vec(0u64..50, 0..150),
            assign in proptest::collection::vec(any::<u8>(), 150),
            n_shards in 1u8..9,
            completion in proptest::collection::vec(any::<u8>(), 8),
        ) {
            let streams = stamped(&at_ms, &assign, n_shards);
            let mut model: Vec<(MergeKey, u32)> = streams
                .iter()
                .flatten()
                .map(|se| (se.key(), workers(std::slice::from_ref(&se.event))[0]))
                .collect();
            model.sort_unstable();
            let model: Vec<u32> = model.into_iter().map(|(_, w)| w).collect();
            let copied = merge_seq_streams(streams.iter().map(Vec::as_slice));

            // Shards finish in the order `completion` ranks them.
            let mut finished: Vec<usize> = (0..streams.len()).collect();
            finished.sort_by_key(|&s| (completion[s], s));
            let orders: Vec<Vec<u32>> = finished.iter().map(|&s| merge_order(&streams[s])).collect();
            let mut sink = Delivered::default();
            merge_sorted(
                finished
                    .iter()
                    .zip(&orders)
                    .map(|(&s, order)| (streams[s].as_slice(), order.as_slice())),
                &mut sink,
            );

            prop_assert_eq!(sink.begins, vec![(0, at_ms.len() as u64)]);
            for event in &sink.delivered {
                let borrowed = streams
                    .iter()
                    .flatten()
                    .any(|se| std::ptr::eq(&se.event, *event));
                prop_assert!(borrowed, "a released event is a copy");
            }
            let delivered: Vec<Event> = sink.delivered.iter().map(|e| (*e).clone()).collect();
            prop_assert_eq!(&delivered, &sink.stored);
            prop_assert_eq!(&sink.stored, &copied);
            prop_assert_eq!(workers(&sink.stored), model);
        }

        /// The watermark gate never releases an entry stamped beyond the
        /// watermark, and always drains ready entries in `(at, seq)` order
        /// no matter how pushes and advances interleave.
        #[test]
        fn watermark_heap_respects_gate_and_order(
            ops in proptest::collection::vec((0u64..100, any::<bool>()), 1..80),
        ) {
            let mut heap: WatermarkHeap<u64> = WatermarkHeap::new();
            let mut popped: Vec<(u64, u64)> = Vec::new();
            for (seq, &(at, advance)) in ops.iter().enumerate() {
                if advance {
                    heap.advance(at);
                } else {
                    heap.push(at, seq as u64, seq as u64);
                }
                while let Some((at_ms, seq, _)) = heap.pop_ready() {
                    prop_assert!(at_ms <= heap.watermark(), "gate violated");
                    popped.push((at_ms, seq));
                }
            }
            heap.advance(u64::MAX);
            while let Some((at_ms, seq, _)) = heap.pop_ready() {
                popped.push((at_ms, seq));
            }
            prop_assert!(heap.is_empty(), "flush drains everything");
            // Entries released in the same gate window come out sorted;
            // across windows, later releases may carry earlier stamps only
            // if they were pushed after the gate passed them — but a seq
            // released earlier with an equal stamp must precede.
            for w in popped.windows(2) {
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 != w[1].1, "seqs are unique");
                }
            }
            prop_assert_eq!(popped.len(), ops.iter().filter(|(_, a)| !a).count());
        }
    }
}

// ---- trace assembler: the in-order bypass ------------------------------
//
// `TraceAssembler::observe` and `CampaignMonitor::observe` fold a
// loop-current event in place when nothing queued is stamped at or before
// it, instead of pushing it through their watermark heap. The oracle is
// the path they replaced: push every event, advance on loop-current kinds,
// and `ingest` whatever the heap releases.

mod assembler_bypass {
    use super::*;
    use decoding_divide::bqt::monitor::{
        advances_watermark, CampaignMonitor, MonitorPolicy, WatermarkHeap,
    };
    use decoding_divide::bqt::telemetry::OutcomeCode;
    use decoding_divide::bqt::{Event, EventKind, ExemplarSet, TraceAssembler};
    use decoding_divide::net::SimTime;

    /// Large enough that every trace of a generated stream is kept, so the
    /// exemplar sets compare whole traces, not just the slowest few.
    const K: usize = 64;

    fn ev(at_ms: u64, kind: EventKind) -> Event {
        Event {
            at: SimTime::from_millis(at_ms),
            kind,
        }
    }

    /// An emission-order stream as an event loop writes it: jobs start
    /// `gap` ms apart, each attempt `(duration, backoff)` is announced at
    /// its loop-current start together with its future-stamped end (and
    /// the job's end, or a retry), and the loop visits starts at
    /// nondecreasing stamps. Zero gaps, durations and backoffs make dense
    /// ties between queued ends and later loop-current events.
    fn emission_stream(jobs: &[(u64, Vec<(u64, u64)>)]) -> Vec<Event> {
        let mut starts = Vec::new();
        let mut job_start = 0;
        for (job, (gap, attempts)) in jobs.iter().enumerate() {
            job_start += gap;
            let mut at = job_start;
            for (attempt, &(duration, backoff)) in attempts.iter().enumerate() {
                starts.push((at, job, attempt));
                at += duration + backoff;
            }
        }
        starts.sort();
        let mut out = vec![
            ev(
                0,
                EventKind::CampaignBegin {
                    seed: 1,
                    n_jobs: jobs.len() as u32,
                    n_workers: 1,
                },
            ),
            ev(0, EventKind::WorkerBegin { worker: 0 }),
        ];
        let mut makespan = 0;
        for (at, job, attempt) in starts {
            let attempts = &jobs[job].1;
            let (duration, backoff) = attempts[attempt];
            let tag = job as u64;
            let endpoint: std::sync::Arc<str> = ["isp-a", "isp-b"][job % 2].into();
            let last = attempt + 1 == attempts.len();
            let end = at + duration;
            makespan = makespan.max(end);
            if attempt == 0 {
                out.push(ev(
                    at,
                    EventKind::JobBegin {
                        tag,
                        endpoint: endpoint.clone(),
                    },
                ));
            }
            out.push(ev(
                at,
                EventKind::AttemptBegin {
                    tag,
                    attempt: attempt as u32 + 1,
                    worker: 0,
                    endpoint: endpoint.clone(),
                },
            ));
            let outcome = if last {
                OutcomeCode::Plans
            } else {
                OutcomeCode::Failed
            };
            out.push(ev(
                end,
                EventKind::AttemptEnd {
                    tag,
                    attempt: attempt as u32 + 1,
                    worker: 0,
                    endpoint,
                    outcome,
                    duration_ms: duration,
                    steps: 1,
                },
            ));
            out.push(ev(
                end,
                if last {
                    EventKind::JobEnd {
                        tag,
                        outcome,
                        attempts: attempts.len() as u32,
                        dead_lettered: false,
                    }
                } else {
                    EventKind::Retry {
                        tag,
                        next_attempt: attempt as u32 + 2,
                        delay_ms: backoff,
                    }
                },
            ));
        }
        out.push(ev(makespan, EventKind::WorkerEnd { worker: 0 }));
        out.push(ev(
            makespan,
            EventKind::CampaignEnd {
                makespan_ms: makespan,
            },
        ));
        out
    }

    /// The push-everything path: every event through the heap.
    struct Oracle {
        heap: WatermarkHeap<EventKind>,
        seq: u64,
        assembler: TraceAssembler,
    }

    impl Oracle {
        fn observe(&mut self, event: &Event) {
            self.seq += 1;
            let at_ms = event.at.as_millis();
            self.heap.push(at_ms, self.seq, event.kind.clone());
            if advances_watermark(&event.kind) {
                self.heap.advance(at_ms);
                self.drain();
            }
        }

        fn drain(&mut self) {
            while let Some((at_ms, _, kind)) = self.heap.pop_ready() {
                self.assembler.ingest(at_ms, &kind);
            }
        }

        fn finish(mut self) -> ExemplarSet {
            self.heap.advance(u64::MAX);
            self.drain();
            self.assembler.finish()
        }
    }

    proptest! {
        /// After every event and at the end, the bypassing assembler holds
        /// exactly the traces the push-everything oracle holds, and so does
        /// the monitor's assembler at the end.
        #[test]
        fn observe_matches_the_push_everything_oracle(
            jobs in proptest::collection::vec(
                (0u64..3, proptest::collection::vec((0u64..4, 0u64..3), 1..4)),
                1..12,
            ),
        ) {
            let stream = emission_stream(&jobs);
            let mut bypass = TraceAssembler::new(K);
            let mut monitor = CampaignMonitor::new(MonitorPolicy::paper_default().exemplars(K));
            let mut oracle = Oracle {
                heap: WatermarkHeap::new(),
                seq: 0,
                assembler: TraceAssembler::new(K),
            };
            for event in &stream {
                bypass.observe(event);
                monitor.observe(event);
                oracle.observe(event);
                prop_assert_eq!(bypass.exemplars(), oracle.assembler.exemplars());
            }
            let expected = oracle.finish();
            prop_assert_eq!(expected.global.len(), jobs.len().min(K));
            prop_assert_eq!(monitor.finish().exemplars, expected.clone());
            prop_assert_eq!(bypass.finish(), expected);
        }
    }
}

// ---- monitor oracles ----------------------------------------------------
//
// The monitor's trace assembler and phase profiler against two oracles
// kept here: the eager assembler fold, which builds every job's and every
// lookup's span tree with its labels and offers each trace to the
// reservoir, and the profiler keyed by the formatted folded-stack string.
// Over random streams both sides must give equal exemplar sets at
// k ∈ {0, 1, 3}, equal folded frames, and equal exemplar ids on every
// `AlertFired`. Small k matters: with every trace kept, a fold that
// skipped a trace the reservoir would have admitted could not show.

mod monitor_oracles {
    use super::*;
    use decoding_divide::bqt::monitor::{CampaignMonitor, MonitorPolicy, SloRule, WatermarkHeap};
    use decoding_divide::bqt::telemetry::OutcomeCode;
    use decoding_divide::bqt::trace::{ExemplarReservoir, ExemplarSet, Span, SpanKind, Trace};
    use decoding_divide::bqt::{Event, EventKind, TraceAssembler};
    use decoding_divide::net::{SimDuration, SimTime};
    use std::collections::BTreeMap;
    use std::fmt::Write;

    /// `;` and `:` are the folded-stack and trace-id separators.
    const ENDPOINTS: [&str; 4] = ["isp/city", "a;b", "c:d", "x;y:z"];
    const WORKERS: [u32; 4] = [0, 1, 10_000, 12_345];
    const OUTCOMES: [OutcomeCode; 6] = [
        OutcomeCode::Plans,
        OutcomeCode::NoService,
        OutcomeCode::Unserviceable,
        OutcomeCode::Blocked,
        OutcomeCode::Failed,
        OutcomeCode::Stalled,
    ];

    // Times below are in units of `unit` ms (see `stream`).

    /// `(wait, duration, fetches, marker, delay, outcome)`: the attempt
    /// starts `wait` after the previous one ended. A non-final attempt
    /// announces a `Retry` of `delay` when `marker & 1`, and a
    /// `BreakerDefer` until `delay` after its end when `marker & 2`.
    type Attempt = (u64, u64, u32, u8, u64, usize);
    /// `(gap, endpoint, worker, attempts)`: the job begins `gap` after the
    /// previous one.
    type Job = (u64, usize, usize, Vec<Attempt>);
    /// `(shard, gap, duration, batch, endpoint, cache_hit, outcome)`:
    /// `batch` lookups complete together `gap` after the shard's last.
    type Lookup = (u32, u64, u64, usize, usize, u8, usize);
    /// `(kind, at, len, endpoint)`: kind 0 cuts and raises the shed
    /// ceiling, 1 only cuts it, 2 quarantines and releases an endpoint,
    /// 3 only quarantines it.
    type Mark = (u8, u64, u64, usize);

    /// The stream in emission order. A unit of 1 ms makes durations tie
    /// or differ by one millisecond; a unit of 250 ms spreads the stream
    /// over several monitor buckets, so alerts fire.
    fn stream(unit: u64, jobs: &[Job], lookups: &[Lookup], marks: &[Mark]) -> Vec<Event> {
        // `(emitted at, event)`: ends are announced when their attempt
        // starts, as the event loop does.
        let mut out: Vec<(u64, Event)> = Vec::new();
        let mut push = |emit: u64, at: u64, kind: EventKind| {
            out.push((
                emit,
                Event {
                    at: SimTime::from_millis(at),
                    kind,
                },
            ));
        };
        push(
            0,
            0,
            EventKind::CampaignBegin {
                seed: 1,
                n_jobs: jobs.len() as u32,
                n_workers: 2,
            },
        );
        for worker in 0..2 {
            push(0, 0, EventKind::WorkerBegin { worker });
        }
        let mut makespan = 0;
        let mut start = 0;
        for (tag, (gap, endpoint, worker, attempts)) in jobs.iter().enumerate() {
            let (tag, endpoint, worker) = (tag as u64, ENDPOINTS[*endpoint], WORKERS[*worker]);
            start += gap * unit;
            push(
                start,
                start,
                EventKind::JobBegin {
                    tag,
                    endpoint: endpoint.into(),
                },
            );
            let mut cursor = start;
            for (i, &(wait, duration, fetches, marker, delay, outcome)) in
                attempts.iter().enumerate()
            {
                let (wait, duration, delay) = (wait * unit, duration * unit, delay * unit);
                let attempt = i as u32 + 1;
                let outcome = OUTCOMES[outcome];
                let begin = cursor + wait;
                let end = begin + duration;
                push(
                    begin,
                    begin,
                    EventKind::AttemptBegin {
                        tag,
                        attempt,
                        worker,
                        endpoint: endpoint.into(),
                    },
                );
                // The third fetch spills past the attempt's end and every
                // fetch may start before its begin: the assembler clips.
                for fetch in 0..fetches {
                    push(
                        begin,
                        begin + duration * u64::from(fetch + 1) * 3 / 4,
                        EventKind::PageFetchEnd {
                            tag,
                            attempt,
                            fetch,
                            duration_ms: duration / 2 + u64::from(fetch),
                        },
                    );
                }
                push(
                    begin,
                    end,
                    EventKind::AttemptEnd {
                        tag,
                        attempt,
                        worker,
                        endpoint: endpoint.into(),
                        outcome,
                        duration_ms: duration,
                        steps: fetches,
                    },
                );
                if i + 1 == attempts.len() {
                    push(
                        begin,
                        end,
                        EventKind::JobEnd {
                            tag,
                            outcome,
                            attempts: attempt,
                            dead_lettered: false,
                        },
                    );
                } else {
                    if marker & 1 != 0 {
                        push(
                            begin,
                            end,
                            EventKind::Retry {
                                tag,
                                next_attempt: attempt + 1,
                                delay_ms: delay,
                            },
                        );
                    }
                    if marker & 2 != 0 {
                        push(
                            end,
                            end,
                            EventKind::BreakerDefer {
                                tag,
                                endpoint: endpoint.into(),
                                until_ms: end + delay,
                            },
                        );
                    }
                }
                cursor = end;
                makespan = makespan.max(end);
            }
        }
        let mut done = [0u64; 3];
        for (i, &(shard, gap, duration, batch, endpoint, cache_hit, outcome)) in
            lookups.iter().enumerate()
        {
            let (gap, duration) = (gap * unit, duration * unit);
            let at = done[shard as usize] + gap;
            done[shard as usize] = at;
            for member in 0..batch {
                push(
                    at,
                    at,
                    EventKind::ServeLookupEnd {
                        tag: 1_000 + 10 * i as u64 + member as u64,
                        shard,
                        endpoint: ENDPOINTS[endpoint].into(),
                        outcome: OUTCOMES[outcome],
                        cache_hit: cache_hit == 1,
                        duration_ms: duration,
                    },
                );
            }
            makespan = makespan.max(at);
        }
        for &(kind, at, len, endpoint) in marks {
            let (at, len) = (at * unit, len * unit);
            let endpoint: std::sync::Arc<str> = ENDPOINTS[endpoint].into();
            match kind {
                0 | 1 => {
                    push(at, at, EventKind::ShedCut { limit: 1 });
                    if kind == 0 {
                        push(at + len, at + len, EventKind::ShedRaise { limit: 2 });
                    }
                }
                _ => {
                    push(
                        at,
                        at,
                        EventKind::RebootstrapStarted {
                            endpoint: endpoint.clone(),
                        },
                    );
                    if kind == 2 {
                        push(
                            at + len,
                            at + len,
                            EventKind::RebootstrapCompleted {
                                endpoint,
                                confidence_pct: 90,
                            },
                        );
                    }
                }
            }
            makespan = makespan.max(at + len);
        }
        for worker in 0..2 {
            push(makespan, makespan, EventKind::WorkerEnd { worker });
        }
        push(
            makespan,
            makespan,
            EventKind::CampaignEnd {
                makespan_ms: makespan,
            },
        );
        // Stable: events announced together keep their push order.
        out.sort_by_key(|(emit, _)| *emit);
        out.into_iter().map(|(_, event)| event).collect()
    }

    type Interval = (u64, Option<u64>);

    struct OpenJob {
        endpoint: String,
        started_ms: u64,
        cursor_ms: u64,
        children: Vec<Span>,
        open_attempt: Option<(u32, u64)>,
        pending_backoff_ms: Option<u64>,
        pending_defer_until_ms: Option<u64>,
    }

    #[derive(Clone, Copy, Default)]
    struct ServeCursor {
        done_ms: u64,
        duration_ms: u64,
        queue_wait_ms: u64,
    }

    fn span(kind: SpanKind, label: String, start_ms: u64, end_ms: u64) -> Span {
        Span {
            kind,
            label,
            start_ms,
            end_ms,
            children: Vec::new(),
        }
    }

    /// The eager fold: every job and lookup becomes a span tree with its
    /// labels, and every tree is offered to the reservoir.
    struct EagerAssembler {
        heap: WatermarkHeap<EventKind>,
        seq: u64,
        jobs: BTreeMap<u64, OpenJob>,
        fetches: BTreeMap<(u64, u32), Vec<(u64, u64)>>,
        quarantines: BTreeMap<String, Vec<Interval>>,
        sheds: Vec<Interval>,
        serve_shards: BTreeMap<u32, ServeCursor>,
        reservoir: ExemplarReservoir,
    }

    impl EagerAssembler {
        fn new(k: usize) -> Self {
            Self {
                heap: WatermarkHeap::new(),
                seq: 0,
                jobs: BTreeMap::new(),
                fetches: BTreeMap::new(),
                quarantines: BTreeMap::new(),
                sheds: Vec::new(),
                serve_shards: BTreeMap::new(),
                reservoir: ExemplarReservoir::new(k),
            }
        }

        fn observe(&mut self, event: &Event) {
            let mut heap = std::mem::take(&mut self.heap);
            heap.observe(event, |at_ms, kind| self.ingest(at_ms, kind));
            self.heap = heap;
        }

        fn ingest(&mut self, at_ms: u64, kind: &EventKind) {
            self.seq += 1;
            match kind {
                EventKind::JobBegin { tag, endpoint } => {
                    self.jobs.insert(
                        *tag,
                        OpenJob {
                            endpoint: endpoint.to_string(),
                            started_ms: at_ms,
                            cursor_ms: at_ms,
                            children: Vec::new(),
                            open_attempt: None,
                            pending_backoff_ms: None,
                            pending_defer_until_ms: None,
                        },
                    );
                }
                EventKind::AttemptBegin { tag, attempt, .. } => {
                    if let Some(job) = self.jobs.get_mut(tag) {
                        close_gap(job, at_ms, &self.quarantines, &self.sheds);
                        job.open_attempt = Some((*attempt, at_ms));
                    }
                }
                EventKind::AttemptEnd {
                    tag,
                    attempt,
                    outcome,
                    duration_ms,
                    ..
                } => {
                    let fetches = self.fetches.remove(&(*tag, *attempt)).unwrap_or_default();
                    if let Some(job) = self.jobs.get_mut(tag) {
                        let start = job
                            .open_attempt
                            .take()
                            .map_or_else(|| at_ms.saturating_sub(*duration_ms), |(_, b)| b);
                        let mut attempt_span = span(
                            SpanKind::Attempt,
                            format!("attempt_{attempt}:{}", outcome.as_str()),
                            start,
                            at_ms,
                        );
                        for (i, (fs, fe)) in fetches.into_iter().enumerate() {
                            let (fs, fe) = (fs.max(start), fe.min(at_ms));
                            if fe > fs {
                                attempt_span.children.push(span(
                                    SpanKind::PageFetch,
                                    format!("step_{i}"),
                                    fs,
                                    fe,
                                ));
                            }
                        }
                        job.children.push(attempt_span);
                        job.cursor_ms = at_ms;
                    }
                }
                EventKind::Retry { tag, delay_ms, .. } => {
                    if let Some(job) = self.jobs.get_mut(tag) {
                        job.pending_backoff_ms = Some(*delay_ms);
                    }
                }
                EventKind::BreakerDefer { tag, until_ms, .. } => {
                    if let Some(job) = self.jobs.get_mut(tag) {
                        job.pending_defer_until_ms = Some(*until_ms);
                    }
                }
                EventKind::JobEnd { tag, outcome, .. } => {
                    if let Some(mut job) = self.jobs.remove(tag) {
                        close_gap(&mut job, at_ms, &self.quarantines, &self.sheds);
                        let mut root = span(
                            SpanKind::Job,
                            format!("{}:{}", job.endpoint, outcome.as_str()),
                            job.started_ms,
                            at_ms,
                        );
                        root.children = job.children;
                        let trace = Trace {
                            tag: *tag,
                            endpoint: job.endpoint,
                            root,
                        };
                        self.reservoir.offer(trace, at_ms, self.seq);
                    }
                }
                EventKind::ShedCut { .. } if !matches!(self.sheds.last(), Some((_, None))) => {
                    self.sheds.push((at_ms, None));
                }
                EventKind::ShedCut { .. } => {}
                EventKind::ShedRaise { .. } => {
                    if let Some((_, end @ None)) = self.sheds.last_mut() {
                        *end = Some(at_ms);
                    }
                }
                EventKind::RebootstrapStarted { endpoint } => {
                    let intervals = self.quarantines.entry(endpoint.to_string()).or_default();
                    if !matches!(intervals.last(), Some((_, None))) {
                        intervals.push((at_ms, None));
                    }
                }
                EventKind::RebootstrapCompleted { endpoint, .. } => {
                    let intervals = self.quarantines.entry(endpoint.to_string()).or_default();
                    if let Some((_, end @ None)) = intervals.last_mut() {
                        *end = Some(at_ms);
                    }
                }
                EventKind::PageFetchEnd {
                    tag,
                    attempt,
                    duration_ms,
                    ..
                } => {
                    self.fetches
                        .entry((*tag, *attempt))
                        .or_default()
                        .push((at_ms.saturating_sub(*duration_ms), at_ms));
                }
                EventKind::ServeLookupEnd {
                    tag,
                    shard,
                    endpoint,
                    outcome,
                    cache_hit,
                    duration_ms,
                } => {
                    let arrival = at_ms.saturating_sub(*duration_ms);
                    let cursor = self.serve_shards.entry(*shard).or_default();
                    let queue_wait =
                        if at_ms == cursor.done_ms && *duration_ms == cursor.duration_ms {
                            cursor.queue_wait_ms
                        } else {
                            let wait = cursor.done_ms.saturating_sub(arrival).min(*duration_ms);
                            *cursor = ServeCursor {
                                done_ms: at_ms,
                                duration_ms: *duration_ms,
                                queue_wait_ms: wait,
                            };
                            wait
                        };
                    let mut root = span(
                        SpanKind::Serve,
                        format!("{endpoint}:{}", outcome.as_str()),
                        arrival,
                        at_ms,
                    );
                    if queue_wait > 0 {
                        root.children.push(span(
                            SpanKind::QueueWait,
                            "queue".into(),
                            arrival,
                            arrival + queue_wait,
                        ));
                    }
                    if at_ms > arrival + queue_wait {
                        let label = if *cache_hit {
                            "cache_hit"
                        } else {
                            "cache_miss"
                        };
                        root.children.push(span(
                            SpanKind::CacheLookup,
                            label.into(),
                            arrival + queue_wait,
                            at_ms,
                        ));
                    }
                    let trace = Trace {
                        tag: *tag,
                        endpoint: endpoint.to_string(),
                        root,
                    };
                    self.reservoir.offer(trace, at_ms, self.seq);
                }
                _ => {}
            }
        }

        fn csv(&self) -> String {
            self.reservoir.csv()
        }

        fn finish(mut self) -> ExemplarSet {
            let mut heap = std::mem::take(&mut self.heap);
            heap.flush(|at_ms, kind| self.ingest(at_ms, kind));
            self.reservoir.into_set()
        }
    }

    fn close_gap(
        job: &mut OpenJob,
        end_ms: u64,
        quarantines: &BTreeMap<String, Vec<Interval>>,
        sheds: &[Interval],
    ) {
        let backoff = job.pending_backoff_ms.take();
        let defer = job.pending_defer_until_ms.take();
        let mut cur = job.cursor_ms;
        if cur >= end_ms {
            return;
        }
        if let Some(delay) = backoff {
            let seg_end = cur.saturating_add(delay).min(end_ms);
            cur = push_wait(job, SpanKind::RetryBackoff, "backoff", cur, seg_end);
        }
        if let Some(until) = defer {
            let seg_end = until.clamp(cur, end_ms);
            cur = push_wait(job, SpanKind::BreakerWait, "breaker", cur, seg_end);
        }
        let no_intervals = Vec::new();
        let quars = quarantines.get(&job.endpoint).unwrap_or(&no_intervals);
        while cur < end_ms {
            if let Some(seg_end) = covering_end(quars, cur) {
                let seg_end = seg_end.min(end_ms);
                cur = push_wait(job, SpanKind::Rebootstrap, "quarantine", cur, seg_end);
            } else if let Some(seg_end) = covering_end(sheds, cur) {
                cur = push_wait(job, SpanKind::Shed, "shed", cur, seg_end.min(end_ms));
            } else {
                let seg_end = next_interval_start(quars, sheds, cur).min(end_ms);
                cur = push_wait(job, SpanKind::QueueWait, "queue", cur, seg_end);
            }
        }
        job.cursor_ms = end_ms;
    }

    fn push_wait(job: &mut OpenJob, kind: SpanKind, label: &str, start: u64, end: u64) -> u64 {
        if end > start {
            job.children.push(span(kind, label.to_string(), start, end));
        }
        end.max(start)
    }

    fn covering_end(intervals: &[Interval], at: u64) -> Option<u64> {
        intervals
            .iter()
            .filter(|(start, end)| *start <= at && end.is_none_or(|e| e > at))
            .map(|(_, end)| end.unwrap_or(u64::MAX))
            .max()
    }

    fn next_interval_start(quarantines: &[Interval], sheds: &[Interval], at: u64) -> u64 {
        quarantines
            .iter()
            .chain(sheds)
            .map(|(start, _)| *start)
            .filter(|start| *start > at)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The profiler keyed by the formatted folded-stack string.
    #[derive(Default)]
    struct StringProfiler {
        frames: BTreeMap<String, u64>,
        busy_ms: BTreeMap<u32, u64>,
    }

    impl StringProfiler {
        fn observe(&mut self, kind: &EventKind) {
            let mut stack = String::new();
            let ms = match kind {
                EventKind::AttemptEnd {
                    attempt,
                    worker,
                    endpoint,
                    outcome,
                    duration_ms,
                    ..
                } => {
                    *self.busy_ms.entry(*worker).or_default() += duration_ms;
                    let outcome = outcome.as_str();
                    let _ = write!(
                        stack,
                        "worker_{worker:04};{endpoint};attempt_{attempt};{outcome}"
                    );
                    *duration_ms
                }
                EventKind::ServeLookupEnd {
                    shard,
                    endpoint,
                    outcome,
                    cache_hit,
                    duration_ms,
                    ..
                } => {
                    *self.busy_ms.entry(*shard).or_default() += duration_ms;
                    let cache = if *cache_hit {
                        "cache_hit"
                    } else {
                        "cache_miss"
                    };
                    let outcome = outcome.as_str();
                    let _ = write!(
                        stack,
                        "worker_{shard:04};{endpoint};lookup;{cache};{outcome}"
                    );
                    *duration_ms
                }
                _ => return,
            };
            *self.frames.entry(stack).or_default() += ms;
        }

        fn finish(mut self, makespan_ms: u64, started_workers: u32) -> BTreeMap<String, u64> {
            for worker in 0..started_workers {
                let busy = self.busy_ms.get(&worker).copied().unwrap_or(0);
                let idle = makespan_ms.saturating_sub(busy);
                if idle > 0 {
                    self.frames.insert(format!("worker_{worker:04};idle"), idle);
                }
            }
            self.frames
        }
    }

    /// One-second buckets and rules that fire on any failing or slow
    /// second, so most streams raise alerts.
    fn policy(k: usize) -> MonitorPolicy {
        MonitorPolicy {
            bucket: SimDuration::from_millis(1_000),
            buckets: 4,
            rules: vec![
                SloRule::hit_rate_at_least(0.9)
                    .hysteresis(1, 1)
                    .min_samples(1),
                SloRule::p99_latency_at_most(1_500)
                    .hysteresis(1, 1)
                    .min_samples(1),
            ],
            escalate: false,
            checkpoint_every: None,
            exemplars: k,
        }
    }

    /// Runs both sides over one stream at capacity `k` and returns how
    /// many alerts carried exemplar ids.
    fn check(stream: &[Event], k: usize) -> Result<usize, String> {
        // Standalone: every event, page fetches included, in raw order.
        let mut lazy = TraceAssembler::new(k);
        let mut eager = EagerAssembler::new(k);
        for event in stream {
            lazy.observe(event);
            eager.observe(event);
            prop_assert_eq!(lazy.exemplar_csv(), eager.csv());
        }
        prop_assert_eq!(lazy.finish(), eager.finish());

        // In the monitor: the replay-stable events only.
        let stable: Vec<&Event> = stream.iter().filter(|e| e.kind.replay_stable()).collect();
        let mut monitor = CampaignMonitor::new(policy(k));
        let mut profiler = StringProfiler::default();
        let mut alerts = Vec::new();
        for event in &stable {
            monitor.observe(event);
            profiler.observe(&event.kind);
            alerts.extend(monitor.take_events());
        }
        let report = monitor.finish();
        let mut ordered = Vec::new();
        let mut heap = WatermarkHeap::new();
        for event in &stable {
            heap.observe(event, |at_ms, kind| ordered.push((at_ms, kind.clone())));
        }
        heap.flush(|at_ms, kind| ordered.push((at_ms, kind.clone())));
        let fold = |until_ms: u64| {
            let mut eager = EagerAssembler::new(k);
            for (at_ms, kind) in ordered.iter().take_while(|(at_ms, _)| *at_ms < until_ms) {
                eager.ingest(*at_ms, kind);
            }
            eager
        };
        prop_assert_eq!(report.exemplars, fold(u64::MAX).finish());
        let started = report.started_workers;
        prop_assert_eq!(report.frames, profiler.finish(report.makespan_ms, started));
        // An alert at a bucket boundary carries the reservoir as it stood
        // once every event stamped before the boundary was folded in.
        let mut with_exemplars = 0;
        for alert in &alerts {
            if let EventKind::AlertFired { exemplars, .. } = &alert.kind {
                prop_assert_eq!(*exemplars, fold(alert.at.as_millis()).csv());
                with_exemplars += usize::from(!exemplars.is_empty());
            }
        }
        Ok(with_exemplars)
    }

    #[test]
    fn failing_jobs_raise_alerts_that_name_their_traces() {
        let attempt = |duration: u64, outcome: usize| (100, duration, 1, 3, 400, outcome);
        let jobs: Vec<Job> = (0..8)
            .map(|i| {
                let attempts = vec![attempt(900 + 50 * i as u64, 4), attempt(2_000, 0)];
                (300, i % 4, i % 4, attempts)
            })
            .collect();
        let lookups = [(0, 200, 1_800, 2, 1, 1, 4), (1, 900, 2_200, 1, 2, 0, 0)];
        let marks = [(0, 1_000, 2_000, 0), (2, 500, 3_000, 1)];
        let stream = stream(1, &jobs, &lookups, &marks);
        for k in [1, 3] {
            assert!(check(&stream, k).unwrap() > 0, "k = {k}");
        }
    }

    proptest! {
        #[test]
        fn the_monitor_matches_the_eager_fold_and_the_string_profiler(
            jobs in proptest::collection::vec(
                (
                    0u64..6,
                    0usize..4,
                    0usize..4,
                    proptest::collection::vec(
                        (0u64..4, 0u64..10, 0u32..4, 0u8..4, 0u64..5, 0usize..6),
                        1..4,
                    ),
                ),
                0..10,
            ),
            lookups in proptest::collection::vec(
                (0u32..3, 0u64..3, 0u64..4, 1usize..4, 0usize..4, 0u8..2, 0usize..6),
                0..12,
            ),
            marks in proptest::collection::vec((0u8..4, 0u64..48, 0u64..12, 0usize..4), 0..5),
            unit in (0usize..3).prop_map(|i| [1, 7, 250][i]),
        ) {
            let stream = stream(unit, &jobs, &lookups, &marks);
            for k in [0, 1, 3] {
                check(&stream, k)?;
            }
        }
    }
}

// ---- JSONL encoder ------------------------------------------------------
//
// `to_line` writes digits and escape-free strings straight into the line.
// The oracle is the encoder it replaced: `to_string` per number and a
// per-char escape loop per string. Both must agree byte for byte, and the
// lines must parse back to the event.

mod jsonl_encoder {
    use super::*;
    use decoding_divide::bqt::telemetry::jsonl::{parse_line, to_line};
    use decoding_divide::bqt::telemetry::OutcomeCode;
    use decoding_divide::bqt::{Event, EventKind};
    use decoding_divide::net::SimTime;

    /// Quotes, backslashes, JSON punctuation and multi-byte characters.
    const ALPHABET: [char; 15] = [
        'a', 'Z', '0', ' ', ',', ':', '{', '}', '"', '\\', 'é', 'ß', '€', '中', '😀',
    ];

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..ALPHABET.len(), 0..10)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    /// Any `u64`, with the edges (0, `u64::MAX`) and short numbers drawn
    /// as often as the long tail.
    fn number() -> impl Strategy<Value = u64> {
        (0u8..4, any::<u64>()).prop_map(|(pick, v)| match pick {
            0 => 0,
            1 => u64::MAX,
            2 => v % 1000,
            _ => v,
        })
    }

    /// The replaced line writer.
    struct OracleLine(String);

    impl OracleLine {
        fn new(t: u64, ev: &str) -> Self {
            let mut w = Self("{".to_string());
            w.num("t", t);
            w.str("ev", ev);
            w
        }

        fn key(&mut self, key: &str) {
            if self.0.len() > 1 {
                self.0.push(',');
            }
            self.0.push_str(&format!("\"{key}\":"));
        }

        fn num(&mut self, key: &str, v: u64) {
            self.key(key);
            self.0.push_str(&v.to_string());
        }

        fn str(&mut self, key: &str, v: &str) {
            self.key(key);
            self.0.push('"');
            for c in v.chars() {
                match c {
                    '"' => self.0.push_str("\\\""),
                    '\\' => self.0.push_str("\\\\"),
                    c => self.0.push(c),
                }
            }
            self.0.push('"');
        }

        fn boolean(&mut self, key: &str, v: bool) {
            self.key(key);
            self.0.push_str(&v.to_string());
        }

        fn finish(mut self) -> String {
            self.0.push('}');
            self.0
        }
    }

    /// One event of a kind picked by `pick`, with every field drawn from
    /// the generated numbers and strings, plus its oracle line.
    fn event_and_oracle(
        pick: u8,
        t: u64,
        [a, b, c]: [u64; 3],
        [s0, s1]: [String; 2],
        flag: bool,
    ) -> (Event, String) {
        let outcome = if flag {
            OutcomeCode::Plans
        } else {
            OutcomeCode::NoService
        };
        let (n32, c32) = (b as u32, c as u32);
        let (kind, w) = match pick % 4 {
            0 => {
                let mut w = OracleLine::new(t, "campaign_begin");
                w.num("seed", a);
                w.num("n_jobs", n32 as u64);
                w.num("n_workers", c32 as u64);
                let kind = EventKind::CampaignBegin {
                    seed: a,
                    n_jobs: n32,
                    n_workers: c32,
                };
                (kind, w)
            }
            1 => {
                let mut w = OracleLine::new(t, "attempt_end");
                w.num("tag", a);
                w.num("attempt", n32 as u64);
                w.num("worker", c32 as u64);
                w.str("endpoint", &s0);
                w.str("outcome", outcome.as_str());
                w.num("duration_ms", c);
                w.num("steps", n32 as u64);
                let kind = EventKind::AttemptEnd {
                    tag: a,
                    attempt: n32,
                    worker: c32,
                    endpoint: s0.into(),
                    outcome,
                    duration_ms: c,
                    steps: n32,
                };
                (kind, w)
            }
            2 => {
                let mut w = OracleLine::new(t, "serve_lookup_end");
                w.num("tag", a);
                w.num("shard", c32 as u64);
                w.str("endpoint", &s0);
                w.str("outcome", outcome.as_str());
                w.boolean("cache_hit", flag);
                w.num("duration_ms", b);
                let kind = EventKind::ServeLookupEnd {
                    tag: a,
                    shard: c32,
                    endpoint: s0.into(),
                    outcome,
                    cache_hit: flag,
                    duration_ms: b,
                };
                (kind, w)
            }
            _ => {
                let mut w = OracleLine::new(t, "alert_fired");
                w.str("rule", &s0);
                w.str("exemplars", &s1);
                let kind = EventKind::AlertFired {
                    rule: s0,
                    exemplars: s1,
                };
                (kind, w)
            }
        };
        let event = Event {
            at: SimTime::from_millis(t),
            kind,
        };
        (event, w.finish())
    }

    proptest! {
        #[test]
        fn to_line_matches_the_replaced_encoder_and_round_trips(
            pick in any::<u8>(),
            t in number(),
            n in (number(), number(), number()),
            s in (text(), text()),
            flag in any::<bool>(),
        ) {
            let (event, expected) = event_and_oracle(pick, t, [n.0, n.1, n.2], [s.0, s.1], flag);
            let line = to_line(&event);
            prop_assert_eq!(&line, &expected);
            prop_assert_eq!(parse_line(&line), Ok(event));
        }
    }
}

// ---- JSONL schema: every event kind -------------------------------------
//
// One event of each of the 27 kinds, its fields drawn at random: the line
// parses back to the event, and re-encoding the parsed event gives the
// same line. Strings include quotes, backslashes and control characters.

mod jsonl_schema {
    use super::*;
    use decoding_divide::bqt::telemetry::jsonl::{parse_line, to_line};
    use decoding_divide::bqt::telemetry::{FaultClass, OutcomeCode};
    use decoding_divide::bqt::{Event, EventKind, JsonlRecorder, Recorder};
    use decoding_divide::net::SimTime;
    use std::collections::BTreeSet;

    const KINDS: u8 = 27;

    const ALPHABET: [char; 13] = [
        'a', '/', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀',
    ];

    const OUTCOMES: [OutcomeCode; 6] = [
        OutcomeCode::Plans,
        OutcomeCode::NoService,
        OutcomeCode::Unserviceable,
        OutcomeCode::Blocked,
        OutcomeCode::Failed,
        OutcomeCode::Stalled,
    ];

    const FAULTS: [FaultClass; 3] = [FaultClass::Timeout, FaultClass::Reset, FaultClass::Stall];

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..ALPHABET.len(), 0..8)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    /// Any `u64`, with 0, `u64::MAX` and `u32::MAX + 1` as likely as the
    /// long tail. The `u32` fields take the low half.
    fn number() -> impl Strategy<Value = u64> {
        (0u8..4, any::<u64>()).prop_map(|(pick, v)| match pick {
            0 => 0,
            1 => u64::MAX,
            2 => 1 << 32,
            _ => v,
        })
    }

    /// The field values one event draws from.
    struct Draw {
        n: [u64; 3],
        s: [String; 2],
        flag: bool,
        outcome: OutcomeCode,
        fault: FaultClass,
    }

    /// An event of kind `pick % 27`, every field taken from `d`.
    fn kind(pick: u8, d: Draw) -> EventKind {
        let [a, b, c] = d.n;
        let (b32, c32) = (b as u32, c as u32);
        let [s0, s1] = d.s;
        let (flag, outcome, fault) = (d.flag, d.outcome, d.fault);
        match pick % KINDS {
            0 => EventKind::CampaignBegin {
                seed: a,
                n_jobs: b32,
                n_workers: c32,
            },
            1 => EventKind::CampaignEnd { makespan_ms: a },
            2 => EventKind::WorkerBegin { worker: b32 },
            3 => EventKind::WorkerEnd { worker: c32 },
            4 => EventKind::JobBegin {
                tag: a,
                endpoint: s0.into(),
            },
            5 => EventKind::JobEnd {
                tag: a,
                outcome,
                attempts: b32,
                dead_lettered: flag,
            },
            6 => EventKind::AttemptBegin {
                tag: a,
                attempt: b32,
                worker: c32,
                endpoint: s0.into(),
            },
            7 => EventKind::AttemptEnd {
                tag: a,
                attempt: b32,
                worker: c32,
                endpoint: s0.into(),
                outcome,
                duration_ms: c,
                steps: b32,
            },
            8 => EventKind::Retry {
                tag: a,
                next_attempt: b32,
                delay_ms: c,
            },
            9 => EventKind::BreakerTrip {
                endpoint: s0.into(),
            },
            10 => EventKind::BreakerDefer {
                tag: a,
                endpoint: s0.into(),
                until_ms: b,
            },
            11 => EventKind::ShedCut { limit: b32 },
            12 => EventKind::ShedRaise { limit: c32 },
            13 => EventKind::StallReclaimed {
                tag: a,
                worker: b32,
            },
            14 => EventKind::DriftSuspected {
                tag: a,
                endpoint: s0.into(),
            },
            15 => EventKind::RebootstrapStarted {
                endpoint: s0.into(),
            },
            16 => EventKind::TemplateSwapped {
                endpoint: s0.into(),
                generation: b32,
            },
            17 => EventKind::RebootstrapCompleted {
                endpoint: s0.into(),
                confidence_pct: c32,
            },
            18 => EventKind::ServeLookupEnd {
                tag: a,
                shard: b32,
                endpoint: s0.into(),
                outcome,
                cache_hit: flag,
                duration_ms: c,
            },
            19 => EventKind::CacheEvicted {
                shard: b32,
                key: s0,
            },
            20 => EventKind::ServeShed {
                shard: c32,
                endpoint: s0.into(),
            },
            21 => EventKind::JournalReplay {
                tag: a,
                attempt: b32,
            },
            22 => EventKind::FaultInjected {
                endpoint: s0.into(),
                fault,
            },
            23 => EventKind::AlertFired {
                rule: s0,
                exemplars: s1,
            },
            24 => EventKind::AlertResolved { rule: s1 },
            25 => EventKind::PageFetchBegin {
                tag: a,
                attempt: b32,
                fetch: c32,
            },
            _ => EventKind::PageFetchEnd {
                tag: a,
                attempt: b32,
                fetch: c32,
                duration_ms: b,
            },
        }
    }

    #[test]
    fn the_draw_reaches_every_kind() {
        let names: BTreeSet<&str> = (0..KINDS)
            .map(|pick| {
                let d = Draw {
                    n: [0; 3],
                    s: [String::new(), String::new()],
                    flag: false,
                    outcome: OutcomeCode::Plans,
                    fault: FaultClass::Reset,
                };
                kind(pick, d).name()
            })
            .collect();
        assert_eq!(names.len(), usize::from(KINDS));
    }

    proptest! {
        #[test]
        fn every_kind_round_trips_through_its_line(
            pick in any::<u8>(),
            t in number(),
            n in (number(), number(), number()),
            s in (text(), text()),
            flag in any::<bool>(),
            codes in (0..OUTCOMES.len(), 0..FAULTS.len()),
        ) {
            let d = Draw {
                n: [n.0, n.1, n.2],
                s: [s.0, s.1],
                flag,
                outcome: OUTCOMES[codes.0],
                fault: FAULTS[codes.1],
            };
            let event = Event {
                at: SimTime::from_millis(t),
                kind: kind(pick, d),
            };
            let line = to_line(&event);
            prop_assert!(!line.contains('\n'), "line break in {line:?}");
            let parsed = parse_line(&line);
            prop_assert_eq!(&parsed, &Ok(event));
            if let Ok(parsed) = parsed {
                prop_assert_eq!(to_line(&parsed), line);
            }
        }

        /// A recorder fed a run of events of every kind writes exactly
        /// `to_line` and a newline per event. Strings grow along the run,
        /// then drop back to empty, so long lines follow short ones and
        /// short ones follow long: a line buffer reused across events must
        /// be cleared, not appended to.
        #[test]
        fn recorder_writes_to_line_per_event(
            picks in proptest::collection::vec(any::<u8>(), 1..64),
            t in number(),
            n in (number(), number(), number()),
            s in (text(), text()),
            flag in any::<bool>(),
            codes in (0..OUTCOMES.len(), 0..FAULTS.len()),
        ) {
            let events: Vec<Event> = picks
                .iter()
                .enumerate()
                .map(|(i, &pick)| {
                    let grow = |base: &str| base.repeat(i % 9);
                    let d = Draw {
                        n: [n.0.rotate_left(i as u32), n.1, n.2 >> (i % 64)],
                        s: [grow(&s.0), grow(&s.1)],
                        flag: flag ^ (i % 2 == 0),
                        outcome: OUTCOMES[(codes.0 + i) % OUTCOMES.len()],
                        fault: FAULTS[(codes.1 + i) % FAULTS.len()],
                    };
                    Event {
                        at: SimTime::from_millis(t.wrapping_add(i as u64)),
                        kind: kind(pick.wrapping_add(i as u8), d),
                    }
                })
                .collect();
            let mut rec = JsonlRecorder::new(Vec::new());
            let mut want = Vec::new();
            for event in &events {
                rec.record(event);
                want.extend_from_slice(to_line(event).as_bytes());
                want.push(b'\n');
            }
            prop_assert_eq!(rec.written(), events.len() as u64);
            prop_assert_eq!(rec.into_inner(), want);
        }
    }

    /// Every kind in turn, each once with long strings and then with empty
    /// ones: the long line's bytes must not leak into the short line after.
    #[test]
    fn recorder_lines_do_not_carry_over() {
        let mut rec = JsonlRecorder::new(Vec::new());
        let mut want = Vec::new();
        for pick in 0..KINDS {
            for len in [40u8, 0, 3] {
                let d = Draw {
                    n: [u64::MAX >> len, u64::from(len), 7],
                    s: [
                        "\"x\\".repeat(usize::from(len)),
                        "é".repeat(usize::from(len)),
                    ],
                    flag: len > 0,
                    outcome: OutcomeCode::Unserviceable,
                    fault: FaultClass::Stall,
                };
                let event = Event {
                    at: SimTime::from_millis(u64::from(len)),
                    kind: kind(pick, d),
                };
                rec.record(&event);
                want.extend_from_slice(to_line(&event).as_bytes());
                want.push(b'\n');
            }
        }
        assert_eq!(rec.written(), u64::from(KINDS) * 3);
        assert_eq!(rec.into_inner(), want);
    }
}

// ---- scrape: V2 detection totality (the drift premise) -----------------
//
// The self-healing drift machinery rests on two facts about the template
// generations: the detectors are total (no page, however mangled, panics
// them), and the generations are mutually invisible (a V2 page recognizes
// under no V1 template, which is exactly what the drift monitor counts).

mod v2_detect {
    use super::*;
    use decoding_divide::bat::{templates, Dialect, TemplateVersion};
    use decoding_divide::bqt::scrape::{detect, detect_with};
    use decoding_divide::bqt::{learn_template_set, DetectedPage, TemplateSet, GENERATIONS};
    use decoding_divide::isp::{catalog, Plan, Tech, ALL_ISPS};

    const DIALECTS: [Dialect; 3] = [Dialect::DataAttr, Dialect::TableRow, Dialect::ListItem];

    fn plan(down: u32, up: u32, cents: u32) -> Plan {
        Plan::new(
            f64::from(down),
            f64::from(up),
            f64::from(cents) / 100.0,
            Tech::Fiber,
        )
    }

    proptest! {
        /// Every bootstrapped generation's detector is total: arbitrary
        /// source-shaped text never panics any dialect's parser.
        #[test]
        fn detect_never_panics_on_arbitrary_text(text in "[ -~\\n]{0,512}") {
            for ts in GENERATIONS {
                for d in DIALECTS {
                    let _ = detect_with(ts, &text, d);
                }
            }
        }

        /// Splicing a real marker into garbage hits the deeper scanner
        /// paths (truncated spans, missing closers); still total, and a
        /// lone marker never fabricates plans.
        #[test]
        fn detect_never_panics_on_marker_spliced_garbage(
            prefix in "[ -~]{0,64}",
            suffix in "[ -~\\n]{0,256}",
            which in 0usize..10,
        ) {
            const MARKERS: [&str; 10] = [
                "class=\"oops\"",
                "class=\"error-page\"",
                "class=\"mdu-prompt\"",
                "class=\"unit-prompt\"",
                "class=\"address-error\"",
                "class=\"addr-missing\"",
                "data-down=\"",
                "data-dl=\"",
                "<td class=\"dl\">",
                "<span class=\"down\">",
            ];
            let page = format!("{prefix}{}{suffix}", MARKERS[which]);
            for ts in GENERATIONS {
                for d in DIALECTS {
                    if let DetectedPage::Plans(plans) = detect_with(ts, &page, d) {
                        prop_assert!(!plans.is_empty(), "Plans is never empty");
                    }
                }
            }
        }

        /// Redesigned plan pages roundtrip bit-exact under the V2 set in
        /// every ISP's dialect — and recognize under no V1 template, which
        /// is the sighting the drift monitor feeds on.
        #[test]
        fn v2_plan_pages_roundtrip_under_v2_and_hide_from_v1(
            specs in proptest::collection::vec(
                (1u32..=10_000, 1u32..=1_000, 100u32..=99_999),
                1..6,
            ),
        ) {
            let plans: Vec<Plan> = specs.iter().map(|&(d, u, c)| plan(d, u, c)).collect();
            for isp in ALL_ISPS {
                let dialect = templates::dialect_of(isp);
                let page = templates::render_plans_v(isp, &plans, TemplateVersion::V2);
                match detect_with(TemplateSet::v2(), &page, dialect) {
                    DetectedPage::Plans(scraped) => {
                        prop_assert_eq!(scraped.len(), plans.len());
                        for (s, p) in scraped.iter().zip(&plans) {
                            prop_assert_eq!(s.download_mbps, p.download_mbps);
                            prop_assert_eq!(s.upload_mbps, p.upload_mbps);
                            prop_assert_eq!(s.price_usd, p.price_usd);
                        }
                    }
                    other => panic!("{isp}: expected plans, got {other:?}"),
                }
                prop_assert_eq!(detect(&page, dialect), DetectedPage::Unrecognized);
            }
        }

        /// Every redesigned non-plan template classifies correctly under
        /// the V2 set — suggestions and units in page order — and stays
        /// invisible to the V1 bootstrap, for every ISP.
        #[test]
        fn v2_non_plan_pages_classify_under_v2_and_hide_from_v1(
            names in proptest::collection::vec("[A-Za-z0-9 ]{1,24}", 1..5),
        ) {
            let trimmed: Vec<String> = names.iter().map(|s| s.trim().to_string()).collect();
            let v2 = TemplateVersion::V2;
            for isp in ALL_ISPS {
                let dialect = templates::dialect_of(isp);
                let cases = [
                    (
                        templates::render_not_found_v(isp, &names, v2),
                        DetectedPage::AddressNotFound(trimmed.clone()),
                    ),
                    (
                        templates::render_mdu_v(isp, &names, v2),
                        DetectedPage::MultiDwellingUnit(trimmed.clone()),
                    ),
                    (
                        templates::render_existing_customer_v(isp, v2),
                        DetectedPage::ExistingCustomer,
                    ),
                    (templates::render_no_service_v(isp, v2), DetectedPage::NoService),
                    (
                        templates::render_technical_difficulty_v(isp, v2),
                        DetectedPage::TechnicalDifficulty,
                    ),
                ];
                for (page, expected) in cases {
                    prop_assert_eq!(detect_with(TemplateSet::v2(), &page, dialect), expected);
                    prop_assert_eq!(detect(&page, dialect), DetectedPage::Unrecognized);
                }
            }
        }

        /// Any probe burst holding at least one V2 page — at any junk
        /// dilution — learns generation 2, with confidence exactly the
        /// recognized fraction. This is the re-bootstrap's correctness on
        /// noisy bursts.
        #[test]
        fn learning_picks_generation_2_from_any_mixed_v2_burst(
            isp_i in 0usize..7,
            picks in proptest::collection::vec(0usize..3, 1..6),
            n_junk in 0usize..5,
        ) {
            let isp = ALL_ISPS[isp_i];
            let dialect = templates::dialect_of(isp);
            let v2 = TemplateVersion::V2;
            let pages: Vec<String> = picks
                .iter()
                .map(|&k| match k {
                    0 => templates::render_plans_v(isp, catalog(isp), v2),
                    1 => templates::render_no_service_v(isp, v2),
                    _ => templates::render_not_found_v(isp, &["1 Oak St".into()], v2),
                })
                .chain((0..n_junk).map(|i| format!("<html>junk {i}</html>")))
                .collect();
            let learned = learn_template_set(&pages, dialect).expect("non-empty burst");
            prop_assert_eq!(learned.generation, 2);
            prop_assert_eq!(learned.templates, TemplateSet::v2());
            let expected = picks.len() as f64 / pages.len() as f64;
            prop_assert!((learned.confidence - expected).abs() < 1e-12, "{isp}");
        }
    }
}

/// The address and page formatters write into one buffer; these are the
/// `format!`-based implementations they replaced, kept as references the
/// new output must equal byte for byte.
mod formatter_oracles {
    use super::*;
    use decoding_divide::address::{render_noisy, NoiseProfile, StreetAddress};
    use decoding_divide::bat::templates::{
        dialect_of, render_existing_customer_v, render_mdu_v, render_no_service_v,
        render_not_found_v, render_plans_v, render_technical_difficulty_v,
    };
    use decoding_divide::bat::{Dialect, TemplateVersion};
    use decoding_divide::isp::{catalog, Isp, Plan, Tech, ALL_ISPS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn old_canonical_line(a: &StreetAddress) -> String {
        let mut s = format!("{} ", a.number);
        if let Some(d) = a.directional {
            s.push_str(d.abbrev());
            s.push(' ');
        }
        s.push_str(&a.street_name);
        s.push(' ');
        s.push_str(a.suffix.abbrev());
        if let Some(u) = &a.unit {
            s.push_str(" Apt ");
            s.push_str(u);
        }
        s.push_str(&format!(", {}, {} {:05}", a.city, a.state, a.zip));
        s
    }

    fn old_mangle_case(rng: &mut StdRng, token: &str) -> String {
        match rng.gen_range(0..3u8) {
            0 => token.to_ascii_uppercase(),
            1 => token.to_ascii_lowercase(),
            _ => token.to_string(),
        }
    }

    fn old_inject_typo(rng: &mut StdRng, word: &str) -> String {
        let chars: Vec<char> = word.chars().collect();
        if chars.len() < 3 {
            return word.to_string();
        }
        let i = rng.gen_range(1..chars.len() - 1);
        let mut out = chars.clone();
        match rng.gen_range(0..3u8) {
            0 => {
                out.remove(i);
            }
            1 => {
                out.insert(i, chars[i]);
            }
            _ => {
                out.swap(i, i - 1);
            }
        }
        out.into_iter().collect()
    }

    fn old_render_noisy(addr: &StreetAddress, profile: &NoiseProfile, seed: u64) -> String {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0153);
        let mut street_name = addr.street_name.to_string();
        if rng.gen_bool(profile.p_typo) {
            street_name = old_inject_typo(&mut rng, &street_name);
        }
        if rng.gen_bool(profile.p_case_mangle) {
            street_name = old_mangle_case(&mut rng, &street_name);
        }
        let suffix_text = if rng.gen_bool(profile.p_suffix_variant) {
            let variants = suffix_variants(addr.suffix);
            let v = variants[rng.gen_range(0..variants.len())];
            let mut c = v.chars();
            match c.next() {
                Some(f) => f.to_ascii_uppercase().to_string() + c.as_str(),
                None => String::new(),
            }
        } else {
            addr.suffix.abbrev().to_string()
        };
        let suffix_text = if rng.gen_bool(profile.p_case_mangle) {
            old_mangle_case(&mut rng, &suffix_text)
        } else {
            suffix_text
        };
        let dir_text = addr.directional.map(|d| {
            if rng.gen_bool(profile.p_suffix_variant) {
                let variants = directional_variants(d);
                variants[rng.gen_range(0..variants.len())].to_ascii_uppercase()
            } else {
                d.abbrev().to_string()
            }
        });
        let unit_text = match &addr.unit {
            Some(u) if !rng.gen_bool(profile.p_drop_unit) => {
                let marker = if rng.gen_bool(profile.p_alt_unit_marker) {
                    ["Unit", "#"][rng.gen_range(0..2)]
                } else {
                    "Apt"
                };
                Some(format!("{marker} {u}"))
            }
            _ => None,
        };
        let mut line = format!("{} ", addr.number);
        if let Some(d) = dir_text {
            line.push_str(&d);
            line.push(' ');
        }
        line.push_str(&street_name);
        line.push(' ');
        line.push_str(&suffix_text);
        if let Some(u) = unit_text {
            line.push(' ');
            line.push_str(&u);
        }
        line.push_str(&format!(", {}, {} {:05}", addr.city, addr.state, addr.zip));
        line
    }

    fn old_page_shell(isp: Isp, body: String) -> String {
        format!(
            "<html><head><title>{} Availability</title></head>\n<body>\n{}\n</body></html>",
            isp.name(),
            body
        )
    }

    fn old_render_plans_v(isp: Isp, plans: &[Plan], version: TemplateVersion) -> String {
        let body = match (dialect_of(isp), version) {
            (Dialect::DataAttr, TemplateVersion::V1) => {
                let cards: String = plans
                    .iter()
                    .map(|p| {
                        format!(
                            "  <div class=\"plan\" data-down=\"{}\" data-up=\"{}\" data-price=\"{}\">Internet {}</div>\n",
                            p.download_mbps, p.upload_mbps, p.price_usd, p.download_mbps
                        )
                    })
                    .collect();
                format!("<section id=\"availability-results\">\n{cards}</section>")
            }
            (Dialect::DataAttr, TemplateVersion::V2) => {
                let cards: String = plans
                    .iter()
                    .map(|p| {
                        format!(
                            "  <article class=\"offer-card\" data-dl=\"{}\" data-ul=\"{}\" data-usd=\"{}\">Internet {}</article>\n",
                            p.download_mbps, p.upload_mbps, p.price_usd, p.download_mbps
                        )
                    })
                    .collect();
                format!("<section id=\"svc-results\">\n{cards}</section>")
            }
            (Dialect::TableRow, TemplateVersion::V1) => {
                let rows: String = plans
                    .iter()
                    .map(|p| {
                        format!(
                            "  <tr class=\"offer\"><td class=\"down\">{} Mbps</td><td class=\"up\">{} Mbps</td><td class=\"price\">${}/mo</td></tr>\n",
                            p.download_mbps, p.upload_mbps, p.price_usd
                        )
                    })
                    .collect();
                format!("<table class=\"offers\">\n{rows}</table>")
            }
            (Dialect::TableRow, TemplateVersion::V2) => {
                let rows: String = plans
                    .iter()
                    .map(|p| {
                        format!(
                            "  <tr class=\"tier\"><td class=\"dl\">{} Mbps</td><td class=\"ul\">{} Mbps</td><td class=\"cost\">${}/mo</td></tr>\n",
                            p.download_mbps, p.upload_mbps, p.price_usd
                        )
                    })
                    .collect();
                format!("<table class=\"tiers\">\n{rows}</table>")
            }
            (Dialect::ListItem, TemplateVersion::V1) => {
                let items: String = plans
                    .iter()
                    .map(|p| {
                        format!(
                            "  <li class=\"pkg\"><span class=\"mbps\">{}</span><span class=\"upload\">{}</span><span class=\"usd\">{}</span></li>\n",
                            p.download_mbps, p.upload_mbps, p.price_usd
                        )
                    })
                    .collect();
                format!("<ul class=\"packages\">\n{items}</ul>")
            }
            (Dialect::ListItem, TemplateVersion::V2) => {
                let items: String = plans
                    .iter()
                    .map(|p| {
                        format!(
                            "  <li class=\"bundle\"><span class=\"down\">{}</span><span class=\"up\">{}</span><span class=\"price\">{}</span></li>\n",
                            p.download_mbps, p.upload_mbps, p.price_usd
                        )
                    })
                    .collect();
                format!("<ul class=\"bundles\">\n{items}</ul>")
            }
        };
        old_page_shell(isp, body)
    }

    fn old_render_not_found_v(
        isp: Isp,
        suggestions: &[String],
        version: TemplateVersion,
    ) -> String {
        let (marker, item) = match version {
            TemplateVersion::V1 => ("address-error", "suggestion"),
            TemplateVersion::V2 => ("addr-missing", "addr-option"),
        };
        let items: String = suggestions
            .iter()
            .map(|s| format!("  <li class=\"{item}\">{s}</li>\n"))
            .collect();
        let body = format!(
            "<div class=\"{marker}\">We could not verify that address.</div>\n<ul class=\"options\">\n{items}</ul>"
        );
        old_page_shell(isp, body)
    }

    fn old_render_mdu_v(isp: Isp, units: &[String], version: TemplateVersion) -> String {
        let (marker, item) = match version {
            TemplateVersion::V1 => ("mdu-prompt", "unit"),
            TemplateVersion::V2 => ("unit-prompt", "unit-option"),
        };
        let items: String = units
            .iter()
            .map(|u| format!("  <li class=\"{item}\">{u}</li>\n"))
            .collect();
        let body = format!(
            "<div class=\"{marker}\">This address has multiple units.</div>\n<ul class=\"units\">\n{items}</ul>"
        );
        old_page_shell(isp, body)
    }

    fn old_render_existing_customer_v(isp: Isp, version: TemplateVersion) -> String {
        let body = match version {
            TemplateVersion::V1 => {
                "<div class=\"existing-customer\">An active account exists at this address.</div>\n\
             <a id=\"change-plan\" href=\"/login\">Change my plan</a>\n\
             <a id=\"add-service\" href=\"/login\">Add a service</a>\n\
             <a id=\"new-customer\" href=\"/new\">I'm a new resident - view plans</a>"
            }
            TemplateVersion::V2 => {
                "<div class=\"current-customer\">An active account exists at this address.</div>\n\
             <a id=\"manage\" href=\"/login\">Manage my plan</a>\n\
             <a id=\"shop-new\" href=\"/new\">I'm a new resident - shop plans</a>"
            }
        }
        .to_string();
        old_page_shell(isp, body)
    }

    fn old_render_no_service_v(isp: Isp, version: TemplateVersion) -> String {
        let marker = match version {
            TemplateVersion::V1 => "no-service",
            TemplateVersion::V2 => "not-serviceable",
        };
        old_page_shell(
            isp,
            format!(
                "<div class=\"{marker}\">We do not offer internet service at this address.</div>"
            ),
        )
    }

    fn old_render_technical_difficulty_v(isp: Isp, version: TemplateVersion) -> String {
        let marker = match version {
            TemplateVersion::V1 => "oops",
            TemplateVersion::V2 => "error-page",
        };
        old_page_shell(
            isp,
            format!("<div class=\"{marker}\">We are experiencing technical difficulties. Please call us.</div>"),
        )
    }

    const VERSIONS: [TemplateVersion; 2] = [TemplateVersion::V1, TemplateVersion::V2];

    /// Every noise channel fires often, so every draw branch is exercised.
    fn loud() -> NoiseProfile {
        NoiseProfile {
            p_suffix_variant: 0.5,
            p_case_mangle: 0.5,
            p_typo: 0.5,
            p_drop_unit: 0.5,
            p_alt_unit_marker: 0.5,
        }
    }

    /// One plan number, drawn from every class the row writer treats
    /// differently.
    fn plan_number() -> impl Strategy<Value = f64> {
        const EDGES: [f64; 12] = [
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1e-7,
            1e21,
            999_999_999_999.99,
            1e12,
            1e12 + 0.25,
            0.1 + 0.2,
            f64::MAX,
        ];
        (0u8..9, any::<u64>(), any::<f64>()).prop_map(|(pick, bits, unit)| match pick {
            0 => (bits % 100_000) as f64,
            1 => (bits % 10_000_000) as f64 / 100.0,
            2 => (bits % 100_000) as f64 / 10.0,
            3 => f64::from_bits(bits),
            4 => f64::from_bits(bits % (1 << 52)),
            5 => EDGES[(bits % EDGES.len() as u64) as usize],
            6 => -((bits % 100_000) as f64) / 100.0,
            7 => unit * 10f64.powi((bits % 30) as i32 - 8),
            _ => (bits % 100_000_000_000_000) as f64 / 100.0,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn address(
        number: u32,
        dir: Option<usize>,
        street_name: String,
        suffix: usize,
        unit: Option<String>,
        city: String,
        state: String,
        zip: u32,
    ) -> StreetAddress {
        // An address's city and state are static; each case leaks the
        // few bytes it draws.
        StreetAddress {
            number,
            directional: dir.map(|d| Directional::ALL[d]),
            street_name: street_name.into(),
            suffix: Suffix::ALL[suffix],
            unit,
            city: city.leak(),
            state: state.leak(),
            zip,
        }
    }

    proptest! {
        /// Canonical and noisy lines over generated addresses, with and
        /// without a directional and a unit, zips below 10000 included,
        /// under three noise profiles and many seeds.
        #[test]
        fn address_lines_match_the_format_oracles(
            number in 0u32..200_000,
            dir in proptest::option::of(0usize..8),
            street_name in "([A-Za-z]|[0-9]|é|ß|Ω| ){1,14}",
            suffix in 0usize..12,
            unit in proptest::option::of("[0-9A-Z]{1,3}"),
            city in "[A-Z][a-z]{2,8}( [A-Z][a-z]{2,8})?",
            state in "[A-Z]{2}",
            zip in proptest::option::of(0u32..100_000),
            small_zip in 0u32..10_000,
            seed in any::<u64>(),
        ) {
            let a = address(number, dir, street_name, suffix, unit, city, state, zip.unwrap_or(small_zip));
            prop_assert_eq!(a.canonical_line(), old_canonical_line(&a));
            let with_unit = StreetAddress { unit: Some("12B".to_string()), ..a.clone() };
            prop_assert_eq!(a.canonical_line_with_unit(Some("12B")), old_canonical_line(&with_unit));
            for profile in [NoiseProfile::clean(), NoiseProfile::zillow_like(), loud()] {
                for k in 0..16u64 {
                    let s = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let line = render_noisy(&a, &profile, s);
                    prop_assert_eq!(&line, &old_render_noisy(&a, &profile, s));
                    prop_assert_eq!(line.capacity(), line.len());
                }
            }
        }

        /// Plans pages over catalog subsets (the empty one included) and
        /// arbitrary plans, for every ISP and template generation.
        #[test]
        fn plans_pages_match_the_format_oracle(
            mask in any::<u32>(),
            extra in proptest::collection::vec((0u32..5000, 0u32..2000, 0u32..100_000), 0..4),
        ) {
            for isp in ALL_ISPS {
                let mut plans: Vec<Plan> = catalog(isp)
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> (i % 32) & 1 == 1)
                    .map(|(_, p)| *p)
                    .collect();
                for &(down, up, cents) in &extra {
                    plans.push(Plan::new(f64::from(down) / 10.0, f64::from(up), f64::from(cents) / 100.0, Tech::Cable));
                }
                for version in VERSIONS {
                    prop_assert_eq!(render_plans_v(isp, &plans, version), old_render_plans_v(isp, &plans, version));
                    prop_assert_eq!(render_plans_v(isp, &[], version), old_render_plans_v(isp, &[], version));
                }
            }
        }


        /// Plan rows over every kind of `f64` a plan could carry:
        /// integers, cents, tenths, raw bit patterns, `-0.0`, NaN, ±inf,
        /// subnormals, tiny and huge magnitudes, and values on either side
        /// of the 1e12 cut-off of the cents writer.
        #[test]
        fn plan_rows_match_the_format_oracle_for_any_number(
            rows in proptest::collection::vec((plan_number(), plan_number(), plan_number()), 0..6),
        ) {
            let plans: Vec<Plan> = rows
                .iter()
                .map(|&(down, up, price)| Plan::new(down, up, price, Tech::Fiber))
                .collect();
            for isp in ALL_ISPS {
                for version in VERSIONS {
                    prop_assert_eq!(render_plans_v(isp, &plans, version), old_render_plans_v(isp, &plans, version));
                }
            }
        }

        /// Not-found pages with 0–5 suggestions and MDU pages with 2–12
        /// units, plus the fixed pages, for every ISP and generation.
        #[test]
        fn list_and_fixed_pages_match_the_format_oracles(
            suggestions in proptest::collection::vec("[0-9]{1,5} [A-Za-z ]{1,12}, [A-Z][a-z]{2,8}, [A-Z]{2} [0-9]{5}", 0..=5),
            units in proptest::collection::vec("[0-9]{1,4} [A-Za-z]{1,10} Apt [0-9A-Z]{1,3}", 2..=12),
        ) {
            for isp in ALL_ISPS {
                for version in VERSIONS {
                    prop_assert_eq!(
                        render_not_found_v(isp, &suggestions, version),
                        old_render_not_found_v(isp, &suggestions, version)
                    );
                    prop_assert_eq!(render_mdu_v(isp, &units, version), old_render_mdu_v(isp, &units, version));
                    prop_assert_eq!(
                        render_existing_customer_v(isp, version),
                        old_render_existing_customer_v(isp, version)
                    );
                    prop_assert_eq!(render_no_service_v(isp, version), old_render_no_service_v(isp, version));
                    prop_assert_eq!(
                        render_technical_difficulty_v(isp, version),
                        old_render_technical_difficulty_v(isp, version)
                    );
                }
            }
        }
    }
}

// Non-proptest cross-crate invariants that complete the suite.

#[test]
fn noisy_rendering_matches_back_to_its_own_canonical_form() {
    use decoding_divide::address::matching::{best_match, Measure};
    use decoding_divide::address::{render_noisy, NoiseProfile};
    use decoding_divide::census::city_by_name;
    use decoding_divide::isp::CityWorld;

    // For a sample of real inventory addresses, the noisy listing must match
    // its own canonical line better than any sibling on the same street.
    let world = CityWorld::build(city_by_name("Fargo").expect("study city"));
    let db = world.addresses();
    let mut correct = 0;
    let mut total = 0;
    for r in db.records().iter().take(300) {
        let noisy = render_noisy(&r.canonical(), &NoiseProfile::zillow_like(), r.id as u64);
        // The record itself plus up to seven same-block siblings.
        let mut candidates: Vec<String> = db
            .in_block_group(r.bg_index())
            .iter()
            .filter(|&&i| db.records()[i].id != r.id)
            .take(7)
            .map(|&i| db.records()[i].canonical_line())
            .collect();
        candidates.push(r.canonical_line());
        let truth_idx = candidates.len() - 1;
        total += 1;
        if let Some((idx, _)) = best_match(Measure::TokenSort, &noisy, &candidates, 0.5) {
            if idx == truth_idx {
                correct += 1;
            }
        }
    }
    assert!(total > 200);
    assert!(
        correct as f64 / total as f64 > 0.9,
        "matcher picked the right sibling only {correct}/{total} times"
    );
}

// ---- address curation: generation, index keys and the matcher against --
// ---- the implementations they replaced ---------------------------------
//
// `AddressDb::generate` used to render every record's canonical line and
// normalize it to key the uniqueness check, and `best_match` normalized
// both sides of every comparison (token-sort twice). Both loops are kept
// here verbatim as oracles: the records, the index and every score must
// come out bit for bit the same.

mod curation_oracles {
    use super::*;
    use decoding_divide::address::matching::{best_match, Measure};
    use decoding_divide::address::{
        render_noisy, AddressDb, AddressId, AddressRecord, NoiseProfile, StreetAddress, StreetNamer,
    };
    use decoding_divide::census::{city_by_name, city_seed, CityProfile};
    use decoding_divide::geo::CityGrid;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// The generation loop before index keys were built from address
    /// parts: uniqueness keyed on `normalize_line(canonical_line())`, and
    /// each record owning its city, state, street name and unit strings.
    fn old_generate(city: &CityProfile, grid: &CityGrid, noise: &NoiseProfile) -> Vec<OldRecord> {
        let seed = city_seed(city.name);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xADD3);
        let mut namer = StreetNamer::new(seed);
        let n_bg = grid.len();
        let mean_per_bg = (city.street_addresses() as f64 / n_bg as f64).max(4.0);
        let mut records: Vec<OldRecord> = Vec::new();
        let mut taken: HashSet<String> = HashSet::new();
        for bg in 0..n_bg {
            let count = (mean_per_bg * rng.gen_range(0.5..1.5)).round().max(2.0) as usize;
            let zip = city.zip_prefix as u32 * 100 + (bg as u32 / 12) % 100;
            let n_streets = rng.gen_range(3..=7).min(count.max(1));
            let streets: Vec<_> = (0..n_streets).map(|_| namer.next_street()).collect();
            for k in 0..count {
                let (directional, street_name, suffix) = streets[k % n_streets].clone();
                let mut canonical = StreetAddress {
                    number: 100
                        + (k / n_streets) as u32 * rng.gen_range(2..8)
                        + rng.gen_range(0..2) as u32,
                    directional,
                    street_name: street_name.into(),
                    suffix,
                    unit: None,
                    city: city.name,
                    state: city.state,
                    zip,
                };
                while !taken.insert(normalize_line(&canonical.canonical_line())) {
                    canonical.number += rng.gen_range(1..5);
                }
                let id = records.len() as AddressId;
                let is_mdu = rng.gen_bool(0.10);
                let units: Vec<String> = if is_mdu {
                    let n_units = rng.gen_range(2..=12);
                    (1..=n_units).map(|u| u.to_string()).collect()
                } else {
                    Vec::new()
                };
                let listing_line = render_noisy(&canonical, noise, seed ^ (id as u64) << 8);
                records.push(OldRecord {
                    id,
                    canonical,
                    bg_index: bg,
                    is_mdu,
                    units,
                    listing_line,
                });
            }
        }
        records
    }

    /// A record as the old loop built it: every MDU unit its own string.
    struct OldRecord {
        id: AddressId,
        canonical: StreetAddress,
        bg_index: usize,
        is_mdu: bool,
        units: Vec<String>,
        listing_line: String,
    }

    /// Asserts `new` renders exactly what `old` does: id, block group,
    /// house number, canonical and listing lines, MDU flag and every
    /// unit's canonical line, in order.
    fn assert_same_record(new: &AddressRecord, old: &OldRecord, city: &str) {
        assert_eq!(new.id, old.id, "{city}");
        assert_eq!(new.bg_index(), old.bg_index, "{city} #{}", old.id);
        assert_eq!(
            new.canonical().number,
            old.canonical.number,
            "{city} #{}",
            old.id
        );
        assert_eq!(
            new.canonical_line(),
            old.canonical.canonical_line(),
            "{city} #{}",
            old.id
        );
        assert_eq!(
            new.canonical().canonical_line(),
            old.canonical.canonical_line(),
            "{city} #{}",
            old.id
        );
        assert_eq!(new.listing_line, old.listing_line, "{city} #{}", old.id);
        assert_eq!(new.is_mdu(), old.is_mdu, "{city} #{}", old.id);
        let new_units: Vec<String> = (1..=new.unit_count())
            .map(|u| {
                let mut line = String::new();
                new.push_unit_line(u, &mut line);
                line
            })
            .collect();
        let old_units: Vec<String> = old
            .units
            .iter()
            .map(|u| old.canonical.canonical_line_with_unit(Some(u)))
            .collect();
        assert_eq!(new_units, old_units, "{city} #{}", old.id);
    }

    /// Every record (numbers, listing lines and unit lines included)
    /// renders as the render-then-normalize loop's does, and the index
    /// holds exactly one key per record: each canonical line, normalized,
    /// looks up its own id.
    /// With `len() == records`, that makes every stored key equal to
    /// `normalize_line(canonical_line())`.
    #[test]
    fn generated_records_and_index_keys_match_the_oracle() {
        for name in ["Billings", "Fargo", "Chicago"] {
            let city = city_by_name(name).expect("study city");
            let grid = city.grid();
            let noise = NoiseProfile::zillow_like();
            let db = AddressDb::generate(city, &grid, &noise);
            let old = old_generate(city, &grid, &noise);
            assert_eq!(db.len(), old.len(), "{name}");
            for (new, old) in db.records().iter().zip(&old) {
                assert_same_record(new, old, name);
            }
            assert_eq!(db.index().len(), db.len(), "{name}");
            for r in db.records() {
                let mut key = normalize_line(&r.canonical_line());
                assert_eq!(
                    db.index().lookup_normalized_allowing_unit(&mut key),
                    Some(r.id),
                    "{name}"
                );
            }
        }
    }

    // Today's scorers, verbatim.

    fn old_levenshtein(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
        let mut row: Vec<usize> = (0..=b.len()).collect();
        for (i, &ca) in a.iter().enumerate() {
            let mut prev_diag = row[0];
            row[0] = i + 1;
            for (j, &cb) in b.iter().enumerate() {
                let cost = if ca == cb { 0 } else { 1 };
                let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
                prev_diag = row[j + 1];
                row[j + 1] = next;
            }
        }
        row[b.len()]
    }

    fn old_levenshtein_similarity(a: &str, b: &str) -> f64 {
        let max = a.chars().count().max(b.chars().count());
        if max == 0 {
            return 1.0;
        }
        1.0 - old_levenshtein(a, b) as f64 / max as f64
    }

    fn old_jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; b.len()];
        let mut matches = 0usize;
        let mut a_matched: Vec<char> = Vec::new();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == ca {
                    b_used[j] = true;
                    matches += 1;
                    a_matched.push(ca);
                    break;
                }
            }
        }
        if matches == 0 {
            return 0.0;
        }
        let b_matched: Vec<char> = b
            .iter()
            .zip(b_used.iter())
            .filter(|&(_, &u)| u)
            .map(|(&c, _)| c)
            .collect();
        let transpositions = a_matched
            .iter()
            .zip(b_matched.iter())
            .filter(|(x, y)| x != y)
            .count()
            / 2;
        let m = matches as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    }

    fn old_jaro_winkler(a: &str, b: &str) -> f64 {
        let j = old_jaro(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count();
        j + prefix as f64 * 0.1 * (1.0 - j)
    }

    fn old_token_sort_similarity(a: &str, b: &str) -> f64 {
        let mut ta: Vec<String> = normalize_line(a).split(' ').map(str::to_string).collect();
        let mut tb: Vec<String> = normalize_line(b).split(' ').map(str::to_string).collect();
        ta.sort();
        tb.sort();
        old_levenshtein_similarity(&ta.join(" "), &tb.join(" "))
    }

    fn old_similarity(measure: Measure, input: &str, candidate: &str) -> f64 {
        let a = normalize_line(input);
        let b = normalize_line(candidate);
        match measure {
            Measure::Levenshtein => old_levenshtein_similarity(&a, &b),
            Measure::JaroWinkler => old_jaro_winkler(&a, &b),
            Measure::TokenSort => old_token_sort_similarity(&a, &b),
        }
    }

    fn old_best_match(
        measure: Measure,
        input: &str,
        candidates: &[String],
        threshold: f64,
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in candidates.iter().enumerate() {
            let s = old_similarity(measure, input, c);
            if s >= threshold && best.is_none_or(|(_, bs)| s > bs) {
                best = Some((i, s));
            }
        }
        best
    }

    const MEASURES: [Measure; 3] = [
        Measure::Levenshtein,
        Measure::JaroWinkler,
        Measure::TokenSort,
    ];

    /// A suggestion-list string: a variant of the true address (noisy,
    /// renumbered, reordered or with a duplicated token), or free text
    /// with `#`, unit markers, punctuation and non-ASCII characters, or
    /// nothing at all.
    fn variant(a: &StreetAddress, pick: u8, seed: u64, junk: &str) -> String {
        let line = a.canonical_line();
        match pick {
            0 => line,
            1 => render_noisy(a, &loud(), seed),
            2 => StreetAddress {
                number: a.number + 1 + (seed % 7) as u32,
                ..a.clone()
            }
            .canonical_line(),
            3 => line.split(' ').rev().collect::<Vec<_>>().join(" "),
            4 => {
                let first = line.split(' ').nth(1).unwrap_or_default().to_string();
                format!("{line} {first} {first}")
            }
            5 => format!("{line} {junk}"),
            6 => junk.to_string(),
            _ => String::new(),
        }
    }

    fn loud() -> NoiseProfile {
        NoiseProfile {
            p_suffix_variant: 0.5,
            p_case_mangle: 0.5,
            p_typo: 0.5,
            p_drop_unit: 0.5,
            p_alt_unit_marker: 0.5,
        }
    }

    proptest! {
        /// `best_match` gives the oracle's winner and the oracle's score,
        /// bit for bit, for all three measures, and over a one-candidate
        /// list each candidate's own score.
        #[test]
        fn matcher_scores_match_the_oracle_bit_for_bit(
            number in 1u32..20_000,
            dir in proptest::option::of(0usize..8),
            street_name in "([A-Za-z]|é|ß|中| ){1,12}",
            suffix in 0usize..12,
            unit in proptest::option::of("[0-9A-Z]{1,3}"),
            zip in 0u32..100_000,
            input_pick in 0u8..8,
            picks in proptest::collection::vec(0u8..8, 0..7),
            junk in "([A-Za-z0-9]|#|,|\\.|é|ß|Ω|中| |Apt|Unit|Suite|Avenue){0,14}",
            seed in any::<u64>(),
        ) {
            let a = StreetAddress {
                number,
                directional: dir.map(|d| Directional::ALL[d]),
                street_name: street_name.into(),
                suffix: Suffix::ALL[suffix],
                unit,
                city: "Fargo",
                state: "ND",
                zip,
            };
            let input = variant(&a, input_pick % 7 + 1, seed, &junk);
            let candidates: Vec<String> = picks
                .iter()
                .enumerate()
                .map(|(i, &p)| variant(&a, p, seed.wrapping_add(i as u64), &junk))
                .collect();
            for measure in MEASURES {
                for c in &candidates {
                    let alone = best_match(measure, &input, std::slice::from_ref(c), 0.0);
                    prop_assert_eq!(
                        alone.map(|(i, s)| (i, s.to_bits())),
                        Some((0, old_similarity(measure, &input, c).to_bits()))
                    );
                }
                for threshold in [0.0, 0.5, 0.8, 1.0] {
                    let got = best_match(measure, &input, &candidates, threshold);
                    let want = old_best_match(measure, &input, &candidates, threshold);
                    prop_assert_eq!(got.map(|(i, s)| (i, s.to_bits())), want.map(|(i, s)| (i, s.to_bits())));
                }
            }
            for c in &candidates {
                prop_assert_eq!(
                    token_sort_similarity(&input, c).to_bits(),
                    old_token_sort_similarity(&input, c).to_bits()
                );
            }
        }
    }
}

// ---- serve: the allocation-light codec and O(1) LRU against the -------
// ---- implementations they replaced --------------------------------------
//
// The `BTreeMap` LRU, the `format!`/`join` line writers and both HTTP
// envelopes are kept here verbatim as oracles. The rewrite must evict in
// the same order, answer the same lookups and write the same bytes.

mod serve_oracles {
    use super::*;
    use decoding_divide::bqt::ScrapedPlan;
    use decoding_divide::isp::{Isp, ALL_ISPS};
    use decoding_divide::serve::{
        answer_to_line, parse_answer_line, parse_query_line, query_to_line, LruCache, ServeAnswer,
        ServeQuery, ServeRequest, ServeResponse,
    };
    use std::collections::BTreeMap;

    /// The tick-indexed `BTreeMap` cache the slab LRU replaced.
    struct OracleLru {
        capacity: usize,
        tick: u64,
        by_key: BTreeMap<String, (u64, ServeAnswer)>,
        by_tick: BTreeMap<u64, String>,
        evicted: Vec<String>,
    }

    impl OracleLru {
        fn new(capacity: usize) -> Self {
            Self {
                capacity,
                tick: 0,
                by_key: BTreeMap::new(),
                by_tick: BTreeMap::new(),
                evicted: Vec::new(),
            }
        }

        fn get(&mut self, key: &str) -> Option<ServeAnswer> {
            let (tick, answer) = self.by_key.get_mut(key)?;
            let old = *tick;
            self.tick += 1;
            *tick = self.tick;
            let answer = answer.clone();
            self.by_tick.remove(&old);
            self.by_tick.insert(self.tick, key.to_string());
            Some(answer)
        }

        fn insert(&mut self, key: String, answer: ServeAnswer) {
            if self.capacity == 0 {
                return;
            }
            self.tick += 1;
            if let Some((old, _)) = self.by_key.insert(key.clone(), (self.tick, answer)) {
                self.by_tick.remove(&old);
            }
            self.by_tick.insert(self.tick, key);
            while self.by_key.len() > self.capacity {
                let (_, victim) = self.by_tick.pop_first().unwrap();
                self.by_key.remove(&victim);
                self.evicted.push(victim);
            }
        }
    }

    /// A small key alphabet, so sequences revisit resident keys often;
    /// it includes a comma, a percent sign and non-ASCII text.
    const KEYS: [&str; 10] = [
        "plans/A/att/1",
        "plans/A/att/2",
        "bg/A/cox/1",
        "plans/Washington, DC/att/1",
        "bg/100% Fiber/att/7",
        "plans/Zürich/verizon/3",
        "k",
        "",
        "plans/A/att/10",
        "bg/中/xfinity/0",
    ];

    fn answer(n: u64) -> ServeAnswer {
        ServeAnswer::Percentiles {
            n,
            p25: 1.0,
            p50: 2.0,
            p75: 3.0,
            p95: 4.0,
        }
    }

    /// Any `f64` the wire carries (finite): integral, fractional, tiny
    /// and huge magnitudes, and raw bit patterns.
    fn float() -> impl Strategy<Value = f64> {
        (0u8..6, any::<u64>(), any::<f64>()).prop_map(|(pick, bits, unit)| {
            let v = match pick {
                0 => (bits % 100_000) as f64,
                1 => (bits % 100_000) as f64 / 8.0 + unit,
                2 => unit * 1e-300,
                3 => (1.0 + unit) * 1e300,
                4 => -unit * 1e6,
                _ => f64::from_bits(bits),
            };
            if v.is_finite() {
                v
            } else {
                unit
            }
        })
    }

    /// City text: JSON punctuation, `%`, `,` and multi-byte characters,
    /// but never the `"` the dialect cannot carry nor the line break a
    /// batch body splits on.
    const CITY: [char; 14] = [
        'a', 'Z', '0', ' ', ',', ':', '{', '}', '/', '%', 'é', '中', '-', '\'',
    ];

    fn city() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..CITY.len(), 0..12)
            .prop_map(|ix| ix.into_iter().map(|i| CITY[i]).collect())
    }

    fn query() -> impl Strategy<Value = ServeQuery> {
        (0u8..3, city(), 0..ALL_ISPS.len(), any::<u64>()).prop_map(|(pick, city, isp, n)| {
            let isp = ALL_ISPS[isp];
            match pick {
                0 => ServeQuery::Plans { city, isp, tag: n },
                1 => ServeQuery::BlockGroup { city, isp, bg: n },
                _ => ServeQuery::Tiles { city },
            }
        })
    }

    fn answer_of() -> impl Strategy<Value = ServeAnswer> {
        (
            0u8..6,
            any::<u64>(),
            proptest::collection::vec((float(), float(), float()), 0..5),
            (float(), float(), float(), float()),
        )
            .prop_map(|(pick, n, triples, (a, b, c, d))| match pick {
                0 => ServeAnswer::Plans {
                    plans: triples
                        .into_iter()
                        .map(|(down, up, price)| ScrapedPlan {
                            download_mbps: down,
                            upload_mbps: up,
                            price_usd: price,
                        })
                        .collect(),
                },
                1 => ServeAnswer::NoService,
                2 => ServeAnswer::Percentiles {
                    n,
                    p25: a,
                    p50: b,
                    p75: c,
                    p95: d,
                },
                3 => ServeAnswer::Tiles {
                    block_groups: n,
                    served: n / 2,
                    avg_providers: a,
                    diversity: b,
                },
                4 => ServeAnswer::NotFound,
                _ => ServeAnswer::Shed,
            })
    }

    fn oracle_query_line(q: &ServeQuery) -> String {
        match q {
            ServeQuery::Plans { city, isp, tag } => format!(
                "{{\"q\":\"plans\",\"city\":\"{city}\",\"isp\":\"{}\",\"tag\":{tag}}}",
                isp.slug()
            ),
            ServeQuery::BlockGroup { city, isp, bg } => format!(
                "{{\"q\":\"block_group\",\"city\":\"{city}\",\"isp\":\"{}\",\"bg\":{bg}}}",
                isp.slug()
            ),
            ServeQuery::Tiles { city } => format!("{{\"q\":\"tiles\",\"city\":\"{city}\"}}"),
        }
    }

    fn oracle_answer_line(a: &ServeAnswer) -> String {
        match a {
            ServeAnswer::Plans { plans } => {
                let packed = plans
                    .iter()
                    .map(|p| format!("{}/{}/{}", p.download_mbps, p.upload_mbps, p.price_usd))
                    .collect::<Vec<_>>()
                    .join(";");
                format!("{{\"a\":\"plans\",\"plans\":\"{packed}\"}}")
            }
            ServeAnswer::NoService => "{\"a\":\"no_service\"}".to_string(),
            ServeAnswer::Percentiles {
                n,
                p25,
                p50,
                p75,
                p95,
            } => format!(
                "{{\"a\":\"percentiles\",\"n\":{n},\"p25\":{p25},\"p50\":{p50},\"p75\":{p75},\"p95\":{p95}}}"
            ),
            ServeAnswer::Tiles {
                block_groups,
                served,
                avg_providers,
                diversity,
            } => format!(
                "{{\"a\":\"tiles\",\"block_groups\":{block_groups},\"served\":{served},\"avg_providers\":{avg_providers},\"diversity\":{diversity}}}"
            ),
            ServeAnswer::NotFound => "{\"a\":\"not_found\"}".to_string(),
            ServeAnswer::Shed => "{\"a\":\"shed\"}".to_string(),
        }
    }

    fn oracle_request(req: &ServeRequest) -> Request {
        match req {
            ServeRequest::Single(q) => Request::post("/lookup", oracle_query_line(q)),
            ServeRequest::Batch(qs) => Request::post(
                "/batch",
                qs.iter()
                    .map(oracle_query_line)
                    .collect::<Vec<_>>()
                    .join("\n"),
            ),
        }
    }

    fn oracle_response(resp: &ServeResponse) -> Response {
        match resp {
            ServeResponse::Single(a) => Response::ok(oracle_answer_line(a)),
            ServeResponse::Batch(answers) => Response::ok(
                answers
                    .iter()
                    .map(oracle_answer_line)
                    .collect::<Vec<_>>()
                    .join("\n"),
            ),
        }
    }

    proptest! {
        #[test]
        fn slab_lru_matches_the_btreemap_oracle(
            capacity in 0usize..=8,
            ops in proptest::collection::vec((0u8..4, 0..KEYS.len(), any::<u64>()), 0..160),
        ) {
            let mut lru = LruCache::new(capacity);
            let mut oracle = OracleLru::new(capacity);
            for (op, k, v) in ops {
                let key = KEYS[k];
                match op {
                    0 => prop_assert_eq!(lru.get(key), oracle.get(key)),
                    1 => {
                        lru.insert(key.to_string(), answer(v));
                        oracle.insert(key.to_string(), answer(v));
                    }
                    2 => {
                        // The router's pattern: insert on a miss only.
                        let hit = lru.get(key);
                        prop_assert_eq!(&hit, &oracle.get(key));
                        if hit.is_none() {
                            lru.insert(key.to_string(), answer(v));
                            oracle.insert(key.to_string(), answer(v));
                        }
                    }
                    _ => {
                        // Re-insert whatever is resident under `key`.
                        if let Some(old) = oracle.get(key) {
                            prop_assert_eq!(lru.get(key), Some(old.clone()));
                            lru.insert(key.to_string(), old.clone());
                            oracle.insert(key.to_string(), old);
                        }
                    }
                }
                prop_assert_eq!(lru.len(), oracle.by_key.len());
                prop_assert_eq!(lru.drain_evicted(), std::mem::take(&mut oracle.evicted));
            }
            for key in KEYS {
                prop_assert_eq!(lru.get(key), oracle.get(key));
            }
        }

        #[test]
        fn query_codec_matches_the_replaced_writer_and_round_trips(
            qs in proptest::collection::vec(query(), 1..=6),
        ) {
            for q in &qs {
                let line = query_to_line(q);
                prop_assert_eq!(&line, &oracle_query_line(q));
                prop_assert_eq!(parse_query_line(&line), Ok(q.clone()));
            }
            let requests = [ServeRequest::Single(qs[0].clone()), ServeRequest::Batch(qs)];
            for req in requests {
                let wire = req.to_http().to_wire();
                prop_assert_eq!(&wire, &oracle_request(&req).to_wire());
                let revived = Request::from_wire(&wire).unwrap();
                prop_assert_eq!(ServeRequest::from_http(&revived), Ok(req));
            }
        }

        #[test]
        fn answer_codec_matches_the_replaced_writer_and_round_trips(
            answers in proptest::collection::vec(answer_of(), 1..=6),
        ) {
            for a in &answers {
                let line = answer_to_line(a);
                prop_assert_eq!(&line, &oracle_answer_line(a));
                prop_assert_eq!(parse_answer_line(&line), Ok(a.clone()));
            }
            let responses = [
                (ServeResponse::Single(answers[0].clone()), false),
                (ServeResponse::Batch(answers), true),
            ];
            for (resp, batch) in responses {
                let wire = resp.to_http().to_wire();
                prop_assert_eq!(&wire, &oracle_response(&resp).to_wire());
                let revived = Response::from_wire(&wire).unwrap();
                prop_assert_eq!(ServeResponse::from_http(&revived, batch), Ok(resp));
            }
        }
    }

    #[test]
    fn empty_plan_lists_and_extreme_floats_round_trip() {
        let answers = [
            ServeAnswer::Plans { plans: Vec::new() },
            ServeAnswer::Plans {
                plans: vec![ScrapedPlan {
                    download_mbps: 5e-324,
                    upload_mbps: f64::MAX,
                    price_usd: -0.0,
                }],
            },
            ServeAnswer::Percentiles {
                n: u64::MAX,
                p25: 0.1,
                p50: 1e21,
                p75: 1e-7,
                p95: 123_456_789.0,
            },
        ];
        for a in &answers {
            let line = answer_to_line(a);
            assert_eq!(line, oracle_answer_line(a));
            assert_eq!(parse_answer_line(&line), Ok(a.clone()));
        }
        let q = ServeQuery::Plans {
            city: String::new(),
            isp: Isp::Att,
            tag: u64::MAX,
        };
        assert_eq!(parse_query_line(&query_to_line(&q)), Ok(q));
    }
}

// ---- journal oracles ----------------------------------------------------
//
// The BQJ1 journal's hand-written encoders and decoders, kept here
// verbatim as oracles: one pair per entry kind, the offset readers, the
// framer, the kind dispatch and the frame scanner. Entries written
// through `Journal` must give the oracle's exact bytes, and payloads the
// oracle built, then cut short, extended or byte-flipped (CRC recomputed),
// must read back to the same entries or fail with the same error variant
// at the same frame.

mod journal_oracles {
    use super::*;
    use decoding_divide::bqt::journal::{
        crc32, read_entries, AttemptEntry, CampaignManifest, Entry, Journal, JournalError,
        RebootstrapEntry, MAGIC,
    };
    use decoding_divide::bqt::{QueryOutcome, ScrapedPlan};
    use decoding_divide::net::SimDuration;

    const KIND_MANIFEST: u8 = 1;
    const KIND_ATTEMPT: u8 = 2;
    const KIND_REBOOTSTRAP: u8 = 3;

    fn encode_manifest(m: &CampaignManifest) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 + 8 * 3 + 4);
        buf.push(KIND_MANIFEST);
        buf.extend_from_slice(&m.seed.to_le_bytes());
        buf.extend_from_slice(&m.config_hash.to_le_bytes());
        buf.extend_from_slice(&m.job_digest.to_le_bytes());
        buf.extend_from_slice(&m.n_jobs.to_le_bytes());
        buf
    }

    fn decode_manifest(frame: usize, payload: &[u8]) -> Result<CampaignManifest, JournalError> {
        let body = &payload[1..];
        if body.len() != 8 * 3 + 4 {
            return Err(JournalError::Malformed {
                frame,
                what: "manifest length",
            });
        }
        Ok(CampaignManifest {
            seed: read_u64_le(frame, body, 0, "manifest seed")?,
            config_hash: read_u64_le(frame, body, 8, "manifest config hash")?,
            job_digest: read_u64_le(frame, body, 16, "manifest job digest")?,
            n_jobs: read_u32_le(frame, body, 24, "manifest job count")?,
        })
    }

    fn encode_attempt(a: &AttemptEntry) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        buf.push(KIND_ATTEMPT);
        buf.extend_from_slice(&a.tag.to_le_bytes());
        buf.extend_from_slice(&a.attempt.to_le_bytes());
        buf.extend_from_slice(&a.duration.as_millis().to_le_bytes());
        buf.extend_from_slice(&a.steps.to_le_bytes());
        buf.push(a.saw_unrecognized_page as u8);
        match &a.outcome {
            QueryOutcome::NoService => buf.push(0),
            QueryOutcome::Unserviceable => buf.push(1),
            QueryOutcome::Blocked => buf.push(2),
            QueryOutcome::Failed => buf.push(3),
            QueryOutcome::Stalled => buf.push(4),
            QueryOutcome::Plans(plans) => {
                buf.push(5);
                buf.extend_from_slice(&(plans.len() as u32).to_le_bytes());
                for p in plans {
                    buf.extend_from_slice(&p.download_mbps.to_bits().to_le_bytes());
                    buf.extend_from_slice(&p.upload_mbps.to_bits().to_le_bytes());
                    buf.extend_from_slice(&p.price_usd.to_bits().to_le_bytes());
                }
            }
        }
        buf
    }

    fn decode_attempt(frame: usize, payload: &[u8]) -> Result<AttemptEntry, JournalError> {
        let malformed = |what| JournalError::Malformed { frame, what };
        let body = &payload[1..];
        if body.len() < 8 + 4 + 8 + 4 + 1 + 1 {
            return Err(malformed("attempt header length"));
        }
        let tag = read_u64_le(frame, body, 0, "attempt tag")?;
        let attempt = read_u32_le(frame, body, 8, "attempt number")?;
        let duration_ms = read_u64_le(frame, body, 12, "attempt duration")?;
        let steps = read_u32_le(frame, body, 20, "attempt steps")?;
        let flags = body[24];
        let code = body[25];
        let rest = &body[26..];
        let outcome = match code {
            0 => QueryOutcome::NoService,
            1 => QueryOutcome::Unserviceable,
            2 => QueryOutcome::Blocked,
            3 => QueryOutcome::Failed,
            4 => QueryOutcome::Stalled,
            5 => {
                let n = read_u32_le(frame, rest, 0, "plan count")? as usize;
                if rest.len() != 4 + n * 24 {
                    return Err(malformed("plan list length"));
                }
                let mut plans = Vec::with_capacity(n);
                for i in 0..n {
                    let at = 4 + i * 24;
                    let f = |o: usize| {
                        read_u64_le(frame, rest, at + o, "plan field").map(f64::from_bits)
                    };
                    plans.push(ScrapedPlan {
                        download_mbps: f(0)?,
                        upload_mbps: f(8)?,
                        price_usd: f(16)?,
                    });
                }
                QueryOutcome::Plans(plans)
            }
            _ => return Err(malformed("outcome code")),
        };
        if code != 5 && !rest.is_empty() {
            return Err(malformed("trailing bytes"));
        }
        Ok(AttemptEntry {
            tag,
            attempt,
            outcome,
            duration: SimDuration::from_millis(duration_ms),
            steps,
            saw_unrecognized_page: flags & 1 != 0,
        })
    }

    fn encode_rebootstrap(r: &RebootstrapEntry) -> Vec<u8> {
        let name = r.endpoint.as_bytes();
        let mut buf = Vec::with_capacity(1 + 4 + name.len() + 4 * 3);
        buf.push(KIND_REBOOTSTRAP);
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name);
        buf.extend_from_slice(&r.occurrence.to_le_bytes());
        buf.extend_from_slice(&r.generation.to_le_bytes());
        buf.extend_from_slice(&r.confidence_pct.to_le_bytes());
        buf
    }

    fn decode_rebootstrap(frame: usize, payload: &[u8]) -> Result<RebootstrapEntry, JournalError> {
        let malformed = |what| JournalError::Malformed { frame, what };
        let body = &payload[1..];
        let name_len = read_u32_le(frame, body, 0, "rebootstrap endpoint length")? as usize;
        let name_end = 4 + name_len;
        if body.len() != name_end + 4 * 3 {
            return Err(malformed("rebootstrap length"));
        }
        let endpoint = std::str::from_utf8(&body[4..name_end])
            .map_err(|_| malformed("rebootstrap endpoint utf-8"))?
            .to_string();
        Ok(RebootstrapEntry {
            endpoint,
            occurrence: read_u32_le(frame, body, name_end, "rebootstrap occurrence")?,
            generation: read_u32_le(frame, body, name_end + 4, "rebootstrap generation")?,
            confidence_pct: read_u32_le(frame, body, name_end + 8, "rebootstrap confidence")?,
        })
    }

    fn read_u64_le(
        frame: usize,
        body: &[u8],
        at: usize,
        what: &'static str,
    ) -> Result<u64, JournalError> {
        match body.get(at..at + 8).map(<[u8; 8]>::try_from) {
            Some(Ok(raw)) => Ok(u64::from_le_bytes(raw)),
            _ => Err(JournalError::Malformed { frame, what }),
        }
    }

    fn read_u32_le(
        frame: usize,
        body: &[u8],
        at: usize,
        what: &'static str,
    ) -> Result<u32, JournalError> {
        match body.get(at..at + 4).map(<[u8; 4]>::try_from) {
            Some(Ok(raw)) => Ok(u32::from_le_bytes(raw)),
            _ => Err(JournalError::Malformed { frame, what }),
        }
    }

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    const MAX_FRAME: u32 = 1 << 20;

    fn decode_payload(frame: usize, payload: &[u8]) -> Result<Entry, JournalError> {
        match payload.first() {
            None => Err(JournalError::Malformed {
                frame,
                what: "empty payload",
            }),
            Some(&KIND_MANIFEST) => decode_manifest(frame, payload).map(Entry::Manifest),
            Some(&KIND_ATTEMPT) => decode_attempt(frame, payload).map(Entry::Attempt),
            Some(&KIND_REBOOTSTRAP) => decode_rebootstrap(frame, payload).map(Entry::Rebootstrap),
            Some(&kind) => Err(JournalError::UnknownKind { frame, kind }),
        }
    }

    /// The strict reader: the frame scanner, failing on a torn tail.
    fn read_entries_oracle(bytes: &[u8]) -> Result<Vec<Entry>, JournalError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(JournalError::BadMagic);
        }
        let mut entries = Vec::new();
        let mut at = MAGIC.len();
        let mut frame = 0usize;
        while at < bytes.len() {
            let header_end = at + 8;
            if header_end > bytes.len() {
                return Err(JournalError::TornTail);
            }
            let len = read_u32_le(frame, bytes, at, "frame length")?;
            if len > MAX_FRAME {
                if at + 8 + len as usize > bytes.len() {
                    return Err(JournalError::TornTail);
                }
                return Err(JournalError::OversizedFrame { frame, len });
            }
            let crc = read_u32_le(frame, bytes, at + 4, "frame crc")?;
            let payload_end = header_end + len as usize;
            if payload_end > bytes.len() {
                return Err(JournalError::TornTail);
            }
            let payload = &bytes[header_end..payload_end];
            if crc32(payload) != crc {
                return Err(JournalError::BadCrc { frame });
            }
            let entry = decode_payload(frame, payload)?;
            match (&entry, frame) {
                (Entry::Manifest(_), 0) => {}
                (Entry::Manifest(_), _) => return Err(JournalError::DuplicateManifest),
                (Entry::Attempt(_) | Entry::Rebootstrap(_), 0) => {
                    return Err(JournalError::MissingManifest)
                }
                (Entry::Attempt(_) | Entry::Rebootstrap(_), _) => {}
            }
            entries.push(entry);
            at = payload_end;
            frame += 1;
        }
        Ok(entries)
    }

    fn encode_entry(entry: &Entry) -> Vec<u8> {
        match entry {
            Entry::Manifest(m) => encode_manifest(m),
            Entry::Attempt(a) => encode_attempt(a),
            Entry::Rebootstrap(r) => encode_rebootstrap(r),
        }
    }

    /// An error's variant and the frame it names, if any: what both
    /// readers must agree on (the `what` of a malformed frame may differ).
    fn shape(e: &JournalError) -> (std::mem::Discriminant<JournalError>, Option<usize>) {
        let frame = match e {
            JournalError::BadCrc { frame }
            | JournalError::Malformed { frame, .. }
            | JournalError::OversizedFrame { frame, .. }
            | JournalError::UnknownKind { frame, .. } => Some(*frame),
            _ => None,
        };
        (std::mem::discriminant(e), frame)
    }

    /// `(seed, config_hash, job_digest, n_jobs)`.
    type ManifestSpec = (u64, u64, u64, u32);
    /// `(selector, bits)`: selectors 0–4 pick NaN payloads, −0.0 and
    /// infinity, anything higher takes `bits` as they are.
    type Float = (u8, u64);
    /// `(tag, attempt, duration_ms, steps, flag, outcome, plans)`.
    type AttemptSpec = (u64, u32, u64, u32, bool, usize, Vec<(Float, Float, Float)>);
    /// `(endpoint chars, occurrence, generation, confidence_pct)`.
    type RebootSpec = (Vec<usize>, u32, u32, u32);
    /// `(is_rebootstrap, attempt, rebootstrap)`.
    type Op = (bool, AttemptSpec, RebootSpec);

    /// Empty, ASCII and multi-byte endpoint characters.
    const CHARS: [char; 8] = ['a', 'z', '/', '-', '7', 'é', '漢', '🦀'];

    fn manifest((seed, config_hash, job_digest, n_jobs): ManifestSpec) -> CampaignManifest {
        CampaignManifest {
            seed,
            config_hash,
            job_digest,
            n_jobs,
        }
    }

    fn float((selector, bits): Float) -> f64 {
        f64::from_bits(match selector {
            0 => 0x7FF8_0000_0000_0000,
            1 => 0xFFF0_0000_0000_0001 | (bits & 0xF_FFFF),
            2 => 0x7FF0_0000_0000_0001 | (bits & 0xFFFF_FFFF),
            3 => 0x8000_0000_0000_0000,
            4 => 0xFFF0_0000_0000_0000,
            _ => bits,
        })
    }

    fn attempt(spec: &AttemptSpec) -> AttemptEntry {
        let (tag, attempt, duration_ms, steps, flag, outcome, plans) = spec;
        let outcome = match outcome {
            0 => QueryOutcome::NoService,
            1 => QueryOutcome::Unserviceable,
            2 => QueryOutcome::Blocked,
            3 => QueryOutcome::Failed,
            4 => QueryOutcome::Stalled,
            _ => QueryOutcome::Plans(
                plans
                    .iter()
                    .map(|&(d, u, p)| ScrapedPlan {
                        download_mbps: float(d),
                        upload_mbps: float(u),
                        price_usd: float(p),
                    })
                    .collect(),
            ),
        };
        AttemptEntry {
            tag: *tag,
            attempt: *attempt,
            outcome,
            duration: SimDuration::from_millis(*duration_ms),
            steps: *steps,
            saw_unrecognized_page: *flag,
        }
    }

    fn rebootstrap(spec: &RebootSpec) -> RebootstrapEntry {
        let (chars, occurrence, generation, confidence_pct) = spec;
        RebootstrapEntry {
            endpoint: chars.iter().map(|&i| CHARS[i]).collect(),
            occurrence: *occurrence,
            generation: *generation,
            confidence_pct: *confidence_pct,
        }
    }

    fn float_strategy() -> impl Strategy<Value = Float> {
        (0u8..12, any::<u64>())
    }

    fn attempt_strategy() -> impl Strategy<Value = AttemptSpec> {
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u32>(),
            any::<bool>(),
            0usize..6,
            proptest::collection::vec(
                (float_strategy(), float_strategy(), float_strategy()),
                0..41,
            ),
        )
    }

    fn reboot_strategy() -> impl Strategy<Value = RebootSpec> {
        (
            proptest::collection::vec(0usize..CHARS.len(), 0..12),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
        )
    }

    fn manifest_strategy() -> impl Strategy<Value = ManifestSpec> {
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>())
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (any::<bool>(), attempt_strategy(), reboot_strategy())
    }

    /// `(kind, at, byte)`: kind 0 cuts the payload to `at % (len + 1)`
    /// bytes, 1 appends `at % 30 + 1` copies of `byte`, 2 flips the bits
    /// of `byte | 1` in the byte at `at % len`, and 3 does the same within
    /// the first 32 bytes, where the fixed fields and length prefixes sit.
    type Mutation = (u8, usize, u8);

    fn mutate(payload: &mut Vec<u8>, (kind, at, byte): Mutation) {
        match kind {
            0 => payload.truncate(at % (payload.len() + 1)),
            1 => payload.extend(std::iter::repeat_n(byte, at % 30 + 1)),
            2 | 3 => {
                let len = if kind == 3 {
                    payload.len().min(32)
                } else {
                    payload.len()
                };
                payload[at % len] ^= byte | 1;
            }
            _ => unreachable!("mutation kind {kind}"),
        }
    }

    /// Reads `bytes` with both readers, which must give the same entries
    /// (compared by their oracle encoding, so NaN payloads compare bit for
    /// bit) or errors of the same variant at the same frame.
    fn reads_alike(bytes: &[u8]) -> Result<Result<usize, JournalError>, String> {
        match (read_entries(bytes), read_entries_oracle(bytes)) {
            (Ok(got), Ok(want)) => {
                let got: Vec<Vec<u8>> = got.iter().map(encode_entry).collect();
                let want: Vec<Vec<u8>> = want.iter().map(encode_entry).collect();
                match got == want {
                    true => Ok(Ok(got.len())),
                    false => Err(format!("read {got:?}, oracle read {want:?}")),
                }
            }
            (Err(got), Err(want)) if shape(&got) == shape(&want) => Ok(Err(got)),
            (got, want) => Err(format!("read {got:?}, oracle read {want:?}")),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn journal_writes_the_oracle_bytes(
            m in manifest_strategy(),
            ops in proptest::collection::vec(op_strategy(), 0..12),
        ) {
            let mut journal = Journal::in_memory();
            let mut expected = MAGIC.to_vec();
            let m = manifest(m);
            journal.bind_manifest(m).map_err(|e| e.to_string())?;
            expected.extend_from_slice(&frame_bytes(&encode_manifest(&m)));
            for (is_reboot, a, r) in &ops {
                if *is_reboot {
                    let r = rebootstrap(r);
                    expected.extend_from_slice(&frame_bytes(&encode_rebootstrap(&r)));
                    journal.append_rebootstrap(r).map_err(|e| e.to_string())?;
                } else {
                    let a = attempt(a);
                    expected.extend_from_slice(&frame_bytes(&encode_attempt(&a)));
                    journal.append(a).map_err(|e| e.to_string())?;
                }
            }
            prop_assert!(journal.bytes() == Some(&expected[..]), "bytes differ for {ops:?}");
        }

        #[test]
        fn damaged_payloads_read_as_the_oracle_reads_them(
            m in manifest_strategy(),
            ops in proptest::collection::vec(op_strategy(), 0..5),
            raw in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..12)),
            mutations in proptest::collection::vec(
                (0usize..8, (0u8..4, any::<usize>(), any::<u8>())),
                0..4,
            ),
        ) {
            // Frame 0 is the manifest, then the ops, then maybe a raw
            // payload.
            let mut payloads = vec![encode_manifest(&manifest(m))];
            for (is_reboot, a, r) in &ops {
                payloads.push(if *is_reboot {
                    encode_rebootstrap(&rebootstrap(r))
                } else {
                    encode_attempt(&attempt(a))
                });
            }
            payloads.extend(raw);
            for &(victim, mutation) in &mutations {
                let n = payloads.len();
                let payload = &mut payloads[victim % n];
                if !payload.is_empty() || mutation.0 < 2 {
                    mutate(payload, mutation);
                }
            }
            let mut bytes = MAGIC.to_vec();
            for payload in &payloads {
                bytes.extend_from_slice(&frame_bytes(payload));
            }
            let _ = reads_alike(&bytes)?;
        }
    }

    /// The mutations reach every error the payload decoders can give and
    /// valid entries too, so the property above is not vacuous.
    #[test]
    fn damage_covers_every_decoder_outcome() {
        let attempt = attempt(&(9, 1, 1500, 2, true, 5, vec![((9, 1), (3, 0), (0, 0))]));
        let reboot = rebootstrap(&(vec![5, 6, 7], 1, 2, 95));
        let cases: [(Vec<u8>, Mutation); 8] = [
            (encode_attempt(&attempt), (0, 20, 0)),
            (encode_attempt(&attempt), (1, 0, 7)),
            (encode_attempt(&attempt), (2, 26, 0x0E)),
            (encode_attempt(&attempt), (2, 27, 0x40)),
            (encode_attempt(&attempt), (2, 25, 0x02)),
            (encode_rebootstrap(&reboot), (2, 6, 0x40)),
            (encode_rebootstrap(&reboot), (0, 0, 0)),
            (encode_rebootstrap(&reboot), (2, 0, 0x0E)),
        ];
        let mut seen = Vec::new();
        for (mut payload, mutation) in cases {
            mutate(&mut payload, mutation);
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&frame_bytes(&encode_manifest(&manifest((1, 2, 3, 4)))));
            bytes.extend_from_slice(&frame_bytes(&payload));
            seen.push(reads_alike(&bytes).unwrap());
        }
        // Cut short, extended, a bad outcome code, a plan count past the
        // payload, bad UTF-8, an empty payload.
        for i in [0, 1, 2, 3, 5, 6] {
            let malformed = matches!(seen[i], Err(JournalError::Malformed { frame: 1, .. }));
            assert!(malformed, "case {i}: {:?}", seen[i]);
        }
        assert_eq!(seen[4], Ok(2), "bit 0 alone carries the flag");
        assert_eq!(
            seen[7],
            Err(JournalError::UnknownKind { frame: 1, kind: 12 })
        );
    }
}

mod weights_oracles {
    use super::*;
    use decoding_divide::analysis::intracity::{lisa_field, morans_i_partial};
    use decoding_divide::geo::{CityGrid, LatLon};
    use decoding_divide::stats::{local_morans_i, morans_i, MoranResult};

    /// Covered cells, their values, and the weight rows among them.
    type Subgraph = (Vec<usize>, Vec<f64>, Vec<Vec<(usize, f64)>>);

    /// The covered cells, their values and the row-standardized rook
    /// weights among them, as `morans_i_partial` and `lisa_field` each
    /// built them inline before both called `CityGrid::rook_weights`.
    fn oracle_subgraph(grid: &CityGrid, field: &[Option<f64>]) -> Option<Subgraph> {
        let covered: Vec<usize> = (0..grid.len()).filter(|&i| field[i].is_some()).collect();
        if covered.len() < 10 {
            return None;
        }
        let mut dense_index = vec![usize::MAX; grid.len()];
        for (k, &i) in covered.iter().enumerate() {
            dense_index[i] = k;
        }
        let values: Vec<f64> = covered
            .iter()
            .map(|&i| field[i].expect("covered"))
            .collect();
        let weights: Vec<Vec<(usize, f64)>> = covered
            .iter()
            .map(|&i| {
                let ns: Vec<usize> = grid
                    .rook_neighbors(i)
                    .into_iter()
                    .filter(|&j| dense_index[j] != usize::MAX)
                    .map(|j| dense_index[j])
                    .collect();
                if ns.is_empty() {
                    Vec::new()
                } else {
                    let w = 1.0 / ns.len() as f64;
                    ns.into_iter().map(|j| (j, w)).collect()
                }
            })
            .collect();
        Some((covered, values, weights))
    }

    fn oracle_morans_i(grid: &CityGrid, field: &[Option<f64>]) -> Option<MoranResult> {
        let (_, values, weights) = oracle_subgraph(grid, field)?;
        morans_i(&values, &weights)
    }

    fn oracle_lisa(grid: &CityGrid, field: &[Option<f64>]) -> Option<Vec<Option<f64>>> {
        let (covered, values, weights) = oracle_subgraph(grid, field)?;
        let local = local_morans_i(&values, &weights)?;
        let mut out = vec![None; grid.len()];
        for (k, &i) in covered.iter().enumerate() {
            out[i] = Some(local[k]);
        }
        Some(out)
    }

    fn moran_bits(r: Option<MoranResult>) -> Option<[u64; 5]> {
        r.map(|r| {
            [
                r.i.to_bits(),
                r.expected.to_bits(),
                r.z_score.to_bits(),
                r.p_value.to_bits(),
                r.n as u64,
            ]
        })
    }

    fn lisa_bits(l: Option<Vec<Option<f64>>>) -> Option<Vec<Option<u64>>> {
        l.map(|v| v.into_iter().map(|x| x.map(f64::to_bits)).collect())
    }

    /// A partially covered field on a grown grid: each cell is covered
    /// with probability `cover_pct`%, and covered values are drawn from
    /// `levels` distinct carriage values so ties and constant fields occur.
    fn field_for(grid: &CityGrid, seed: u64, cover_pct: u64, levels: u64) -> Vec<Option<f64>> {
        let mut state = seed | 1;
        (0..grid.len())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 100 < cover_pct).then(|| 2.0 + (state >> 32) as f64 % levels as f64 * 0.75)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn intracity_statistics_match_the_inline_weights_oracle(
            n_cells in 1usize..260,
            grid_seed in any::<u64>(),
            field_seed in any::<u64>(),
            cover_pct in 0u64..=100,
            levels in 1u64..12,
        ) {
            let grid = CityGrid::grow(LatLon::new(40.0, -100.0), n_cells, 30, 111, grid_seed);
            let field = field_for(&grid, field_seed, cover_pct, levels);
            prop_assert_eq!(
                moran_bits(morans_i_partial(&grid, &field)),
                moran_bits(oracle_morans_i(&grid, &field))
            );
            prop_assert_eq!(
                lisa_bits(lisa_field(&grid, &field)),
                lisa_bits(oracle_lisa(&grid, &field))
            );
        }
    }

    /// The property above reaches both sides of every early return: too
    /// few covered cells, a constant field, and a defined statistic.
    #[test]
    fn oracle_cases_cover_every_outcome() {
        let grid = CityGrid::grow(LatLon::new(40.0, -100.0), 120, 30, 111, 5);
        let sparse = field_for(&grid, 3, 5, 6);
        assert!(oracle_subgraph(&grid, &sparse).is_none());
        let constant = field_for(&grid, 3, 60, 1);
        assert!(oracle_subgraph(&grid, &constant).is_some());
        assert!(oracle_morans_i(&grid, &constant).is_none());
        assert!(oracle_lisa(&grid, &constant).is_none());
        let varied = field_for(&grid, 3, 60, 6);
        assert!(oracle_morans_i(&grid, &varied).is_some());
        assert!(oracle_lisa(&grid, &varied).is_some());
        assert_eq!(
            morans_i_partial(&grid, &varied),
            oracle_morans_i(&grid, &varied)
        );
    }
}
