//! Engine-level invariants on the store `repro serve` builds: the SLO
//! alert story of the quick campaign, and every artifact of the seed-7
//! run matching the committed golden manifest at any thread count —
//! fewer threads than shards included.

use bbsim_census::city_by_name;
use bbsim_dataset::artifact::CityArtifact;
use bbsim_dataset::{curate_city, CurationOptions};
use bbsim_serve::{run_recorded, PlanStore, ServeOptions};
use bqt::monitor::{render_folded, render_prometheus, CampaignSection};
use bqt::{render_trace_json, JsonlRecorder};
use std::io;
use std::sync::Arc;

/// `tests/golden/serve-seed7.txt`: `sha256sum` lines for the four
/// artifacts of `repro --quick --seed 7 --artifacts DIR serve`.
const GOLDEN: &str = include_str!("../../../tests/golden/serve-seed7.txt");

/// The store `repro serve --seed 7` serves: Billings and Fargo curated
/// at quick scale, round-tripped through the artifact text format.
fn golden_store() -> Arc<PlanStore> {
    let artifacts: Vec<CityArtifact> = ["Billings", "Fargo"]
        .iter()
        .map(|name| {
            let city = city_by_name(name).expect("study city");
            let art = CityArtifact::from_dataset(&curate_city(city, &CurationOptions::quick(7)));
            CityArtifact::from_text(&art.to_text()).expect("artifact round-trip")
        })
        .collect();
    Arc::new(PlanStore::load(&artifacts))
}

/// Streaming SHA-256 (FIPS 180-4): enough to check artifacts against a
/// `sha256sum` manifest without holding them in memory.
struct Sha256 {
    state: [u32; 8],
    block: [u8; 64],
    filled: usize,
    len: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Sha256 {
    fn new() -> Self {
        Self {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            block: [0; 64],
            filled: 0,
            len: 0,
        }
    }

    fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        for &b in data {
            self.block[self.filled] = b;
            self.filled += 1;
            if self.filled == 64 {
                self.compress();
                self.filled = 0;
            }
        }
    }

    fn compress(&mut self) {
        let mut w = [0u32; 64];
        for (i, word) in self.block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            (h, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    fn hex(mut self) -> String {
        let bits = self.len * 8;
        self.update(&[0x80]);
        while self.filled != 56 {
            self.update(&[0]);
        }
        self.update(&bits.to_be_bytes());
        self.state.iter().map(|w| format!("{w:08x}")).collect()
    }
}

impl io::Write for Sha256 {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn sha256(bytes: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(bytes);
    h.hex()
}

#[test]
fn sha256_matches_the_fips_vectors() {
    assert_eq!(
        sha256(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

/// Counts the shard events on their way into the hashed JSONL stream —
/// everything but the campaign bracket and the monitor's alerts, which
/// the merge never holds.
struct Counted {
    inner: JsonlRecorder<Sha256>,
    shard_events: usize,
}

impl bqt::Recorder for Counted {
    fn record(&mut self, event: &bqt::Event) {
        use bqt::EventKind::*;
        if !matches!(
            event.kind,
            CampaignBegin { .. } | CampaignEnd { .. } | AlertFired { .. } | AlertResolved { .. }
        ) {
            self.shard_events += 1;
        }
        self.inner.record(event);
    }
}

#[test]
fn quick_campaign_fires_and_resolves_p99_and_is_thread_invariant() {
    let store = golden_store();
    assert_eq!(store.shards().len(), 3, "Billings x2 ISPs + Fargo x1");

    // 1 and 2 threads are fewer than the 3 shards: an unstarted shard
    // holds the merge frontier while the others run ahead.
    for threads in [1usize, 2, 3, 4, 8] {
        let opts = ServeOptions::quick(7).threads(threads);
        let mut rec = Counted {
            inner: JsonlRecorder::stable(Sha256::new()),
            shard_events: 0,
        };
        let outcome = run_recorded(&store, &opts, &mut rec);
        let section = CampaignSection {
            label: "serve",
            telemetry: &outcome.summary,
            health: &outcome.health,
        };
        let sections = std::slice::from_ref(&section);
        let manifest: String = [
            ("events.jsonl", rec.inner.into_inner().hex()),
            (
                "health.prom",
                sha256(render_prometheus(sections).as_bytes()),
            ),
            ("profile.folded", sha256(render_folded(sections).as_bytes())),
            ("trace.json", sha256(render_trace_json(sections).as_bytes())),
        ]
        .iter()
        .map(|(name, hash)| format!("{hash}  {name}\n"))
        .collect();
        assert_eq!(manifest, GOLDEN, "threads {threads}");

        // The merge streams: it never holds every shard event at once.
        assert!(
            outcome.merge_high_water < rec.shard_events,
            "threads {threads}: merge held {} of {} events",
            outcome.merge_high_water,
            rec.shard_events
        );

        assert!(outcome.lookups() > 50_000, "lookups: {}", outcome.lookups());
        assert!(outcome.summary.serve_sheds > 0, "scan must shed");
        assert!(
            outcome.summary.serve_cache_hits > 0,
            "steady phase must hit the cache"
        );
        let p99 = outcome
            .health
            .alerts
            .iter()
            .find(|a| a.rule == "p99_latency")
            .expect("scan must breach the latency SLO");
        assert!(
            p99.resolved_at.is_some(),
            "recovery phase must resolve the alert: {p99:?}"
        );
    }
}
