//! The cross-thread determinism probe behind `repro determinism`: it
//! curates one journaled city at a given thread count and prints an
//! FNV-64 content hash per artifact, so two invocations at different
//! `--threads` can be `diff`ed.

use bbsim_census::city_by_name;
use bbsim_net::fnv1a;

/// The CI determinism probe: curate one journaled city at `threads`
/// threads and print a content hash per campaign artifact. Running this
/// at two thread counts and diffing the outputs is the cross-thread
/// byte-identity check, journal segments included.
pub fn determinism(seed: u64, threads: usize) -> String {
    use bbsim_dataset::{curate_city_journaled, CurationOptions};

    let dir =
        std::env::temp_dir().join(format!("bqt-determinism-{}-t{threads}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = CurationOptions::quick(seed);
    opts.threads = threads;
    let city = city_by_name("Billings").expect("study city");
    let (ds, _) = curate_city_journaled(city, &opts, None, &dir).expect("journaled curation");

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("campaign dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    let mut out = String::new();
    for name in names {
        let bytes = std::fs::read(dir.join(&name)).expect("artifact");
        out.push_str(&format!(
            "{name} fnv64={:016x} bytes={}\n",
            fnv1a(&bytes),
            bytes.len()
        ));
    }
    let mut rows = String::new();
    for r in &ds.records {
        rows.push_str(&format!(
            "{} {} {}\n",
            r.isp.slug(),
            r.address_tag,
            r.plans.len()
        ));
    }
    out.push_str(&format!(
        "dataset.rows fnv64={:016x} bytes={}\n",
        fnv1a(rows.as_bytes()),
        rows.len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_probe_is_thread_count_invariant() {
        let a = determinism(7, 1);
        let b = determinism(7, 4);
        assert_eq!(a, b);
        assert_eq!(
            a,
            include_str!("../../../tests/golden/determinism-seed7.txt")
        );
    }
}
