//! The benchmark's own quick test: every workload, at a short length,
//! twice with one seed. Each run must pass the oracle with no failed
//! op, and the per-op counters of the traced pass must repeat exactly.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use aim2_perfbench::ops::WORKLOADS;
use aim2_perfbench::report::Report;
use aim2_perfbench::run;

fn counts(r: &Report) -> Vec<(String, f64)> {
    r.metrics
        .iter()
        .filter(|(_, _, unit)| *unit == "count")
        .map(|(name, value, _)| (name.clone(), *value))
        .collect()
}

fn assert_clean(r: &Report, what: &str) {
    assert!(r.correct, "{what}: an answer differed from the oracle");
    assert!(r.attempted > 0, "{what}: no op attempted");
    assert_eq!(
        r.failed, 0,
        "{what}: {} of {} ops failed",
        r.failed, r.attempted
    );
}

#[test]
fn every_workload_passes_the_oracle_and_repeats_its_counters() {
    for w in WORKLOADS {
        let e2e = run::end_to_end(w, 7, 1).expect("untraced run");
        assert_clean(&e2e, w.name);
        let first = run::layers(w, 7, 1).expect("first traced run");
        let second = run::layers(w, 7, 1).expect("second traced run");
        assert_clean(&first, w.name);
        assert_clean(&second, w.name);
        assert_eq!(
            counts(&first),
            counts(&second),
            "{}: per-op counters differ between two runs of one seed",
            w.name
        );
    }
}
