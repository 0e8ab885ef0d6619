//! Pins the Chrome trace-event export of TCP_RR on both ARM
//! hypervisors, unbounded and in 64-slot ring mode, byte for byte.
//!
//! The export is assembled from the trace log's charge records and the
//! flow tracer's points; any change to which charges are kept, their
//! order, sequence numbers, transition and fault args, the track set, or
//! the drop counters shows up here. The ring exports are committed as
//! fixtures (so a failure diffs readably); the unbounded ones, about
//! 0.5–0.6 MB each, are pinned by a content digest.

use hvx_engine::FingerprintHasher;
use hvx_suite::spec_run::parse_paper_name;
use hvx_suite::trace::run_trace;

fn export(scenario: &str, ring: Option<usize>) -> String {
    let sc = parse_paper_name(scenario).expect("known scenario");
    run_trace(&sc, ring).expect("traced run").json
}

fn digest(json: &str) -> String {
    let mut h = FingerprintHasher::new();
    h.write_str(json);
    h.finish().to_hex()
}

#[test]
fn unbounded_exports_match_their_pinned_digests() {
    for (scenario, len, expected) in [
        (
            "tcp_rr-kvm-arm",
            534_183,
            "8d2843052fa2144b733451ca71ef8cfc",
        ),
        (
            "tcp_rr-xen-arm",
            618_838,
            "3a351dce3964c4bd6c8336bf2c9bb080",
        ),
    ] {
        let json = export(scenario, None);
        assert_eq!(json.len(), len, "{scenario}: export length moved");
        assert_eq!(digest(&json), expected, "{scenario}: export bytes moved");
    }
}

#[test]
fn ring_exports_match_their_fixtures() {
    for (scenario, fixture) in [
        (
            "tcp_rr-kvm-arm",
            include_str!("fixtures/tcp_rr-kvm-arm-ring64.json"),
        ),
        (
            "tcp_rr-xen-arm",
            include_str!("fixtures/tcp_rr-xen-arm-ring64.json"),
        ),
    ] {
        let json = export(scenario, Some(64));
        let first_diff = json.lines().zip(fixture.lines()).position(|(a, b)| a != b);
        assert!(
            json == fixture,
            "{scenario}: ring-64 export differs from its fixture \
             (first differing line index: {first_diff:?})"
        );
    }
}
