//! Integration test: the sharded session executor is observationally
//! identical to the sequential path.
//!
//! The solver service promises that sharding is *invisible*: a sink
//! attached to a sharded [`Session`] observes exactly the sequential
//! record stream — same records, same order, byte-identical serialised
//! reports. These tests assert that promise on [`Registry::conformance`]
//! (property-tested across thread counts and portfolio subsets), and on
//! [`Registry::smoke`] and a single scenario whose cells split across
//! workers at the JSON-lines byte level.

use edge_dominating_sets::scenarios::{
    Family, JsonLinesSink, PortPolicy, Protocol, Registry, ScenarioSpec, Session, SweepRecord,
};
use proptest::prelude::*;

/// The sequential reference stream for a portfolio on the conformance
/// registry.
fn sequential(protocols: &[Protocol]) -> Vec<SweepRecord> {
    Session::over(Registry::conformance())
        .protocols(protocols)
        .sequential()
        .collect()
        .expect("sequential session runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite property: for random thread counts and random protocol
    /// subsets, the parallel sharded sweep produces a record set
    /// identical — same order after the deterministic merge — to the
    /// sequential session run on `Registry::conformance`.
    #[test]
    fn sharded_conformance_stream_equals_sequential(
        threads in 2usize..12,
        mask in 1usize..64,
    ) {
        let protocols: Vec<Protocol> = Protocol::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, p)| p)
            .collect();
        let reference = sequential(&protocols);
        let sharded = Session::over(Registry::conformance())
            .protocols(&protocols)
            .threads(threads)
            .collect()
            .expect("sharded session runs");
        prop_assert_eq!(sharded.len(), reference.len());
        for (a, b) in sharded.iter().zip(&reference) {
            prop_assert_eq!(a, b);
        }
    }
}

/// The acceptance-level check: a streaming JSON-lines report written by
/// the sharded path is byte-identical to the sequential one, over the
/// smoke registry and over one scenario, the Petersen graph, whose six
/// cells are all the work there is.
#[test]
fn json_lines_report_is_byte_identical_across_shardings() {
    let petersen = ScenarioSpec::new(Family::Petersen, 3, PortPolicy::Shuffled)
        .build()
        .unwrap();
    let render = |session: Session| -> Vec<u8> {
        let mut sink = JsonLinesSink::new(Vec::new());
        session.run(&mut sink).expect("session runs");
        sink.finish().expect("in-memory writer cannot fail")
    };
    for single in [false, true] {
        let session = || {
            if single {
                Session::new().scenarios(vec![petersen.clone()])
            } else {
                Session::over(Registry::smoke())
            }
        };
        let reference = render(session().sequential());
        assert!(!reference.is_empty());
        for threads in [2usize, 4, 16] {
            assert_eq!(
                render(session().threads(threads)),
                reference,
                "single = {single}: sharded report diverges at {threads} threads"
            );
        }
    }
}
