//! The solver's telemetry wiring: every `maximise` call folds its
//! solve, pivot and abort counts into the process-global registry,
//! once per call. A test binary of its own with a single test, because
//! the global registry is shared by every test in a process and
//! parallel tests would race on the exact counts asserted here.

use eds_lp::{eds_dual_certificate, maximise, LpBudget, PackingLp, SolveAbort};
use pn_graph::generators;

#[test]
fn maximise_folds_solves_pivots_and_aborts_into_the_global_registry() {
    let registry = eds_telemetry::global();
    let read = |name: &str| registry.counter(name, "").get();

    // Triangle fractional matching: value 3/2, several pivots.
    let triangle = PackingLp {
        variables: 3,
        rows: vec![vec![0, 2], vec![0, 1], vec![1, 2]],
    };
    let opt = maximise(&triangle, &[]).unwrap();
    assert!(opt.pivots > 0);
    assert_eq!(read("eds_lp_solves_total"), 1);
    assert_eq!(read("eds_lp_pivots_total"), opt.pivots as u64);
    assert_eq!(read("eds_lp_aborts_total"), 0);

    // y1 appears in no row: one pivot brings y0 in, then y1 is
    // unbounded. The aborted solve still counts its pivot.
    let unbounded = PackingLp {
        variables: 2,
        rows: vec![vec![0]],
    };
    assert_eq!(maximise(&unbounded, &[]), Err(SolveAbort::Unbounded));
    assert_eq!(read("eds_lp_solves_total"), 2);
    assert_eq!(read("eds_lp_pivots_total"), opt.pivots as u64 + 1);
    assert_eq!(read("eds_lp_aborts_total"), 1);

    // The certificate pipeline solves once within the budget and not
    // at all beyond it.
    let g = generators::cycle(9).unwrap();
    eds_dual_certificate(&g, &LpBudget::default());
    assert_eq!(read("eds_lp_solves_total"), 3);
    eds_dual_certificate(&g, &LpBudget::disabled());
    assert_eq!(read("eds_lp_solves_total"), 3);

    let text = registry.render();
    assert!(
        text.contains("# TYPE eds_lp_solves_total counter\n"),
        "{text}"
    );
    assert!(text.contains("eds_lp_solves_total 3\n"), "{text}");
    assert!(text.contains("eds_lp_aborts_total 1\n"), "{text}");
    assert!(text.contains("# HELP eds_lp_pivots_total "), "{text}");
}
