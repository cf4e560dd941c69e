//! Error-path and edge-case tests for the round engine: message delivery
//! to halted nodes, round limits and cancellation — the contracts the
//! quality sweeps rely on when something goes wrong.

use pn_graph::{generators, ports};
use pn_runtime::{NodeAlgorithm, RunOptions, RuntimeError, Simulator};

/// Halts after a per-node number of rounds, recording everything heard.
struct TalkUntil {
    rounds_left: usize,
    heard: Vec<Vec<Option<u64>>>,
}

impl NodeAlgorithm for TalkUntil {
    type Message = u64;
    type Output = Vec<Vec<Option<u64>>>;

    fn send_into(&mut self, round: usize, outbox: &mut [Option<u64>]) {
        outbox.fill(Some(round as u64 + 10));
    }

    fn receive(&mut self, _round: usize, inbox: &[Option<u64>]) -> Option<Self::Output> {
        self.heard.push(inbox.to_vec());
        self.rounds_left -= 1;
        (self.rounds_left == 0).then(|| self.heard.clone())
    }
}

#[test]
fn messages_to_halted_nodes_are_counted_but_never_resurface() {
    // Path a - b - c. Endpoints halt after round 1; the middle keeps
    // sending into their (halted) windows for two more rounds.
    let g = ports::canonical_ports(&generators::path(3).unwrap()).unwrap();
    let lifetime = |d: usize| if d == 1 { 1 } else { 3 };
    let run = Simulator::new(&g)
        .run(|_, d| TalkUntil {
            rounds_left: lifetime(d),
            heard: Vec::new(),
        })
        .unwrap();
    assert_eq!(run.halted_at, vec![1, 3, 1]);
    // Round 1: all 4 port messages. Rounds 2 and 3: only the middle
    // node's 2 ports — delivered into halted windows, still counted.
    assert_eq!(run.messages, 4 + 2 + 2);
    // The middle node hears real messages in round 1 and `None` from
    // the halted endpoints afterwards.
    let middle = &run.outputs[1];
    assert_eq!(middle.len(), 3);
    assert_eq!(middle[0], vec![Some(10), Some(10)]);
    assert_eq!(middle[1], vec![None, None]);
    assert_eq!(middle[2], vec![None, None]);
    // The endpoints' recorded history is untouched by the posthumous
    // deliveries: exactly one round each.
    assert_eq!(run.outputs[0].len(), 1);
    assert_eq!(run.outputs[2].len(), 1);
}

#[test]
fn message_delivered_in_the_halting_round_does_not_leak() {
    // Both nodes of an edge halt in round 1 while messages are in
    // flight; the run completes cleanly with both messages delivered.
    let g = ports::canonical_ports(&generators::path(2).unwrap()).unwrap();
    let run = Simulator::new(&g)
        .run(|_, _| TalkUntil {
            rounds_left: 1,
            heard: Vec::new(),
        })
        .unwrap();
    assert_eq!(run.rounds, 1);
    assert_eq!(run.messages, 2);
    assert_eq!(run.outputs[0], vec![vec![Some(10)]]);
    assert_eq!(run.outputs[1], vec![vec![Some(10)]]);
}

#[test]
fn zero_round_limit_fails_immediately_on_nonempty_graphs() {
    let g = ports::canonical_ports(&generators::cycle(5).unwrap()).unwrap();
    let sim = Simulator::with_options(
        &g,
        RunOptions {
            max_rounds: 0,
            ..RunOptions::default()
        },
    );
    let err = sim
        .run(|_, _| TalkUntil {
            rounds_left: 1,
            heard: Vec::new(),
        })
        .unwrap_err();
    match err {
        RuntimeError::RoundLimitExceeded {
            limit,
            still_running,
        } => {
            assert_eq!(limit, 0);
            assert_eq!(still_running, 5, "no node ever ran");
        }
        other => panic!("expected RoundLimitExceeded, got {other}"),
    }
}

#[test]
fn zero_round_limit_is_fine_on_the_empty_graph() {
    // An empty graph needs zero rounds, so a zero budget suffices.
    let g = pn_graph::PortNumberedGraph::from_involution(vec![], vec![]).unwrap();
    let sim = Simulator::with_options(
        &g,
        RunOptions {
            max_rounds: 0,
            ..RunOptions::default()
        },
    );
    let run = sim
        .run(|_, _| TalkUntil {
            rounds_left: 1,
            heard: Vec::new(),
        })
        .unwrap();
    assert_eq!(run.rounds, 0);
    assert_eq!(run.messages, 0);
    assert!(run.outputs.is_empty());
}

/// A node that never halts: the substrate for cancellation tests.
struct Chatter;

impl NodeAlgorithm for Chatter {
    type Message = u8;
    type Output = ();
    fn send_into(&mut self, _round: usize, outbox: &mut [Option<u8>]) {
        outbox.fill(Some(0));
    }
    fn receive(&mut self, _round: usize, _inbox: &[Option<u8>]) -> Option<()> {
        None
    }
}

#[test]
fn pre_cancelled_token_aborts_before_the_first_round() {
    let g = ports::canonical_ports(&generators::cycle(5).unwrap()).unwrap();
    let token = pn_runtime::CancelToken::new();
    token.cancel();
    let err = Simulator::new(&g)
        .cancel_token(token)
        .run(|_, _| Chatter)
        .unwrap_err();
    match err {
        RuntimeError::Cancelled {
            after_rounds,
            still_running,
        } => {
            assert_eq!(after_rounds, 0);
            assert_eq!(still_running, 5);
        }
        other => panic!("expected Cancelled, got {other}"),
    }
}

#[test]
fn expired_deadline_cancels_mid_run() {
    use std::time::{Duration, Instant};

    let g = ports::canonical_ports(&generators::cycle(8).unwrap()).unwrap();
    let token = pn_runtime::CancelToken::with_deadline(Instant::now() + Duration::from_millis(5));
    match Simulator::new(&g)
        .cancel_token(token)
        .run(|_, _| Chatter)
        .unwrap_err()
    {
        RuntimeError::Cancelled { still_running, .. } => {
            assert_eq!(still_running, 8, "nobody ever halts")
        }
        other => panic!("expected Cancelled, got {other}"),
    }
}

#[test]
fn uncancelled_token_changes_nothing() {
    let g = ports::canonical_ports(&generators::path(4).unwrap()).unwrap();
    let token = pn_runtime::CancelToken::new();
    let with = Simulator::new(&g)
        .cancel_token(token)
        .run(|_, _| TalkUntil {
            rounds_left: 3,
            heard: Vec::new(),
        })
        .unwrap();
    let without = Simulator::new(&g)
        .run(|_, _| TalkUntil {
            rounds_left: 3,
            heard: Vec::new(),
        })
        .unwrap();
    assert_eq!(with.outputs, without.outputs);
    assert_eq!(with.rounds, without.rounds);
    assert_eq!(with.messages, without.messages);
}
