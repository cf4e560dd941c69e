//! Multi-threaded execution of the synchronous simulator: a **persistent
//! worker pool** with epoch-barrier phase synchronisation.
//!
//! # Execution model
//!
//! [`Simulator::run`] with [`RunOptions::threads`] `≥ 2` spawns
//! `threads - 1` OS threads **once per run** (the calling thread seats
//! the remaining worker; `threads` is clamped to the node count) and
//! moves the whole round loop inside that scope. Nodes are partitioned
//! into one contiguous chunk per worker; each worker exclusively owns its
//! chunk's algorithm states, inbox slot range, output/halt slots, a
//! degree-sized scratch window and an **active-node frontier**
//! (compacted in place as its nodes halt, exactly like the sequential
//! engine). Workers advance in lock step
//! through a shared [`PoolBarrier`] — an epoch counter plus a poisoning
//! flag — so the steady-state cost of a round is **two barrier waits**,
//! not the `3 × threads` thread spawns of the previous scoped-spawn
//! design:
//!
//! 1. **send + route (fused)** — the worker has each frontier node write
//!    its scratch window ([`NodeAlgorithm::send_into`]) and immediately
//!    gathers: every written slot is **moved** (`take()`) through the
//!    precomputed routing table. A message staying inside the chunk
//!    lands directly in the worker's own inbox range; a message crossing
//!    chunks is moved into a per-(sender, receiver) **mailbox** handed
//!    over wholesale (one lock per worker pair per round, buffers
//!    swapped so capacity is reused). No message is ever cloned, and
//!    draining the window restores its all-`None` invariant for free,
//!    exactly as in the sequential engine. The two sub-phases need no
//!    barrier between them because no worker reads another's inbox or
//!    mailboxes until the next phase.
//! 2. *barrier* — all routed messages become visible.
//! 3. **receive** — the worker drains the mailboxes addressed to it into
//!    its inbox range, delivers each frontier node's inbox window,
//!    clears it, records halts into its chunk's output slots and
//!    compacts its frontier. It then publishes the chunk's remaining
//!    node count.
//! 4. *barrier* — every worker sums the published counts, agreeing on
//!    termination (and on [`RunOptions::max_rounds`]) without any
//!    coordinator thread.
//!
//! A chunk whose nodes have all halted is **quiescent**: its frontier is
//! empty, so its worker touches no slot in any phase and costs only the
//! two barrier waits per round. (An explicit per-chunk flag is not
//! needed — the frontier *is* the flag, and unlike a dense receiver-side
//! gather there is no per-port route range left to skip: routing is
//! sender-side and frontier-driven.)
//!
//! [`RunOptions::max_rounds`]: crate::RunOptions::max_rounds
//! [`RunOptions::record_trace`]: crate::RunOptions::record_trace
//! [`RunOptions::threads`]: crate::RunOptions::threads
//!
//! Chunks are contiguous node ranges on purpose: for structured
//! workloads (cycles, grids, lifts) most edges stay within a chunk, so
//! the bulk of the traffic takes the direct in-chunk move and the
//! mailboxes carry only the boundary.
//!
//! One thread (or a single-node graph) never reaches the pool:
//! [`Simulator::run`] takes the sequential engine. So does a run with
//! [`RunOptions::record_trace`] set, since the pool records no
//! transcript.
//!
//! The pool produces **bit-identical** [`Run`]s to the sequential
//! engine for every thread count — outputs, halt rounds and message
//! totals (per-worker counters merged in deterministic chunk order at
//! the end). The equivalence suite asserts this, not just promises it.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use pn_graph::NodeId;

use crate::algorithm::NodeAlgorithm;
use crate::metrics::RunFlush;
use crate::simulator::{Run, Simulator};
use crate::{CancelToken, RuntimeError};

/// A reusable epoch barrier for the worker pool.
///
/// Functionally `std::sync::Barrier` plus two things the pool needs:
/// a spin-then-block fast path (a simulation phase on a large chunk
/// takes far longer than a few hundred spins, so blocking is the
/// exception on balanced chunks) and **poisoning** — when a worker
/// panics inside a user algorithm, its drop guard poisons the barrier
/// and every peer unblocks with an error instead of deadlocking on a
/// rendezvous that can never complete.
pub(crate) struct PoolBarrier {
    size: usize,
    /// Spin iterations before yielding/blocking: zero on a single-CPU
    /// host, where spinning only steals the releaser's timeslice.
    spin_limit: u32,
    arrived: AtomicUsize,
    epoch: AtomicU64,
    poisoned: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Returned by [`PoolBarrier::wait`] when a peer worker panicked.
pub(crate) struct BarrierPoisoned;

impl PoolBarrier {
    pub(crate) fn new(size: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        PoolBarrier {
            size,
            spin_limit: if cores > 1 { 128 } else { 0 },
            arrived: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all `size` workers have arrived (or the barrier is
    /// poisoned). The last arriver resets the count *before* bumping the
    /// epoch, so the barrier is immediately reusable.
    pub(crate) fn wait(&self) -> Result<(), BarrierPoisoned> {
        let epoch = self.epoch.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.size {
            self.arrived.store(0, Ordering::Relaxed);
            self.epoch.fetch_add(1, Ordering::Release);
            // Serialise with sleepers' predicate check, then wake them.
            drop(self.lock.lock().expect("pool barrier lock"));
            self.cv.notify_all();
        } else {
            let mut spins = 0u32;
            loop {
                if self.epoch.load(Ordering::Acquire) != epoch
                    || self.poisoned.load(Ordering::Acquire)
                {
                    break;
                }
                spins += 1;
                if spins < self.spin_limit {
                    std::hint::spin_loop();
                } else if self.spin_limit > 0 && spins < self.spin_limit + 32 {
                    // Oversubscribed multi-core hosts: give the releaser
                    // a slot. On a single core, skip straight to the
                    // condvar — one block beats 32 scheduler round-trips.
                    std::thread::yield_now();
                } else {
                    let guard = self.lock.lock().expect("pool barrier lock");
                    let _guard = self
                        .cv
                        .wait_while(guard, |()| {
                            self.epoch.load(Ordering::Acquire) == epoch
                                && !self.poisoned.load(Ordering::Acquire)
                        })
                        .expect("pool barrier lock");
                    break;
                }
            }
        }
        if self.poisoned.load(Ordering::Acquire) {
            Err(BarrierPoisoned)
        } else {
            Ok(())
        }
    }

    /// Marks the barrier unusable and wakes every sleeper. Called from a
    /// panicking worker's drop guard.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        drop(self.lock.lock().expect("pool barrier lock"));
        self.cv.notify_all();
    }
}

/// Poisons the barrier if dropped during a panic, so peer workers
/// unblock instead of deadlocking; the panic itself propagates through
/// the scope join.
pub(crate) struct PoisonOnPanic<'a>(pub(crate) &'a PoolBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// One staged cross-chunk message batch: `(destination slot, message)`
/// pairs, exchanged wholesale between a sender and a receiver chunk.
type Mailbox<M> = Mutex<Vec<(u32, M)>>;

/// Everything the workers share by reference.
struct SharedCtx<'a, A: NodeAlgorithm> {
    graph: &'a pn_graph::PortNumberedGraph,
    offsets: &'a [usize],
    route: &'a [u32],
    /// Chunk slot boundaries, ascending, `workers + 1` entries; chunk
    /// `w` owns slots `slot_bounds[w]..slot_bounds[w + 1]`.
    slot_bounds: Vec<usize>,
    /// Cross-chunk message handoff: `mailboxes[sender * workers + dest]`
    /// is written (swapped in) by `sender` in the route phase and
    /// drained by `dest` in the receive phase — never both in the same
    /// phase, so every lock is uncontended in the steady state.
    mailboxes: Vec<Mailbox<A::Message>>,
    barrier: PoolBarrier,
    /// Set by worker 0 when the cancellation token fires; every worker
    /// checks it after the route barrier and aborts the run.
    failed: AtomicBool,
    /// Per-chunk remaining-node counts, republished every round after
    /// the receive phase; their sum is the termination condition every
    /// worker computes identically.
    chunk_running: Vec<AtomicUsize>,
    max_rounds: usize,
    total_nodes: usize,
    /// The run's cancellation token; polled by worker 0 each round and
    /// propagated through `failed`, so every worker aborts at the same
    /// barrier.
    cancel: Option<&'a CancelToken>,
}

impl<A: NodeAlgorithm> SharedCtx<'_, A> {
    /// The chunk owning `slot` (binary search over the chunk bounds).
    #[inline]
    fn worker_of_slot(&self, slot: usize) -> usize {
        self.slot_bounds.partition_point(|&b| b <= slot) - 1
    }
}

/// One worker's private seat: the chunk slices it exclusively owns.
struct Seat<'a, A: NodeAlgorithm> {
    index: usize,
    /// First node of the chunk.
    lo: usize,
    /// First slot of the chunk.
    slot_base: usize,
    states: &'a mut [Option<A>],
    outputs: &'a mut [Option<A::Output>],
    halted_at: &'a mut [usize],
    /// One node's sends, as long as the largest degree; all-`None`
    /// between sends.
    window: Vec<Option<A::Message>>,
    inbox: &'a mut [Option<A::Message>],
    frontier: Vec<u32>,
    /// Per-destination-chunk staging buffers for cross-chunk messages,
    /// swapped into the shared mailboxes once per round (capacities
    /// ping-pong between the two sides, so steady-state rounds allocate
    /// nothing).
    outbound: Vec<Vec<(u32, A::Message)>>,
}

impl Simulator<'_> {
    /// The worker-pool engine behind [`Simulator::run`] for `workers`
    /// (`2..=n`) threads.
    pub(crate) fn run_pool<A>(
        &self,
        states: Vec<A>,
        workers: usize,
    ) -> Result<Run<A::Output>, RuntimeError>
    where
        A: NodeAlgorithm + Send,
        A::Message: Send,
        A::Output: Send,
    {
        let g = self.graph();
        let n = g.node_count();
        type Msg<A> = <A as NodeAlgorithm>::Message;
        type Out<A> = <A as NodeAlgorithm>::Output;

        let offsets = g.slot_offsets();
        let total_ports = g.port_count();
        let slot_at = |v: usize| {
            if v == n {
                total_ports
            } else {
                offsets[v]
            }
        };

        // Static node chunks, one per worker, with aligned slot chunks.
        let chunk = n.div_ceil(workers);
        let node_bounds: Vec<(usize, usize)> = (0..workers)
            .map(|t| ((t * chunk).min(n), ((t + 1) * chunk).min(n)))
            .collect();
        let slot_bounds: Vec<usize> = (0..=workers).map(|t| slot_at((t * chunk).min(n))).collect();

        let mut states: Vec<Option<A>> = states.into_iter().map(Some).collect();
        let mut outputs: Vec<Option<Out<A>>> = (0..n).map(|_| None).collect();
        let mut halted_at = vec![0usize; n];
        let mut inbox: Vec<Option<Msg<A>>> = (0..total_ports).map(|_| None).collect();
        let max_degree = g.max_degree();

        let shared = SharedCtx::<A> {
            graph: g,
            offsets,
            route: self.routing_table(),
            slot_bounds,
            mailboxes: (0..workers * workers)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            barrier: PoolBarrier::new(workers),
            failed: AtomicBool::new(false),
            chunk_running: node_bounds
                .iter()
                .map(|&(lo, hi)| AtomicUsize::new(hi - lo))
                .collect(),
            max_rounds: self.options().max_rounds,
            total_nodes: n,
            cancel: self.cancel(),
        };

        // Carve each worker's seat out of the flat buffers.
        let mut seats: Vec<Seat<A>> = Vec::with_capacity(workers);
        {
            let mut states_rest = states.as_mut_slice();
            let mut outputs_rest = outputs.as_mut_slice();
            let mut halted_rest = halted_at.as_mut_slice();
            let mut inbox_rest = inbox.as_mut_slice();
            let mut node_consumed = 0usize;
            let mut slot_consumed = 0usize;
            for (index, &(lo, hi)) in node_bounds.iter().enumerate() {
                let (seat_states, next) = states_rest.split_at_mut(hi - node_consumed);
                states_rest = next;
                let (seat_outputs, next) = outputs_rest.split_at_mut(hi - node_consumed);
                outputs_rest = next;
                let (seat_halted, next) = halted_rest.split_at_mut(hi - node_consumed);
                halted_rest = next;
                let (seat_inbox, next) = inbox_rest.split_at_mut(slot_at(hi) - slot_consumed);
                inbox_rest = next;
                node_consumed = hi;
                let slot_base = slot_consumed;
                slot_consumed = slot_at(hi);
                seats.push(Seat {
                    index,
                    lo,
                    slot_base,
                    states: seat_states,
                    outputs: seat_outputs,
                    halted_at: seat_halted,
                    window: (0..max_degree).map(|_| None).collect(),
                    inbox: seat_inbox,
                    frontier: (lo as u32..hi as u32).collect(),
                    outbound: (0..workers).map(|_| Vec::new()).collect(),
                });
            }
        }

        let results: Vec<Result<usize, RuntimeError>> = std::thread::scope(|scope| {
            let shared = &shared;
            let mut seats = seats.into_iter();
            let seat0 = seats.next().expect("at least one worker");
            let handles: Vec<_> = seats
                .map(|seat| scope.spawn(move || run_worker(seat, shared)))
                .collect();
            let mut results = vec![run_worker(seat0, shared)];
            for h in handles {
                results.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            results
        });

        // Only worker 0 materialises an error (the round limit or a
        // cancellation); the others abort quietly.
        let mut messages = 0usize;
        for r in results {
            messages += r?;
        }

        Ok(Run {
            outputs: outputs
                .into_iter()
                .map(|o| o.expect("all nodes halted"))
                .collect(),
            rounds: halted_at.iter().copied().max().unwrap_or(0),
            halted_at,
            messages,
            trace: None,
        })
    }
}

/// The pool worker: runs its chunk of every round until global
/// termination, an error, or barrier poisoning. Returns the number of
/// messages this worker routed.
fn run_worker<A>(mut seat: Seat<A>, sh: &SharedCtx<A>) -> Result<usize, RuntimeError>
where
    A: NodeAlgorithm + Send,
    A::Message: Send,
    A::Output: Send,
{
    let _poison_guard = PoisonOnPanic(&sh.barrier);
    let g = sh.graph;
    let workers = sh.chunk_running.len();
    let mut rounds = 0usize;
    let mut running = sh.total_nodes;
    let mut messages = 0usize;
    let mut my_error: Option<RuntimeError> = None;
    // Per-worker telemetry aggregate, flushed on any exit path; worker 0
    // accounts for the run itself and the shared per-round series.
    let mut stats = RunFlush::new(seat.index == 0);

    while running > 0 {
        if rounds >= sh.max_rounds {
            // Every worker reaches this conclusion in the same round;
            // only the first seat materialises the error.
            if seat.index == 0 {
                my_error = Some(RuntimeError::RoundLimitExceeded {
                    limit: sh.max_rounds,
                    still_running: running,
                });
            }
            break;
        }
        if seat.index == 0 {
            stats.frontier.observe(running as u64);
            // Cancellation rides the `failed` flag: every worker aborts
            // at this round's first barrier, exactly like a local error.
            if sh.cancel.is_some_and(CancelToken::check) {
                my_error = Some(RuntimeError::Cancelled {
                    after_rounds: rounds,
                    still_running: running,
                });
                sh.failed.store(true, Ordering::Release);
            }
        }

        // ---- Send + route (fused), frontier-driven: each node's
        // freshly written window is gathered while still cache-hot.
        // Gathering before an abort is harmless — everything it touches
        // (own inbox, staging, mailboxes) dies with the aborted run. ----
        let slot_base = seat.slot_base;
        let route = sh.route;
        for &vu in &seat.frontier {
            let v = vu as usize;
            let base = sh.offsets[v];
            let d = g.degree(NodeId::new(v));
            let state = seat.states[v - seat.lo]
                .as_mut()
                .expect("frontier nodes run");
            let window = &mut seat.window[..d];
            state.send_into(rounds, window);
            for (off, slot) in window.iter_mut().enumerate() {
                if let Some(m) = slot.take() {
                    messages += 1;
                    let dest = route[base + off] as usize;
                    // In-chunk destinations (the common case under
                    // contiguous chunking) land directly; the wrapping
                    // subtraction folds the range test into the slice
                    // lookup.
                    match seat.inbox.get_mut(dest.wrapping_sub(slot_base)) {
                        Some(target) => *target = Some(m),
                        None => {
                            seat.outbound[sh.worker_of_slot(dest)].push((dest as u32, m));
                        }
                    }
                }
            }
        }
        // Hand the staged cross-chunk messages over wholesale: one
        // uncontended lock per destination chunk, buffers swapped so both
        // sides keep their capacity.
        for (dest_worker, staged) in seat.outbound.iter_mut().enumerate() {
            if staged.is_empty() {
                continue;
            }
            let mut mailbox = sh.mailboxes[seat.index * workers + dest_worker]
                .lock()
                .expect("mailbox lock");
            std::mem::swap(&mut *mailbox, staged);
        }
        if sh.barrier.wait().is_err() {
            return Ok(0); // a peer panicked; the scope join re-raises it
        }
        if sh.failed.load(Ordering::Acquire) {
            // Workers without a local error abort quietly; the caller
            // surfaces the first chunk's error.
            return match my_error {
                Some(e) => Err(e),
                None => Ok(0),
            };
        }

        // ---- Receive phase: drain mailboxes, then own chunk only. ----
        for sender in 0..workers {
            if sender == seat.index {
                continue;
            }
            let mut mailbox = sh.mailboxes[sender * workers + seat.index]
                .lock()
                .expect("mailbox lock");
            for (dest, m) in mailbox.drain(..) {
                seat.inbox[dest as usize - seat.slot_base] = Some(m);
            }
        }
        let mut write = 0usize;
        for read in 0..seat.frontier.len() {
            let vu = seat.frontier[read];
            let v = vu as usize;
            let base = sh.offsets[v];
            let d = g.degree(NodeId::new(v));
            let local = base - seat.slot_base;
            let state_slot = &mut seat.states[v - seat.lo];
            let state = state_slot.as_mut().expect("frontier nodes run");
            let window = &mut seat.inbox[local..local + d];
            let decision = state.receive(rounds, window);
            for slot in window.iter_mut() {
                *slot = None;
            }
            match decision {
                Some(out) => {
                    seat.outputs[v - seat.lo] = Some(out);
                    seat.halted_at[v - seat.lo] = rounds + 1;
                    *state_slot = None;
                }
                None => {
                    seat.frontier[write] = vu;
                    write += 1;
                }
            }
        }
        seat.frontier.truncate(write);
        sh.chunk_running[seat.index].store(seat.frontier.len(), Ordering::Release);
        if sh.barrier.wait().is_err() {
            return Ok(0);
        }
        running = sh
            .chunk_running
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum();
        rounds += 1;
        stats.barrier_waits += 2;
        stats.messages = messages as u64;
        if seat.index == 0 {
            stats.rounds = rounds as u64;
        }
    }

    match my_error {
        Some(e) => Err(e),
        None => Ok(messages),
    }
}

#[cfg(test)]
mod tests {
    use super::PoolBarrier;
    use crate::{NodeAlgorithm, RunOptions, Simulator};
    use pn_graph::{generators, ports, PortNumberedGraph};

    /// A simulator for `g` running on `threads` workers.
    fn pool(g: &PortNumberedGraph, threads: usize) -> Simulator<'_> {
        Simulator::with_options(
            g,
            RunOptions {
                threads,
                ..RunOptions::default()
            },
        )
    }

    #[derive(Clone)]
    struct Gossip {
        acc: u64,
        left: usize,
    }

    impl NodeAlgorithm for Gossip {
        type Message = u64;
        type Output = u64;
        fn send_into(&mut self, _r: usize, outbox: &mut [Option<u64>]) {
            for (q, slot) in outbox.iter_mut().enumerate() {
                *slot = Some(self.acc.wrapping_add(q as u64));
            }
        }
        fn receive(&mut self, _r: usize, inbox: &[Option<u64>]) -> Option<u64> {
            for m in inbox.iter().flatten() {
                self.acc = self.acc.rotate_left(5).wrapping_add(*m);
            }
            self.left -= 1;
            (self.left == 0).then_some(self.acc)
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        for (n, d, seed) in [(20usize, 4usize, 1u64), (37, 6, 2), (64, 3, 3)] {
            let n = if (n * d) % 2 == 1 { n + 1 } else { n };
            let g = generators::random_regular(n, d, seed).unwrap();
            let pg = ports::shuffled_ports(&g, seed).unwrap();
            let factory = |_, deg: usize| Gossip {
                acc: deg as u64,
                left: 9,
            };
            let seq = Simulator::new(&pg).run(factory).unwrap();
            for threads in [1usize, 2, 3, 8, 1000] {
                let par = pool(&pg, threads).run(factory).unwrap();
                assert_eq!(par.outputs, seq.outputs, "threads = {threads}");
                assert_eq!(par.rounds, seq.rounds);
                assert_eq!(par.messages, seq.messages);
                assert_eq!(par.halted_at, seq.halted_at);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_with_staggered_halts() {
        // Nodes halt after `degree + 1` rounds, so low-degree nodes fall
        // silent while high-degree neighbours keep running — the case
        // where frontier compaction and the drained-outbox invariant
        // must agree between the sequential and pool drivers.
        #[derive(Clone)]
        struct Staggered {
            degree: usize,
            seen: u64,
            round_count: usize,
        }
        impl NodeAlgorithm for Staggered {
            type Message = u64;
            type Output = u64;
            fn send_into(&mut self, r: usize, outbox: &mut [Option<u64>]) {
                outbox.fill(Some(self.seen.wrapping_add(r as u64)));
            }
            fn receive(&mut self, _r: usize, inbox: &[Option<u64>]) -> Option<u64> {
                for (q, m) in inbox.iter().enumerate() {
                    match m {
                        Some(x) => self.seen = self.seen.rotate_left(7) ^ x,
                        None => self.seen = self.seen.wrapping_mul(31).wrapping_add(q as u64),
                    }
                }
                self.round_count += 1;
                (self.round_count > self.degree).then_some(self.seen)
            }
        }
        let g = generators::gnp(40, 0.12, 5).unwrap();
        let pg = ports::shuffled_ports(&g, 6).unwrap();
        let factory = |_, d: usize| Staggered {
            degree: d,
            seen: d as u64,
            round_count: 0,
        };
        let seq = Simulator::new(&pg).run(factory).unwrap();
        for threads in [1usize, 2, 5, 16] {
            let par = pool(&pg, threads).run(factory).unwrap();
            assert_eq!(par.outputs, seq.outputs, "threads = {threads}");
            assert_eq!(par.messages, seq.messages, "threads = {threads}");
            assert_eq!(par.halted_at, seq.halted_at, "threads = {threads}");
        }
    }

    struct PortOne {
        degree: usize,
    }

    impl NodeAlgorithm for PortOne {
        type Message = bool;
        type Output = crate::PortSet;
        fn send_into(&mut self, _r: usize, outbox: &mut [Option<bool>]) {
            for (i, slot) in outbox.iter_mut().enumerate() {
                *slot = Some(i == 0);
            }
        }
        fn receive(&mut self, _r: usize, inbox: &[Option<bool>]) -> Option<crate::PortSet> {
            let mut x = crate::PortSet::new();
            if self.degree >= 1 {
                x.insert(pn_graph::Port::new(1));
            }
            for (i, m) in inbox.iter().enumerate() {
                if m == &Some(true) {
                    x.insert(pn_graph::Port::from_index(i));
                }
            }
            Some(x)
        }
    }

    #[test]
    fn parallel_runs_real_protocols() {
        let g = ports::shuffled_ports(&generators::torus(6, 6).unwrap(), 4).unwrap();
        let seq = Simulator::new(&g)
            .run(|_, d| PortOne { degree: d })
            .unwrap();
        let par = pool(&g, 4).run(|_, d| PortOne { degree: d }).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        let edges = crate::edge_set_from_outputs(&g, &par.outputs).unwrap();
        assert!(!edges.is_empty());
    }

    #[test]
    fn parallel_error_paths() {
        // A token that fired before the run: worker 0 raises the abort
        // on the first barrier, every worker stops, and the caller gets
        // one structured error, before any round ran.
        let g = ports::canonical_ports(&generators::cycle(9).unwrap()).unwrap();
        for threads in [2usize, 3] {
            let token = crate::CancelToken::new();
            token.cancel();
            let err = pool(&g, threads)
                .cancel_token(token)
                .run(|_, d| PortOne { degree: d })
                .unwrap_err();
            assert_eq!(
                err,
                crate::RuntimeError::Cancelled {
                    after_rounds: 0,
                    still_running: 9
                },
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn parallel_round_limit() {
        struct Forever;
        impl NodeAlgorithm for Forever {
            type Message = ();
            type Output = ();
            fn send_into(&mut self, _r: usize, outbox: &mut [Option<()>]) {
                outbox.fill(Some(()));
            }
            fn receive(&mut self, _r: usize, _i: &[Option<()>]) -> Option<()> {
                None
            }
        }
        let g = ports::canonical_ports(&generators::cycle(12).unwrap()).unwrap();
        for threads in [2usize, 4] {
            let sim = Simulator::with_options(
                &g,
                RunOptions {
                    max_rounds: 7,
                    threads,
                    ..RunOptions::default()
                },
            );
            let err = sim.run(|_, _| Forever).unwrap_err();
            assert!(
                matches!(
                    err,
                    crate::RuntimeError::RoundLimitExceeded {
                        limit: 7,
                        still_running: 12
                    }
                ),
                "threads = {threads}: {err:?}"
            );
        }
    }

    #[test]
    fn panicking_algorithm_propagates_without_deadlock() {
        struct Bomb {
            armed: bool,
        }
        impl NodeAlgorithm for Bomb {
            type Message = ();
            type Output = ();
            fn send_into(&mut self, _r: usize, outbox: &mut [Option<()>]) {
                outbox.fill(Some(()));
            }
            fn receive(&mut self, _r: usize, _i: &[Option<()>]) -> Option<()> {
                assert!(!self.armed, "bomb went off");
                Some(())
            }
        }
        let g = ports::canonical_ports(&generators::cycle(16).unwrap()).unwrap();
        let sim = pool(&g, 4);
        let armed = std::sync::atomic::AtomicBool::new(true);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run(|_, _| Bomb {
                armed: armed.swap(false, std::sync::atomic::Ordering::Relaxed),
            })
        }));
        assert!(result.is_err(), "panic must propagate, not deadlock");
    }

    #[test]
    fn pool_barrier_epochs_and_poisoning() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let barrier = PoolBarrier::new(3);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        assert!(barrier.wait().is_ok());
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 150);
        // Poisoning unblocks a waiter that would otherwise sleep forever.
        let barrier = PoolBarrier::new(2);
        std::thread::scope(|scope| {
            let h = scope.spawn(|| barrier.wait().is_err());
            std::thread::sleep(std::time::Duration::from_millis(10));
            barrier.poison();
            assert!(h.join().unwrap(), "waiter observed the poison");
        });
    }
}
