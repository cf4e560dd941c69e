//! Shared local computations and the one-word message layout of the
//! distributed protocols.

use std::num::NonZeroU64;

/// Packs a one-word message: `kind` (1 to 7, so the word is never zero)
/// in the low three bits and `payload` (below 2⁶¹) above them.
pub(crate) const fn pack_word(kind: u64, payload: u64) -> NonZeroU64 {
    assert!(
        kind > 0 && kind < 8 && payload >> 61 == 0,
        "message kind or payload out of range"
    );
    NonZeroU64::new(kind | payload << 3).expect("the kind bits are non-zero")
}

/// The kind of a word built by [`pack_word`].
pub(crate) const fn word_kind(word: NonZeroU64) -> u64 {
    word.get() & 7
}

/// The payload of a word built by [`pack_word`].
pub(crate) const fn word_payload(word: NonZeroU64) -> u64 {
    word.get() >> 3
}

/// The one-bit payload of `word` if it is of kind `kind`.
pub(crate) fn word_flag(word: NonZeroU64, kind: u64) -> Option<bool> {
    (word_kind(word) == kind).then_some(word_payload(word) == 1)
}

/// Computes, from the counterpart port numbers learned in the first
/// communication round, which of a node's ports leads to its
/// distinguishable neighbour (Section 5).
///
/// `their_port(&ports[i])` is the 1-based port number at the far end of
/// this node's 0-based port `i`. Returns the 0-based index of the port
/// whose label pair is unique and has the smallest own port number, or
/// `None` if every label pair repeats (possible only for even degree,
/// Lemma 1).
///
/// This is the message-level twin of
/// [`crate::labels::distinguishable_neighbor`]; the two are tested to
/// agree on every graph.
pub fn dn_port_index<T>(ports: &[T], their_port: impl Fn(&T) -> u32) -> Option<usize> {
    let d = ports.len();
    let pair = |i: usize| {
        let a = (i + 1) as u32;
        let b = their_port(&ports[i]);
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    };
    for i in 0..d {
        let mine = pair(i);
        let unique = (0..d).filter(|&j| pair(j) == mine).count() == 1;
        if unique {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::distinguishable_neighbor;
    use pn_graph::{generators, ports, Endpoint};

    #[test]
    fn unique_smallest_port_wins() {
        // Ports (1-based) 1,2,3 with counterparts 2,2,9:
        // pairs {1,2}, {2,2}, {3,9} — all unique; port 1 wins.
        let dn = |their: &[u32]| dn_port_index(their, |&p| p);
        assert_eq!(dn(&[2, 2, 9]), Some(0));
        // pairs {1,2}, {1,2}: none unique.
        assert_eq!(dn(&[2, 1]), None);
        // pairs {1,3}, {2,2}, {1,3}: only {2,2} unique.
        assert_eq!(dn(&[3, 2, 1]), Some(1));
        // Degree 1: always unique.
        assert_eq!(dn(&[7]), Some(0));
        // Degree 0: no ports.
        assert_eq!(dn(&[]), None);
    }

    #[test]
    fn agrees_with_graph_level_definition() {
        for seed in 0..6 {
            let g = generators::random_regular(10, 5, seed).unwrap();
            let pg = ports::shuffled_ports(&g, seed + 60).unwrap();
            for v in pg.nodes() {
                let their: Vec<u32> = pg
                    .ports(v)
                    .map(|p| pg.connection(Endpoint::new(v, p)).port.get())
                    .collect();
                let local = dn_port_index(&their, |&p| p);
                let global = distinguishable_neighbor(&pg, v);
                match (local, global) {
                    (None, None) => {}
                    (Some(i), Some((u, _))) => {
                        let through = pg.neighbor_through(v, pn_graph::Port::from_index(i));
                        assert_eq!(through, u);
                    }
                    other => panic!("disagreement at {v}: {other:?}"),
                }
            }
        }
    }
}
