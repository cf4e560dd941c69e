//! The batch workloads' inputs, derived from the benchmark's seed alone
//! through [`derive`] (where a seed would change the amount of work, the
//! input is fixed instead; each workload says which). The program under
//! test receives only these specs.

use eds_core::repair::RecoveryPolicy;
use eds_scenarios::{ChurnPlan, ExecOptions, Family, PortPolicy, Registry, ScenarioSpec};

use crate::pipeline::Provider;

/// SplitMix64: the seed-derivation mixer.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `stream`-th seed derived from the workload seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    splitmix(seed ^ splitmix(stream))
}

/// One `Session` of a batch workload.
pub struct SweepPlan {
    pub specs: Vec<ScenarioSpec>,
    pub provider: Provider,
    pub policy: RecoveryPolicy,
}

/// Node count of the large families in [`large_plan`]: large enough
/// that simulator rounds dominate, small enough for several passes per
/// run on a shared 2-core host.
pub const LARGE_N: usize = 30_000;
/// Power-law size: A(Δ) needs about 3Δ² rounds and Δ grows like √n
/// here, so 500 nodes already cost ~12k rounds.
pub const POWER_LAW_N: usize = 500;
/// The degree bound claimed for the power-law instance, so that A(Δ)'s
/// round count (a function of the claim) is the same on every seed.
pub const POWER_LAW_DELTA: usize = 64;
/// Generator seeds of power-law instances whose maximum degree fits the
/// claim (a self-test checks it); the workload seed picks one, so set-up
/// generates no graph.
const POWER_LAW_SEEDS: [u64; 16] = [0, 1, 3, 4, 6, 13, 15, 16, 17, 18, 23, 24, 27, 28, 30, 32];

/// `batch_mixed`: one pass runs [`large_plan`], [`certified_plan`] and
/// the two sessions of [`churn_plans`] in turn.
pub fn batch_mixed(seed: u64) -> Vec<SweepPlan> {
    let mut plans = vec![large_plan(seed), certified_plan(seed)];
    plans.extend(churn_plans());
    plans
}

/// All six protocols on three 3·10⁴-node families and a 500-node
/// power-law graph, under certified LP bounds.
fn large_plan(seed: u64) -> SweepPlan {
    let specs = vec![
        ScenarioSpec::new(
            Family::MillionCycle { n: LARGE_N },
            derive(seed, 1),
            PortPolicy::Shuffled,
        ),
        ScenarioSpec::new(
            Family::MillionRegular { n: LARGE_N },
            derive(seed, 2),
            PortPolicy::Shuffled,
        ),
        ScenarioSpec::new(
            Family::RandomRegular { n: LARGE_N, d: 5 },
            derive(seed, 3),
            PortPolicy::Shuffled,
        ),
        power_law_spec(seed),
    ];
    SweepPlan {
        specs,
        provider: Provider::lp(),
        policy: RecoveryPolicy::default(),
    }
}

fn power_law_spec(seed: u64) -> ScenarioSpec {
    let pick = POWER_LAW_SEEDS[(derive(seed, 100) % POWER_LAW_SEEDS.len() as u64) as usize];
    ScenarioSpec::new(
        Family::PowerLaw {
            n: POWER_LAW_N,
            m: 3,
        },
        pick,
        PortPolicy::Shuffled,
    )
    .with_exec(ExecOptions {
        delta: Some(POWER_LAW_DELTA),
        ..ExecOptions::default()
    })
}

/// The full registry minus its million-node tier, under certified LP
/// bounds. The classic families' port numberings are
/// re-seeded from the workload seed; every instance whose graph depends
/// on its seed (random families, lifts of shuffled bases, churn) keeps
/// the registry's seed, because the exact LP's cost varies several-fold
/// between random instances, which would swamp the measurement.
fn certified_plan(seed: u64) -> SweepPlan {
    let specs = Registry::full()
        .filter(|s| {
            !matches!(
                s.family,
                Family::MillionCycle { .. } | Family::MillionRegular { .. }
            )
        })
        .specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let seeded_graph = matches!(
                spec.family,
                Family::Gnp { .. }
                    | Family::RandomRegular { .. }
                    | Family::RandomBoundedDegree { .. }
                    | Family::RandomTree { .. }
                    | Family::PowerLaw { .. }
                    | Family::SensorNetwork { .. }
                    | Family::CyclicLift { .. }
                    | Family::Churn { .. }
            );
            ScenarioSpec {
                seed: if seeded_graph {
                    spec.seed
                } else {
                    derive(seed, 1_000 + i as u64) % 1_000_000
                },
                ..spec.clone()
            }
        })
        .collect();
    SweepPlan {
        specs,
        provider: Provider::lp(),
        policy: RecoveryPolicy::default(),
    }
}

/// Churn on a streamed cubic 3·10⁴ base (overlay topology) under repair-first recovery, as `scenario_sweep
/// --churn-scale` runs it, and a dense random cubic 10⁴ base (dynamic
/// topology) under the default policy. One session each: the recovery
/// policy is per session.
///
/// The schedules are fixed rather than seeded: how many full
/// re-stabilisation epochs a schedule triggers (audits, retries after
/// corruption) is itself random — three against five rand-matching
/// epochs between two seeds — and would swamp the measurement.
fn churn_plans() -> Vec<SweepPlan> {
    let streamed = ScenarioSpec::new(
        Family::Churn {
            base: Box::new(Family::MillionRegular { n: LARGE_N }),
            plan: ChurnPlan::new(2, 2, 1),
        },
        1,
        PortPolicy::Canonical,
    )
    .with_exec(ExecOptions::scaled());
    let dense = ScenarioSpec::new(
        Family::Churn {
            base: Box::new(Family::RandomRegular { n: 10_000, d: 3 }),
            plan: ChurnPlan::new(3, 3, 2),
        },
        2,
        PortPolicy::Shuffled,
    );
    vec![
        SweepPlan {
            specs: vec![streamed],
            provider: Provider::exact(),
            policy: RecoveryPolicy::repair_first(),
        },
        SweepPlan {
            specs: vec![dense],
            provider: Provider::exact(),
            policy: RecoveryPolicy::default(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        let names = |plans: &[SweepPlan]| -> Vec<String> {
            plans
                .iter()
                .flat_map(|p| p.specs.iter().map(ScenarioSpec::name))
                .collect()
        };
        for make in [large_plan, certified_plan] {
            assert_eq!(names(&[make(7)]), names(&[make(7)]));
            assert_ne!(names(&[make(7)]), names(&[make(8)]));
        }
        assert_eq!(names(&churn_plans()).len(), 2);
        assert_eq!(certified_plan(1).specs.len(), 59);
        assert_eq!(batch_mixed(7).len(), 4);
    }

    #[test]
    fn the_power_law_claim_covers_every_instance() {
        for seed in POWER_LAW_SEEDS {
            let family = Family::PowerLaw {
                n: POWER_LAW_N,
                m: 3,
            };
            let g = family.simple(seed).unwrap();
            assert!(g.max_degree() <= POWER_LAW_DELTA, "seed {seed}");
        }
    }
}
