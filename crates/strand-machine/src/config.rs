//! Machine configuration.

use strand_core::{Atom, FxHashSet, SplitMix64, Time};

/// Message fault probabilities, applied alike to every cross-node delivery
/// (remote spawns and port/stream sends; binding notifications stay
/// reliable — see DESIGN.md, "Fault model").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EdgeFaults {
    /// Probability a delivery is silently lost.
    pub drop_prob: f64,
    /// Probability a delivery arrives twice.
    pub dup_prob: f64,
    /// Probability a delivery is held up for `delay_ticks` extra.
    pub delay_prob: f64,
    /// Extra virtual time added when a delay fault fires.
    pub delay_ticks: Time,
}

impl EdgeFaults {
    /// True when no fault can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.drop_prob <= 0.0 && self.dup_prob <= 0.0 && self.delay_prob <= 0.0
    }

    /// Roll the fault dice for one delivery. Quiet probabilities consume
    /// no randomness, so an empty plan leaves runs bit-identical.
    pub(crate) fn roll(&self, dice: &mut SplitMix64) -> Delivery {
        if self.is_quiet() {
            return Delivery::Deliver;
        }
        let roll = dice.next_f64();
        if roll < self.drop_prob {
            Delivery::Drop
        } else if roll < self.drop_prob + self.dup_prob {
            Delivery::Duplicate
        } else if roll < self.drop_prob + self.dup_prob + self.delay_prob {
            Delivery::Delay(self.delay_ticks)
        } else {
            Delivery::Deliver
        }
    }
}

/// Outcome of the fault dice for one cross-node delivery.
pub(crate) enum Delivery {
    Deliver,
    Drop,
    Duplicate,
    Delay(Time),
}

/// A seeded fault schedule for a run — the one fault vocabulary, injected
/// in the shard core whatever hosts the nodes: the node and the delivery
/// are the two things that can misbehave (DESIGN.md §8).
///
/// Node numbers are 1-based, like `Goal@J` placements. An empty plan (the
/// default) injects nothing and leaves every run bit-identical to a machine
/// without the fault layer. On the simulator, and on a 1-thread fleet for
/// message faults, a plan replays exactly; on more threads each worker
/// strides the seed into its own dice stream and the interleaving varies,
/// so a plan is reproducible in distribution only.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// `(node, at)`: the node dies at `at` — its run queue is dropped, its
    /// suspended goals never wake, and later deliveries to it are lost. The
    /// clock `at` is read on follows from the backend and is not
    /// configured: the simulator's global virtual time, or, on the
    /// parallel backend (which has none), the run-global reduction count.
    /// A worker knows its own share of that count exactly and its peers'
    /// as of the top of its current drain, so on `threads` workers a crash
    /// — like the `max_reductions` cut-off, which reads the same clock —
    /// fires at most `DRAIN_STEPS × (threads − 1)` reductions (64 per peer)
    /// after `at`, and exactly at `at` on one.
    pub crashes: Vec<(u32, Time)>,
    /// Fault probabilities applied to every cross-node edge.
    pub default_edge: EdgeFaults,
    /// `(node, factor)`: every reduction on the node costs `factor`× the
    /// normal virtual time (straggler injection).
    pub slowdowns: Vec<(u32, u64)>,
    /// Seed of the fault RNG — deliberately separate from
    /// [`MachineConfig::seed`] so enabling faults never perturbs the
    /// program-visible `rand_num` stream.
    pub seed: u64,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.default_edge.is_quiet() && self.slowdowns.is_empty()
    }

    /// Builder: crash `node` (1-based) at virtual time `at`.
    pub fn crash(mut self, node: u32, at: Time) -> Self {
        self.crashes.push((node, at));
        self
    }

    /// Builder: drop each cross-node delivery with probability `p`.
    pub fn drop_prob(mut self, p: f64) -> Self {
        self.default_edge.drop_prob = p;
        self
    }

    /// Builder: duplicate each cross-node delivery with probability `p`.
    pub fn dup_prob(mut self, p: f64) -> Self {
        self.default_edge.dup_prob = p;
        self
    }

    /// Builder: delay each cross-node delivery by `ticks` with probability `p`.
    pub fn delay(mut self, p: f64, ticks: Time) -> Self {
        self.default_edge.delay_prob = p;
        self.default_edge.delay_ticks = ticks;
        self
    }

    /// Builder: slow `node` (1-based) down by `factor`×.
    pub fn slowdown(mut self, node: u32, factor: u64) -> Self {
        self.slowdowns.push((node, factor));
        self
    }

    /// Builder: fault-RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parse the CLI fault spec shared by the example runners:
    /// `seed=N,crash=node@at,drop=p,dup=p,delay=p:ticks,slow=node:factor`.
    /// Every key is optional; `crash` and `slow` may repeat. The empty
    /// string is the empty plan. Each probability lies in `[0, 1]`, and so
    /// does their sum: an element that breaks either is refused.
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let err = || {
                format!(
                    "cannot parse fault spec element `{part}`; expected a comma list of \
                     seed=N, crash=node@at, drop=p, dup=p, delay=p:ticks, slow=node:factor"
                )
            };
            let prob = |p: &str| match p.parse::<f64>() {
                Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
                _ => Err(err()),
            };
            let (key, value) = part.split_once('=').ok_or_else(err)?;
            plan = match key {
                "seed" => plan.seed(value.parse().map_err(|_| err())?),
                "drop" => plan.drop_prob(prob(value)?),
                "dup" => plan.dup_prob(prob(value)?),
                "crash" => {
                    let (node, at) = value.split_once('@').ok_or_else(err)?;
                    plan.crash(
                        node.parse().map_err(|_| err())?,
                        at.parse().map_err(|_| err())?,
                    )
                }
                "delay" => {
                    let (p, ticks) = value.split_once(':').ok_or_else(err)?;
                    plan.delay(prob(p)?, ticks.parse().map_err(|_| err())?)
                }
                "slow" => {
                    let (node, factor) = value.split_once(':').ok_or_else(err)?;
                    plan.slowdown(
                        node.parse().map_err(|_| err())?,
                        factor.parse().map_err(|_| err())?,
                    )
                }
                _ => return Err(err()),
            };
            let e = plan.default_edge;
            // A hair of slack, so that `drop=0.1,dup=0.2,delay=0.7:…` sums to 1.
            if e.drop_prob + e.dup_prob + e.delay_prob > 1.0 + 1e-9 {
                return Err(err());
            }
        }
        Ok(plan)
    }
}

/// Which execution engine runs the program; the program, goal and foreign
/// code are identical either way, which is what makes the conformance
/// harness (`tests/conformance.rs`) possible.
///
/// `Deterministic` is the discrete-event simulator: a single OS thread,
/// virtual clocks, bit-identical replays. `Parallel` asks for the fleet,
/// the multi-threaded engine, which runs virtual nodes on OS threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The single-threaded discrete-event reference machine.
    #[default]
    Deterministic,
    /// Real OS threads, one worker per virtual node up to `threads`.
    /// `threads == 0` means auto: `min(nodes, available_parallelism)`.
    Parallel { threads: u32 },
}

/// Which rule-execution tier the machine runs (see [`crate::exec`]).
///
/// `Compiled` (the default) lowers every procedure to direct-threaded op
/// sequences at machine construction: pre-resolved slot indices,
/// first-argument clause indexing and fused match-then-instantiate.
/// `Interpreted` walks the `Pat` trees per reduction and is kept as the
/// semantic reference — the two tiers are bit-identical by contract, and
/// the conformance suite diffs them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Direct-threaded lowered rules (fast path).
    #[default]
    Compiled,
    /// Per-reduction pattern interpretation (reference semantics).
    Interpreted,
}

/// Configuration of the simulated multicomputer.
///
/// The defaults model a modest message-passing machine of the paper's era in
/// *relative* terms: one tick per reduction, ten ticks for an inter-node
/// message. Absolute values are irrelevant — experiments report shapes and
/// ratios (EXPERIMENTS.md).
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of virtual nodes (processors). Language-level node numbers are
    /// 1-based: `Goal@1` … `Goal@N`.
    pub nodes: u32,
    /// Virtual time added to deliver anything across nodes (process spawns,
    /// stream messages, binding notifications).
    pub latency: Time,
    /// Hard cap on total reductions; exceeding it is an error (guards
    /// against runaway programs in tests).
    pub max_reductions: u64,
    /// Seed for the machine's deterministic `rand_num` primitive.
    pub seed: u64,
    /// Predicate names whose *live* (spawned but not yet reduced) process
    /// counts are tracked per node — used by experiment E2 to measure
    /// concurrent node evaluations.
    pub tracked: FxHashSet<Atom>,
    /// Stop at the first runtime error (default) instead of collecting.
    pub fail_fast: bool,
    /// Record a [`TraceEvent`](crate::trace::TraceEvent) per scheduler
    /// action (off by default; tracing costs time and memory).
    pub record_trace: bool,
    /// Fault schedule (empty by default: a perfect machine), honoured by
    /// every backend.
    pub faults: FaultPlan,
    /// Execution engine (default: the deterministic simulator). The clock
    /// `after_unless` deadlines run on follows from it and is not configured:
    /// virtual time on the simulator; on the parallel backend the fleet's
    /// one deadline queue, which a batch run advances at quiescence and a
    /// resident one reads off the wall (DESIGN.md §6a).
    pub backend: Backend,
    /// Rule-execution tier (default: compiled; `Interpreted` is the
    /// reference interpreter).
    pub exec: ExecMode,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            nodes: 1,
            latency: 10,
            max_reductions: 50_000_000,
            seed: 0xA4C0_11E5,
            tracked: FxHashSet::default(),
            fail_fast: true,
            record_trace: false,
            faults: FaultPlan::default(),
            backend: Backend::default(),
            exec: ExecMode::default(),
        }
    }
}

impl MachineConfig {
    /// Config with `n` nodes and defaults otherwise.
    pub fn with_nodes(n: u32) -> Self {
        MachineConfig {
            nodes: n.max(1),
            ..Default::default()
        }
    }

    /// Builder-style seed override.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style latency override.
    pub fn latency(mut self, latency: Time) -> Self {
        self.latency = latency;
        self
    }

    /// Track live processes of the given predicate name (experiment E2).
    pub fn track(mut self, name: &str) -> Self {
        self.tracked.insert(Atom::new(name));
        self
    }

    /// Builder-style fault plan override.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Builder: run on the multi-threaded backend with `threads` workers
    /// (0 = auto, `min(nodes, available_parallelism)`).
    pub fn parallel(mut self, threads: u32) -> Self {
        self.backend = Backend::Parallel { threads };
        self
    }

    /// Builder-style execution-tier override.
    pub fn exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = MachineConfig::default();
        assert_eq!(c.nodes, 1);
        assert!(c.fail_fast);
    }

    #[test]
    fn builder_chains() {
        let c = MachineConfig::with_nodes(8)
            .seed(7)
            .latency(3)
            .track("eval");
        assert_eq!(c.nodes, 8);
        assert_eq!(c.seed, 7);
        assert_eq!(c.latency, 3);
        assert!(c.tracked.contains(&Atom::new("eval")));
    }

    #[test]
    fn exec_tier_defaults_to_compiled() {
        assert_eq!(MachineConfig::default().exec, ExecMode::Compiled);
        assert_eq!(
            MachineConfig::default().exec(ExecMode::Interpreted).exec,
            ExecMode::Interpreted
        );
    }

    #[test]
    fn zero_nodes_clamped_to_one() {
        assert_eq!(MachineConfig::with_nodes(0).nodes, 1);
    }

    #[test]
    fn default_fault_plan_is_empty() {
        assert!(MachineConfig::default().faults.is_empty());
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn fault_plan_builders_chain() {
        let plan = FaultPlan::default()
            .crash(2, 500)
            .drop_prob(0.1)
            .slowdown(3, 4)
            .seed(7);
        assert!(!plan.is_empty());
        assert_eq!(plan.crashes, vec![(2, 500)]);
        assert_eq!(plan.slowdowns, vec![(3, 4)]);
        assert_eq!(plan.seed, 7);
        assert!((plan.default_edge.drop_prob - 0.1).abs() < 1e-12);
    }

    #[test]
    fn chaos_spec_round_trips_the_builders() {
        let plan = FaultPlan::parse_spec(
            "seed=9,crash=2@2000,crash=4@2000,drop=0.1,dup=0.05,delay=0.2:50,slow=3:40",
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.crashes, vec![(2, 2_000), (4, 2_000)]);
        assert_eq!(plan.slowdowns, vec![(3, 40)]);
        let edge = plan.default_edge;
        assert!((edge.drop_prob - 0.1).abs() < 1e-12);
        assert!((edge.dup_prob - 0.05).abs() < 1e-12);
        assert!((edge.delay_prob - 0.2).abs() < 1e-12);
        assert_eq!(edge.delay_ticks, 50);
        assert!(FaultPlan::parse_spec("").unwrap().is_empty());
        assert!(FaultPlan::parse_spec("crash=1").is_err());
        assert!(FaultPlan::parse_spec("drop=lots").is_err());
        assert!(FaultPlan::parse_spec("delay=0.1").is_err());
        assert!(FaultPlan::parse_spec("nope=1").is_err());
        // Probabilities out of range, and a sum above 1: the error names
        // the element at fault.
        for (spec, bad) in [
            ("drop=1.5", "drop=1.5"),
            ("dup=-0.2", "dup=-0.2"),
            ("drop=NaN", "drop=NaN"),
            ("drop=0.6,dup=0.6", "dup=0.6"),
        ] {
            let e = FaultPlan::parse_spec(spec).unwrap_err();
            assert!(e.contains(&format!("`{bad}`")), "{spec}: {e}");
        }
        assert!(FaultPlan::parse_spec("drop=0.1,dup=0.2,delay=0.7:5").is_ok());
        assert!(FaultPlan::parse_spec("drop=1").is_ok());
    }
}
