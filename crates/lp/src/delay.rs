//! Exact delay matching (paper §V-A).
//!
//! Every component in the DAG must see all of its inputs at the same cycle,
//! so pipeline registers are inserted on edges. Minimizing the inserted
//! register bits is the LP
//!
//! ```text
//! min Σ W_uv · EL_uv      s.t.  EL_uv = D_v − D_u − L_uv ≥ 0
//! ```
//!
//! where `W` is the edge bit-width and `L` the required latency of the edge
//! (the head component's internal latency). The constraint matrix is a
//! network matrix, so the LP dual is a min-cost transshipment on the same
//! graph: find arc flows `y ≥ 0` with node balance `Σ_in y − Σ_out y = a_w`
//! (`a_w` = in-width minus out-width) maximizing `Σ L·y`. We solve that with
//! [`MinCostFlow`] and read the primal `D` off the optimal node potentials —
//! an exact integral optimum, no external LP solver required.
//!
//! The LP has many optima; [`solve_delay_matching`] returns one fixed by
//! the LP alone, the *earliest optimal schedule*: the pointwise least `D`
//! over all optimal schedules with `D ≥ 0`. Given an optimal flow `y`, the
//! optimal schedules are the feasible ones that are tight (`EL_uv = 0`) on
//! every edge with `y_uv > 0`, so the earliest is one longest-path pass
//! over those constraints ([`MinCostFlow::run`]'s last step). Each weakly
//! connected component starts at cycle 0, and a node on no edge gets 0.

use crate::mcmf::MinCostFlow;

/// One DAG edge participating in delay matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayEdge {
    /// Source node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Bit-width of the signal — the per-cycle register cost.
    pub width: i64,
    /// Latency this edge must provide at minimum (the head's internal
    /// latency plus any latency already attached to the wire).
    pub latency: i64,
}

/// Result of delay matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayAssignment {
    /// Arrival cycle `D_v` of each node's output: the earliest optimal
    /// schedule, so each connected component starts at 0.
    pub node_delay: Vec<i64>,
    /// Extra pipeline registers `EL_uv` per edge, in input order.
    pub extra_latency: Vec<i64>,
    /// Total inserted register bits `Σ W·EL` (the LP objective).
    pub register_cost: i64,
}

/// Errors from [`solve_delay_matching`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayError {
    /// The graph contains a directed cycle; delays cannot be matched.
    Cyclic,
    /// An edge references a node `>= n`.
    NodeOutOfRange,
    /// An edge has a negative width.
    NegativeWidth,
}

impl std::fmt::Display for DelayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DelayError::Cyclic => write!(f, "delay matching requires an acyclic graph"),
            DelayError::NodeOutOfRange => write!(f, "edge endpoint out of range"),
            DelayError::NegativeWidth => write!(f, "edge width must be non-negative"),
        }
    }
}

impl std::error::Error for DelayError {}

/// Solves the delay-matching LP exactly.
///
/// Returns the earliest optimal schedule (see the module docs) and the
/// per-edge inserted register counts it implies, which minimize total
/// register bits.
///
/// # Errors
///
/// Returns [`DelayError::Cyclic`] if the edges form a directed cycle,
/// [`DelayError::NodeOutOfRange`] / [`DelayError::NegativeWidth`] on
/// malformed input.
///
/// Note that *independent* sources are freely schedulable: the controller
/// can simply start one read port later, so only *reconvergent* paths force
/// real registers (exactly the paper's semantics, where the timestamp is
/// local to each component).
///
/// # Examples
///
/// ```
/// use lego_lp::{solve_delay_matching, DelayEdge};
///
/// // One source feeding the same sink over a 1-cycle and a 3-cycle path:
/// // the short path needs 2 extra registers of 8 bits.
/// let edges = [
///     DelayEdge { from: 0, to: 1, width: 8, latency: 1 },
///     DelayEdge { from: 0, to: 1, width: 16, latency: 3 },
/// ];
/// let sol = solve_delay_matching(2, &edges).unwrap();
/// assert_eq!(sol.register_cost, 8 * 2);
/// assert_eq!(sol.node_delay, [0, 3]);
/// ```
pub fn solve_delay_matching(n: usize, edges: &[DelayEdge]) -> Result<DelayAssignment, DelayError> {
    for e in edges {
        if e.from >= n || e.to >= n {
            return Err(DelayError::NodeOutOfRange);
        }
        if e.width < 0 {
            return Err(DelayError::NegativeWidth);
        }
    }
    let mut net = flow_network(n, edges);
    net.run().ok_or(DelayError::Cyclic)?;

    // The greatest optimal potentials with π ≤ 0 are minus the earliest
    // optimal schedule.
    let node_delay: Vec<i64> = net.potentials().iter().map(|&p| -p).collect();
    let mut register_cost = 0i64;
    let extra_latency: Vec<i64> = edges
        .iter()
        .map(|e| {
            let el = node_delay[e.to] - node_delay[e.from] - e.latency;
            debug_assert!(el >= 0, "delay matching produced negative slack");
            register_cost += el * e.width;
            el
        })
        .collect();

    Ok(DelayAssignment {
        node_delay,
        extra_latency,
        register_cost,
    })
}

/// The transshipment dual of the LP as a flow network: each edge's tail
/// supplies its width and its head demands it.
fn flow_network(n: usize, edges: &[DelayEdge]) -> MinCostFlow {
    // No arc carries more than the total supply, so this capacity never
    // binds: every edge stays a constraint of the residual graph.
    let cap = edges.iter().map(|e| e.width).sum::<i64>() + 1;
    let mut net = MinCostFlow::new(n);
    for e in edges {
        net.add_arc(e.from, e.to, cap, -e.latency);
        net.add_supply(e.from, e.width);
        net.add_supply(e.to, -e.width);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{solve, Constraint, Outcome, Problem, Relation};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Solves the same LP with the dense simplex as an oracle.
    fn simplex_oracle(n: usize, edges: &[DelayEdge]) -> f64 {
        // Variables: D_0..D_{n-1} >= 0 (differences make the bound harmless).
        let objective: Vec<f64> = {
            let mut c = vec![0.0; n];
            for e in edges {
                c[e.to] += e.width as f64;
                c[e.from] -= e.width as f64;
            }
            c
        };
        let constraints = edges
            .iter()
            .map(|e| {
                let mut coeffs = vec![0.0; n];
                coeffs[e.to] += 1.0;
                coeffs[e.from] -= 1.0;
                Constraint {
                    coeffs,
                    rel: Relation::Ge,
                    rhs: e.latency as f64,
                }
            })
            .collect();
        let p = Problem {
            objective,
            minimize: true,
            constraints,
        };
        match solve(&p) {
            Outcome::Optimal { objective, .. } => {
                let base: f64 = edges.iter().map(|e| (e.width * e.latency) as f64).sum();
                objective - base
            }
            other => panic!("oracle failed: {other:?}"),
        }
    }

    #[test]
    fn independent_sources_are_rescheduled_for_free() {
        // Two distinct sources joining at node 2: the controller can start
        // source 0 two cycles late, so no registers are needed.
        let edges = [
            DelayEdge {
                from: 0,
                to: 2,
                width: 8,
                latency: 1,
            },
            DelayEdge {
                from: 1,
                to: 2,
                width: 16,
                latency: 3,
            },
        ];
        let sol = solve_delay_matching(3, &edges).unwrap();
        assert_eq!(sol.register_cost, 0);
        assert_eq!(sol.node_delay[2] - sol.node_delay[0], 1);
        assert_eq!(sol.node_delay[2] - sol.node_delay[1], 3);
    }

    #[test]
    fn reconvergent_paths_force_registers() {
        // The same source reaching one sink over unequal paths: registers
        // must balance, and the LP pads the cheaper (8-bit) edge.
        let edges = [
            DelayEdge {
                from: 0,
                to: 1,
                width: 8,
                latency: 1,
            },
            DelayEdge {
                from: 0,
                to: 1,
                width: 16,
                latency: 3,
            },
        ];
        let sol = solve_delay_matching(2, &edges).unwrap();
        assert_eq!(sol.register_cost, 16);
        assert_eq!(sol.extra_latency, vec![2, 0]);
    }

    #[test]
    fn shared_source_prefers_light_edge_registers() {
        // Source 0 fans out to 1 (L=1) and 2 (L=3), both feed 3 (L=1, L=1).
        let edges = [
            DelayEdge {
                from: 0,
                to: 1,
                width: 8,
                latency: 1,
            },
            DelayEdge {
                from: 0,
                to: 2,
                width: 8,
                latency: 3,
            },
            DelayEdge {
                from: 1,
                to: 3,
                width: 32,
                latency: 1,
            },
            DelayEdge {
                from: 2,
                to: 3,
                width: 32,
                latency: 1,
            },
        ];
        let sol = solve_delay_matching(4, &edges).unwrap();
        // Equalize by padding the 8-bit 0→1 edge, not a 32-bit edge.
        assert_eq!(sol.register_cost, 2 * 8);
        assert_eq!(sol.extra_latency, vec![2, 0, 0, 0]);
    }

    #[test]
    fn already_matched_costs_nothing() {
        let edges = [
            DelayEdge {
                from: 0,
                to: 1,
                width: 8,
                latency: 2,
            },
            DelayEdge {
                from: 1,
                to: 2,
                width: 8,
                latency: 1,
            },
        ];
        let sol = solve_delay_matching(3, &edges).unwrap();
        assert_eq!(sol.register_cost, 0);
        assert_eq!(sol.node_delay, vec![0, 2, 3]);
    }

    #[test]
    fn cycle_rejected() {
        let edges = [
            DelayEdge {
                from: 0,
                to: 1,
                width: 1,
                latency: 1,
            },
            DelayEdge {
                from: 1,
                to: 0,
                width: 1,
                latency: 1,
            },
        ];
        assert_eq!(solve_delay_matching(2, &edges), Err(DelayError::Cyclic));
    }

    #[test]
    fn bad_inputs_rejected() {
        let e = DelayEdge {
            from: 0,
            to: 5,
            width: 1,
            latency: 0,
        };
        assert_eq!(
            solve_delay_matching(2, &[e]),
            Err(DelayError::NodeOutOfRange)
        );
        let e = DelayEdge {
            from: 0,
            to: 1,
            width: -1,
            latency: 0,
        };
        assert_eq!(
            solve_delay_matching(2, &[e]),
            Err(DelayError::NegativeWidth)
        );
    }

    #[test]
    fn isolated_nodes_untouched() {
        let edges = [DelayEdge {
            from: 1,
            to: 3,
            width: 4,
            latency: 2,
        }];
        let sol = solve_delay_matching(5, &edges).unwrap();
        assert_eq!(sol.node_delay[0], 0);
        assert_eq!(sol.node_delay[2], 0);
        assert_eq!(sol.node_delay[4], 0);
        assert_eq!(sol.register_cost, 0);
    }

    /// `m` random constraints over `n` nodes; edges only go up in node
    /// index, which keeps the graph acyclic.
    fn random_dag(rng: &mut StdRng, n: usize, m: usize, max_width: i64) -> Vec<DelayEdge> {
        (0..m)
            .map(|_| {
                let from = rng.gen_range(0..n - 1);
                DelayEdge {
                    from,
                    to: rng.gen_range(from + 1..n),
                    width: rng.gen_range(1..=max_width),
                    latency: rng.gen_range(0..=4),
                }
            })
            .collect()
    }

    /// The delay network of a `p × p` array as the back end lowers one: a
    /// broadcast source per row and per column (fan-out `p`), a multiplier
    /// per FU fed by both, an adder chain along each row, a reducer per
    /// column that the column's multipliers reconverge on, and one reducer
    /// over every chain end and column reducer. Returns `(n, edges)`.
    fn array_dag(rng: &mut StdRng, p: usize) -> (usize, Vec<DelayEdge>) {
        let (row_src, col_src) = (|r: usize| r, |c: usize| p + c);
        let mul = |r: usize, c: usize| 2 * p + r * p + c;
        let add = |r: usize, c: usize| 2 * p + p * p + r * p + c;
        let col_red = |c: usize| 2 * p + 2 * p * p + c;
        let top = 3 * p + 2 * p * p;
        let mut edges = Vec::new();
        let mut wire = |from: usize, to: usize| {
            edges.push(DelayEdge {
                from,
                to,
                width: 8i64 << rng.gen_range(0..3u32),
                latency: rng.gen_range(0..=4),
            });
        };
        for r in 0..p {
            for c in 0..p {
                wire(row_src(r), mul(r, c));
                wire(col_src(c), mul(r, c));
                wire(mul(r, c), add(r, c));
                wire(mul(r, c), col_red(c));
                if c > 0 {
                    wire(add(r, c - 1), add(r, c));
                }
            }
            wire(add(r, p - 1), top);
        }
        for c in 0..p {
            wire(col_red(c), top);
        }
        (top + 1, edges)
    }

    /// `run` against `run_reference` on one delay network: flow, cost and
    /// the potentials delay matching reads. The two find different flows;
    /// the snap must make the potentials equal anyway.
    fn assert_matches_reference(n: usize, edges: &[DelayEdge], what: &str) {
        let mut net = flow_network(n, edges);
        let mut reference = net.clone();
        let got = net.run().expect("acyclic");
        let want = reference.run_reference().expect("acyclic");
        assert_eq!(got, want, "{what}: (flow, cost)");
        let mut supply = vec![0i64; n];
        for e in edges {
            supply[e.from] += e.width;
            supply[e.to] -= e.width;
        }
        let total_supply: i64 = supply.iter().filter(|&&x| x > 0).sum();
        assert_eq!(got.0, total_supply, "{what}: saturates");
        assert_eq!(
            net.potentials(),
            reference.potentials(),
            "{what}: potentials"
        );
    }

    #[test]
    fn primal_dual_matches_one_path_per_dijkstra_reference() {
        let mut rng = StdRng::seed_from_u64(16);
        for trial in 0..1200 {
            let n = rng.gen_range(2..=40);
            let m = rng.gen_range(1..=120);
            let edges = random_dag(&mut rng, n, m, 16);
            assert_matches_reference(n, &edges, &format!("trial {trial}"));
        }
    }

    #[test]
    fn primal_dual_matches_the_reference_on_array_shaped_networks() {
        // Long paths, many blocking-flow rounds and many dual steps per
        // solve, which the small random DAGs above do not produce.
        let mut rng = StdRng::seed_from_u64(24);
        for p in [3, 4, 5, 6, 8, 8, 11, 13, 16] {
            let (n, edges) = array_dag(&mut rng, p);
            assert_matches_reference(n, &edges, &format!("{p} x {p} array"));
        }
    }

    #[test]
    fn matches_simplex_on_random_dags() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..200 {
            let n = rng.gen_range(2..=7);
            let m = rng.gen_range(1..=12);
            let edges = random_dag(&mut rng, n, m, 8);
            let sol = solve_delay_matching(n, &edges).unwrap();
            for (e, &el) in edges.iter().zip(&sol.extra_latency) {
                assert!(el >= 0);
                assert_eq!(
                    sol.node_delay[e.to] - sol.node_delay[e.from],
                    e.latency + el
                );
            }
            let oracle = simplex_oracle(n, &edges);
            assert!(
                (sol.register_cost as f64 - oracle).abs() < 1e-6,
                "trial {trial}: network {} vs simplex {oracle}",
                sol.register_cost
            );
        }
    }

    /// The least optimal schedule, node by node: minimise `D_v` over the
    /// constraints, `D ≥ 0` and an objective pinned to the optimum.
    fn least_optimal_schedule(n: usize, edges: &[DelayEdge], register_cost: i64) -> Vec<i64> {
        let mut objective = vec![0.0; n];
        for e in edges {
            objective[e.to] += e.width as f64;
            objective[e.from] -= e.width as f64;
        }
        let base: i64 = edges.iter().map(|e| e.width * e.latency).sum();
        let mut constraints: Vec<Constraint> = edges
            .iter()
            .map(|e| {
                let mut coeffs = vec![0.0; n];
                coeffs[e.to] += 1.0;
                coeffs[e.from] -= 1.0;
                Constraint {
                    coeffs,
                    rel: Relation::Ge,
                    rhs: e.latency as f64,
                }
            })
            .collect();
        constraints.push(Constraint {
            coeffs: objective,
            rel: Relation::Eq,
            rhs: (register_cost + base) as f64,
        });
        (0..n)
            .map(|v| {
                let mut objective = vec![0.0; n];
                objective[v] = 1.0;
                let p = Problem {
                    objective,
                    minimize: true,
                    constraints: constraints.clone(),
                };
                match solve(&p) {
                    Outcome::Optimal { objective, .. } => objective.round() as i64,
                    other => panic!("node {v}: {other:?}"),
                }
            })
            .collect()
    }

    /// `count` random DAGs on `n` nodes with `n − 1` to `3n` edges, each
    /// one weakly connected component (the others are drawn and dropped).
    fn connected_dags(rng: &mut StdRng, n: usize, count: usize) -> Vec<Vec<DelayEdge>> {
        let mut dags = Vec::new();
        while dags.len() < count {
            let m = rng.gen_range(n - 1..=3 * n);
            let edges = random_dag(rng, n, m, 16);
            let mut parent: Vec<usize> = (0..n).collect();
            let root = |parent: &[usize], mut v: usize| {
                while parent[v] != v {
                    v = parent[v];
                }
                v
            };
            for e in &edges {
                let (a, b) = (root(&parent, e.from), root(&parent, e.to));
                parent[a] = b;
            }
            if (0..n).all(|v| root(&parent, v) == root(&parent, 0)) {
                dags.push(edges);
            }
        }
        dags
    }

    #[test]
    fn node_delay_is_the_least_optimal_schedule() {
        // Half the trials join two random DAGs on disjoint nodes, so every
        // component must start at 0 on its own.
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..150 {
            let n1 = rng.gen_range(2..=5);
            let m = rng.gen_range(1..=8);
            let mut edges = random_dag(&mut rng, n1, m, 8);
            let n2 = if trial % 2 == 0 {
                rng.gen_range(2..=5)
            } else {
                0
            };
            if n2 > 0 {
                let m = rng.gen_range(1..=8);
                edges.extend(
                    random_dag(&mut rng, n2, m, 8)
                        .into_iter()
                        .map(|e| DelayEdge {
                            from: e.from + n1,
                            to: e.to + n1,
                            ..e
                        }),
                );
            }
            let n = n1 + n2;
            let sol = solve_delay_matching(n, &edges).unwrap();
            assert_eq!(
                sol.node_delay,
                least_optimal_schedule(n, &edges, sol.register_cost),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn cost_matches_simplex_on_array_shaped_networks() {
        let mut rng = StdRng::seed_from_u64(24);
        for p in [2, 3, 4, 5] {
            let (n, edges) = array_dag(&mut rng, p);
            let sol = solve_delay_matching(n, &edges).unwrap();
            let oracle = simplex_oracle(n, &edges);
            assert!(
                (sol.register_cost as f64 - oracle).abs() < 1e-6,
                "{p} x {p}: network {} vs simplex {oracle}",
                sol.register_cost
            );
        }
    }

    #[test]
    fn the_earliest_schedule_where_reading_potentials_off_was_later() {
        // Of these 300 connected 30-node DAGs, the s–t primal–dual that
        // read its final potentials off unchanged returned an optimum later
        // than the earliest on six.
        let mut rng = StdRng::seed_from_u64(7);
        let dags = connected_dags(&mut rng, 30, 300);
        for trial in [38, 40, 50, 99, 118, 174] {
            let edges = &dags[trial];
            let sol = solve_delay_matching(30, edges).unwrap();
            let oracle = simplex_oracle(30, edges);
            assert!(
                (sol.register_cost as f64 - oracle).abs() < 1e-6,
                "trial {trial}"
            );
            assert_eq!(
                sol.node_delay,
                least_optimal_schedule(30, edges, sol.register_cost),
                "trial {trial}"
            );
        }
    }
}
