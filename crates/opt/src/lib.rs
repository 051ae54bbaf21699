//! # esched-opt
//!
//! Convex-optimization substrate for the `esched` workspace.
//!
//! The paper proves (Theorem 1) that energy-minimal scheduling of
//! aperiodic tasks with static power is a convex program solvable in
//! polynomial time, and uses that optimum — computed by an interior-point
//! solver in the authors' setup — purely as the normalization baseline
//! `E^OPT` for every experiment. This crate supplies that baseline from
//! scratch, and exactly: the program is a separable convex objective over
//! a flow polymatroid, so a max-flow algorithm reaches the optimum itself
//! where an interior point only approaches it:
//!
//! * [`energy_program`] — the reformulated program (variables `x_{i,j}`,
//!   blockwise capped-simplex feasible set, objective/gradient oracle),
//! * [`projection`] — exact Euclidean projection and linear-minimization
//!   oracle for one capped-simplex block,
//! * [`exact`] — the exact solver: Fujishige's lexicographically optimal
//!   base by min-cut peeling over the [`flow`] network, plus the
//!   critical-speed floor — the ground-truth `E^OPT`,
//! * [`gradient`] — projected gradient descent, the iterative default the
//!   experiment harness uses,
//! * [`admm`] — consensus ADMM with exact per-task proximal solves fanned
//!   across the shared worker pool: the decomposed, parallel iterative
//!   cross-check, and the only solver with dual (price) state,
//! * [`kkt`] — solver-independent optimality certification,
//! * [`scalar`] — bisection / safeguarded Newton / golden section,
//! * [`least_squares`] — the `p(f) = γf^α + p₀` power-curve fit
//!   (Section VI.C),
//! * [`flow`] — Dinic max-flow and the exact flow-based schedulability
//!   test underlying the related-work algorithms (refs [2] and [4]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admm;
pub mod energy_program;
pub mod exact;
pub mod flow;
pub mod gradient;
pub mod kkt;
pub mod least_squares;
pub mod projection;
pub mod scalar;
pub mod solver;

pub use admm::{solve_admm, solve_admm_in};
pub use energy_program::EnergyProgram;
pub use exact::solve_exact;
pub use flow::{feasible_at_frequency, min_frequency_by_flow, Dinic, TaskNetwork};
pub use gradient::solve_pgd;
pub use kkt::{kkt_report, price_certificate, subinterval_prices, KktReport};
pub use least_squares::{fit_power_curve, PowerFit};
pub use projection::{lmo_capped_simplex, project_capped_simplex};
pub use solver::{IterSample, SolveOptions, SolveResult, SolverKind, SolverTelemetry};
