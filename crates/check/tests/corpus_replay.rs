//! Replays the committed shrink corpus as a permanent regression suite.
//!
//! Every file in `crates/check/corpus/` is a minimal instance the fuzz
//! loop once found violating an oracle, shrunk by [`esched_check::shrink`]
//! and committed after the underlying bug was fixed. The replay test runs
//! the full oracle battery over all of them; the named tests below promote
//! one instance per oracle class with a description of the boundary bug it
//! flushed out, so a reintroduction fails with a readable test name rather
//! than a corpus hash.

use std::path::Path;

use esched_check::{
    check_instance, check_online, load_corpus_dir, load_online_corpus_dir, Instance, OnlineScript,
};
use esched_engine::OnlineEvent;
use esched_types::{PolynomialPower, TaskSet};

fn assert_clean(inst: &Instance, context: &str) {
    let violations = check_instance(inst);
    assert!(
        violations.is_empty(),
        "{context}: {} oracle violation(s): {}",
        violations.len(),
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
}

/// Every committed corpus instance must pass the full oracle battery.
#[test]
fn corpus_replays_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let corpus = load_corpus_dir(&dir).expect("corpus directory is readable");
    assert!(
        !corpus.is_empty(),
        "committed corpus at {} is missing or empty",
        dir.display()
    );
    for (path, inst) in &corpus {
        assert_clean(inst, &path.display().to_string());
    }
}

fn assert_online_clean(script: &OnlineScript, context: &str) {
    let violations = check_online(script);
    assert!(
        violations.is_empty(),
        "{context}: {} oracle violation(s): {}",
        violations.len(),
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
}

/// Every committed online script must replay clean: the incremental
/// replan path must stay byte-identical to the offline pipeline.
#[test]
fn online_corpus_replays_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join("online");
    let corpus = load_online_corpus_dir(&dir).expect("online corpus directory is readable");
    assert!(
        !corpus.is_empty(),
        "committed online corpus at {} is missing or empty",
        dir.display()
    );
    for (path, script) in &corpus {
        assert_online_clean(script, &path.display().to_string());
    }
}

/// Class `online`: shifting a deadline to within the dedup tolerance of
/// an existing boundary (100 − 5e-6 vs 100). Before the boundary-bug
/// sweep, `Timeline::rebuild_shifted` snapped the approx-but-not-bitwise
/// endpoint onto the existing boundary, while `Timeline::build` merges
/// the pair keeping the *first* representative — so the patched timeline
/// and the from-scratch timeline disagreed on the boundary value and the
/// online outcome was no longer byte-identical to the offline one. Fixed
/// by restricting the in-place patch to bitwise-equal endpoints and
/// falling back to a full rebuild otherwise.
#[test]
fn online_shift_within_tolerance_of_existing_boundary() {
    let script = OnlineScript {
        instance: Instance::new(
            TaskSet::from_triples(&[(0.0, 100.0, 40.0), (20.0, 60.0, 10.0)]),
            2,
            PolynomialPower::paper(3.0, 0.1),
        ),
        events: vec![OnlineEvent::Shift {
            task: 1,
            release: 20.0,
            deadline: 100.0 - 5e-6,
        }],
    };
    assert_online_clean(&script, "within-tolerance shifted deadline");
}

/// Class `panic`: two tasks whose subnormal-scale requirements round the
/// DER total to ~0, so proportional shares allocated nothing and
/// `final_assignment` hit its "no available execution time" assert.
/// Fixed by the even-split fallback in DER allocation when the remaining
/// DER mass is below EPS, plus clamping `A_i` before the frequency solve.
#[test]
fn panic_der_allocation_with_subnormal_requirements() {
    let inst = Instance::new(
        TaskSet::from_triples(&[
            (0.0, 1.0, 0.00000000000021827872842550277),
            (0.0, 1.0, 0.0000000000023283064365386963),
        ]),
        1,
        PolynomialPower::paper(3.0, 0.0),
    );
    assert_clean(&inst, "subnormal-requirement der allocation");
}

/// Class `energy-ordering`: a 2e-7 "sliver" subinterval where three tasks
/// overlap. The squeezed sliver pieces are shorter than EPS but carry
/// work above the validator's tolerance; `Schedule::push`'s duration-only
/// dust gate silently dropped them, deflating E^I below E^F. Fixed by
/// making the push gate work-aware.
#[test]
fn energy_ordering_sub_eps_sliver_work_is_kept() {
    let inst = Instance::new(
        TaskSet::from_triples(&[
            (
                0.6666666666666666,
                0.7784875383337153,
                0.0000000095367431640625,
            ),
            (0.6666666666666666, 0.7784875383337153, 0.10530067647375646),
            (0.48644417091579906, 0.6666668666666666, 0.18),
        ]),
        1,
        PolynomialPower::paper(3.0, 0.0),
    );
    assert_clean(&inst, "sub-EPS sliver subinterval");
}

/// Class `validator-sim`: a release offset of 2e-7 creates a sliver
/// subinterval in which McNaughton wraps a task across cores.
/// `Schedule::coalesce`'s EPS-loose adjacency gate bridged the real gap
/// left for the wrapped sliver, double-booking the core: the validator
/// tolerated the overlap but the simulator rejected the start as a
/// conflict. Fixed by near-exact (ulp-scale) adjacency in coalesce.
#[test]
fn validator_sim_wrap_sliver_is_not_double_booked() {
    let inst = Instance::new(
        TaskSet::from_triples(&[
            (0.0, 28.0, 20.0),
            (0.0000002, 28.055111469860172, 0.000029296875),
            (0.0, 28.0, 14.0),
            (0.0, 28.0, 38.0),
        ]),
        2,
        PolynomialPower::paper(3.0, 0.0),
    );
    assert_clean(&inst, "wrap-around sliver double-booking");
}

/// Class `work-conservation`: near-duplicate deadlines 6.666666 /
/// 6.666667 produce a 1e-6 subinterval; the der path's packed pieces
/// there were dropped or double-counted depending on which side of the
/// duration-only dust gate they fell, so delivered work drifted from
/// `C_i` by more than WORK_TOL. Fixed by the shared work-aware
/// `negligible` predicate across packing, refine, and extraction.
#[test]
fn work_conservation_near_duplicate_deadlines() {
    let inst = Instance::new(
        TaskSet::from_triples(&[
            (0.0, 7.0, 1.5),
            (6.6, 6.7, 0.00125),
            (6.6, 6.7, 0.08),
            (6.619258, 6.666666, 0.00125),
            (6.619258, 6.666667, 0.023704091622860357),
        ]),
        1,
        PolynomialPower::paper(3.0, 0.0),
    );
    assert_clean(&inst, "near-duplicate deadline subinterval");
}

/// Class `allocation`: every DER in the heavy subinterval `[0, 1]`
/// underflows EPS (three tasks with nano-scale requirements on one core),
/// so proportional shares are undefined and both the water-filling fast
/// path and the round-based reference must take the even-split fallback —
/// and take it over the *same* task set, or their allocations diverge by
/// a full `Δ_j/n_j` share. Guards the bit-identical tail-membership
/// contract between `waterfill_fast` and `waterfill_reference`.
#[test]
fn allocation_all_ders_underflow_even_split() {
    let inst = Instance::new(
        TaskSet::from_triples(&[(0.0, 1.0, 1e-9), (0.0, 1.0, 2e-9), (0.0, 1.0, 1e-9)]),
        1,
        PolynomialPower::paper(3.0, 0.0),
    );
    assert_clean(&inst, "all-DERs-underflow even-split fallback");
}

/// Class `discrete`: abutting windows split at 6.133042/6.133043.
/// `quantize_schedule` reported the instance feasible, but
/// `requantize_schedule` stretched a segment past its slot because the
/// tolerance-unified `pick_level` may select a level a hair *below* the
/// continuous frequency. Fixed by clamping the requantized duration to
/// the original slot length.
#[test]
fn discrete_requantize_stays_inside_slot() {
    let inst = Instance::new(
        TaskSet::from_triples(&[
            (6.133042, 8.571429, 1.0),
            (4.285714, 6.133043, 1.8473290000000002),
        ]),
        1,
        PolynomialPower::paper(3.0, 0.0),
    );
    assert_clean(&inst, "requantized segment slot clamp");
}
