//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Four questions, each answered over seeded Monte-Carlo trials:
//!
//! 1. **Allocation rule** — how much of `S^F2`'s advantage comes from the
//!    DER weighting vs. the cap-and-redistribute loop vs. plain even
//!    splitting? Compares F2 (full Algorithm 2), F2 without
//!    redistribution, work-proportional shares, and F1.
//! 2. **Baselines** — where do the simpler deployable schemes land:
//!    partitioned YDS (no migration) and single uniform frequency?
//! 3. **Online dispatch** — can a greedy runtime (global EDF / LLF)
//!    realize the `S^F2` frequency assignment without the Algorithm-1
//!    table? Reports deadline-miss probabilities.
//! 4. **Quantization policy** — next-level-up vs. best-efficiency level
//!    selection on the XScale table.

use crate::harness::per_trial;
use crate::report::write_artifact;
use esched_core::{
    allocate, allocate_work_proportional, der_schedule, even_schedule, ideal_schedule,
    no_reclaim_energy, optimal_energy, partitioned_yds, quantize_schedule, reclaim_der,
    refine_frequencies, replan_der, uniform_frequency, AllocRequest, AvailMatrix, DerStrategy,
    QuantizePolicy,
};
use esched_opt::SolveOptions;
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, TaskSet};
use esched_workload::{xscale_discrete, xscale_paper_fit, GeneratorConfig};
use std::fmt::Write as _;
use std::path::Path;

/// Mean NEC of the allocation-rule variants.
#[derive(Debug, Clone, Copy)]
pub struct AllocationAblation {
    /// Full Algorithm 2 (`S^F2`).
    pub der: f64,
    /// Algorithm 2 without redistribution.
    pub der_no_redist: f64,
    /// Shares proportional to `C_i`.
    pub work_prop: f64,
    /// Even split (`S^F1`).
    pub even: f64,
}

/// Run the allocation-rule ablation.
pub fn allocation_ablation(trials: usize, base_seed: u64) -> AllocationAblation {
    let power = PolynomialPower::paper(3.0, 0.1);
    let cores = 4;
    let rows = per_trial(
        GeneratorConfig::paper_default(),
        trials,
        base_seed,
        |_seed, tasks| {
            let tl = Timeline::build(&tasks);
            let ideal = ideal_schedule(&tasks, &power);
            let opt = optimal_energy(&tasks, cores, &power, &SolveOptions::fast()).energy;
            // Only `E^F` is reported, so no schedule is materialized.
            let final_energy = |avail: AvailMatrix| refine_frequencies(&tasks, &avail, &power).1;
            let der = |strategy| {
                allocate(AllocRequest::new(&tasks, &tl, cores, &ideal).strategy(strategy))
            };
            let f2 = final_energy(der(DerStrategy::Waterfill));
            let nr = final_energy(der(DerStrategy::NoRedistribution));
            let wp = final_energy(allocate_work_proportional(&tasks, &tl, cores));
            let f1 = even_schedule(&tasks, cores, &power).final_energy;
            [f2 / opt, nr / opt, wp / opt, f1 / opt]
        },
    );
    let n = rows.len() as f64;
    let mut acc = [0.0; 4];
    for r in &rows {
        for k in 0..4 {
            acc[k] += r[k] / n;
        }
    }
    AllocationAblation {
        der: acc[0],
        der_no_redist: acc[1],
        work_prop: acc[2],
        even: acc[3],
    }
}

/// Mean NEC of the deployable baselines (plus F2 for reference).
#[derive(Debug, Clone, Copy)]
pub struct BaselineAblation {
    /// `S^F2`.
    pub der: f64,
    /// Partitioned YDS (worst-fit by intensity, per-core YDS).
    pub partitioned_yds: f64,
    /// Uniform minimum feasible frequency.
    pub uniform: f64,
}

/// Run the baseline comparison. Uses `p₀ = 0` so per-core YDS is optimal
/// on its partition — the fairest setting for the partitioned baseline.
pub fn baseline_ablation(trials: usize, base_seed: u64) -> BaselineAblation {
    let power = PolynomialPower::cubic();
    let cores = 4;
    let rows = per_trial(
        GeneratorConfig::paper_default(),
        trials,
        base_seed,
        |_seed, tasks| {
            let opt = optimal_energy(&tasks, cores, &power, &SolveOptions::fast()).energy;
            let f2 = der_schedule(&tasks, cores, &power).final_energy;
            let part = partitioned_yds(&tasks, cores, &power).energy;
            let uni = uniform_frequency(&tasks, cores, &power).energy;
            [f2 / opt, part / opt, uni / opt]
        },
    );
    let n = rows.len() as f64;
    let mut acc = [0.0; 3];
    for r in &rows {
        for k in 0..3 {
            acc[k] += r[k] / n;
        }
    }
    BaselineAblation {
        der: acc[0],
        partitioned_yds: acc[1],
        uniform: acc[2],
    }
}

/// Online-dispatch miss probabilities at `S^F2` frequencies.
#[derive(Debug, Clone, Copy)]
pub struct OnlineAblation {
    /// Fraction of trials where global EDF missed at least one deadline.
    pub edf_miss_prob: f64,
    /// Fraction for LLF (with subinterval-boundary epochs).
    pub llf_miss_prob: f64,
    /// The offline packing's miss probability (always 0 — asserted, then
    /// reported for the table).
    pub offline_miss_prob: f64,
}

/// Run the online-dispatch ablation.
pub fn online_ablation(trials: usize, base_seed: u64) -> OnlineAblation {
    use esched_sim::{dispatch, DispatchPolicy};
    let power = PolynomialPower::paper(3.0, 0.1);
    let cores = 4;
    let rows = per_trial(
        GeneratorConfig::paper_default(),
        trials,
        base_seed,
        |_seed, tasks: TaskSet| {
            let der = der_schedule(&tasks, cores, &power);
            let epochs = Timeline::build(&tasks).boundaries().to_vec();
            let edf = dispatch(
                &tasks,
                cores,
                &der.assignment.freq,
                DispatchPolicy::Edf,
                &[],
            );
            let llf = dispatch(
                &tasks,
                cores,
                &der.assignment.freq,
                DispatchPolicy::Llf,
                &epochs,
            );
            let offline_ok = esched_types::validate_schedule(&der.schedule, &tasks).is_legal();
            (!edf.misses.is_empty(), !llf.misses.is_empty(), !offline_ok)
        },
    );
    let n = rows.len() as f64;
    OnlineAblation {
        edf_miss_prob: rows.iter().filter(|r| r.0).count() as f64 / n,
        llf_miss_prob: rows.iter().filter(|r| r.1).count() as f64 / n,
        offline_miss_prob: rows.iter().filter(|r| r.2).count() as f64 / n,
    }
}

/// Quantization-policy energies (mean, XScale config).
#[derive(Debug, Clone, Copy)]
pub struct QuantizeAblation {
    /// Mean quantized energy, next-level-up.
    pub next_up: f64,
    /// Mean quantized energy, best-efficiency level.
    pub best_efficiency: f64,
}

/// Run the quantization-policy ablation on the XScale configuration.
pub fn quantize_ablation(trials: usize, base_seed: u64) -> QuantizeAblation {
    let power = xscale_paper_fit();
    let table = xscale_discrete();
    let rows = per_trial(
        GeneratorConfig::xscale_default(),
        trials,
        base_seed,
        |_seed, tasks| {
            let der = der_schedule(&tasks, 4, &power);
            let a = quantize_schedule(&der.schedule, &table, QuantizePolicy::NextUp).energy;
            let b = quantize_schedule(&der.schedule, &table, QuantizePolicy::BestEfficiency).energy;
            (a, b)
        },
    );
    let n = rows.len() as f64;
    QuantizeAblation {
        next_up: rows.iter().map(|r| r.0).sum::<f64>() / n,
        best_efficiency: rows.iter().map(|r| r.1).sum::<f64>() / n,
    }
}

/// Wake-up overhead sensitivity: how many core activations each schedule
/// shape incurs, and where the energy ordering flips as the per-wakeup
/// cost grows (the transition-overhead extension; the base model's
/// zero-cost sleep is the paper's assumption).
#[derive(Debug, Clone, Copy)]
pub struct WakeupAblation {
    /// Mean core activations, offline F2 packing.
    pub f2_activations: f64,
    /// Mean core activations, offline F1 packing.
    pub f1_activations: f64,
    /// Mean activations when the same F2 frequencies are dispatched
    /// online by LLF (finer-grained slicing → more wake-ups).
    pub llf_activations: f64,
    /// Per-activation wake-up cost at which offline-F2-with-overhead
    /// equals 5% of its base energy (a scale reference for the numbers
    /// above): `0.05 · E_base / activations`.
    pub breakeven_cost: f64,
}

/// Run the wake-up ablation.
pub fn wakeup_ablation(trials: usize, base_seed: u64) -> WakeupAblation {
    use esched_sim::{dispatch, simulate, DispatchPolicy};
    let power = PolynomialPower::paper(3.0, 0.1);
    let rows = per_trial(
        GeneratorConfig::paper_default(),
        trials,
        base_seed,
        |_seed, tasks| {
            let der = der_schedule(&tasks, 4, &power);
            let even = even_schedule(&tasks, 4, &power);
            let epochs = Timeline::build(&tasks).boundaries().to_vec();
            let llf = dispatch(
                &tasks,
                4,
                &der.assignment.freq,
                DispatchPolicy::Llf,
                &epochs,
            );
            let sim2 = simulate(&der.schedule, &tasks, &power);
            let sim1 = simulate(&even.schedule, &tasks, &power);
            let sim_llf = simulate(&llf.schedule, &tasks, &power);
            let act2: usize = sim2.activations.iter().sum();
            (
                act2 as f64,
                sim1.activations.iter().sum::<usize>() as f64,
                sim_llf.activations.iter().sum::<usize>() as f64,
                0.05 * sim2.energy / act2.max(1) as f64,
            )
        },
    );
    let n = rows.len() as f64;
    WakeupAblation {
        f2_activations: rows.iter().map(|r| r.0).sum::<f64>() / n,
        f1_activations: rows.iter().map(|r| r.1).sum::<f64>() / n,
        llf_activations: rows.iter().map(|r| r.2).sum::<f64>() / n,
        breakeven_cost: rows.iter().map(|r| r.3).sum::<f64>() / n,
    }
}

/// Price of non-clairvoyance: offline `S^F2` (all tasks known) vs.
/// event-driven DER replanning (tasks revealed at their releases).
#[derive(Debug, Clone, Copy)]
pub struct ReplanAblation {
    /// Mean energy ratio replanning / offline (≥ 1).
    pub energy_ratio: f64,
    /// Mean peak frequency ratio replanning / offline.
    pub peak_freq_ratio: f64,
    /// Fraction of trials with any deadline miss under replanning
    /// (0 in the continuous-frequency model).
    pub miss_prob: f64,
}

/// Run the replanning ablation.
pub fn replan_ablation(trials: usize, base_seed: u64) -> ReplanAblation {
    let power = PolynomialPower::paper(3.0, 0.1);
    let cores = 4;
    let rows = per_trial(
        GeneratorConfig::paper_default(),
        trials,
        base_seed,
        |_seed, tasks| {
            let offline = der_schedule(&tasks, cores, &power);
            let online = replan_der(&tasks, cores, &power);
            let offline_peak = offline
                .assignment
                .freq
                .iter()
                .cloned()
                .fold(0.0_f64, f64::max);
            (
                online.energy / offline.final_energy,
                online.peak_frequency / offline_peak,
                !online.misses.is_empty(),
            )
        },
    );
    let n = rows.len() as f64;
    ReplanAblation {
        energy_ratio: rows.iter().map(|r| r.0).sum::<f64>() / n,
        peak_freq_ratio: rows.iter().map(|r| r.1).sum::<f64>() / n,
        miss_prob: rows.iter().filter(|r| r.2).count() as f64 / n,
    }
}

/// Slack reclamation: when actual work is a fraction of the WCEC, how
/// much of the gap between "run the WCEC plan" and "clairvoyant for the
/// actuals" does completion-driven replanning recover?
#[derive(Debug, Clone, Copy)]
pub struct ReclaimAblation {
    /// Mean energy of the WCEC plan truncated at actual completions,
    /// normalized by the clairvoyant-for-actuals plan.
    pub no_reclaim: f64,
    /// Mean energy with completion-driven reclamation, same normalization.
    pub reclaim: f64,
}

/// Run the reclamation ablation with actual work = 50% of WCEC.
pub fn reclaim_ablation(trials: usize, base_seed: u64) -> ReclaimAblation {
    let power = PolynomialPower::paper(3.0, 0.1);
    let cores = 4;
    let rows = per_trial(
        GeneratorConfig::paper_default(),
        trials,
        base_seed,
        |_seed, tasks: TaskSet| {
            let actual: Vec<f64> = tasks.tasks().iter().map(|t| 0.5 * t.wcec).collect();
            let clair_tasks = TaskSet::new(
                tasks
                    .tasks()
                    .iter()
                    .zip(&actual)
                    .map(|(t, &a)| esched_types::Task::of(t.release, t.deadline, a))
                    .collect(),
            )
            .expect("halved works stay valid");
            let clair = der_schedule(&clair_tasks, cores, &power).final_energy;
            let without = no_reclaim_energy(&tasks, &actual, cores, &power);
            let with = reclaim_der(&tasks, &actual, cores, &power).energy;
            (without / clair, with / clair)
        },
    );
    let n = rows.len() as f64;
    ReclaimAblation {
        no_reclaim: rows.iter().map(|r| r.0).sum::<f64>() / n,
        reclaim: rows.iter().map(|r| r.1).sum::<f64>() / n,
    }
}

/// Run everything and render the report.
pub fn run_and_report(trials: usize, base_seed: u64, outdir: &Path) -> String {
    let alloc = allocation_ablation(trials, base_seed);
    let base = baseline_ablation(trials, base_seed);
    let online = online_ablation(trials, base_seed);
    let quant = quantize_ablation(trials, base_seed);
    let wake = wakeup_ablation(trials, base_seed);
    let replan = replan_ablation(trials, base_seed);
    let reclaim = reclaim_ablation(trials, base_seed);

    let mut out = String::new();
    let _ = writeln!(out, "Ablations ({trials} trials each, m=4, n=20)");
    let _ = writeln!(out, "\n1. Allocation rule (mean NEC, alpha=3, p0=0.1):");
    let _ = writeln!(out, "   DER (Algorithm 2, S^F2):      {:.4}", alloc.der);
    let _ = writeln!(
        out,
        "   DER without redistribution:   {:.4}",
        alloc.der_no_redist
    );
    let _ = writeln!(
        out,
        "   work-proportional shares:     {:.4}",
        alloc.work_prop
    );
    let _ = writeln!(out, "   even split (S^F1):            {:.4}", alloc.even);
    let _ = writeln!(out, "\n2. Deployable baselines (mean NEC, p(f)=f^3):");
    let _ = writeln!(out, "   S^F2 (global, migrating):     {:.4}", base.der);
    let _ = writeln!(
        out,
        "   partitioned YDS:              {:.4}",
        base.partitioned_yds
    );
    let _ = writeln!(out, "   uniform min-feasible freq:    {:.4}", base.uniform);
    let _ = writeln!(
        out,
        "\n3. Online dispatch of S^F2 frequencies (miss probability):"
    );
    let _ = writeln!(
        out,
        "   offline Algorithm-1 packing:  {:.3}",
        online.offline_miss_prob
    );
    let _ = writeln!(
        out,
        "   global EDF:                   {:.3}",
        online.edf_miss_prob
    );
    let _ = writeln!(
        out,
        "   LLF @ subinterval epochs:     {:.3}",
        online.llf_miss_prob
    );
    let _ = writeln!(out, "\n4. XScale quantization policy (mean energy, mW*s):");
    let _ = writeln!(out, "   next level up:                {:.1}", quant.next_up);
    let _ = writeln!(
        out,
        "   best-efficiency level:        {:.1}",
        quant.best_efficiency
    );
    let _ = writeln!(
        out,
        "\n5. Wake-up overhead (mean core activations per run):"
    );
    let _ = writeln!(
        out,
        "   offline F2 packing:           {:.1}",
        wake.f2_activations
    );
    let _ = writeln!(
        out,
        "   offline F1 packing:           {:.1}",
        wake.f1_activations
    );
    let _ = writeln!(
        out,
        "   online LLF dispatch:          {:.1}",
        wake.llf_activations
    );
    let _ = writeln!(
        out,
        "   per-wakeup cost worth 5% of F2 base energy: {:.4}",
        wake.breakeven_cost
    );
    let _ = writeln!(
        out,
        "\n6. Price of non-clairvoyance (replanning vs offline F2):"
    );
    let _ = writeln!(
        out,
        "   energy ratio:                 {:.4}",
        replan.energy_ratio
    );
    let _ = writeln!(
        out,
        "   peak-frequency ratio:         {:.4}",
        replan.peak_freq_ratio
    );
    let _ = writeln!(
        out,
        "   P(miss):                      {:.3}",
        replan.miss_prob
    );
    let _ = writeln!(
        out,
        "\n7. Slack reclamation (actual work = 50% of WCEC; energy vs clairvoyant-for-actuals):"
    );
    let _ = writeln!(
        out,
        "   WCEC plan, no reclamation:    {:.4}",
        reclaim.no_reclaim
    );
    let _ = writeln!(
        out,
        "   completion-driven replanning: {:.4}",
        reclaim.reclaim
    );

    let csv = format!(
        "metric,value\nalloc_der,{:.6}\nalloc_der_no_redist,{:.6}\nalloc_work_prop,{:.6}\n\
         alloc_even,{:.6}\nbase_der,{:.6}\nbase_partitioned_yds,{:.6}\nbase_uniform,{:.6}\n\
         online_offline_miss,{:.6}\nonline_edf_miss,{:.6}\nonline_llf_miss,{:.6}\n\
         quant_next_up,{:.6}\nquant_best_eff,{:.6}\nwake_f2_act,{:.3}\nwake_f1_act,{:.3}\n\
         wake_llf_act,{:.3}\nwake_breakeven,{:.6}\nreplan_energy_ratio,{:.6}\n\
         replan_peak_ratio,{:.6}\nreplan_miss_prob,{:.6}\nreclaim_without,{:.6}\n\
         reclaim_with,{:.6}\n",
        alloc.der,
        alloc.der_no_redist,
        alloc.work_prop,
        alloc.even,
        base.der,
        base.partitioned_yds,
        base.uniform,
        online.offline_miss_prob,
        online.edf_miss_prob,
        online.llf_miss_prob,
        quant.next_up,
        quant.best_efficiency,
        wake.f2_activations,
        wake.f1_activations,
        wake.llf_activations,
        wake.breakeven_cost,
        replan.energy_ratio,
        replan.peak_freq_ratio,
        replan.miss_prob,
        reclaim.no_reclaim,
        reclaim.reclaim
    );
    let _ = write_artifact(outdir, "ablate.csv", &csv);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_ablation_orders_sanely() {
        let a = allocation_ablation(4, 321);
        // Full DER ≤ no-redistribution (stranded capacity can only hurt).
        assert!(a.der <= a.der_no_redist + 1e-9, "{a:?}");
        // Everything beats nothing: all ≥ ~1.
        for v in [a.der, a.der_no_redist, a.work_prop, a.even] {
            assert!(v >= 0.999, "{v}");
        }
        // DER is the best of the four rules on average.
        assert!(a.der <= a.work_prop + 1e-9);
        assert!(a.der <= a.even + 1e-9);
    }

    #[test]
    fn baseline_ablation_orders_sanely() {
        let b = baseline_ablation(4, 654);
        assert!(b.der >= 0.999);
        // The smart heuristic beats both deployable baselines on average.
        assert!(b.der <= b.partitioned_yds + 1e-9, "{b:?}");
        assert!(b.der <= b.uniform + 1e-9, "{b:?}");
    }

    #[test]
    fn online_ablation_offline_never_misses() {
        let o = online_ablation(4, 987);
        assert_eq!(o.offline_miss_prob, 0.0);
        assert!(o.edf_miss_prob <= 1.0 && o.llf_miss_prob <= 1.0);
    }

    #[test]
    fn quantize_ablation_best_efficiency_never_loses() {
        let q = quantize_ablation(4, 135);
        assert!(q.best_efficiency <= q.next_up + 1e-9, "{q:?}");
    }

    #[test]
    fn replan_ablation_ratio_at_least_one() {
        let r = replan_ablation(3, 852);
        assert!(r.energy_ratio >= 1.0 - 1e-9, "{r:?}");
        assert_eq!(r.miss_prob, 0.0);
        assert!(r.peak_freq_ratio > 0.0);
    }

    #[test]
    fn reclaim_ablation_orders_correctly() {
        let r = reclaim_ablation(3, 963);
        // Clairvoyant ≤ reclaiming ≤ not reclaiming.
        assert!(r.reclaim >= 1.0 - 1e-6, "{r:?}");
        assert!(r.reclaim <= r.no_reclaim + 1e-9, "{r:?}");
    }

    #[test]
    fn wakeup_ablation_counts_are_positive() {
        let w = wakeup_ablation(3, 246);
        assert!(w.f2_activations > 0.0);
        assert!(w.f1_activations > 0.0);
        assert!(w.llf_activations > 0.0);
        assert!(w.breakeven_cost > 0.0);
    }
}
