// Sound per-scaling lower bounds on power and expected SEUs, the
// admissible heuristics that drive the branch-and-bound explorer
// (core/dse.cpp).
//
// Any feasible design at a scaling combination powers some non-empty
// sub-multiset S of the combination's cores (unused cores are
// power-gated and hold no live state) whose combined deadline capacity
// covers the graph's work. case_bounds_for() enumerates every such S
// and returns one sound (power, Gamma) lower-bound pair per case: a
// design that powers exactly S costs at least that pair, pointwise.
// The explorer prunes a combination only when EVERY case is strictly
// dominated by an already-evaluated design — each case may fall to a
// different incumbent (a case that gates its fast cores has low power
// but high Gamma and dies to a fast incumbent; a case that powers them
// dies to a cheap one). bounds_for() is the pointwise minimum over
// cases — a single conservative corner used for best-first ordering.
//
// Per-case soundness leans on the deadline-capacity argument that
// makes tight deadlines the prunable regime. With T_M <= D and
// per-core utilization <= 1, core i absorbs at most f_i * D cycles —
// and under pipelined batching strictly less: T_M = L + (B-1) * II
// exactly, per-iteration busy time is at most II, and L is at least
// the critical path on the case's fastest core, so whole-run busy is
// capped by f_i * B * (D - L_min) / (B - 1).
//
//  - Power (eq. 5 shape): P = sum_{i in S} P_a(l_i) * (idle +
//    (1-idle) u_i). Every powered core pays its idle fraction;
//    the busy part prices the graph's cycles by the fractional
//    knapsack over S's energy-per-cycle levels (a true minimum),
//    divided by the largest admissible T_M.
//
//  - Gamma (eq. 3, full_duration): Gamma = T_M * sum_{i in S} R_i *
//    lambda_i >= tm_lb(S) * rate_lb(S). The rate bound telescopes over
//    S's SER tiers: lambda(host) = lambda_min + sum over tiers j of
//    (lambda_j - lambda_{j-1}) for every tier at or below the host, so
//        sum R_i lambda_i  =  lambda_min * sum_i R_i
//                           + sum_j (lambda_j - lambda_{j-1}) * bits_j
//    with bits_j the union bits on cores of tier >= j. The first term
//    is >= lambda_min * U (U = union of every working set — each
//    register is live somewhere). For the second, capacity forces
//    cycles beyond the cheaper tiers' combined budget onto tier >= j,
//    and a register subset covering c cycles (every task carries its
//    own registers) holds at least B(c) bits, where B is the
//    fractional cheapest-bits-per-cycle cover of the graph's
//    registers; a single-whole-task floor (the smallest working set)
//    guards the relaxation when the overflow is tiny. tm_lb(S)
//    restricts the T_M lower bound to S: only powered cores do work.
//    Under busy_only exposure each task's own bits are exposed for at
//    least its execution time at S's best SEU-per-cycle rate.
//
// Bounds are multiplied by (1 - 1e-9) before being returned so that
// accumulating the same physics in a different summation order can
// never push a "bound" above the true achievable value by round-off;
// the branch-and-bound prune additionally requires *strict* dominance.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "reliability/ser_model.h"
#include "reliability/seu_estimator.h"
#include "sched/list_scheduler.h"
#include "taskgraph/task_graph.h"

#include <cstdint>
#include <vector>

namespace seamap {

/// Lower bounds over every feasible mapping (of one powered-core case,
/// or of a whole scaling combination for the pointwise minimum).
struct ScalingBounds {
    double power_mw_lb = 0.0;
    double gamma_lb = 0.0;
};

/// Bound evaluator for one (graph, architecture, deadline, SER model)
/// problem; graph-level aggregates are computed once at construction.
class ScalingBoundsModel {
public:
    /// `arch` must outlive the model.
    ScalingBoundsModel(const TaskGraph& graph, const MpsocArchitecture& arch,
                       double deadline_seconds, const SerModel& ser, ExposurePolicy policy);

    /// One sound bound pair per admissible powered-core sub-multiset
    /// (capacity covers the work): every feasible design's (P, Gamma)
    /// is pointwise >= the pair of the case it powers. Empty when no
    /// case has enough capacity (the T_M gate rejects such scalings
    /// anyway). Order is deterministic.
    std::vector<ScalingBounds> case_bounds_for(const ScalingVector& levels) const;

    /// Pointwise minimum over the cases: a single conservative corner
    /// (any feasible design costs at least this much in each
    /// objective separately). Zero bounds when no case is admissible.
    ScalingBounds bounds_for(const ScalingVector& levels) const;

    /// The corner of an already-computed case list — the fold
    /// bounds_for applies, exposed so callers holding the cases (the
    /// explorer keeps them for the per-case prune test) don't
    /// re-enumerate.
    static ScalingBounds corner_of(const std::vector<ScalingBounds>& cases);

private:
    /// One powered-core case: count of powered cores per scaling
    /// level, level-index-keyed (0-based level - 1).
    ScalingBounds case_bounds(const std::vector<std::pair<std::size_t, std::size_t>>&
                                  powered) const;

    /// Fractional min-bits cover: smallest union width (bits) a task
    /// set covering `cycles` of work can carry. Built from registers
    /// sorted by bits-per-covered-cycle; piecewise linear, monotone.
    double min_union_bits_covering(double cycles) const;

    const MpsocArchitecture& arch_;
    double deadline_seconds_;
    ExposurePolicy policy_;

    // Graph aggregates (whole-run cycle totals, bits).
    TmLowerBound tm_bound_;
    std::uint64_t union_bits_all_ = 0;   ///< |union of every task's set|
    std::uint64_t min_task_bits_ = 0;    ///< smallest single-task set
    double bits_times_cycles_ = 0.0;     ///< sum_t bits_t * exec_cycles_t
    double cycles_without_registers_ = 0.0; ///< work of zero-bit tasks
    // Registers sorted by ascending bits/covered-cycles density;
    // prefix sums drive min_union_bits_covering.
    std::vector<double> cover_cycles_prefix_;
    std::vector<double> cover_bits_prefix_;

    // Per-level tables, indexed by level - 1.
    std::vector<double> frequency_hz_;
    std::vector<double> active_power_mw_;
    std::vector<double> energy_per_cycle_mws_;
    std::vector<double> ser_per_bit_second_;
};

} // namespace seamap
