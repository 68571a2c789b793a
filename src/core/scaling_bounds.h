// Sound per-scaling lower bounds on power and expected SEUs, the
// admissible heuristics that drive the branch-and-bound explorer
// (core/dse.cpp).
//
// Any feasible design at a scaling combination powers some non-empty
// sub-multiset S of the combination's cores (unused cores are
// power-gated and hold no live state) whose combined deadline capacity
// covers the graph's work. Each such S has one sound (power, Gamma)
// lower-bound pair: a design that powers exactly S costs at least that
// pair, pointwise. The explorer prunes a combination only when EVERY
// case is strictly dominated by an already-evaluated design — each
// case may fall to a different incumbent (a case that gates its fast
// cores has low power but high Gamma and dies to a fast incumbent; a
// case that powers them dies to a cheap one). bounds_for() is the
// pointwise minimum over cases — a single conservative corner used for
// best-first ordering.
//
// Case table. Cores at one level are interchangeable, so a case is its
// count vector c (cores powered per level, c_l for level index l) and
// its pair depends on c alone, not on the combination it came from. A
// combination with count vector n has as its cases every admissible
// c <= n (pointwise, c != 0). The model therefore evaluates each c
// with sum(c) <= C (C cores, L levels) once, at construction, into a
// dense table of C(C+L, L) ScalingBounds entries (16 bytes each; 47,905
// for 64 cores x 3 levels, 74,613 for 16 x 6) plus an admissibility
// bit. The index is the combinatorial number system over c's prefix
// sums S_k = c_0 + ... + c_k: index(c) = sum_k C(S_k + k, k + 1), a
// bijection onto [0, C(C+L, L)) found in O(L) — the prefix positions
// S_k + k are strictly increasing in [0, C+L), i.e. an L-subset. Only
// C(S_k + k, k + 1) with S_k <= C is ever needed, so no intermediate
// binomial exceeds the table size. Above k_case_table_cap entries the
// model keeps no table and the same down-set walk evaluates each case
// on demand instead. The table is filled eagerly, so every const
// method is read-only and safe to call from several threads.
//
// Pareto-minimal case lists. case_bounds_for() returns only the cases
// no other case weakly dominates (equal pairs kept once), power
// ascending. This decides exactly what the full list decides: if case
// c' <= c pointwise, any incumbent that strictly beats c' in both
// objectives strictly beats c too, so "every case strictly dominated"
// holds for the full list iff it holds for its minimal elements; and a
// design >= some case pointwise is >= a minimal case below it, so the
// explorer's "covered by some case" audit is unchanged. The minimal
// elements also carry each coordinate's minimum, so the corner is the
// same, bit for bit (std::min is exact).
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

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace seamap {

/// Lower bounds over every feasible mapping (of one powered-core case,
/// or of a whole scaling combination for the pointwise minimum).
struct ScalingBounds {
    double power_mw_lb = 0.0;
    double gamma_lb = 0.0;
};

/// Insert `point` into `staircase`, a Pareto staircase kept sorted by
/// power strictly ascending with gamma strictly descending. A point
/// weakly dominated by one already there (including an equal pair) is
/// a no-op; points the new one weakly dominates are removed. The result
/// is the set of minimal elements of everything inserted, whatever the
/// insertion order.
void insert_into_staircase(std::vector<ScalingBounds>& staircase, const ScalingBounds& point);

/// Largest case table a ScalingBoundsModel keeps, in entries (16 MB).
/// Above it (e.g. 64 cores x 5 levels, C(69, 5) = 11.2M) the model
/// evaluates every case on demand.
inline constexpr std::size_t k_case_table_cap = std::size_t{1} << 20;

/// Bound evaluator for one (graph, architecture, deadline, SER model)
/// problem; graph-level aggregates are computed once at construction.
class ScalingBoundsModel {
public:
    /// `arch` must outlive the model.
    ScalingBoundsModel(const TaskGraph& graph, const MpsocArchitecture& arch,
                       double deadline_seconds, const SerModel& ser, ExposurePolicy policy);

    /// The Pareto-minimal bound pairs over the admissible powered-core
    /// sub-multisets (capacity covers the work), equal pairs once,
    /// power strictly ascending and gamma strictly descending: every
    /// feasible design's (P, Gamma) is pointwise >= one of them (see
    /// the file comment). Empty when no case has enough capacity (the
    /// T_M gate rejects such scalings anyway).
    std::vector<ScalingBounds> case_bounds_for(const ScalingVector& levels) const;

    /// Pointwise minimum over the cases: a single conservative corner
    /// (any feasible design costs at least this much in each
    /// objective separately). Zero bounds when no case is admissible.
    ScalingBounds bounds_for(const ScalingVector& levels) const;

    /// The corner of an already-computed case list: the pointwise
    /// minimum bounds_for() takes over the same cases.
    static ScalingBounds corner_of(const std::vector<ScalingBounds>& cases);

    /// Entries in the case table: C(C+L, L) for C cores and L levels,
    /// or 0 when the model keeps none (more than k_case_table_cap
    /// entries, or a problem with no work or no deadline).
    std::size_t case_table_entries() const { return case_table_.size(); }

private:
    /// Cores powered per level, by level index (0-based level - 1).
    using CaseCounts = std::vector<std::size_t>;
    /// (level index, count) per powered level, ascending level index.
    using PoweredLevels = std::vector<std::pair<std::size_t, std::size_t>>;

    /// One powered-core case: count of powered cores per scaling
    /// level, level-index-keyed (0-based level - 1).
    ScalingBounds case_bounds(const PoweredLevels& powered) const;

    /// The pair of case `counts` into `out`; false (and `out` untouched)
    /// when the case lacks the rough capacity for the work. `powered`
    /// is scratch.
    bool evaluate_case(const CaseCounts& counts, PoweredLevels& powered,
                       ScalingBounds& out) const;

    /// Calls `visit(const ScalingBounds&)` for every admissible case of
    /// `levels` (each c <= n, c != 0), reading the table when there is
    /// one and evaluating the case otherwise.
    template <class Visit>
    void for_each_case(const ScalingVector& levels, Visit visit) const;

    /// Fills the case table (see the file comment), or leaves it empty
    /// when it would exceed k_case_table_cap entries.
    void build_case_table(std::size_t core_count);

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

    // The case table (see file comment): entry index(c) holds case c's
    // pair, valid only where case_admissible_ is set. case_offset_[k *
    // (C + 1) + s] = C(s + k, k + 1), the index term of prefix sum s at
    // level index k.
    std::vector<ScalingBounds> case_table_;
    std::vector<bool> case_admissible_;
    std::vector<std::size_t> case_offset_;
    std::size_t offset_stride_ = 0; ///< C + 1
};

} // namespace seamap
