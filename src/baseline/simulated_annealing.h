// Simulated-annealing task mapper — the soft-error-unaware baseline the
// paper compares against (Orsila et al. [13], "automated memory-aware
// application distribution"): move/swap neighbourhood over complete
// mappings, geometric cooling, relative-cost acceptance and a deadline
// penalty. Objectives are pluggable so one engine serves Exp:1-3 (and
// an SA-on-Gamma ablation).
#pragma once

#include "baseline/objectives.h"
#include "core/eval_context.h"
#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "util/cancellation.h"
#include "util/rng.h"

#include <cstdint>

namespace seamap {

/// Annealer knobs; defaults are sized for the paper's graphs (11-100
/// tasks) and run in well under a second per call.
struct SaParams {
    /// Iteration budget; 0 = no cap (a time budget must then be set).
    std::uint64_t iterations = 20'000;
    /// Wall-clock cap on one optimize() call, seconds; 0 = none.
    double time_budget_seconds = 0.0;
    /// Initial/final temperature, relative to the current cost.
    double initial_temperature = 0.30;
    double final_temperature = 1e-4;
    /// Probability that a neighbour is a two-task swap instead of a
    /// single-task move.
    double swap_probability = 0.3;
    /// Relative cost penalty per unit of deadline violation
    /// (cost *= 1 + penalty * violation_fraction).
    double infeasibility_penalty = 10.0;
    /// Reject moves that would leave a populated core without tasks
    /// (the paper's designs keep every core populated).
    bool require_all_cores = false;
    std::uint64_t seed = 1;
};

/// Best design found by one annealing run.
struct SaResult {
    Mapping best_mapping;
    DesignMetrics best_metrics;
    bool found_feasible = false;
    std::uint64_t iterations_run = 0;
    std::uint64_t accepted_moves = 0;
    std::uint64_t evaluations = 0;
};

/// One annealing engine; stateless apart from its parameters.
class SimulatedAnnealingMapper {
public:
    explicit SimulatedAnnealingMapper(SaParams params);

    /// Anneal from `initial` (must be complete). The best *feasible*
    /// design seen is returned; if none is feasible, the design with
    /// the smallest deadline violation. An optional `cancel` token is
    /// checked once per iteration and stops the walk early. Builds a
    /// fresh EvalContext internally (fast path, default EvalOptions).
    SaResult optimize(const EvaluationContext& ctx, MappingObjective objective,
                      const Mapping& initial,
                      const CancellationToken* cancel = nullptr) const;

    /// Anneal on a caller-provided evaluation context (per-scaling
    /// scratch reuse; tests/benches select the naive-reference
    /// path through it). The walk is a pure function of
    /// (ctx, objective, initial, seed) for every EvalOptions choice.
    SaResult optimize(EvalContext& eval, MappingObjective objective, const Mapping& initial,
                      const CancellationToken* cancel = nullptr) const;

private:
    SaParams params_;
};

} // namespace seamap
