#include "baseline/simulated_annealing.h"

#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace seamap {

namespace {

/// Penalized scalar cost: objective inflated by the relative deadline
/// violation so the annealer is pulled toward feasibility but can walk
/// through infeasible regions.
double penalized_cost(const SaParams& params, MappingObjective objective,
                      const DesignMetrics& metrics, double deadline_seconds) {
    const double base = objective_value(objective, metrics);
    if (metrics.feasible || deadline_seconds <= 0.0) return base;
    const double violation = metrics.tm_seconds / deadline_seconds - 1.0;
    return base * (1.0 + params.infeasibility_penalty * violation);
}

} // namespace

SimulatedAnnealingMapper::SimulatedAnnealingMapper(SaParams params, MappingObjective objective)
    : params_(params), objective_(objective) {
    if (params_.iterations == 0 && params_.time_budget_seconds <= 0.0)
        throw std::invalid_argument(
            "SimulatedAnnealingMapper: need an iteration or time budget");
    if (params_.initial_temperature <= 0.0 || params_.final_temperature <= 0.0 ||
        params_.final_temperature > params_.initial_temperature)
        throw std::invalid_argument("SimulatedAnnealingMapper: bad temperature range");
    if (params_.swap_probability < 0.0 || params_.swap_probability > 1.0)
        throw std::invalid_argument("SimulatedAnnealingMapper: bad swap probability");
    if (params_.infeasibility_penalty < 0.0)
        throw std::invalid_argument("SimulatedAnnealingMapper: penalty must be >= 0");
}

std::string SimulatedAnnealingMapper::name() const { return "annealing"; }

LocalSearchResult SimulatedAnnealingMapper::search(const EvaluationContext& ctx,
                                                   const Mapping& initial, std::uint64_t seed,
                                                   const CancellationToken* cancel) const {
    EvalContext eval(ctx);
    return search(eval, initial, seed, cancel);
}

LocalSearchResult SimulatedAnnealingMapper::search(EvalContext& eval, const Mapping& initial,
                                                   std::uint64_t seed,
                                                   const CancellationToken* cancel) const {
    if (!initial.complete())
        throw std::invalid_argument("SimulatedAnnealingMapper: initial mapping incomplete");
    const double deadline_seconds = eval.problem().deadline_seconds;

    Rng rng(seed);
    Mapping current = initial;
    DesignMetrics current_metrics = eval.rebase(current);
    double current_cost =
        penalized_cost(params_, objective_, current_metrics, deadline_seconds);

    LocalSearchResult result;
    result.best_mapping = current;
    result.best_metrics = current_metrics;
    result.found_feasible = current_metrics.feasible;
    result.evaluations = 1;

    // Best tracking: feasible designs compare by objective; infeasible
    // ones (only used until the first feasible design appears) by T_M.
    auto better_than_best = [&](const DesignMetrics& metrics) {
        if (metrics.feasible && !result.found_feasible) return true;
        if (metrics.feasible == result.found_feasible) {
            if (result.found_feasible)
                return objective_value(objective_, metrics) <
                       objective_value(objective_, result.best_metrics);
            return metrics.tm_seconds < result.best_metrics.tm_seconds;
        }
        return false;
    };

    const SearchBudget budget(params_.iterations, params_.time_budget_seconds, cancel);
    const double cooling_exponent =
        std::log(params_.final_temperature / params_.initial_temperature);
    // Cooling progress is measured against the iteration budget; in
    // time-budget-only runs the schedule cycles every 10k iterations.
    const std::uint64_t cooling_segment =
        params_.iterations > 0 ? params_.iterations : 10'000;
    Mapping neighbor;
    for (std::uint64_t iter = 0; !budget.exhausted(iter); ++iter) {
        const double progress = static_cast<double>(iter % cooling_segment) /
                                static_cast<double>(cooling_segment);
        const double temperature =
            params_.initial_temperature * std::exp(cooling_exponent * progress);

        neighbor = current;
        const NeighborOp op = random_neighbor_op(neighbor, rng, params_.swap_probability,
                                                 params_.require_all_cores);
        if (op.kind == NeighborOp::Kind::none) continue; // mapping unchanged
        const DesignMetrics neighbor_metrics = eval.evaluate_neighbor(op);
        ++result.evaluations;
        const double neighbor_cost =
            penalized_cost(params_, objective_, neighbor_metrics, deadline_seconds);

        const double relative_delta =
            current_cost > 0.0 ? (neighbor_cost - current_cost) / current_cost
                               : neighbor_cost - current_cost;
        const bool accept = relative_delta <= 0.0 ||
                            rng.uniform() < std::exp(-relative_delta / temperature);
        if (accept) {
            std::swap(current, neighbor); // keeps neighbor's storage alive for reuse
            current_metrics = neighbor_metrics;
            current_cost = neighbor_cost;
            eval.rebase(current);
            ++result.improvements;
            if (better_than_best(current_metrics)) {
                result.best_mapping = current;
                result.best_metrics = current_metrics;
                result.found_feasible |= current_metrics.feasible;
            }
        }
        ++result.iterations_run;
    }
    return result;
}

} // namespace seamap
