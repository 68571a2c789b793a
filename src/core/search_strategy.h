// The pluggable per-scaling mapping-search contract the explorer
// (core/dse.h) calls, with the knob set and result type every engine
// shares. The built-in engines implement the interface directly: the
// paper's Fig. 7 search (OptimizedMapping, core/optimized_mapping.h)
// and the simulated-annealing baseline (SimulatedAnnealingMapper,
// baseline/simulated_annealing.h). The name-keyed registry that
// creates engines by string lives with the public API in
// api/strategy.h, keeping the dependency graph acyclic (core never
// looks upward).
//
// Determinism contract: search() must be a pure function of
// (ctx, initial, seed) whenever `cancel` never fires. The explorer
// relies on this to stay bit-identical across thread counts.
#pragma once

#include "core/eval_context.h"
#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "util/cancellation.h"

#include <cstdint>
#include <string>

namespace seamap {

/// Search knobs. The paper uses wall-clock budgets (40-130 min of
/// SystemC-driven search); with the analytic evaluator the default
/// iteration budget explores a comparable design-space fraction in
/// milliseconds. Set `time_budget_seconds` > 0 to add a wall-clock cap.
struct LocalSearchParams {
    std::uint64_t max_iterations = 4'000;
    double time_budget_seconds = 0.0; ///< 0 = iteration budget only
    /// Annealed acceptance of non-improving walk steps: a worse
    /// neighbour (relative cost increase d) is accepted with
    /// probability exp(-d / T), with T cooled geometrically from
    /// `initial_temperature` to `final_temperature` within each restart
    /// segment. Mbest tracking (steps E-F) is unaffected — only
    /// feasible, lower-Gamma designs ever become the returned best.
    double initial_temperature = 0.30;
    double final_temperature = 1e-4;
    /// Probability that a neighbour swaps two tasks instead of moving one.
    double swap_probability = 0.3;
    /// Every `sweep_interval` iterations the search systematically
    /// evaluates all single-task moves from the current mapping and
    /// takes the best one — the paper's exhaustive neighbourhood pass
    /// (its O(N^3) complexity analysis assumes such sweeps). 0 disables.
    std::uint64_t sweep_interval = 25;
    /// Reject task movements that would leave a previously-populated
    /// core without tasks. The paper's designs keep every core of the
    /// chosen architecture allocation populated (Tables II/III); leave
    /// this off to let the search shut cores down.
    bool require_all_cores = false;
    /// Independent walk restarts sharing the iteration budget; restart
    /// k > 0 begins from a randomly perturbed copy of the initial
    /// mapping. Escapes local minima that a single walk gets stuck in.
    std::uint64_t restarts = 3;
    /// The explorer's root seed, from which it derives every
    /// per-scaling seed. Engines ignore it: search() takes its seed as
    /// an argument.
    std::uint64_t seed = 1;
    /// Also record the minimum-power feasible design the walk passes
    /// through (power first, Gamma tie-break) in the result's
    /// `min_power_*` fields. Off by default: tracking is free in walk
    /// behavior (the walk itself is untouched) but retaining the extra
    /// mapping copies costs a little, and downstream result schemas
    /// (api/json.h) only grow a field when it is on.
    bool track_min_power = false;
};

/// Outcome of one search() run.
struct LocalSearchResult {
    Mapping best_mapping;
    DesignMetrics best_metrics;
    bool found_feasible = false;
    std::uint64_t iterations_run = 0;
    /// Fig. 7: new best designs found; annealing: accepted moves.
    std::uint64_t improvements = 0;
    std::uint64_t evaluations = 0;
    /// Minimum-power feasible design seen by this walk (power first,
    /// Gamma tie-break) — only tracked when
    /// LocalSearchParams::track_min_power is on; `min_power_found`
    /// stays false otherwise. May coincide with `best_mapping`.
    Mapping min_power_mapping;
    DesignMetrics min_power_metrics;
    bool min_power_found = false;
};

/// One per-scaling mapping-search engine.
class SearchStrategy {
public:
    virtual ~SearchStrategy();

    /// Registry key ("optimized", "annealing", ...).
    virtual std::string name() const = 0;

    /// Search a mapping for the fixed scaling in `ctx`, starting from
    /// the complete mapping `initial`. `seed` is the per-scaling
    /// derived seed (the explorer varies it per combination so repeated
    /// scalings do not replay the same walk); `cancel`, when non-null,
    /// must be polled so the thread-pooled explorer can stop workers
    /// cooperatively.
    virtual LocalSearchResult search(const EvaluationContext& ctx, const Mapping& initial,
                                     std::uint64_t seed,
                                     const CancellationToken* cancel = nullptr) const = 0;

    /// Hot-path entry the explorer actually calls: the per-scaling
    /// EvalContext (core/eval_context.h) carries preallocated scratch
    /// and the incremental scheduler for this worker.
    /// The default forwards to the EvaluationContext overload, so
    /// custom strategies that never heard of EvalContext keep working;
    /// the built-ins override it to run their walks on `eval`
    /// directly. The determinism contract is unchanged: for a given
    /// (problem, initial, seed) the result must be bit-identical
    /// whichever overload runs.
    virtual LocalSearchResult search(EvalContext& eval, const Mapping& initial,
                                     std::uint64_t seed,
                                     const CancellationToken* cancel = nullptr) const;
};

} // namespace seamap
