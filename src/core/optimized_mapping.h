// Stage 2 of the proposed soft error-aware task mapping: the
// OptimizedMapping local search of the paper's Fig. 7.
//
// Starting from the stage-1 mapping, the search walks a move/swap
// neighbourhood; every candidate is list-scheduled (step D) and the
// best *feasible* design by expected SEUs is retained (steps E-F). The
// walk itself is greedy with an exploration probability so it can
// escape local minima, and — like the paper — it runs until a search
// budget (iterations and/or wall-clock) is exhausted rather than to
// convergence.
#pragma once

#include "core/eval_context.h"
#include "core/search_strategy.h"
#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "util/cancellation.h"

#include <cstdint>
#include <string>

namespace seamap {

/// Fig. 7 search engine, registered as "optimized". The `seed` field
/// of the params is ignored — search() uses its seed argument.
class OptimizedMapping final : public SearchStrategy {
public:
    /// Validates the params eagerly (bad budgets/temperatures throw
    /// here, not mid-exploration on a worker thread).
    explicit OptimizedMapping(LocalSearchParams params);

    std::string name() const override;

    /// Search from `initial` (complete). Returns the best feasible
    /// design by Gamma; if none was found, the design closest to
    /// feasibility (smallest T_M). An optional `cancel` token caps the
    /// walk on top of the iteration/time budgets — it is checked inside
    /// the loop, so a search never overshoots a stop request or token
    /// deadline by more than one design evaluation. Builds a fresh
    /// EvalContext internally (fast path, default EvalOptions).
    LocalSearchResult search(const EvaluationContext& ctx, const Mapping& initial,
                             std::uint64_t seed,
                             const CancellationToken* cancel = nullptr) const override;

    /// Search on a caller-provided evaluation context (the explorer
    /// builds one per scaling combination; tests/benches select the
    /// naive-reference path through it). The walk — RNG draws, step
    /// acceptance, best tracking — is a pure function of
    /// (ctx, initial, seed) regardless of the context's EvalOptions:
    /// every evaluation path is bit-identical.
    LocalSearchResult search(EvalContext& eval, const Mapping& initial, std::uint64_t seed,
                             const CancellationToken* cancel = nullptr) const override;

private:
    LocalSearchParams params_;
};

} // namespace seamap
