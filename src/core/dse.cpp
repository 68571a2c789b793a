#include "core/dse.h"

#include "core/dse_checkpoint.h"
#include "core/initial_mapping.h"
#include "core/lazy_scaling_queue.h"
#include "core/observer.h"
#include "core/replay_ledger.h"
#include "core/scaling_bounds.h"
#include "core/search_strategy.h"
#include "util/float_compare.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

namespace seamap {

namespace {

/// Deterministic best-of-K fold over a scaling's multi-start results:
/// feasibility first, then the search objective (fewest expected SEUs),
/// power, completion time, and finally the mapping as a total-order
/// tie-break. Folding in start order makes the pick a pure function of
/// the K results. With one start this is the identity.
bool better_start(const LocalSearchResult& a, const LocalSearchResult& b) {
    if (a.found_feasible != b.found_feasible) return a.found_feasible;
    if (a.found_feasible) {
        if (!exactly_equal(a.best_metrics.gamma, b.best_metrics.gamma))
            return a.best_metrics.gamma < b.best_metrics.gamma;
        if (!exactly_equal(a.best_metrics.power_mw, b.best_metrics.power_mw))
            return a.best_metrics.power_mw < b.best_metrics.power_mw;
    }
    if (!exactly_equal(a.best_metrics.tm_seconds, b.best_metrics.tm_seconds))
        return a.best_metrics.tm_seconds < b.best_metrics.tm_seconds;
    return a.best_mapping.raw() < b.best_mapping.raw();
}

const LocalSearchResult& fold_starts(const std::vector<LocalSearchResult>& starts) {
    const LocalSearchResult* best = &starts.front();
    for (std::size_t r = 1; r < starts.size(); ++r)
        if (better_start(starts[r], *best)) best = &starts[r];
    return *best;
}

/// Companion fold for the opt-in min-power side channel: among starts
/// that tracked a feasible min-power design, the cheapest wins (power,
/// then Gamma, then the mapping as a total-order tie-break). Returns
/// nullptr when no start recorded one (tracking off, or nothing
/// feasible). Same start-order purity argument as fold_starts.
const LocalSearchResult* fold_min_power(const std::vector<LocalSearchResult>& starts) {
    const LocalSearchResult* best = nullptr;
    for (const LocalSearchResult& start : starts) {
        if (!start.min_power_found) continue;
        if (best == nullptr) {
            best = &start;
            continue;
        }
        const DesignMetrics& a = start.min_power_metrics;
        const DesignMetrics& b = best->min_power_metrics;
        bool cheaper = false;
        if (!exactly_equal(a.power_mw, b.power_mw)) {
            cheaper = a.power_mw < b.power_mw;
        } else if (!exactly_equal(a.gamma, b.gamma)) {
            cheaper = a.gamma < b.gamma;
        } else {
            cheaper = start.min_power_mapping.raw() < best->min_power_mapping.raw();
        }
        if (cheaper) best = &start;
    }
    return best;
}

/// The paper's step-3 selection rule — minimum power, fewer expected
/// SEUs within the relative power tie window — applied to the sorted
/// Pareto front. On the front the rule is a pure function of the point
/// set (no evaluation-order sensitivity), which is what makes it
/// invariant under dominance pruning: pruned designs never reach a
/// front.
std::optional<DsePoint> select_best(const std::vector<DsePoint>& front, double tie) {
    if (front.empty()) return std::nullopt;
    const DsePoint* best = &front.front();
    for (std::size_t i = 1; i < front.size(); ++i) {
        const DsePoint& candidate = front[i];
        if (within_relative_tie(candidate.metrics.power_mw, best->metrics.power_mw, tie) &&
            candidate.metrics.gamma < best->metrics.gamma)
            best = &candidate;
    }
    return *best;
}

/// One emitted slot's searches, shared by its start jobs. Each start
/// writes only its own `results` entry; the other fields are guarded by
/// the explorer's mutex, which also orders every start before the last
/// one to finish — the one that builds the slot's verdict.
struct SlotSearch {
    std::size_t pos = 0; ///< ReplayLedger handle
    std::uint64_t rank = 0;
    ScalingVector levels;
    std::vector<LocalSearchResult> results; ///< one per start
    std::size_t starts_done = 0;
    bool pruned = false; ///< a start was skipped as dominated
    bool cut = false;    ///< a stop left some start unsearched
};

/// The slot's verdict, built once from its finished starts (pure).
DseSlotRecord slot_verdict(const SlotSearch& search) {
    DseSlotRecord verdict;
    verdict.combo = search.rank;
    if (search.pruned) return verdict;
    const LocalSearchResult& folded = fold_starts(search.results);
    if (!folded.found_feasible) {
        verdict.kind = DseSlotRecord::Kind::no_design;
        return verdict;
    }
    verdict.kind = DseSlotRecord::Kind::feasible;
    verdict.point = {search.levels, folded.best_mapping, folded.best_metrics};
    if (const LocalSearchResult* cheapest = fold_min_power(search.results)) {
        verdict.min_power_point = {search.levels, cheapest->min_power_mapping,
                                   cheapest->min_power_metrics};
        verdict.has_min_power = true;
    }
    return verdict;
}

} // namespace

DesignSpaceExplorer::DesignSpaceExplorer(SerModel ser, ExposurePolicy policy)
    : ser_(std::move(ser)), policy_(policy) {}

DseResult DesignSpaceExplorer::explore(const TaskGraph& graph, const MpsocArchitecture& arch,
                                       double deadline_seconds,
                                       const DseParams& params) const {
    const OptimizedMappingStrategy strategy(params.search);
    return explore(graph, arch, deadline_seconds, params, strategy);
}

DseResult DesignSpaceExplorer::explore(const TaskGraph& graph, const MpsocArchitecture& arch,
                                       double deadline_seconds, const DseParams& params,
                                       const SearchStrategy& strategy,
                                       ProgressObserver* observer,
                                       const CancellationToken* cancel,
                                       DseCheckpointer* checkpoint) const {
    graph.validate();
    // One token funnels every stop source to the workers: the caller's
    // cancellation (chained as parent) and the explorer's own total
    // wall-clock budget (this token's deadline).
    CancellationToken stop(cancel);
    stop.set_budget_seconds(params.total_time_budget_seconds);

    // The scaling sequence is generated *lazily*, bound-sorted, by the
    // priority queue (core/lazy_scaling_queue.h) — the full sequence is
    // never materialized and, with pruning on, dominated slots are
    // disposed of at pop time before their searches are ever submitted.
    // Every slot decision happens in the ReplayLedger, in pop order
    // (core/replay_ledger.h); this function only produces slots, runs
    // their searches and streams progress.
    const std::optional<ScalingBoundsModel> bounds_model =
        params.prune ? std::optional<ScalingBoundsModel>(std::in_place, graph, arch,
                                                         deadline_seconds, ser_, policy_)
                     : std::nullopt;
    LazyScalingQueue queue(graph, arch, deadline_seconds,
                           bounds_model ? &*bounds_model : nullptr);
    std::uint64_t skipped_count = 0; ///< gate skips; producer thread only

    const std::size_t starts = std::max<std::size_t>(1, params.multi_start);
    const double tie = std::max(0.0, params.power_tie_tolerance);

    // Observer state: callbacks are serialized behind one mutex. The
    // streamed incumbent is the step-3 rule applied to the Pareto front
    // of everything completed so far, so its last value matches the
    // final best at any thread count (dominated — later pruned —
    // designs never move a front).
    std::mutex observer_mutex;
    std::vector<DsePoint> observed_points;
    DominanceFront observed_front; // strict-dominance filter for arrivals
    std::optional<DsePoint> observed_best;
    if (observer != nullptr) observer->on_explore_begin(queue.total());
    // Streams one finished scaling; `verdict` is null for a gate skip.
    auto notify = [&](std::uint64_t rank, const ScalingVector& levels,
                      const DseSlotRecord* verdict) {
        if (observer == nullptr) return;
        std::lock_guard lock(observer_mutex);
        ScalingProgress progress;
        progress.index = rank;
        progress.total = queue.total();
        progress.levels = levels;
        using Kind = DseSlotRecord::Kind;
        using Outcome = ScalingProgress::Outcome;
        progress.outcome = verdict == nullptr                ? Outcome::skipped_infeasible
                           : verdict->kind == Kind::pruned    ? Outcome::pruned
                           : verdict->kind == Kind::no_design ? Outcome::searched_no_design
                                                              : Outcome::feasible;
        if (progress.outcome == Outcome::feasible) progress.metrics = verdict->point.metrics;
        observer->on_scaling_done(progress);
        if (progress.outcome != Outcome::feasible) return;
        // A strictly dominated arrival can never enter any current or
        // future Pareto front (its dominator is retained), so the
        // fold's result cannot change: skip the O(n log n) recompute.
        // Keeps the serialized incumbent stream cheap when most
        // completions are dominated (the common case at scale).
        const DesignMetrics& metrics = progress.metrics;
        if (observed_front.dominates(ScalingBounds{metrics.power_mw, metrics.gamma})) return;
        observed_front.insert(metrics.power_mw, metrics.gamma);
        observed_points.push_back(DsePoint{levels, verdict->point.mapping, metrics});
        std::optional<DsePoint> incumbent = select_best(pareto_front_of(observed_points), tie);
        // A design's metrics are a pure function of (levels, mapping).
        const bool changed = incumbent && (!observed_best ||
                                           incumbent->levels != observed_best->levels ||
                                           incumbent->mapping != observed_best->mapping);
        if (changed) {
            observed_best = std::move(incumbent);
            observer->on_incumbent(*observed_best);
        }
    };

    // bb_mutex serializes every ledger call and the SlotSearch
    // bookkeeping; replay_cv signals the producer that the replay may
    // have advanced (or the run is stopping).
    ReplayLedger ledger(checkpoint);
    std::mutex bb_mutex;
    std::condition_variable replay_cv;
    std::exception_ptr first_error; // under bb_mutex
    // A throwing strategy (or a ledger invariant violation) must not
    // strand the producer waiting on completions that will never come:
    // keep the first error, stop the exploration cooperatively, and
    // rethrow once the pool drains.
    auto fail = [&](std::exception_ptr error) {
        std::lock_guard lock(bb_mutex);
        if (first_error == nullptr) first_error = std::move(error);
        stop.request_stop();
    };

    // Graph- and architecture-only precomputation, built once and read
    // without locks by every worker's per-start EvalContext.
    const EvalPlan plan(graph, arch);

    auto run_start = [&](SlotSearch& search, std::size_t start_index) {
        bool ran = false; // searched in full, or skipped as dominated
        if (!stop.stop_requested()) {
            {
                std::lock_guard lock(bb_mutex);
                search.pruned = search.pruned || ledger.dominated(search.pos);
                ran = search.pruned;
            }
            if (!ran) {
                try {
                    EvaluationContext ctx{graph, arch, search.levels,
                                          SeuEstimator(ser_, policy_), deadline_seconds};
                    // The reusable per-start evaluation engine this
                    // worker's search runs on: preallocated scratch
                    // and the incremental scheduler's base state live
                    // here, private to this worker, so
                    // thread-count invariance is untouched; only the
                    // immutable plan is shared.
                    EvalContext eval(plan, ctx, params.eval);
                    Mapping initial = params.use_initial_sea_mapping
                                          ? initial_sea_mapping(ctx)
                                          : round_robin_mapping(graph, arch.core_count());
                    // Vary the search seed per scaling so repeated
                    // scalings do not replay the same random walk;
                    // start 0 keeps the historic derivation so
                    // multi_start == 1 is unchanged.
                    std::uint64_t level_hash = 0xcbf29ce484222325ULL;
                    for (ScalingLevel level : search.levels)
                        level_hash = splitmix64(level_hash ^ level);
                    std::uint64_t seed = splitmix64(params.search.seed ^ level_hash);
                    if (start_index > 0)
                        seed = splitmix64(seed + 0x9e3779b97f4a7c15ULL * start_index);
                    search.results[start_index] = strategy.search(eval, initial, seed, &stop);
                    // A stop landing while the search ran may have cut
                    // it short, leaving a partial (non-replay-faithful)
                    // result: the slot then stays not_run and a resume
                    // re-searches it in full.
                    ran = !stop.stop_requested();
                } catch (...) {
                    fail(std::current_exception());
                }
            }
        }
        // The last start builds its slot's verdict, once, and hands it
        // to the ledger.
        std::optional<DseSlotRecord> verdict;
        try {
            std::lock_guard lock(bb_mutex);
            search.cut = search.cut || !ran;
            if (++search.starts_done < starts) return;
            if (!search.cut) verdict = slot_verdict(search);
            ledger.complete(search.pos, verdict);
        } catch (...) {
            fail(std::current_exception());
        }
        replay_cv.notify_all();
        if (verdict) notify(search.rank, search.levels, &*verdict);
        if (checkpoint != nullptr) checkpoint->maybe_flush();
    };

    // --- produce + run ------------------------------------------------
    // The producer (this thread) pops slots from the lazy queue while
    // the pool runs searches. For each gate-passing pop it recomputes
    // the per-case bounds, waits until the replay covers the disposal
    // window, and admits the slot to the ledger, which restores it from
    // the checkpoint, disposes of it (provably dominated — counted
    // pruned, never searched) or lets it be searched.
    if (!stop.stop_requested()) {
        ThreadPool pool(ThreadPool::resolve_thread_count(params.num_threads));
        const DseSlotRecord disposed_verdict; // kind pruned
        while (!stop.stop_requested()) {
            std::optional<LazyScalingQueue::Slot> popped = queue.pop();
            if (!popped) break;
            if (!popped->gate_passed) {
                // Gate skips are free: count and stream them right
                // here, ahead of any search.
                ++skipped_count;
                notify(popped->rank, popped->levels, nullptr);
                continue;
            }
            // The queue only kept the corner (storing every generated
            // node's case list would defeat the lazy memory bound);
            // the full per-case list is recomputed for the pop.
            std::vector<ScalingBounds> cases;
            if (bounds_model) cases = bounds_model->case_bounds_for(popped->levels);
            ReplayLedger::Admission admission;
            {
                std::unique_lock lock(bb_mutex);
                replay_cv.wait(
                    lock, [&] { return ledger.ready_to_admit() || stop.stop_requested(); });
                if (stop.stop_requested()) break;
                admission = ledger.admit(popped->rank, popped->levels, std::move(cases));
            }
            if (admission.restored != nullptr || admission.disposed) {
                notify(popped->rank, popped->levels,
                       admission.restored != nullptr ? admission.restored : &disposed_verdict);
                if (checkpoint != nullptr) checkpoint->maybe_flush();
                continue;
            }
            auto search = std::make_shared<SlotSearch>();
            search->pos = admission.pos;
            search->rank = popped->rank;
            search->levels = std::move(popped->levels);
            search->results.resize(starts);
            for (std::size_t r = 0; r < starts; ++r)
                pool.submit(admission.pos, [&, search, r] { run_start(*search, r); });
        }
        pool.wait_idle();
    }
    // Quiescent now: every admitted slot completed, so the ledger has
    // decided the whole admitted sequence.
    if (first_error != nullptr) std::rethrow_exception(first_error);
    // Persist whatever the run decided — on a stop this is the snapshot
    // a resume continues from; on completion it doubles as a cached
    // result (a resume replays it without searching).
    if (checkpoint != nullptr) checkpoint->flush();
    DseResult result = ledger.fold(queue.total(), skipped_count, stop.stop_requested());

    // Step 3: iterative assessment — among feasible designs pick
    // minimum power, breaking near-ties by Gamma. Applied to the front,
    // where the rule is order-independent and prune-invariant.
    result.pareto_front = pareto_front_of(result.feasible_points);
    result.best = select_best(result.pareto_front, tie);
    if (observer != nullptr) observer->on_explore_end(result);
    return result;
}

std::vector<DsePoint> pareto_front_of(const std::vector<DsePoint>& points) {
    // Sort-and-sweep over the 2-D (power, gamma) objectives: sorting by
    // the same total order the output uses anyway, a point is dominated
    // iff the minimum gamma among strictly-cheaper points is <= its own
    // (strictness then comes from the power gap) or a same-power point
    // has strictly smaller gamma. O(n log n) against the former
    // all-pairs scan, with byte-identical output: survivors are the
    // same set, already in the output's total order.
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t ia, std::size_t ib) {
        const DsePoint& a = points[ia];
        const DsePoint& b = points[ib];
        if (!exactly_equal(a.metrics.power_mw, b.metrics.power_mw))
            return a.metrics.power_mw < b.metrics.power_mw;
        if (!exactly_equal(a.metrics.gamma, b.metrics.gamma))
            return a.metrics.gamma < b.metrics.gamma;
        if (a.levels != b.levels) return a.levels < b.levels;
        return a.mapping.raw() < b.mapping.raw();
    });

    std::vector<DsePoint> front;
    double cheaper_min_gamma = std::numeric_limits<double>::infinity();
    for (std::size_t group = 0; group < order.size();) {
        std::size_t group_end = group;
        const double group_power = points[order[group]].metrics.power_mw;
        while (group_end < order.size() &&
               exactly_equal(points[order[group_end]].metrics.power_mw, group_power))
            ++group_end;
        // Within an equal-power group the sort put minimum gamma first.
        const double group_min_gamma = points[order[group]].metrics.gamma;
        for (std::size_t k = group; k < group_end; ++k) {
            const DsePoint& candidate = points[order[k]];
            const bool dominated = cheaper_min_gamma <= candidate.metrics.gamma ||
                                   group_min_gamma < candidate.metrics.gamma;
            if (!dominated) front.push_back(candidate);
        }
        cheaper_min_gamma = std::min(cheaper_min_gamma, group_min_gamma);
        group = group_end;
    }

    // Drop near-duplicates on (P, Gamma) so the front is a clean
    // staircase; exact float equality would keep points that differ
    // only in the last ulp of an otherwise identical design. Each
    // point is compared against the last *kept* point (not std::unique,
    // whose behavior is unspecified for non-transitive predicates).
    std::vector<DsePoint> deduped;
    for (DsePoint& point : front) {
        if (!deduped.empty() &&
            nearly_equal(deduped.back().metrics.power_mw, point.metrics.power_mw) &&
            nearly_equal(deduped.back().metrics.gamma, point.metrics.gamma))
            continue;
        deduped.push_back(std::move(point));
    }
    return deduped;
}

} // namespace seamap
