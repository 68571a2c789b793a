// SearchStrategy registry contract: the two built-in engines sit
// behind the same interface, both are reachable by name, custom
// strategies plug into the explorer with one registration, and — the
// acceptance bar — both built-ins produce feasible designs on the
// paper's fig8 and mpeg2 graphs through the public explore() facade.
#include "seamap/seamap.h"

#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace seamap {
namespace {

Problem fig8_problem() {
    return ProblemBuilder()
        .graph(fig8_example_graph())
        .architecture(3, VoltageScalingTable::arm7_three_level())
        .deadline_seconds(k_fig8_deadline_seconds)
        .build();
}

Problem mpeg2_problem() {
    return ProblemBuilder()
        .graph(mpeg2_decoder_graph())
        .architecture(4, VoltageScalingTable::arm7_three_level())
        .deadline_seconds(mpeg2_deadline_seconds())
        .build();
}

TEST(StrategyRegistry, ListsBothBuiltins) {
    const auto names = search_strategy_names();
    EXPECT_NE(std::find(names.begin(), names.end(), "optimized"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "annealing"), names.end());
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(StrategyRegistry, UnknownNameThrowsAndNamesTheKnownOnes) {
    try {
        (void)make_search_strategy("no_such_engine");
        FAIL() << "should have thrown";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no_such_engine"), std::string::npos);
        EXPECT_NE(what.find("optimized"), std::string::npos);
        EXPECT_NE(what.find("annealing"), std::string::npos);
    }
}

TEST(StrategyRegistry, BuiltinNamesCannotBeOverwritten) {
    EXPECT_FALSE(register_search_strategy(
        "optimized", [](const StrategyOptions&) -> std::unique_ptr<SearchStrategy> {
            return nullptr;
        }));
}

TEST(StrategyRegistry, NullFactoryResultIsDiagnosedNotDereferenced) {
    ASSERT_TRUE(register_search_strategy(
        "broken_factory", [](const StrategyOptions&) -> std::unique_ptr<SearchStrategy> {
            return nullptr;
        }));
    EXPECT_THROW((void)make_search_strategy("broken_factory"), std::invalid_argument);
    // And therefore explore() reports it instead of crashing.
    ExploreOptions options;
    options.strategy = "broken_factory";
    EXPECT_THROW((void)explore(fig8_problem(), options), std::invalid_argument);
}

TEST(StrategyRegistry, BothBuiltinsFindFeasibleDesignsOnFig8) {
    for (const char* name : {"optimized", "annealing"}) {
        ExploreOptions options;
        options.strategy = name;
        options.dse.search.max_iterations = 2'000;
        options.dse.search.seed = 5;
        const DseResult result = explore(fig8_problem(), options);
        ASSERT_TRUE(result.best.has_value()) << name;
        EXPECT_TRUE(result.best->metrics.feasible) << name;
        EXPECT_GT(result.scalings_searched, 0u) << name;
    }
}

TEST(StrategyRegistry, BothBuiltinsFindFeasibleDesignsOnMpeg2) {
    for (const char* name : {"optimized", "annealing"}) {
        ExploreOptions options;
        options.strategy = name;
        options.dse.search.max_iterations = 2'000;
        options.dse.search.seed = 5;
        const DseResult result = explore(mpeg2_problem(), options);
        ASSERT_TRUE(result.best.has_value()) << name;
        EXPECT_TRUE(result.best->metrics.feasible) << name;
    }
}

TEST(StrategyRegistry, StrategiesAreDeterministicGivenTheSameSeed) {
    const Problem problem = fig8_problem();
    const EvaluationContext ctx = problem.evaluation_context({1, 2, 2});
    const Mapping initial = round_robin_mapping(problem.graph(), 3);
    for (const char* name : {"optimized", "annealing"}) {
        const auto strategy = make_search_strategy(name, {.max_iterations = 1'000});
        const LocalSearchResult a = strategy->search(ctx, initial, 11);
        const LocalSearchResult b = strategy->search(ctx, initial, 11);
        EXPECT_EQ(a.best_mapping, b.best_mapping) << name;
        EXPECT_EQ(a.best_metrics.gamma, b.best_metrics.gamma) << name;
        EXPECT_EQ(a.evaluations, b.evaluations) << name;
    }
}

/// What one walk returned, metrics as IEEE-754 bit patterns so a pin
/// compares exactly. PrintTo writes the C++ initializer a pin needs.
struct WalkPin {
    std::vector<CoreId> mapping;
    std::uint64_t gamma_bits = 0;
    std::uint64_t power_bits = 0;
    std::uint64_t tm_bits = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t iterations_run = 0;
    std::uint64_t improvements = 0;
    bool found_feasible = false;

    bool operator==(const WalkPin&) const = default;
};

WalkPin pin_of(const Mapping& mapping, const DesignMetrics& metrics,
               const LocalSearchResult& result) {
    return {mapping.raw(),
            std::bit_cast<std::uint64_t>(metrics.gamma),
            std::bit_cast<std::uint64_t>(metrics.power_mw),
            std::bit_cast<std::uint64_t>(metrics.tm_seconds),
            result.evaluations,
            result.iterations_run,
            result.improvements,
            result.found_feasible};
}

WalkPin best_pin(const LocalSearchResult& result) {
    return pin_of(result.best_mapping, result.best_metrics, result);
}

void PrintTo(const WalkPin& pin, std::ostream* os) {
    *os << "{{";
    for (std::size_t i = 0; i < pin.mapping.size(); ++i)
        *os << (i > 0 ? ", " : "") << pin.mapping[i];
    *os << std::hex << "}, 0x" << pin.gamma_bits << "ULL, 0x" << pin.power_bits << "ULL, 0x"
        << pin.tm_bits << "ULL, " << std::dec << pin.evaluations << ", " << pin.iterations_run
        << ", " << pin.improvements << ", " << (pin.found_feasible ? "true" : "false") << "}";
}

/// The walks both engines run, pinned on fig8 to the values the
/// engines produced before they implemented SearchStrategy directly.
/// The budget is short enough that the walks stop short of the common
/// optimum, so the pinned values still depend on the path each walk
/// took: its RNG draws, acceptance tests and best tracking.
class PinnedWalks : public ::testing::Test {
protected:
    const Problem problem = fig8_problem();
    const EvaluationContext ctx = problem.evaluation_context({1, 1, 3});
    const Mapping initial = round_robin_mapping(problem.graph(), 3);
    static constexpr std::uint64_t iterations = 200;
    static constexpr std::uint64_t seed = 11;
};

TEST_F(PinnedWalks, Optimized) {
    const auto strategy = make_search_strategy("optimized", {.max_iterations = iterations});
    const WalkPin expected = {
        {0, 1, 0, 1, 0, 1},
        0x4086147ae147ae14ULL, 0x4031f3b645a1cac0ULL, 0x3fb3333333333333ULL,
        289, 200, 4, true};
    EXPECT_EQ(best_pin(strategy->search(ctx, initial, seed)), expected);
    EvalContext eval(ctx);
    EXPECT_EQ(best_pin(strategy->search(eval, initial, seed)), expected);
}

TEST_F(PinnedWalks, OptimizedTrackingMinPower) {
    const auto strategy = make_search_strategy(
        "optimized", {.max_iterations = iterations, .track_min_power = true});
    const LocalSearchResult result = strategy->search(ctx, initial, seed);
    // Tracking is pure observation: the walk matches the untracked one.
    const auto untracked = make_search_strategy("optimized", {.max_iterations = iterations});
    EXPECT_EQ(best_pin(result), best_pin(untracked->search(ctx, initial, seed)));
    const WalkPin expected = {
        {0, 1, 0, 1, 0, 1},
        0x4086147ae147ae14ULL, 0x4031f3b645a1cac0ULL, 0x3fb3333333333333ULL,
        289, 200, 4, true};
    EXPECT_EQ(best_pin(result), expected);
    ASSERT_TRUE(result.min_power_found);
    const WalkPin expected_min_power = {
        {1, 2, 1, 1, 0, 1},
        0x408931df412c776fULL, 0x40312b299a2f7b25ULL, 0x3fb331b9e6bae631ULL,
        289, 200, 4, true};
    EXPECT_EQ(pin_of(result.min_power_mapping, result.min_power_metrics, result),
              expected_min_power);
}

TEST_F(PinnedWalks, Annealing) {
    const auto strategy = make_search_strategy("annealing", {.max_iterations = iterations});
    const WalkPin expected = {
        {1, 1, 1, 1, 0, 1},
        0x408020c49ba5e354ULL, 0x40320ccccccccccdULL, 0x3fb26e978d4fdf3bULL,
        201, 200, 16, true};
    EXPECT_EQ(best_pin(strategy->search(ctx, initial, seed)), expected);
    EvalContext eval(ctx);
    EXPECT_EQ(best_pin(strategy->search(eval, initial, seed)), expected);
}

TEST_F(PinnedWalks, AnnealingOnMakespan) {
    SaParams params;
    params.iterations = iterations;
    const SimulatedAnnealingMapper strategy(params, MappingObjective::makespan);
    const WalkPin expected = {
        {1, 1, 1, 1, 0, 1},
        0x408020c49ba5e354ULL, 0x40320ccccccccccdULL, 0x3fb26e978d4fdf3bULL,
        201, 200, 21, true};
    EXPECT_EQ(best_pin(strategy.search(ctx, initial, seed)), expected);
}

/// A trivial engine: score the initial mapping, move nothing. Good
/// enough to prove a registered third-party strategy drives the full
/// explorer.
class InitialOnlyStrategy final : public SearchStrategy {
public:
    std::string name() const override { return "initial_only"; }

    LocalSearchResult search(const EvaluationContext& ctx, const Mapping& initial,
                             std::uint64_t /*seed*/,
                             const CancellationToken* /*cancel*/) const override {
        LocalSearchResult result;
        result.best_mapping = initial;
        result.best_metrics = evaluate_design(ctx, initial);
        result.found_feasible = result.best_metrics.feasible;
        result.evaluations = 1;
        return result;
    }
};

TEST(StrategyRegistry, CustomStrategyPlugsIntoTheExplorer) {
    ASSERT_TRUE(register_search_strategy(
        "initial_only", [](const StrategyOptions&) -> std::unique_ptr<SearchStrategy> {
            return std::make_unique<InitialOnlyStrategy>();
        }));
    ExploreOptions options;
    options.strategy = "initial_only";
    const Problem problem = fig8_problem();
    const DseResult result = explore(problem, options);
    // The stage-1 greedy mapping is feasible for at least one scaling
    // even without any local search.
    ASSERT_TRUE(result.best.has_value());
    EXPECT_TRUE(result.best->metrics.feasible);
    // Exactly one evaluation per searched scaling — the custom engine
    // really ran (the built-ins evaluate thousands of designs).
    EXPECT_EQ(result.scalings_searched + result.scalings_skipped_infeasible,
              result.scalings_enumerated);
}

TEST(StrategyRegistry, AnnealingHonorsTimeBudgets) {
    // A huge iteration budget capped by a tiny wall-clock budget must
    // terminate promptly — the factory forwards time_budget_seconds.
    ExploreOptions options;
    options.strategy = "annealing";
    options.dse.search.max_iterations = 50'000'000;
    options.dse.search.time_budget_seconds = 0.02;
    options.dse.total_time_budget_seconds = 0.05;
    const auto start = std::chrono::steady_clock::now();
    const DseResult result = explore(fig8_problem(), options);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed.count(), 5.0);
    EXPECT_LE(result.scalings_searched, result.scalings_enumerated);
}

TEST(StrategyRegistry, ZeroIterationsMeansTimeBudgetOnlyForBothBuiltins) {
    const Problem problem = fig8_problem();
    const EvaluationContext ctx = problem.evaluation_context({1, 2, 2});
    const Mapping initial = round_robin_mapping(problem.graph(), 3);
    for (const char* name : {"optimized", "annealing"}) {
        StrategyOptions options;
        options.max_iterations = 0;
        options.time_budget_seconds = 0.01;
        const auto strategy = make_search_strategy(name, options);
        const LocalSearchResult result = strategy->search(ctx, initial, 1);
        EXPECT_GT(result.evaluations, 0u) << name;
        // And with no budget at all, construction must refuse.
        StrategyOptions unbounded;
        unbounded.max_iterations = 0;
        EXPECT_THROW((void)make_search_strategy(name, unbounded), std::invalid_argument)
            << name;
    }
}

TEST(StrategyRegistry, AnnealingHonorsCancellation) {
    const Problem problem = mpeg2_problem();
    const EvaluationContext ctx = problem.evaluation_context({1, 1, 1, 1});
    const Mapping initial = round_robin_mapping(problem.graph(), 4);
    CancellationToken cancel;
    cancel.request_stop();
    const auto strategy = make_search_strategy("annealing", {.max_iterations = 1'000'000});
    const LocalSearchResult result = strategy->search(ctx, initial, 1, &cancel);
    // Pre-cancelled: the walk stops immediately after scoring the
    // start point instead of burning a million iterations.
    EXPECT_EQ(result.iterations_run, 0u);
}

} // namespace
} // namespace seamap
