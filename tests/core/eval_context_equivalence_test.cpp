// The equivalence harness pinning the EvalContext fast path to the
// naive evaluate_design() path BIT-IDENTICALLY: full evaluation and
// incremental move/swap re-evaluation must both produce exactly the doubles the naive path produces, across Fig. 8,
// MPEG-2 and seeded random TGFF graphs x every scaling combination —
// and whole searches / explorations driven through either path must
// produce byte-identical results for all strategies and thread counts.
#include "seamap/seamap.h"

#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace seamap {
namespace {

struct Workload {
    std::string label;
    TaskGraph graph;
    std::size_t cores;
    double deadline_seconds;
};

std::vector<Workload> workloads() {
    std::vector<Workload> out;
    out.push_back({"fig8", fig8_example_graph(), 3, k_fig8_deadline_seconds});
    out.push_back({"mpeg2", mpeg2_decoder_graph(), 4, mpeg2_deadline_seconds()});
    TgffParams params;
    params.task_count = 16;
    out.push_back({"tgff16", generate_tgff_graph(params, 7), 3,
                   paper_tgff_deadline_seconds(16)});
    // Sweep scale: deep suffixes and high fan-out (the search-tgff200
    // benchmark graph).
    params.task_count = 200;
    out.push_back({"tgff200", generate_tgff_graph(params, 1), 6,
                   paper_tgff_deadline_seconds(200)});
    return out;
}

Mapping random_mapping(const TaskGraph& graph, std::size_t cores, Rng& rng) {
    Mapping mapping(graph.task_count(), cores);
    for (TaskId t = 0; t < graph.task_count(); ++t)
        mapping.assign(t, static_cast<CoreId>(rng.uniform_int(
                              0, static_cast<std::int64_t>(cores) - 1)));
    return mapping;
}

void expect_bit_identical(const DesignMetrics& fast, const DesignMetrics& naive,
                          const std::string& where) {
    // EXPECT_EQ on doubles is exact comparison — that is the contract.
    EXPECT_EQ(fast.tm_seconds, naive.tm_seconds) << where;
    EXPECT_EQ(fast.latency_seconds, naive.latency_seconds) << where;
    EXPECT_EQ(fast.register_bits, naive.register_bits) << where;
    EXPECT_EQ(fast.gamma, naive.gamma) << where;
    EXPECT_EQ(fast.power_mw, naive.power_mw) << where;
    EXPECT_EQ(fast.feasible, naive.feasible) << where;
}

std::vector<ScalingVector> all_scalings(const MpsocArchitecture& arch) {
    std::vector<ScalingVector> out;
    ScalingEnumerator enumerator(arch.core_count(), arch.scaling_table().level_count());
    while (auto levels = enumerator.next()) out.push_back(std::move(*levels));
    return out;
}

TEST(EvalContextEquivalence, FullEvaluationMatchesNaiveAcrossAllScalings) {
    for (const Workload& w : workloads()) {
        const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
        Rng rng(11);
        for (const ScalingVector& levels : all_scalings(arch)) {
            const EvaluationContext ctx{w.graph, arch, levels, SeuEstimator{SerModel{}},
                                        w.deadline_seconds};
            EvalContext eval(ctx);
            std::vector<Mapping> mappings;
            mappings.push_back(round_robin_mapping(w.graph, w.cores));
            mappings.push_back(single_core_mapping(w.graph, w.cores));
            for (int i = 0; i < 4; ++i) mappings.push_back(random_mapping(w.graph, w.cores, rng));
            for (const Mapping& mapping : mappings) {
                const DesignMetrics naive = evaluate_design(ctx, mapping);
                expect_bit_identical(eval.evaluate(mapping), naive, w.label + " evaluate");
            }
        }
    }
}

TEST(EvalContextEquivalence, IncrementalMoveAndSwapMatchNaive) {
    for (const Workload& w : workloads()) {
        const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
        Rng rng(23);
        // All scalings for the small Fig. 8 graph; a deterministic
        // sample for the larger ones keeps the test fast.
        const auto scalings = all_scalings(arch);
        std::size_t stride = w.label == "fig8" ? 1 : 5;
        for (std::size_t s = 0; s < scalings.size(); s += stride) {
            const EvaluationContext ctx{w.graph, arch, scalings[s], SeuEstimator{SerModel{}},
                                        w.deadline_seconds};
            EvalContext eval(ctx);
            Mapping base = random_mapping(w.graph, w.cores, rng);
            eval.rebase(base);
            // Exhaustive single-task moves off the base.
            for (TaskId t = 0; t < w.graph.task_count(); ++t) {
                for (CoreId core = 0; core < w.cores; ++core) {
                    if (core == base.core_of(t)) continue;
                    Mapping moved = base;
                    moved.assign(t, core);
                    expect_bit_identical(eval.evaluate_move(t, core),
                                         evaluate_design(ctx, moved),
                                         w.label + " move");
                }
            }
            // Random swaps, re-anchoring the base every few steps so
            // rebase-after-acceptance is exercised too.
            for (int i = 0; i < 24; ++i) {
                const auto a = static_cast<TaskId>(rng.uniform_int(
                    0, static_cast<std::int64_t>(w.graph.task_count()) - 1));
                const auto b = static_cast<TaskId>(rng.uniform_int(
                    0, static_cast<std::int64_t>(w.graph.task_count()) - 1));
                if (a == b || base.core_of(a) == base.core_of(b)) continue;
                Mapping swapped = base;
                const CoreId core_a = base.core_of(a);
                swapped.assign(a, base.core_of(b));
                swapped.assign(b, core_a);
                expect_bit_identical(eval.evaluate_swap(a, b),
                                     evaluate_design(ctx, swapped), w.label + " swap");
                if (i % 5 == 4) {
                    base = swapped;
                    expect_bit_identical(eval.rebase(base), evaluate_design(ctx, base),
                                         w.label + " rebase");
                }
            }
        }
    }
}

TEST(EvalContextEquivalence, SearchesIdenticalAcrossEvaluationPaths) {
    for (const Workload& w : workloads()) {
        const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
        ScalingVector levels(w.cores, ScalingLevel{2});
        const EvaluationContext ctx{w.graph, arch, levels, SeuEstimator{SerModel{}},
                                    w.deadline_seconds};
        const Mapping initial = round_robin_mapping(w.graph, w.cores);
        StrategyOptions options;
        options.max_iterations = 400;
        for (const std::string& name : {std::string("optimized"), std::string("annealing")}) {
            const auto strategy = make_search_strategy(name, options);
            EvalOptions naive_options;
            naive_options.naive_reference = true;
            EvalContext naive_eval(ctx, naive_options);
            const LocalSearchResult reference = strategy->search(naive_eval, initial, 99);

            EvalContext eval(ctx);
            const LocalSearchResult got = strategy->search(eval, initial, 99);
            const std::string where = w.label + " " + name;
            EXPECT_EQ(got.best_mapping, reference.best_mapping) << where;
            expect_bit_identical(got.best_metrics, reference.best_metrics, where);
            EXPECT_EQ(got.found_feasible, reference.found_feasible) << where;
            EXPECT_EQ(got.iterations_run, reference.iterations_run) << where;
            EXPECT_EQ(got.improvements, reference.improvements) << where;
            EXPECT_EQ(got.evaluations, reference.evaluations) << where;
        }
    }
}

TEST(EvalContextEquivalence, ExploreJsonByteIdenticalAcrossPathsStrategiesAndThreads) {
    const Problem problem = ProblemBuilder()
                                .graph(fig8_example_graph())
                                .architecture(3, VoltageScalingTable::arm7_three_level())
                                .deadline_seconds(k_fig8_deadline_seconds)
                                .build();
    for (const std::string& name : {std::string("optimized"), std::string("annealing")}) {
        ExploreOptions options;
        options.strategy = name;
        options.dse.search.max_iterations = 300;
        options.dse.eval.naive_reference = true;
        options.dse.num_threads = 1;
        const std::string reference =
            optimize_report_json(problem, name, explore(problem, options)).dump();
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            ExploreOptions fast = options;
            fast.dse.eval = EvalOptions{};
            fast.dse.num_threads = threads;
            const std::string got =
                optimize_report_json(problem, name, explore(problem, fast)).dump();
            EXPECT_EQ(got, reference) << name << " with " << threads << " threads";
        }
    }
}

// One plan, many scalings: contexts built from a single shared EvalPlan
// (kept alive together and driven interleaved) must each reproduce
// evaluate_design() at their own scaling — full, move, swap and rebase.
TEST(EvalContextEquivalence, SharedPlanContextsMatchNaiveAtEveryScaling) {
    TgffParams params;
    params.task_count = 200;
    struct Case {
        std::string label;
        TaskGraph graph;
        double deadline_seconds;
        std::vector<ScalingVector> scalings;
    };
    std::vector<Case> cases;
    cases.push_back({"tgff200", generate_tgff_graph(params, 1),
                     paper_tgff_deadline_seconds(200),
                     {{1, 1, 1, 1, 1, 1}, {4, 4, 4, 4, 4, 4}, {1, 2, 2, 3, 4, 4},
                      {4, 3, 1, 1, 2, 3}}});
    cases.push_back({"mpeg2 (batched)", mpeg2_decoder_graph(), mpeg2_deadline_seconds(),
                     {{1, 1, 1, 1, 1, 1}, {3, 3, 3, 3, 3, 3}, {1, 4, 2, 1, 3, 2}}});
    for (const Case& c : cases) {
        const MpsocArchitecture arch(6, VoltageScalingTable::arm7_four_level());
        const EvalPlan plan(c.graph, arch);
        std::vector<EvaluationContext> problems;
        for (const ScalingVector& levels : c.scalings)
            problems.push_back(EvaluationContext{c.graph, arch, levels,
                                                 SeuEstimator{SerModel{}},
                                                 c.deadline_seconds});
        std::vector<std::unique_ptr<EvalContext>> evals;
        for (const EvaluationContext& problem : problems)
            evals.push_back(std::make_unique<EvalContext>(plan, problem));

        Rng rng(31);
        const auto tasks = static_cast<std::int64_t>(c.graph.task_count());
        for (int round = 0; round < 3; ++round) {
            const Mapping base = random_mapping(c.graph, 6, rng);
            for (std::size_t i = 0; i < evals.size(); ++i) {
                const std::string where = c.label + " scaling " + std::to_string(i);
                expect_bit_identical(evals[i]->evaluate(base),
                                     evaluate_design(problems[i], base), where + " full");
                expect_bit_identical(evals[i]->rebase(base),
                                     evaluate_design(problems[i], base), where + " rebase");
            }
            for (int step = 0; step < 40; ++step) {
                const auto t = static_cast<TaskId>(rng.uniform_int(0, tasks - 1));
                const auto core = static_cast<CoreId>(rng.uniform_int(0, 5));
                const auto b = static_cast<TaskId>(rng.uniform_int(0, tasks - 1));
                Mapping moved = base;
                moved.assign(t, core);
                Mapping swapped = base;
                swapped.assign(t, base.core_of(b));
                swapped.assign(b, base.core_of(t));
                for (std::size_t i = 0; i < evals.size(); ++i) {
                    const std::string where = c.label + " scaling " + std::to_string(i);
                    expect_bit_identical(evals[i]->evaluate_move(t, core),
                                         evaluate_design(problems[i], moved), where + " move");
                    expect_bit_identical(evals[i]->evaluate_swap(t, b),
                                         evaluate_design(problems[i], swapped),
                                         where + " swap");
                }
            }
        }
    }
}

TEST(EvalContextEquivalence, MismatchedPlanThrows) {
    const TaskGraph graph = fig8_example_graph();
    const TaskGraph copy = fig8_example_graph();
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const MpsocArchitecture wider(4, VoltageScalingTable::arm7_three_level());
    const MpsocArchitecture other_table(3, VoltageScalingTable::arm7_four_level());
    const EvalPlan plan(graph, arch);
    const EvaluationContext same{graph, arch, {1, 2, 3}, SeuEstimator{SerModel{}},
                                 k_fig8_deadline_seconds};
    EXPECT_NO_THROW(EvalContext(plan, same));
    const EvaluationContext other_graph{copy, arch, {1, 2, 3}, SeuEstimator{SerModel{}},
                                        k_fig8_deadline_seconds};
    EXPECT_THROW(EvalContext(plan, other_graph), std::invalid_argument);
    const EvaluationContext other_cores{graph, wider, {1, 2, 3, 3}, SeuEstimator{SerModel{}},
                                        k_fig8_deadline_seconds};
    EXPECT_THROW(EvalContext(plan, other_cores), std::invalid_argument);
    const EvaluationContext other_levels{graph, other_table, {1, 2, 3},
                                         SeuEstimator{SerModel{}}, k_fig8_deadline_seconds};
    EXPECT_THROW(EvalContext(plan, other_levels), std::invalid_argument);
}

TEST(EvalContextEquivalence, Validation) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, {1, 2, 2}, SeuEstimator{SerModel{}},
                                k_fig8_deadline_seconds};
    EvalContext eval(ctx);
    const Mapping incomplete(graph.task_count(), 3);
    EXPECT_THROW((void)eval.evaluate(incomplete), std::invalid_argument);
    EXPECT_THROW((void)eval.evaluate_move(0, 0), std::logic_error); // no base yet
    const Mapping base = round_robin_mapping(graph, 3);
    eval.rebase(base);
    EXPECT_THROW((void)eval.evaluate_move(0, 99), std::invalid_argument);
    EXPECT_THROW((void)eval.evaluate_move(999, 0), std::invalid_argument);
    // Identity mutations short-circuit to the base metrics.
    expect_bit_identical(eval.evaluate_move(0, base.core_of(0)), eval.base_metrics(),
                         "identity move");
    expect_bit_identical(eval.evaluate_swap(1, 1), eval.base_metrics(), "identity swap");
}

} // namespace
} // namespace seamap
