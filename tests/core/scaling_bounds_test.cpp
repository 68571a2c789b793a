// Soundness harness for the branch-and-bound lower bounds
// (core/scaling_bounds.h): on instances small enough to enumerate the
// COMPLETE mapping space, no bound may ever exceed what some feasible
// design actually achieves — bounds_for() must sit at or below the
// exhaustive per-scaling optimum in each objective, and every feasible
// design must be pointwise >= the bound pair of some powered-core
// case. These are the invariants the explorer's prune soundness
// (pruned best/pareto_front bit-identical to exhaustive) rests on.
#include "core/scaling_bounds.h"

#include "api/scenarios.h"
#include "arch/scaling_enumerator.h"
#include "core/lazy_scaling_queue.h"
#include "reliability/design_eval.h"
#include "sched/list_scheduler.h"
#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"
#include "util/checkpoint.h"
#include "util/float_compare.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <vector>

namespace seamap {
namespace {

/// Every complete mapping of `graph` onto `cores` cores (cores^tasks —
/// keep the instances tiny).
std::vector<Mapping> all_mappings(const TaskGraph& graph, std::size_t cores) {
    std::vector<Mapping> mappings;
    Mapping current(graph.task_count(), cores);
    std::vector<std::size_t> digits(graph.task_count(), 0);
    for (;;) {
        for (TaskId t = 0; t < graph.task_count(); ++t)
            current.assign(t, static_cast<CoreId>(digits[t]));
        mappings.push_back(current);
        std::size_t d = 0;
        while (d < digits.size() && digits[d] == cores - 1) digits[d++] = 0;
        if (d == digits.size()) break;
        ++digits[d];
    }
    return mappings;
}

struct ExhaustiveCheck {
    std::size_t scalings_with_feasible = 0;
    std::size_t feasible_designs = 0;
};

/// Core of the harness: for every scaling combination, evaluate every
/// mapping and require (a) the scalar corner never beats the true
/// optima and (b) each feasible design dominates some case pair.
ExhaustiveCheck check_bounds_sound(const TaskGraph& graph, const MpsocArchitecture& arch,
                                   double deadline_seconds, const SerModel& ser,
                                   ExposurePolicy policy) {
    const ScalingBoundsModel model(graph, arch, deadline_seconds, ser, policy);
    const std::vector<Mapping> mappings = all_mappings(graph, arch.core_count());
    ExhaustiveCheck counts;

    ScalingEnumerator enumerator(arch.core_count(), arch.scaling_table().level_count());
    while (auto levels = enumerator.next()) {
        const ScalingBounds corner = model.bounds_for(*levels);
        const std::vector<ScalingBounds> cases = model.case_bounds_for(*levels);
        const EvaluationContext ctx{graph, arch, *levels, SeuEstimator(ser, policy),
                                    deadline_seconds};
        double best_power = std::numeric_limits<double>::infinity();
        double best_gamma = std::numeric_limits<double>::infinity();
        for (const Mapping& mapping : mappings) {
            const DesignMetrics metrics = evaluate_design(ctx, mapping);
            if (!metrics.feasible) continue;
            ++counts.feasible_designs;
            best_power = std::min(best_power, metrics.power_mw);
            best_gamma = std::min(best_gamma, metrics.gamma);
            // (b): the case of the powered-core set this design uses
            // must admit it. We do not reconstruct the powered set —
            // existence of ANY pointwise-dominated case is the
            // property the explorer's prune test relies on.
            bool admitted = false;
            for (const ScalingBounds& bounds : cases)
                if (bounds.power_mw_lb <= metrics.power_mw &&
                    bounds.gamma_lb <= metrics.gamma) {
                    admitted = true;
                    break;
                }
            EXPECT_TRUE(admitted)
                << "design (P=" << metrics.power_mw << ", G=" << metrics.gamma
                << ") beats every case bound pair";
        }
        if (!std::isinf(best_power)) {
            ++counts.scalings_with_feasible;
            EXPECT_LE(corner.power_mw_lb, best_power)
                << "power bound above the exhaustive optimum";
            EXPECT_LE(corner.gamma_lb, best_gamma)
                << "gamma bound above the exhaustive optimum";
        }
    }
    return counts;
}

TEST(ScalingBounds, SoundOnFig8TwoCores) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(2, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.4 * tm_lower_bound_seconds(graph, arch, {1, 1});
    const ExhaustiveCheck counts = check_bounds_sound(graph, arch, deadline, SerModel{},
                                                      ExposurePolicy::full_duration);
    EXPECT_GT(counts.scalings_with_feasible, 0u);
    EXPECT_GT(counts.feasible_designs, 0u);
}

TEST(ScalingBounds, SoundOnFig8BusyOnlyExposure) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(2, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.6 * tm_lower_bound_seconds(graph, arch, {1, 1});
    const ExhaustiveCheck counts = check_bounds_sound(graph, arch, deadline, SerModel{},
                                                      ExposurePolicy::busy_only);
    EXPECT_GT(counts.scalings_with_feasible, 0u);
}

TEST(ScalingBounds, SoundOnSmallTgffThreeCores) {
    TgffParams params;
    params.task_count = 7;
    params.batch_count = 1;
    const TaskGraph graph = generate_tgff_graph(params, 11);
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.5 * tm_lower_bound_seconds(graph, arch, {1, 1, 1});
    const ExhaustiveCheck counts = check_bounds_sound(graph, arch, deadline, SerModel{},
                                                      ExposurePolicy::full_duration);
    EXPECT_GT(counts.scalings_with_feasible, 0u);
}

TEST(ScalingBounds, SoundOnPipelinedBatchesWithFourLevels) {
    // Batched graph exercising the pipelined capacity refinement
    // (T_M = L + (B-1)*II) and a four-level ladder, under a steep SER
    // law so the tier telescoping carries real weight.
    TgffParams params;
    params.task_count = 6;
    params.batch_count = 16;
    const TaskGraph graph = generate_tgff_graph(params, 3);
    const MpsocArchitecture arch(2, VoltageScalingTable::arm7_four_level());
    SerParams ser_params;
    ser_params.voltage_exponent_k = 4.0;
    const double deadline = 2.5 * tm_lower_bound_seconds(graph, arch, {1, 1});
    const ExhaustiveCheck counts = check_bounds_sound(graph, arch, deadline,
                                                      SerModel{ser_params},
                                                      ExposurePolicy::full_duration);
    EXPECT_GT(counts.scalings_with_feasible, 0u);
}

TEST(ScalingBounds, InfeasibleDeadlineKeepsBoundsHarmless) {
    // With a deadline nothing can meet, whatever the bounds say must
    // never matter; they still must be finite and non-negative.
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(2, VoltageScalingTable::arm7_three_level());
    const ScalingBoundsModel model(graph, arch, 1e-9, SerModel{},
                                   ExposurePolicy::full_duration);
    const ScalingBounds bounds = model.bounds_for({1, 1});
    EXPECT_GE(bounds.power_mw_lb, 0.0);
    EXPECT_GE(bounds.gamma_lb, 0.0);
    EXPECT_TRUE(std::isfinite(bounds.power_mw_lb));
    EXPECT_TRUE(std::isfinite(bounds.gamma_lb));
}

TEST(ScalingBounds, CornerIsPointwiseMinOverCases) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.5 * tm_lower_bound_seconds(graph, arch, {1, 1, 1});
    const ScalingBoundsModel model(graph, arch, deadline, SerModel{},
                                   ExposurePolicy::full_duration);
    ScalingEnumerator enumerator(3, 3);
    while (auto levels = enumerator.next()) {
        const ScalingBounds corner = model.bounds_for(*levels);
        const auto cases = model.case_bounds_for(*levels);
        for (const ScalingBounds& bounds : cases) {
            EXPECT_LE(corner.power_mw_lb, bounds.power_mw_lb);
            EXPECT_LE(corner.gamma_lb, bounds.gamma_lb);
        }
    }
}

/// The minimal elements of `cases` (equal pairs once), power strictly
/// ascending: a reference reduction by full sort, independent of the
/// model's own staircase insertion.
std::vector<ScalingBounds> pareto_staircase(std::vector<ScalingBounds> cases) {
    std::sort(cases.begin(), cases.end(), [](const ScalingBounds& a, const ScalingBounds& b) {
        if (a.power_mw_lb < b.power_mw_lb) return true;
        if (b.power_mw_lb < a.power_mw_lb) return false;
        return a.gamma_lb < b.gamma_lb;
    });
    std::vector<ScalingBounds> staircase;
    for (const ScalingBounds& bounds : cases)
        if (staircase.empty() || bounds.gamma_lb < staircase.back().gamma_lb)
            staircase.push_back(bounds);
    return staircase;
}

ScalingBoundsModel model_of(const Problem& problem) {
    return ScalingBoundsModel(problem.graph(), problem.architecture(),
                              problem.deadline_seconds(), problem.ser_model(),
                              problem.exposure_policy());
}

/// Power strictly ascending, gamma strictly descending.
void expect_staircase(const std::vector<ScalingBounds>& cases) {
    for (std::size_t i = 1; i < cases.size(); ++i) {
        EXPECT_LT(cases[i - 1].power_mw_lb, cases[i].power_mw_lb);
        EXPECT_GT(cases[i - 1].gamma_lb, cases[i].gamma_lb);
    }
}

void expect_staircases_over_all_scalings(const TaskGraph& graph, const MpsocArchitecture& arch,
                                         double deadline_seconds) {
    const ScalingBoundsModel model(graph, arch, deadline_seconds, SerModel{},
                                   ExposurePolicy::full_duration);
    std::size_t non_empty = 0;
    ScalingEnumerator enumerator(arch.core_count(), arch.scaling_table().level_count());
    while (auto levels = enumerator.next()) {
        const std::vector<ScalingBounds> cases = model.case_bounds_for(*levels);
        expect_staircase(cases);
        if (!cases.empty()) ++non_empty;
    }
    EXPECT_GT(non_empty, 0u);
}

TEST(ScalingBounds, CaseListIsAParetoStaircase) {
    {
        const TaskGraph graph = fig8_example_graph();
        const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
        expect_staircases_over_all_scalings(
            graph, arch, 1.5 * tm_lower_bound_seconds(graph, arch, {1, 1, 1}));
    }
    {
        const MpsocArchitecture arch(6, VoltageScalingTable::arm7_three_level());
        expect_staircases_over_all_scalings(mpeg2_decoder_graph(), arch,
                                            mpeg2_deadline_seconds());
    }
    const Problem problem = scale_acceptance_problem();
    const ScalingBoundsModel model = model_of(problem);
    LazyScalingQueue queue(problem.graph(), problem.architecture(), problem.deadline_seconds(),
                           &model);
    std::size_t multi_case = 0;
    while (const auto slot = queue.pop()) {
        if (!slot->gate_passed) continue;
        const std::vector<ScalingBounds> cases = model.case_bounds_for(slot->levels);
        expect_staircase(cases);
        if (cases.size() > 1) ++multi_case;
    }
    EXPECT_GT(multi_case, 0u);
}

TEST(ScalingBounds, CornersAndMinimalCasesMatchTheParent) {
    // Every gate-passing slot of the acceptance instance, in pop order:
    // rank, corner, and the minimal elements of the case list, hashed
    // bit for bit. The literal was taken before the case table existed,
    // when case_bounds_for returned every admissible case and the same
    // reduction ran over all of them.
    const Problem problem = scale_acceptance_problem();
    const ScalingBoundsModel model = model_of(problem);
    LazyScalingQueue queue(problem.graph(), problem.architecture(), problem.deadline_seconds(),
                           &model);
    HashStream hash;
    std::size_t gate_passers = 0;
    while (const auto slot = queue.pop()) {
        if (!slot->gate_passed) continue;
        ++gate_passers;
        hash.mix(slot->rank);
        hash.mix_double(slot->corner.power_mw_lb);
        hash.mix_double(slot->corner.gamma_lb);
        const std::vector<ScalingBounds> staircase =
            pareto_staircase(model.case_bounds_for(slot->levels));
        hash.mix(staircase.size());
        for (const ScalingBounds& bounds : staircase) {
            hash.mix_double(bounds.power_mw_lb);
            hash.mix_double(bounds.gamma_lb);
        }
    }
    EXPECT_EQ(gate_passers, 5862u);
    EXPECT_EQ(hex_of_u64(hash.value()), "45444d9ddae278f2");
}

TEST(ScalingBounds, CaseTableHoldsOneEntryPerCountVector) {
    // C(C+L, L) entries of 16 bytes: the table's whole memory cost.
    // C(67, 3) for 64 cores x 3 levels, C(22, 6) for 16 x 6.
    EXPECT_EQ(model_of(scale_problem(1000, 64, 3, 1)).case_table_entries(), 47'905u);
    EXPECT_EQ(model_of(scale_acceptance_problem()).case_table_entries(), 74'613u);
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture six_by_four(6, VoltageScalingTable::arm7_four_level());
    const ScalingBoundsModel small(graph, six_by_four,
                                   1.5 * tm_lower_bound_seconds(graph, six_by_four,
                                                                ScalingVector(6, 1)),
                                   SerModel{}, ExposurePolicy::full_duration);
    EXPECT_EQ(small.case_table_entries(), 210u); // C(10, 4)
    // 64 cores x 5 levels: C(69, 5) = 11.2M entries, past the cap.
    EXPECT_EQ(model_of(scale_problem(100, 64, 5, 1)).case_table_entries(), 0u);
}

TEST(ScalingBounds, OverCapModelStillReturnsStaircasesWithTheCorner) {
    // Cores per level, fastest first; each combination passes the T_M
    // gate, so it has admissible cases.
    const Problem problem = scale_problem(100, 64, 5, 1);
    const ScalingBoundsModel model = model_of(problem);
    ASSERT_EQ(model.case_table_entries(), 0u);
    for (const auto& counts : std::vector<std::vector<std::size_t>>{
             {64, 0, 0, 0, 0}, {32, 32, 0, 0, 0}, {48, 4, 4, 4, 4}, {40, 0, 8, 8, 8}}) {
        ScalingVector levels;
        for (std::size_t l = counts.size(); l-- > 0;)
            levels.insert(levels.end(), counts[l], static_cast<ScalingLevel>(l + 1));
        SCOPED_TRACE(::testing::PrintToString(counts));
        const std::vector<ScalingBounds> cases = model.case_bounds_for(levels);
        ASSERT_FALSE(cases.empty());
        expect_staircase(cases);
        const ScalingBounds corner = model.bounds_for(levels);
        EXPECT_TRUE(exactly_equal(corner.power_mw_lb, cases.front().power_mw_lb));
        EXPECT_TRUE(exactly_equal(corner.gamma_lb, cases.back().gamma_lb));
    }
}

} // namespace
} // namespace seamap
