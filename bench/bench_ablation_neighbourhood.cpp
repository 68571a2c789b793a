// Ablation: the stage-2 neighbourhood. Compares three search variants
// at equal budgets on the MPEG-2 decoder and a 60-task graph:
//   move-only    (swap_probability = 0, sweeps off)
//   move+swap    (swap_probability = 0.3, sweeps off)
//   move+swap+sweep (the default: periodic exhaustive single-move pass)
#include "bench_common.h"
#include "core/initial_mapping.h"
#include "core/optimized_mapping.h"
#include "util/table.h"

#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"
#include "util/strings.h"

#include <iostream>

using namespace seamap;
using namespace seamap::bench;

namespace {

double run_variant(const EvaluationContext& ctx, double swap_probability,
                   std::uint64_t sweep_interval, std::uint64_t iterations,
                   std::uint64_t seed) {
    LocalSearchParams params;
    params.max_iterations = iterations;
    params.swap_probability = swap_probability;
    params.sweep_interval = sweep_interval;
    const LocalSearchResult result =
        OptimizedMapping(params).search(ctx, initial_sea_mapping(ctx), seed);
    return result.found_feasible ? result.best_metrics.gamma : -1.0;
}

} // namespace

int main(int argc, char** argv) {
    const std::uint64_t iterations = argc > 1 ? parse_u64(argv[1]) : 3'000;
    const std::uint64_t seed = argc > 2 ? parse_u64(argv[2]) : 5;

    std::vector<std::pair<std::string, TaskGraph>> apps;
    apps.emplace_back("MPEG-2", mpeg2_decoder_graph());
    TgffParams params;
    params.task_count = 60;
    apps.emplace_back("60 tasks", generate_tgff_graph(params, seed));

    std::cout << "# Ablation: OptimizedMapping neighbourhood variants, " << iterations
              << " iterations each\n\n";
    TableWriter table({"workload", "move-only", "move+swap", "move+swap+sweep"});
    for (const auto& [name, graph] : apps) {
        const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
        const ScalingVector levels(4, 2);
        // Deadline with fixed headroom over this scaling's lower bound,
        // so every workload has a feasible region to search.
        const double deadline = 1.3 * tm_lower_bound_seconds(graph, arch, levels);
        const EvaluationContext ctx{graph, arch, levels, SeuEstimator{SerModel{}}, deadline};
        auto cell = [&](double gamma) {
            return gamma < 0 ? std::string("infeasible") : fmt_sci(gamma, 4);
        };
        table.add_row({name, cell(run_variant(ctx, 0.0, 0, iterations, seed)),
                       cell(run_variant(ctx, 0.3, 0, iterations, seed)),
                       cell(run_variant(ctx, 0.3, 25, iterations, seed))});
    }
    table.print_text(std::cout);
    std::cout << "\n# lower Gamma is better; the full neighbourhood should dominate\n";
    return 0;
}
