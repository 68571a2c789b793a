#include "workloads.h"

#include "api/json.h"
#include "api/scenarios.h"
#include "arch/scaling_table.h"
#include "core/dse_checkpoint.h"
#include "sched/list_scheduler.h"
#include "sim/campaign.h"
#include "util/checkpoint.h"
#include "taskgraph/serialization.h"
#include "tgff/random_graph.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <optional>
#include <stdexcept>

namespace e2e {

using namespace seamap;

// ---- the per-layer metric set ----------------------------------------

namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

// Documented in README.md (layer -> end-to-end metric -> workload map).
constexpr MetricDef k_layer_metrics[] = {
    {"eval.full", "count"},
    {"eval.incremental", "count"},
    {"eval.memo_hits", "count"},
    {"eval.memo_hit_ratio", "ratio"},
    {"eval.ns_per_eval", "ns"},
    {"search.calls", "count"},
    {"search.busy_s", "s"},
    {"search.ms_p50", "ms"},
    {"search.ms_tail", "ms"},
    {"search.iterations", "count"},
    {"search.evaluations", "count"},
    {"slot_setup.evalctx_us_p50", "us"},
    {"slot_setup.initial_mapping_us_p50", "us"},
    {"slot_setup.cpu_s", "s"},
    {"queue.loop_s", "s"},
    {"bounds.case_s", "s"},
    {"bounds.cases_per_slot", "count"},
    {"explorer.slots_emitted", "count"},
    {"explorer.slots_searched", "count"},
    {"explorer.slots_pruned", "count"},
    {"explorer.prune_ratio", "ratio"},
    {"explorer.nonsearch_cpu_s", "s"},
    {"explorer.self_s", "s"},
    {"explorer.first_incumbent_s", "s"},
    {"explorer.final_incumbent_s", "s"},
    {"pool.search_util", "ratio"},
    {"ckpt.records", "count"},
    {"ckpt.bytes", "bytes"},
    {"ckpt.flush_ms", "ms"},
    {"sched.schedule_us", "us"},
    {"reliability.estimate_us", "us"},
    {"reliability.evaluate_design_us", "us"},
    {"sim.sources", "count"},
    {"sim.build_sources_ms", "ms"},
    {"sim.trials_per_cpu_s", "1/s"},
    {"sim.pool_util", "ratio"},
    {"api.json_ms", "ms"},
    {"taskgraph.load_ms", "ms"},
    {"trace.wall_s", "s"},
    {"trace.cpu_s", "s"},
    {"trace.overhead", "ratio"},
};

} // namespace

LayerMetrics::LayerMetrics() {
    for (const MetricDef& def : k_layer_metrics) metrics_.push_back({def.name, 0.0, def.unit});
}

void LayerMetrics::set(std::string_view name, double value) {
    for (Metric& metric : metrics_)
        if (metric.name == name) {
            metric.value = value;
            return;
        }
    throw std::logic_error("unknown per-layer metric " + std::string(name));
}

double LayerMetrics::get(std::string_view name) const {
    for (const Metric& metric : metrics_)
        if (metric.name == name) return metric.value;
    throw std::logic_error("unknown per-layer metric " + std::string(name));
}

namespace {

// ---- shared helpers ----------------------------------------------------

/// The CLI's default deadline rule: 1.3x the two-core nominal T_M
/// lower bound.
double cli_default_deadline(const TaskGraph& graph) {
    const MpsocArchitecture two(2, VoltageScalingTable::arm7_three_level());
    return 1.3 * tm_lower_bound_seconds(graph, two, {1, 1});
}

// The problems are fixed and the workload seed drives the randomized
// search or the fault draws. Across generator seeds a 200-task TGFF
// graph changes the exploration's CPU time by about 7% and its wall
// time by about 14% (interquartile range over five seeds), which no
// regression bound could absorb; across search seeds on one graph the
// work is the same to within a few percent.
constexpr std::uint64_t k_graph_seed = 1;

/// The 200-task TGFF graph shared by search-tgff200 and campaign-100k.
TaskGraph tgff200_graph() {
    TgffParams params;
    params.task_count = 200;
    return generate_tgff_graph(params, k_graph_seed);
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const DesignMetrics& a, const DesignMetrics& b) {
    return same_bits(a.tm_seconds, b.tm_seconds) &&
           same_bits(a.latency_seconds, b.latency_seconds) &&
           a.register_bits == b.register_bits && same_bits(a.gamma, b.gamma) &&
           same_bits(a.power_mw, b.power_mw) && a.feasible == b.feasible;
}

std::filesystem::path graph_file(const RunConfig& config, std::string_view name) {
    return config.scratch / (std::string(name) + "-" + std::to_string(config.seed) + ".tg");
}

/// A problem rebuilt from a .tg file plus the generated problem's
/// architecture, deadline and SER model.
struct ProblemRecipe {
    std::filesystem::path graph_path;
    MpsocArchitecture arch;
    double deadline_seconds;
    SerModel ser;
    ExposurePolicy policy;

    Problem build() const {
        return ProblemBuilder()
            .graph(load_task_graph(graph_path.string()))
            .architecture(arch)
            .deadline_seconds(deadline_seconds)
            .ser_model(ser)
            .exposure_policy(policy)
            .build();
    }
};

ProblemRecipe write_recipe(const Problem& generated, std::filesystem::path graph_path) {
    save_task_graph(graph_path.string(), generated.graph());
    return {std::move(graph_path), generated.architecture(), generated.deadline_seconds(),
            generated.ser_model(), generated.exposure_policy()};
}

template <typename Fn>
void in_span(Tracer& tracer, const char* name, int parent, Fn&& fn) {
    const int span = tracer.open(name, parent);
    fn();
    tracer.close(span);
}

// ---- the three exploration workloads ---------------------------------

struct DseSpec {
    std::function<Problem(bool smoke)> make_problem;
    /// The search seed is the workload seed unless pinned here.
    std::optional<std::uint64_t> pinned_search_seed;
    std::uint64_t iterations = 0;
    std::uint64_t smoke_iterations = 0;
    std::uint64_t restarts = 0;
    /// Run beside a DseCheckpointer.
    bool checkpoint = false;
};

class DseWorkload final : public Workload {
public:
    DseWorkload(std::string_view name, const DseSpec& spec, const RunConfig& config)
        : spec_(spec),
          config_(config),
          recipe_(write_recipe(spec.make_problem(config.smoke),
                               graph_file(config, name))),
          checkpoint_path_(config.scratch / (std::string(name) + ".ckpt")) {
        options_.strategy = "optimized";
        options_.dse.search.max_iterations = config.smoke ? spec.smoke_iterations
                                                          : spec.iterations;
        options_.dse.search.restarts = spec.restarts;
        options_.dse.search.seed = spec.pinned_search_seed.value_or(config.seed);
        options_.dse.num_threads = config.workers;
        options_.dse.prune = true;
    }

    void setup() override { problem_.emplace(recipe_.build()); }

    void call() override { result_ = run(options_, nullptr); }

    void traced_call(Tracer& tracer, int parent) override {
        register_timed_strategy();
        ExploreOptions traced = options_;
        traced.strategy = std::string(k_timed_strategy);
        explore_span_ = tracer.open("explore", parent);
        log_.emplace(tracer, explore_span_);
        observer_.emplace(tracer, explore_span_, steady_now());
        install_search_log(&*log_);
        try {
            result_ = run(traced, &*observer_);
        } catch (...) {
            install_search_log(nullptr);
            throw;
        }
        install_search_log(nullptr);
        tracer.close(explore_span_);
    }

    Verdict verify() override {
        Verdict verdict;
        auto fail = [&](std::string what) { verdict.failures.push_back(std::move(what)); };
        const DseResult& r = result_;
        if (checkpoint_records_ == 0 && spec_.checkpoint)
            fail("the checkpointer recorded no slots");
        if (r.scalings_searched > r.scalings_emitted)
            fail("scalings_searched > scalings_emitted");
        if (r.scalings_enumerated != r.scalings_total) fail("exploration did not complete");
        if (r.scalings_searched + r.scalings_pruned + r.scalings_skipped_infeasible !=
            r.scalings_total)
            fail("searched + pruned + skipped_infeasible != total");
        HashStream digest;
        if (!r.best) {
            fail("no feasible design");
        } else {
            const DsePoint& best = *r.best;
            const EvaluationContext ctx = problem_->evaluation_context(best.levels);
            if (!same_bits(evaluate_design(ctx, best.mapping), best.metrics))
                fail("naive evaluate_design does not reproduce best's metrics bit for bit");
            if (!best.metrics.feasible ||
                best.metrics.tm_seconds > problem_->deadline_seconds() * (1.0 + 1e-9))
                fail("best misses the deadline");
            const bool on_front =
                std::any_of(r.pareto_front.begin(), r.pareto_front.end(), [&](const DsePoint& p) {
                    return p.levels == best.levels && p.mapping == best.mapping &&
                           same_bits(p.metrics, best.metrics);
                });
            if (!on_front) fail("best is not on pareto_front");
            digest.mix(to_json(best).dump());
        }
        for (const DsePoint& point : r.pareto_front) digest.mix(to_json(point).dump());
        for (std::uint64_t counter :
             {r.scalings_total, r.scalings_enumerated, r.scalings_skipped_infeasible,
              r.scalings_emitted, r.scalings_pruned, r.scalings_searched,
              static_cast<std::uint64_t>(r.feasible_points.size())})
            digest.mix(counter);
        verdict.digest = hex_of_u64(digest.value());
        verdict.summary = "slots " + std::to_string(r.scalings_total) + " skipped " +
                          std::to_string(r.scalings_skipped_infeasible) + " emitted " +
                          std::to_string(r.scalings_emitted) + " searched " +
                          std::to_string(r.scalings_searched) + " pruned " +
                          std::to_string(r.scalings_pruned) + " front " +
                          std::to_string(r.pareto_front.size());
        if (r.best)
            verdict.summary += " best P " + json_number(r.best->metrics.power_mw) +
                               " mW gamma " + json_number(r.best->metrics.gamma);
        return verdict;
    }

    void layer_metrics(Tracer& tracer, int parent, const CallTiming& timing,
                       LayerMetrics& out) override {
        const Problem& problem = *problem_;
        const DseResult& r = result_;
        const std::vector<SearchRecord> records = log_->records();

        // eval + search, from the timing decorator.
        std::vector<double> search_ms;
        double busy_s = 0.0;
        std::uint64_t full = 0, incremental = 0, memo_hits = 0, iterations = 0, evaluations = 0;
        std::vector<ScalingVector> searched_slots; // one search per slot: multi_start is 1
        for (const SearchRecord& record : records) {
            search_ms.push_back((record.end - record.start) * 1e3);
            busy_s += record.end - record.start;
            full += record.eval.full_evals;
            incremental += record.eval.incremental_evals;
            memo_hits += record.eval.memo_hits;
            iterations += record.iterations;
            evaluations += record.evaluations;
            searched_slots.push_back(record.levels);
        }
        const std::uint64_t lookups = full + incremental + memo_hits;
        out.set("eval.full", static_cast<double>(full));
        out.set("eval.incremental", static_cast<double>(incremental));
        out.set("eval.memo_hits", static_cast<double>(memo_hits));
        out.set("eval.memo_hit_ratio",
                lookups ? static_cast<double>(memo_hits) / static_cast<double>(lookups) : 0.0);
        out.set("eval.ns_per_eval",
                evaluations ? busy_s * 1e9 / static_cast<double>(evaluations) : 0.0);
        const double tail = tail_percentile_for(search_ms.size());
        out.set("search.calls", static_cast<double>(records.size()));
        out.set("search.busy_s", busy_s);
        out.set("search.ms_p50", median(search_ms));
        out.set("search.ms_tail", percentile(search_ms, tail));
        out.note("search.ms_tail is the p" + json_number(tail) + " of " +
                 std::to_string(search_ms.size()) + " searches");
        out.set("search.iterations", static_cast<double>(iterations));
        out.set("search.evaluations", static_cast<double>(evaluations));

        // explorer, from the result counters and the observer.
        const std::uint64_t gate_passers = r.scalings_total - r.scalings_skipped_infeasible;
        out.set("explorer.slots_emitted", static_cast<double>(r.scalings_emitted));
        out.set("explorer.slots_searched", static_cast<double>(r.scalings_searched));
        out.set("explorer.slots_pruned", static_cast<double>(r.scalings_pruned));
        out.set("explorer.prune_ratio",
                gate_passers ? static_cast<double>(r.scalings_pruned) /
                                   static_cast<double>(gate_passers)
                             : 0.0);
        out.set("explorer.nonsearch_cpu_s", timing.cpu_s - busy_s);
        out.set("explorer.self_s", tracer.self_seconds(explore_span_));
        out.set("explorer.first_incumbent_s", observer_->first_incumbent_s());
        out.set("explorer.final_incumbent_s", observer_->final_incumbent_s());
        out.set("pool.search_util",
                busy_s / (timing.wall_s * static_cast<double>(config_.workers)));

        in_span(tracer, "queue_pass", parent, [&] {
            const QueuePass pass = queue_pass(problem);
            out.note("queue pass popped " + std::to_string(pass.pops) + " slots, generated " +
                     std::to_string(pass.generated));
            out.set("queue.loop_s", pass.loop_s);
            out.set("bounds.case_s", pass.case_s);
            out.set("bounds.cases_per_slot",
                    pass.gate_passers ? static_cast<double>(pass.cases) /
                                            static_cast<double>(pass.gate_passers)
                                      : 0.0);
        });
        in_span(tracer, "slot_setup_pass", parent, [&] {
            const SlotSetupPass pass = slot_setup_pass(problem, searched_slots);
            out.set("slot_setup.evalctx_us_p50", pass.evalctx_us_p50);
            out.set("slot_setup.initial_mapping_us_p50", pass.initial_mapping_us_p50);
            out.set("slot_setup.cpu_s", pass.cpu_s);
        });
        if (r.best)
            in_span(tracer, "kernel_pass", parent, [&] {
                const KernelPass pass = kernel_pass(problem, r.best->levels, r.best->mapping);
                out.set("sched.schedule_us", pass.schedule_us);
                out.set("reliability.estimate_us", pass.estimate_us);
                out.set("reliability.evaluate_design_us", pass.evaluate_design_us);
            });
        if (spec_.checkpoint)
            in_span(tracer, "ckpt_flush", parent, [&] {
                out.set("ckpt.records", static_cast<double>(checkpoint_records_));
                out.set("ckpt.bytes", static_cast<double>(checkpoint_bytes_));
                out.set("ckpt.flush_ms", checkpoint_flush_ms());
            });
        in_span(tracer, "json", parent, [&] {
            out.set("api.json_ms", median_ms([&] {
                        if (optimize_report_json(problem, "optimized", r).dump().empty())
                            throw std::runtime_error("empty optimize report");
                    }));
            out.set("taskgraph.load_ms", median_ms([&] {
                        if (load_task_graph(recipe_.graph_path.string()).task_count() == 0)
                            throw std::runtime_error("empty task graph");
                    }));
        });
    }

private:
    DseResult run(const ExploreOptions& options, ProgressObserver* observer) {
        checkpoint_records_ = 0;
        checkpoint_bytes_ = 0;
        if (!spec_.checkpoint) return explore(*problem_, options, observer);
        checkpoint_hash_ = explore_state_hash(*problem_, options);
        DseCheckpointer checkpointer(checkpoint_path_.string(), checkpoint_hash_);
        checkpointer.remove(); // the previous call's snapshot; this run starts fresh
        // Every 64 records or 5 s. Each flush rewrites the whole snapshot,
        // so the CLI's default of every 8 records rewrote ~140 MB per
        // call on prune-accept; the host's writeback then moved wall_s
        // between 10 and 19 s from run to run. At 64 it is ~17 MB.
        checkpointer.set_cadence(64, 5.0);
        DseResult result = explore(*problem_, options, observer, nullptr, &checkpointer);
        checkpoint_records_ = checkpointer.recorded();
        checkpoint_bytes_ = std::filesystem::file_size(checkpoint_path_);
        return result;
    }

    /// One flush of the finished snapshot's records through a fresh
    /// checkpointer.
    double checkpoint_flush_ms() {
        const std::size_t tasks = problem_->graph().task_count();
        const std::size_t cores = problem_->architecture().core_count();
        DseCheckpointer reader(checkpoint_path_.string(), checkpoint_hash_);
        if (!reader.load(tasks, cores)) throw std::runtime_error("checkpoint snapshot missing");
        const std::filesystem::path copy = checkpoint_path_.string() + ".copy";
        DseCheckpointer writer(copy.string(), checkpoint_hash_);
        for (const DseSlotRecord& record : reader.resume_state()->records) writer.record(record);
        const double start = steady_now();
        writer.flush();
        const double flush_ms = (steady_now() - start) * 1e3;
        writer.remove();
        return flush_ms;
    }

    DseSpec spec_;
    RunConfig config_;
    ProblemRecipe recipe_;
    std::filesystem::path checkpoint_path_;
    ExploreOptions options_;
    std::optional<Problem> problem_;
    DseResult result_;
    std::uint64_t checkpoint_records_ = 0;
    std::uint64_t checkpoint_bytes_ = 0;
    std::uint64_t checkpoint_hash_ = 0;
    int explore_span_ = -1;
    std::optional<SearchLog> log_;
    std::optional<TraceObserver> observer_;
};

// ---- the campaign workload ---------------------------------------------

class CampaignWorkload final : public Workload {
public:
    explicit CampaignWorkload(const RunConfig& config) : config_(config) {
        const TaskGraph graph = tgff200_graph();
        graph_path_ = graph_file(config, "campaign-100k");
        save_task_graph(graph_path_.string(), graph);
        campaign_.trials = config.smoke ? 10'000 : 100'000;
        campaign_.shard_size = 1024;
        campaign_.num_threads = config.workers;
        campaign_.seed = config.seed;
    }

    void setup() override {
        const TaskGraph graph = load_task_graph(graph_path_.string());
        const double deadline = cli_default_deadline(graph);
        problem_.emplace(ProblemBuilder()
                             .graph(graph)
                             .architecture(6, VoltageScalingTable::arm7_four_level())
                             .deadline_seconds(deadline)
                             .build());
        mapping_ = round_robin_mapping(problem_->graph(), 6);
        schedule_ = ListScheduler().schedule(problem_->graph(), mapping_,
                                             problem_->architecture(), levels_);
        engine_.emplace(problem_->ser_model(), campaign_);
    }

    void call() override {
        report_ = engine_->run(problem_->graph(), mapping_, problem_->architecture(), levels_,
                               schedule_);
    }

    void traced_call(Tracer& tracer, int parent) override {
        const int span = tracer.open("campaign", parent);
        call();
        tracer.close(span);
    }

    Verdict verify() override {
        Verdict verdict;
        auto fail = [&](std::string what) { verdict.failures.push_back(std::move(what)); };
        const std::uint64_t shards =
            (campaign_.trials + campaign_.shard_size - 1) / campaign_.shard_size;
        if (report_.shards != shards) fail("unexpected shard count");
        if (report_.shards_completed != report_.shards) fail("shards_completed != shards");
        if (report_.trials != campaign_.trials || report_.total_stats.count() != campaign_.trials)
            fail("trial count mismatch");
        HashStream digest;
        digest.mix(to_json(report_).dump());
        verdict.digest = hex_of_u64(digest.value());
        verdict.summary = "trials " + std::to_string(report_.trials) + " shards " +
                          std::to_string(report_.shards) + " mean hits " +
                          json_number(report_.total_stats.mean()) + " analytic " +
                          json_number(report_.analytic_gamma);
        return verdict;
    }

    void layer_metrics(Tracer& tracer, int parent, const CallTiming& timing,
                       LayerMetrics& out) override {
        const Problem& problem = *problem_;
        const TaskGraph& graph = problem.graph();
        const MpsocArchitecture& arch = problem.architecture();
        out.set("sim.trials_per_cpu_s", static_cast<double>(report_.trials) / timing.cpu_s);
        out.set("sim.pool_util",
                timing.cpu_s / (timing.wall_s * static_cast<double>(config_.workers)));
        in_span(tracer, "kernel_pass", parent, [&] {
            std::size_t sources = 0;
            out.set("sim.build_sources_ms", median_ms([&] {
                        sources =
                            engine_->build_sources(graph, mapping_, arch, levels_, schedule_).size();
                    }));
            out.set("sim.sources", static_cast<double>(sources));
            const KernelPass pass = kernel_pass(problem, levels_, mapping_);
            out.set("sched.schedule_us", pass.schedule_us);
            out.set("reliability.estimate_us", pass.estimate_us);
            out.set("reliability.evaluate_design_us", pass.evaluate_design_us);
        });
        in_span(tracer, "json", parent, [&] {
            DsePoint design;
            design.levels = levels_;
            design.mapping = mapping_;
            design.metrics = evaluate_design(problem.evaluation_context(levels_), mapping_);
            out.set("api.json_ms", median_ms([&] {
                        if (campaign_report_json(problem, "fixed", &design, &report_)
                                .dump()
                                .empty())
                            throw std::runtime_error("empty campaign report");
                    }));
            out.set("taskgraph.load_ms", median_ms([&] {
                        if (load_task_graph(graph_path_.string()).task_count() == 0)
                            throw std::runtime_error("empty task graph");
                    }));
        });
    }

private:
    RunConfig config_;
    std::filesystem::path graph_path_;
    CampaignConfig campaign_;
    const ScalingVector levels_{1, 1, 2, 2, 3, 3};
    std::optional<Problem> problem_;
    Mapping mapping_;
    Schedule schedule_;
    std::optional<CampaignEngine> engine_;
    CampaignReport report_;
};

// ---- the workload table -------------------------------------------------

Problem search_tgff200_problem(bool) {
    TaskGraph graph = tgff200_graph();
    const double deadline = cli_default_deadline(graph);
    return ProblemBuilder()
        .graph(std::move(graph))
        .architecture(6, VoltageScalingTable::arm7_four_level())
        .deadline_seconds(deadline)
        .build();
}

Problem giant_problem(bool smoke) {
    return smoke ? scale_problem(300, 16, 3, k_graph_seed)
                 : scale_problem(1000, 64, 3, k_graph_seed);
}

} // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, const RunConfig& config) {
    if (name == "search-tgff200") {
        DseSpec spec;
        spec.make_problem = search_tgff200_problem;
        spec.iterations = 600;
        spec.smoke_iterations = 60;
        spec.restarts = 3;
        return std::make_unique<DseWorkload>(name, spec, config);
    }
    if (name == "prune-accept") {
        DseSpec spec;
        spec.make_problem = [](bool) { return scale_acceptance_problem(); };
        // The committed acceptance configuration (2246 of 5862 gate
        // passers pruned). The search seed moves which incumbents are
        // found and so how much is pruned (3616-3814 slots searched
        // over seeds 1-4), so the workload seed is not used.
        spec.pinned_search_seed = 1;
        spec.iterations = 200;
        spec.smoke_iterations = 20;
        spec.restarts = 1;
        spec.checkpoint = true;
        return std::make_unique<DseWorkload>(name, spec, config);
    }
    if (name == "giant-tgff1k") {
        DseSpec spec;
        spec.make_problem = giant_problem;
        spec.iterations = 5;
        spec.smoke_iterations = 5;
        spec.restarts = 1;
        return std::make_unique<DseWorkload>(name, spec, config);
    }
    if (name == "campaign-100k") return std::make_unique<CampaignWorkload>(config);
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

} // namespace e2e
