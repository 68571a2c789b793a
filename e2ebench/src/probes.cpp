#include "e2e.h"

#include "api/json.h"
#include "core/initial_mapping.h"
#include "core/lazy_scaling_queue.h"
#include "core/scaling_bounds.h"
#include "reliability/design_eval.h"
#include "sched/list_scheduler.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace e2e {

using namespace seamap;

// ---- clocks and small statistics -----------------------------------

double steady_now() {
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin).count();
}

double process_cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // Linux reports KiB
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    if (p == 50.0 && values.size() % 2 == 0) {
        const std::size_t mid = values.size() / 2;
        return 0.5 * (values[mid - 1] + values[mid]);
    }
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double tail_percentile_for(std::size_t samples) {
    double best = 50.0;
    for (double p : {90.0, 99.0, 99.9})
        if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) best = p;
    return best;
}

// ---- tracing ------------------------------------------------------------

Tracer::Tracer() { threads_.push_back(std::this_thread::get_id()); }

int Tracer::thread_number() {
    const auto self = std::this_thread::get_id();
    for (std::size_t i = 0; i < threads_.size(); ++i)
        if (threads_[i] == self) return static_cast<int>(i);
    threads_.push_back(self);
    return static_cast<int>(threads_.size() - 1);
}

int Tracer::open(std::string name, int parent) {
    const double now = steady_now();
    std::lock_guard lock(mutex_);
    Span span;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.name = std::move(name);
    span.start = now;
    span.end = now;
    span.tid = thread_number();
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void Tracer::close(int id) {
    const double now = steady_now();
    std::lock_guard lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).end = now;
}

void Tracer::add(std::string name, double start, double end, int parent, std::string args) {
    std::lock_guard lock(mutex_);
    Span span;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.name = std::move(name);
    span.start = start;
    span.end = end;
    span.tid = thread_number();
    span.args = std::move(args);
    spans_.push_back(std::move(span));
}

void Tracer::instant(std::string name, int parent, std::string args) {
    const double now = steady_now();
    std::lock_guard lock(mutex_);
    Span span;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.name = std::move(name);
    span.start = now;
    span.end = now;
    span.tid = thread_number();
    span.instant = true;
    span.args = std::move(args);
    spans_.push_back(std::move(span));
}

std::vector<Tracer::Span> Tracer::spans() const {
    std::lock_guard lock(mutex_);
    return spans_;
}

double Tracer::self_seconds(int id) const {
    std::lock_guard lock(mutex_);
    const Span& span = spans_.at(static_cast<std::size_t>(id));
    std::vector<std::pair<double, double>> covered;
    for (const Span& child : spans_)
        if (child.parent == id && !child.instant)
            covered.emplace_back(std::max(child.start, span.start),
                                 std::min(child.end, span.end));
    std::sort(covered.begin(), covered.end());
    double union_s = 0.0;
    double reach = span.start;
    for (const auto& [from, to] : covered) {
        const double lo = std::max(from, reach);
        if (to > lo) {
            union_s += to - lo;
            reach = to;
        }
    }
    return (span.end - span.start) - union_s;
}

void Tracer::write_chrome(const std::filesystem::path& path) const {
    const std::vector<Span> all = spans();
    const double origin = all.empty() ? 0.0 : all.front().start;
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path.string());
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const Span& span : all) {
        if (!first) out << ",\n";
        first = false;
        out << "{\"name\":\"" << json_escape(span.name) << "\",\"pid\":1,\"tid\":" << span.tid
            << ",\"ts\":" << json_number((span.start - origin) * 1e6);
        if (span.instant)
            out << ",\"ph\":\"i\",\"s\":\"t\"";
        else
            out << ",\"ph\":\"X\",\"dur\":" << json_number((span.end - span.start) * 1e6);
        out << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent;
        if (!span.args.empty()) out << ',' << span.args;
        out << "}}";
    }
    out << "\n]}\n";
}

// ---- probes through the public extension points -------------------

void SearchLog::add(SearchRecord record) {
    tracer_.add("search", record.start, record.end, parent_,
                "\"evaluations\":" + std::to_string(record.evaluations));
    std::lock_guard lock(mutex_);
    records_.push_back(std::move(record));
}

std::vector<SearchRecord> SearchLog::records() const {
    std::lock_guard lock(mutex_);
    return records_;
}

namespace {

std::atomic<SearchLog*> g_search_log{nullptr};

/// Timing decorator over the registry's "optimized" strategy. Results
/// pass through untouched, so the traced exploration is the same
/// program as the untraced one (the harness checks the digests agree).
class TimedStrategy final : public SearchStrategy {
public:
    explicit TimedStrategy(const StrategyOptions& options)
        : inner_(make_search_strategy("optimized", options)) {}

    std::string name() const override { return inner_->name(); }

    LocalSearchResult search(const EvaluationContext& ctx, const Mapping& initial,
                             std::uint64_t seed, const CancellationToken* cancel) const override {
        return inner_->search(ctx, initial, seed, cancel);
    }

    LocalSearchResult search(EvalContext& eval, const Mapping& initial, std::uint64_t seed,
                             const CancellationToken* cancel) const override {
        const EvalContext::Stats before = eval.stats();
        const double start = steady_now();
        LocalSearchResult result = inner_->search(eval, initial, seed, cancel);
        const double end = steady_now();
        if (SearchLog* log = g_search_log.load()) {
            const EvalContext::Stats& after = eval.stats();
            SearchRecord record;
            record.start = start;
            record.end = end;
            record.levels = eval.problem().levels;
            record.eval.full_evals = after.full_evals - before.full_evals;
            record.eval.incremental_evals = after.incremental_evals - before.incremental_evals;
            record.eval.memo_hits = after.memo_hits - before.memo_hits;
            record.iterations = result.iterations_run;
            record.evaluations = result.evaluations;
            log->add(std::move(record));
        }
        return result;
    }

private:
    std::unique_ptr<SearchStrategy> inner_;
};

const char* outcome_name(ScalingProgress::Outcome outcome) {
    switch (outcome) {
    case ScalingProgress::Outcome::skipped_infeasible: return "skipped_infeasible";
    case ScalingProgress::Outcome::pruned: return "pruned";
    case ScalingProgress::Outcome::searched_no_design: return "searched_no_design";
    case ScalingProgress::Outcome::feasible: return "feasible";
    }
    return "unknown";
}

} // namespace

void register_timed_strategy() {
    static const bool registered = register_search_strategy(
        std::string(k_timed_strategy),
        [](const StrategyOptions& options) { return std::make_unique<TimedStrategy>(options); });
    if (!registered) throw std::logic_error("timing decorator name already registered");
}

void install_search_log(SearchLog* log) { g_search_log.store(log); }

void TraceObserver::on_scaling_done(const ScalingProgress& progress) {
    tracer_.instant("slot_done", parent_,
                    "\"rank\":" + std::to_string(progress.index) + ",\"outcome\":\"" +
                        outcome_name(progress.outcome) + "\"");
}

void TraceObserver::on_incumbent(const DsePoint&) {
    const double at = steady_now() - origin_;
    if (!seen_incumbent_) first_incumbent_s_ = at;
    seen_incumbent_ = true;
    final_incumbent_s_ = at;
}

// ---- standalone passes over public layer functions ----------------

QueuePass queue_pass(const Problem& problem) {
    QueuePass pass;
    const double start = steady_now();
    const ScalingBoundsModel model(problem.graph(), problem.architecture(),
                                   problem.deadline_seconds(), problem.ser_model(),
                                   problem.exposure_policy());
    LazyScalingQueue queue(problem.graph(), problem.architecture(), problem.deadline_seconds(),
                           &model);
    while (const std::optional<LazyScalingQueue::Slot> slot = queue.pop()) {
        if (!slot->gate_passed) continue;
        ++pass.gate_passers;
        const double case_start = steady_now();
        pass.cases += model.case_bounds_for(slot->levels).size();
        pass.case_s += steady_now() - case_start;
    }
    pass.loop_s = steady_now() - start;
    pass.pops = queue.popped();
    pass.generated = queue.generated();
    return pass;
}

SlotSetupPass slot_setup_pass(const Problem& problem, const std::vector<ScalingVector>& slots) {
    std::vector<double> evalctx_us;
    std::vector<double> initial_us;
    const double cpu_start = process_cpu_seconds();
    for (const ScalingVector& levels : slots) {
        const EvaluationContext ctx = problem.evaluation_context(levels);
        const double t0 = steady_now();
        const EvalContext eval(ctx);
        const double t1 = steady_now();
        const Mapping initial = initial_sea_mapping(ctx);
        const double t2 = steady_now();
        if (!initial.complete()) throw std::runtime_error("initial_sea_mapping incomplete");
        evalctx_us.push_back((t1 - t0) * 1e6);
        initial_us.push_back((t2 - t1) * 1e6);
    }
    SlotSetupPass pass;
    pass.cpu_s = process_cpu_seconds() - cpu_start;
    pass.evalctx_us_p50 = median(std::move(evalctx_us));
    pass.initial_mapping_us_p50 = median(std::move(initial_us));
    return pass;
}

KernelPass kernel_pass(const Problem& problem, const ScalingVector& levels,
                       const Mapping& mapping) {
    const TaskGraph& graph = problem.graph();
    const MpsocArchitecture& arch = problem.architecture();
    const ListScheduler scheduler;
    const SeuEstimator estimator = problem.make_estimator();
    const EvaluationContext ctx = problem.evaluation_context(levels);
    const Schedule schedule = scheduler.schedule(graph, mapping, arch, levels);
    double sink = 0.0;
    KernelPass pass;
    pass.schedule_us = 1e3 * median_ms([&] {
        sink += scheduler.schedule(graph, mapping, arch, levels).total_time_seconds;
    });
    pass.estimate_us = 1e3 * median_ms([&] {
        sink += estimator.estimate(graph, mapping, arch, levels, schedule).total;
    });
    pass.evaluate_design_us = 1e3 * median_ms([&] { sink += evaluate_design(ctx, mapping).gamma; });
    if (!std::isfinite(sink)) throw std::runtime_error("kernel pass produced a non-finite sum");
    return pass;
}

} // namespace e2e
