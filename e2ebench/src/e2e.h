// Shared declarations of the end-to-end benchmark harness: clocks,
// metric records, the in-memory span tracer, the probes that observe
// the library from outside through its public extension points, and
// the standalone per-layer passes. Nothing here reaches into the
// library's internals: every number comes from public calls.
#pragma once

#include "api/explore.h"
#include "api/strategy.h"
#include "core/dse.h"
#include "core/eval_context.h"
#include "core/observer.h"

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace e2e {

// ---- clocks and small statistics -----------------------------------

/// Steady-clock seconds since an arbitrary process-wide origin.
double steady_now();
/// User + system CPU seconds of the whole process (every thread),
/// from getrusage(RUSAGE_SELF).
double process_cpu_seconds();
/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// The highest percentile of a ladder (50, 90, 99, 99.9) that still has
/// at least ten samples beyond it; 50 when there are too few samples
/// for any other.
double tail_percentile_for(std::size_t samples);

// ---- metrics ----------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

// ---- tracing ------------------------------------------------------------

/// In-memory span recorder, written out as Chrome trace-event JSON at
/// the end of a traced run. Thread-safe: worker threads record search
/// spans while the main thread records the passes.
class Tracer {
public:
    struct Span {
        int id = 0;
        int parent = -1; ///< -1 for the root
        std::string name;
        double start = 0.0; ///< steady_now() seconds
        double end = 0.0;
        int tid = 0;       ///< small per-thread number, main thread = 0
        bool instant = false;
        std::string args;  ///< extra trace-event args as a JSON object body
    };

    Tracer();

    /// Start a span on the calling thread; close() ends it.
    int open(std::string name, int parent);
    void close(int id);
    /// Record an already-finished span on the calling thread.
    void add(std::string name, double start, double end, int parent, std::string args = {});
    void instant(std::string name, int parent, std::string args = {});

    std::vector<Span> spans() const;
    /// Span duration minus the part of it its children cover.
    double self_seconds(int id) const;

    void write_chrome(const std::filesystem::path& path) const;

private:
    int thread_number();

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<std::thread::id> threads_;
};

// ---- probes through the public extension points -------------------

/// One search() call observed by the timing decorator.
struct SearchRecord {
    double start = 0.0;
    double end = 0.0;
    seamap::ScalingVector levels;
    seamap::EvalContext::Stats eval; ///< stats() delta across the call
    std::uint64_t iterations = 0;
    std::uint64_t evaluations = 0;
};

/// Sink the timing decorator reports to; one per traced call.
class SearchLog {
public:
    SearchLog(Tracer& tracer, int parent) : tracer_(tracer), parent_(parent) {}
    void add(SearchRecord record);
    std::vector<SearchRecord> records() const;

private:
    Tracer& tracer_;
    int parent_;
    mutable std::mutex mutex_;
    std::vector<SearchRecord> records_;
};

/// Registry name of the timing decorator: it wraps
/// make_search_strategy("optimized", options) and reports every
/// search() to the SearchLog installed with install_search_log().
inline constexpr std::string_view k_timed_strategy = "e2e-timed-optimized";
void register_timed_strategy();
/// Install (or clear, with nullptr) the log the decorator reports to.
void install_search_log(SearchLog* log);

/// ProgressObserver that marks slot completions as trace instants and
/// remembers when the incumbent first and last improved.
class TraceObserver final : public seamap::ProgressObserver {
public:
    TraceObserver(Tracer& tracer, int parent, double origin)
        : tracer_(tracer), parent_(parent), origin_(origin) {}
    void on_scaling_done(const seamap::ScalingProgress& progress) override;
    void on_incumbent(const seamap::DsePoint& incumbent) override;

    double first_incumbent_s() const { return first_incumbent_s_; }
    double final_incumbent_s() const { return final_incumbent_s_; }

private:
    Tracer& tracer_;
    int parent_;
    double origin_;
    double first_incumbent_s_ = 0.0;
    double final_incumbent_s_ = 0.0;
    bool seen_incumbent_ = false;
};

// ---- standalone passes over public layer functions ----------------

struct QueuePass {
    std::uint64_t pops = 0;
    std::uint64_t generated = 0;
    std::uint64_t gate_passers = 0;
    std::uint64_t cases = 0;
    double loop_s = 0.0; ///< bounds-model construction + every pop + case bounds
    double case_s = 0.0; ///< inside case_bounds_for
};
/// The explorer's serial producer work, replayed: pop every slot of
/// the lazy queue and compute the per-case bounds of each gate passer.
QueuePass queue_pass(const seamap::Problem& problem);

struct SlotSetupPass {
    double evalctx_us_p50 = 0.0;
    double initial_mapping_us_p50 = 0.0;
    double cpu_s = 0.0;
};
/// Per searched slot: build its EvalContext and its Fig. 6 initial
/// mapping, as each worker does before searching.
SlotSetupPass slot_setup_pass(const seamap::Problem& problem,
                              const std::vector<seamap::ScalingVector>& slots);

struct KernelPass {
    double schedule_us = 0.0;
    double estimate_us = 0.0;
    double evaluate_design_us = 0.0;
};
/// Reference kernels on one design: list schedule, eq. (3) estimate,
/// and the naive evaluate_design.
KernelPass kernel_pass(const seamap::Problem& problem, const seamap::ScalingVector& levels,
                       const seamap::Mapping& mapping);

/// Median wall milliseconds of `fn` over enough repetitions to cover
/// 30 ms (at least 3, at most 200).
template <typename Fn>
double median_ms(Fn&& fn) {
    std::vector<double> samples;
    const double until = steady_now() + 0.03;
    while (samples.size() < 3 || (samples.size() < 200 && steady_now() < until)) {
        const double t0 = steady_now();
        fn();
        samples.push_back((steady_now() - t0) * 1e3);
    }
    return median(std::move(samples));
}

} // namespace e2e
