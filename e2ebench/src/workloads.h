// The benchmark's four workloads. Each one generates its inputs from
// the workload seed, writes the task graph as a .tg file (the CLI's
// input path), and then exposes the three phases the harness times:
// set-up, the one public call, and the output checks.
#pragma once

#include "e2e.h"

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

struct RunConfig {
    std::uint64_t seed = 1;
    /// Worker threads of the timed call: max(1, nproc - 1).
    std::size_t workers = 1;
    /// Reduced budgets for the smoke test (committed references exist
    /// for both budgets).
    bool smoke = false;
    /// Private scratch directory inside the checkout.
    std::filesystem::path scratch;
};

struct Verdict {
    std::string digest;
    /// One human-readable line describing the result.
    std::string summary;
    std::vector<std::string> failures;
};

/// Wall and process-CPU seconds of the traced call.
struct CallTiming {
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/// The fixed per-layer metric set: every workload reports every metric
/// (zero where the layer does not run), so result sets line up. Values
/// no code change can move (problem sizes, the tail percentile's rank)
/// are notes: printed, not metrics.
class LayerMetrics {
public:
    LayerMetrics();
    /// Throws std::logic_error for a name outside the set.
    void set(std::string_view name, double value);
    double get(std::string_view name) const;
    const Metrics& all() const { return metrics_; }

    void note(std::string line) { notes_.push_back(std::move(line)); }
    const std::vector<std::string>& notes() const { return notes_; }

private:
    Metrics metrics_;
    std::vector<std::string> notes_;
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Timed as setup_s: load the generated .tg and build the problem
    /// (the campaign also schedules its design and builds the engine).
    virtual void setup() = 0;
    /// The one timed public call: explore() or CampaignEngine::run.
    virtual void call() = 0;
    /// Output checks on the last call's result, and its digest.
    virtual Verdict verify() = 0;
    /// The same call through the tracing probes, under a span named
    /// after it; verify() afterwards checks it like any other call.
    virtual void traced_call(Tracer& tracer, int parent) = 0;
    /// Standalone layer passes and the probes' counters, after
    /// traced_call().
    virtual void layer_metrics(Tracer& tracer, int parent, const CallTiming& timing,
                               LayerMetrics& out) = 0;
};

/// search-tgff200, prune-accept, giant-tgff1k or campaign-100k; throws
/// std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, const RunConfig& config);

} // namespace e2e
