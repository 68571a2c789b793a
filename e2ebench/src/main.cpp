// seamap end-to-end benchmark harness.
//
//   seamap_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR [--references FILE | --no-references]
//                   [--smoke] [--git-commit SHA] [--out FILE]
//
// Runs one workload as a closed loop in this process: set up, make the
// one timed public call, check its outputs, repeat until S seconds
// have passed and at least three calls were made. With --trace 0 the last stdout line
// carries the end-to-end metrics; with --trace 1 one extra call runs
// through the tracing probes, the standalone layer passes follow, and
// the last line carries the per-layer metrics instead (the spans are
// written to DIR as Chrome trace-event JSON). run.py builds this
// program and is the entry point to use.
#include "workloads.h"

#include "util/json.h"

#include <sched.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

namespace {

using namespace e2e;
using seamap::JsonValue;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::filesystem::path work_dir;
    std::optional<std::filesystem::path> references;
    bool no_references = false;
    std::string git_commit = "unknown";
    std::optional<std::filesystem::path> out;
};

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "seamap_e2ebench: " << problem
              << "\nusage: seamap_e2ebench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--references FILE | --no-references] [--smoke] "
                 "[--git-commit SHA] [--out FILE]\n";
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args args;
    auto value = [&](int& i) -> std::string {
        if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
        return argv[++i];
    };
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--workload") args.workload = value(i);
            else if (flag == "--seed") args.seed = std::stoull(value(i));
            else if (flag == "--seconds") args.seconds = std::stod(value(i));
            else if (flag == "--trace") args.trace = std::stoi(value(i)) != 0;
            else if (flag == "--smoke") args.smoke = true;
            else if (flag == "--work-dir") args.work_dir = value(i);
            else if (flag == "--references") args.references = value(i);
            else if (flag == "--no-references") args.no_references = true;
            else if (flag == "--git-commit") args.git_commit = value(i);
            else if (flag == "--out") args.out = value(i);
            else usage("unknown argument " + flag);
        }
    } catch (const std::logic_error&) {
        usage("malformed number");
    }
    if (args.workload.empty()) usage("--workload is required");
    if (args.work_dir.empty()) usage("--work-dir is required");
    if (!args.references && !args.no_references)
        usage("give --references FILE or --no-references");
    if (args.seconds < 0.0) usage("--seconds must be >= 0");
    return args;
}

std::size_t online_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
    return static_cast<std::size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
}

/// Host and build identity recorded with every result; compare.py
/// refuses to diff result sets whose host fields differ.
JsonValue fingerprint(std::size_t nproc, std::size_t workers, const Args& args) {
    std::string model = "unknown";
    double mhz = 0.0;
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        const auto colon = line.find(':');
        if (colon == std::string::npos) continue;
        const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
        const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
        if (key == "model name" && model == "unknown") model = value;
        if (key == "cpu MHz" && mhz == 0.0) mhz = std::atof(value.c_str());
    }
    JsonValue fp = JsonValue::object();
    fp["nproc"] = static_cast<std::uint64_t>(nproc);
    fp["workers"] = static_cast<std::uint64_t>(workers);
    fp["cpu_model"] = model;
    fp["cpu_mhz"] = mhz;
    fp["compiler"] = E2E_COMPILER;
    fp["build_type"] = E2E_BUILD_TYPE;
    fp["git_commit"] = args.git_commit;
    return fp;
}

/// Steal and total jiffies of the host's vCPUs so far (/proc/stat); on
/// a shared virtual machine the steal share explains run-to-run noise,
/// so each run prints it.
std::pair<double, double> cpu_jiffies() {
    std::ifstream stat("/proc/stat");
    std::string label;
    stat >> label;
    double total = 0.0, steal = 0.0, field = 0.0;
    for (int i = 0; i < 8 && stat >> field; ++i) {
        total += field;
        if (i == 7) steal = field;
    }
    return {steal, total};
}

/// Committed output digests: "workload budget seed digest" per line.
std::map<std::string, std::string> load_references(const std::filesystem::path& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read references " + path.string());
    std::map<std::string, std::string> refs;
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string workload, budget, seed, digest;
        if (!(fields >> workload >> budget >> seed >> digest))
            throw std::runtime_error("malformed references line: " + line);
        refs[workload + " " + budget + " " + seed] = digest;
    }
    return refs;
}

JsonValue metrics_json(const Metrics& metrics) {
    JsonValue out = JsonValue::object();
    for (const Metric& metric : metrics) {
        JsonValue entry = JsonValue::object();
        entry["value"] = metric.value;
        entry["unit"] = metric.unit;
        out[metric.name] = std::move(entry);
    }
    return out;
}

void print_metrics(const Metrics& metrics) {
    for (const Metric& metric : metrics)
        std::cout << "metric " << metric.name << " = " << seamap::json_number(metric.value) << ' '
                  << metric.unit << '\n';
}

/// The per-workload predictions the traced numbers should confirm.
void print_claims(std::string_view workload, const LayerMetrics& layers) {
    auto claim = [](const std::string& text, bool holds) {
        std::cout << "claim " << text << ": " << (holds ? "holds" : "NOT MET") << '\n';
    };
    const double cpu = layers.get("trace.cpu_s");
    const double wall = layers.get("trace.wall_s");
    if (workload == "search-tgff200") {
        claim("search.busy_s >= 0.9 x cpu_s", layers.get("search.busy_s") >= 0.9 * cpu);
        claim("explorer.slots_pruned == 0", layers.get("explorer.slots_pruned") == 0.0);
    } else if (workload == "giant-tgff1k") {
        claim("queue.loop_s >= 0.5 x wall_s", layers.get("queue.loop_s") >= 0.5 * wall);
    } else if (workload == "prune-accept") {
        claim("explorer.slots_pruned > 0", layers.get("explorer.slots_pruned") > 0.0);
    } else if (workload == "campaign-100k") {
        claim("no search span", layers.get("search.calls") == 0.0);
    }
}

int run(const Args& args) {
    const std::size_t nproc = online_cpus();
    const std::size_t workers = std::max<std::size_t>(1, nproc - 1);
    const JsonValue host = fingerprint(nproc, workers, args);
    std::cout << "fingerprint " << host.dump() << '\n';

    std::map<std::string, std::string> refs;
    if (args.references) refs = load_references(*args.references);
    const std::string budget = args.smoke ? "smoke" : "full";
    const auto ref = refs.find(args.workload + " " + budget + " " + std::to_string(args.seed));

    RunConfig config;
    config.seed = args.seed;
    config.workers = workers;
    config.smoke = args.smoke;
    config.scratch = args.work_dir / ("run-" + std::to_string(getpid()));
    std::filesystem::create_directories(config.scratch);
    struct ScratchGuard {
        std::filesystem::path path;
        ~ScratchGuard() {
            std::error_code ignored;
            std::filesystem::remove_all(path, ignored);
        }
    } guard{config.scratch};

    std::unique_ptr<Workload> workload = make_workload(args.workload, config);

    std::vector<double> setup_s, wall_s, cpu_s;
    std::uint64_t attempted = 0, failed = 0;
    std::string digest;
    std::string summary;
    // Each call is preceded by repeated set-ups (at least 5, until 50 ms
    // are spent or 100 are done); setup_s is the median of them all,
    // which keeps a millisecond-scale figure steady.
    constexpr std::size_t k_min_setups = 5, k_max_setups = 100;
    constexpr double k_setup_budget_s = 0.05;
    // A median of at least three calls: one slow call never sets wall_s.
    constexpr std::uint64_t k_min_calls = 3;
    auto report_failures = [&](const std::vector<std::string>& failures, const char* what) {
        if (failures.empty()) return true;
        for (const std::string& failure : failures)
            std::cerr << what << " failed: " << failure << '\n';
        return false;
    };
    auto check_digest = [&](const Verdict& verdict, std::vector<std::string>& failures) {
        summary = verdict.summary;
        if (digest.empty()) digest = verdict.digest;
        else if (verdict.digest != digest)
            failures.push_back("digest " + verdict.digest + " differs from the first call's " +
                               digest);
        if (ref != refs.end() && verdict.digest != ref->second)
            failures.push_back("digest " + verdict.digest + " differs from the committed " +
                               ref->second);
    };

    const auto [steal0, jiffies0] = cpu_jiffies();
    const double loop_start = steady_now();
    do {
        ++attempted;
        std::vector<std::string> failures;
        try {
            double spent = 0.0;
            for (std::size_t i = 0;
                 i < k_max_setups && (i < k_min_setups || spent < k_setup_budget_s); ++i) {
                const double t0 = steady_now();
                workload->setup();
                setup_s.push_back(steady_now() - t0);
                spent += setup_s.back();
            }
            const double cpu0 = process_cpu_seconds();
            const double wall0 = steady_now();
            workload->call();
            const double wall = steady_now() - wall0;
            const double cpu = process_cpu_seconds() - cpu0;
            wall_s.push_back(wall);
            cpu_s.push_back(cpu);
            Verdict verdict = workload->verify();
            failures = std::move(verdict.failures);
            check_digest(verdict, failures);
            // Process CPU below wall on a threaded run means the clock
            // reads one thread, not the process.
            if (workers > 1 && cpu < 0.9 * wall)
                failures.push_back("timing discipline: cpu_s " + seamap::json_number(cpu) +
                                   " < 0.9 x wall_s " + seamap::json_number(wall));
        } catch (const std::exception& e) {
            failures.push_back(std::string("exception: ") + e.what());
        }
        if (!report_failures(failures, "call")) ++failed;
    } while (attempted < k_min_calls || steady_now() - loop_start < args.seconds);

    std::cout << "workload " << args.workload << " seed " << args.seed << " budget " << budget
              << " calls " << attempted << " workers " << workers << '\n';
    const auto [steal1, jiffies1] = cpu_jiffies();
    const double steal_pct =
        jiffies1 > jiffies0 ? 100.0 * (steal1 - steal0) / (jiffies1 - jiffies0) : 0.0;
    std::cout << "result " << summary << '\n';
    std::cout << "host steal " << seamap::json_number(steal_pct)
              << "% of vCPU time during the calls\n";
    std::cout << "digest " << digest
              << (ref == refs.end() ? " (no committed reference for this seed)"
                                    : " (matches the committed reference)")
              << '\n';

    Metrics metrics;
    bool correct = failed == 0;
    if (!args.trace) {
        metrics = {{"setup_s", median(setup_s), "s"},
                   {"wall_s", median(wall_s), "s"},
                   {"cpu_s", median(cpu_s), "s"},
                   {"peak_rss_mb", peak_rss_mb(), "MB"}};
        print_metrics(metrics);
        std::cout << "metric fail_ratio = "
                  << seamap::json_number(static_cast<double>(failed) /
                                         static_cast<double>(attempted))
                  << " ratio\n";
    } else {
        Tracer tracer;
        const int root = tracer.open("workload", -1);
        LayerMetrics layers;
        std::vector<std::string> failures;
        try {
            workload->setup();
            const double cpu0 = process_cpu_seconds();
            const double wall0 = steady_now();
            workload->traced_call(tracer, root);
            const CallTiming timing{steady_now() - wall0, process_cpu_seconds() - cpu0};
            Verdict verdict = workload->verify();
            failures = std::move(verdict.failures);
            check_digest(verdict, failures);
            workload->layer_metrics(tracer, root, timing, layers);
            layers.set("trace.wall_s", timing.wall_s);
            layers.set("trace.cpu_s", timing.cpu_s);
            layers.set("trace.overhead", timing.wall_s / median(wall_s));
        } catch (const std::exception& e) {
            failures.push_back(std::string("exception: ") + e.what());
        }
        tracer.close(root);
        if (!report_failures(failures, "traced call")) {
            correct = false;
            ++failed;
        }
        ++attempted;
        const std::filesystem::path trace_path =
            args.work_dir / ("trace-" + args.workload + "-" + std::to_string(args.seed) + ".json");
        tracer.write_chrome(trace_path);
        std::cout << "trace written to " << trace_path.string() << " ("
                  << tracer.spans().size() << " events)\n";
        for (const Tracer::Span& span : tracer.spans())
            if (!span.instant && span.name != "search")
                std::cout << "span " << span.name << " = "
                          << seamap::json_number(span.end - span.start) << " s, self "
                          << seamap::json_number(tracer.self_seconds(span.id)) << " s\n";
        metrics = layers.all();
        for (const std::string& note : layers.notes()) std::cout << "note " << note << '\n';
        print_metrics(metrics);
        print_claims(args.workload, layers);
    }

    JsonValue result = JsonValue::object();
    result["correct"] = correct;
    result["attempted"] = attempted;
    result["failed"] = failed;
    result["metrics"] = metrics_json(metrics);
    if (args.out) {
        JsonValue record = JsonValue::object();
        record["workload"] = args.workload;
        record["seed"] = args.seed;
        record["budget"] = budget;
        record["trace"] = args.trace;
        record["digest"] = digest;
        record["fingerprint"] = host;
        record["result"] = result;
        std::ofstream out(*args.out, std::ios::app);
        out << record.dump() << '\n';
        if (!out) throw std::runtime_error("cannot append to " + args.out->string());
    }
    std::cout << result.dump() << std::endl;
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::cerr << "seamap_e2ebench: " << e.what() << '\n';
        return 1;
    }
}
