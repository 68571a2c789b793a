#include "taskgraph/serialization.h"

#include "util/error.h"
#include "util/strings.h"

#include <cctype>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace seamap {

void write_task_graph(std::ostream& os, const TaskGraph& graph) {
    os << "# seamap task graph\n";
    os << "graph " << graph.name() << '\n';
    os << "batches " << graph.batch_count() << '\n';
    const RegisterFile& regs = graph.register_file();
    os << "registers " << regs.size() << '\n';
    for (RegisterId id = 0; id < regs.size(); ++id)
        os << "reg " << regs.name(id) << ' ' << regs.bits(id) << '\n';
    os << "tasks " << graph.task_count() << '\n';
    for (TaskId id = 0; id < graph.task_count(); ++id) {
        const Task& task = graph.task(id);
        os << "task " << task.name << ' ' << task.exec_cycles << ' ' << task.registers.count();
        task.registers.for_each([&](RegisterId rid) { os << ' ' << rid; });
        os << '\n';
    }
    os << "edges " << graph.edge_count() << '\n';
    for (const Edge& edge : graph.edges())
        os << "edge " << edge.src << ' ' << edge.dst << ' ' << edge.comm_cycles << '\n';
}

namespace {

// Hard ceiling on every declared count ("registers N", "tasks N",
// "edges N", per-task register-list length). Far above any real
// workload, low enough that a hostile header can never drive looping
// or allocation before the mismatch is discovered.
constexpr std::uint64_t k_max_declared_count = 1'000'000;

// Ceiling on per-item magnitudes (register bits, exec/comm cycles).
// With at most k_max_declared_count items, whole-graph sums like
// total_exec_cycles() stay below 10^18 and cannot wrap a u64.
constexpr std::uint64_t k_max_magnitude = 1'000'000'000'000;

class LineReader {
public:
    explicit LineReader(std::istream& is) : is_(is) {}

    /// Next non-empty, non-comment line split into fields; nullopt at EOF.
    /// Fields are separated by runs of std::isspace characters — the set
    /// a classic-locale `stream >> field` skips — so tabs, CR, \v and \f
    /// separate like spaces.
    std::optional<std::vector<std::string>> next() {
        while (std::getline(is_, line_)) {
            ++line_number_;
            const std::string_view trimmed = trim(line_);
            if (trimmed.empty() || trimmed.front() == '#') continue;
            std::vector<std::string> fields;
            auto is_space = [](char ch) { return std::isspace(static_cast<unsigned char>(ch)); };
            for (std::size_t i = 0; i < trimmed.size();) {
                const std::size_t begin = i;
                while (i < trimmed.size() && !is_space(trimmed[i])) ++i;
                fields.emplace_back(trimmed.substr(begin, i - begin));
                while (i < trimmed.size() && is_space(trimmed[i])) ++i;
            }
            return fields;
        }
        return std::nullopt;
    }

    [[noreturn]] void fail(const std::string& message) const {
        throw Error(ErrorCategory::parse, "task graph parse error at line " +
                                              std::to_string(line_number_) + ": " + message);
    }

    /// parse_u64 with the line number attached on failure.
    std::uint64_t number(const std::string& field, const char* what) const {
        try {
            return parse_u64(field);
        } catch (const std::exception&) {
            fail(std::string(what) + " is not an unsigned integer: '" + field + "'");
        }
    }

    /// A declared count, rejected above k_max_declared_count.
    std::uint64_t count(const std::string& field, const char* what) const {
        const std::uint64_t value = number(field, what);
        if (value > k_max_declared_count)
            fail(std::string(what) + " " + std::to_string(value) + " exceeds the limit of " +
                 std::to_string(k_max_declared_count));
        return value;
    }

    /// A per-item magnitude, rejected above k_max_magnitude.
    std::uint64_t magnitude(const std::string& field, const char* what) const {
        const std::uint64_t value = number(field, what);
        if (value > k_max_magnitude)
            fail(std::string(what) + " " + std::to_string(value) + " exceeds the limit of " +
                 std::to_string(k_max_magnitude));
        return value;
    }

    std::vector<std::string> expect(const std::string& keyword, std::size_t field_count) {
        auto fields = next();
        if (!fields) fail("unexpected end of input; expected '" + keyword + "'");
        if ((*fields)[0] != keyword)
            fail("expected '" + keyword + "', got '" + (*fields)[0] + "'");
        if (fields->size() != field_count)
            fail("'" + keyword + "' expects " + std::to_string(field_count - 1) + " fields");
        return std::move(*fields);
    }

private:
    std::istream& is_;
    std::string line_; ///< getline buffer, reused across lines
    std::size_t line_number_ = 0;
};

} // namespace

TaskGraph read_task_graph(std::istream& is) {
    LineReader reader(is);

    const auto graph_line = reader.expect("graph", 2);
    const auto batches_line = reader.expect("batches", 2);
    const std::uint64_t batches = reader.count(batches_line[1], "batch count");

    RegisterFile regs;
    const auto registers_line = reader.expect("registers", 2);
    const auto reg_count = reader.count(registers_line[1], "register count");
    for (std::uint64_t i = 0; i < reg_count; ++i) {
        const auto fields = reader.expect("reg", 3);
        const std::uint64_t bits = reader.magnitude(fields[2], "register width");
        try {
            regs.add_register(fields[1], bits);
        } catch (const std::exception& e) {
            reader.fail(e.what());
        }
    }

    TaskGraph graph(graph_line[1], std::move(regs));
    try {
        graph.set_batch_count(batches);
    } catch (const std::exception& e) {
        reader.fail(e.what());
    }

    const auto tasks_line = reader.expect("tasks", 2);
    const auto task_count = reader.count(tasks_line[1], "task count");
    for (std::uint64_t i = 0; i < task_count; ++i) {
        auto fields = reader.next();
        if (!fields) reader.fail("unexpected end of input in task list");
        if ((*fields)[0] != "task" || fields->size() < 4) reader.fail("malformed task line");
        const auto reg_list_count = reader.count((*fields)[3], "task register count");
        // reg_list_count <= k_max_declared_count, so 4 + reg_list_count
        // cannot wrap.
        if (fields->size() != 4 + reg_list_count)
            reader.fail("task register list length mismatch");
        std::vector<RegisterId> ids;
        ids.reserve(reg_list_count);
        for (std::uint64_t r = 0; r < reg_list_count; ++r) {
            const std::uint64_t rid = reader.number((*fields)[4 + r], "register id");
            if (rid >= graph.register_file().size())
                reader.fail("register id " + std::to_string(rid) + " out of range (file has " +
                            std::to_string(graph.register_file().size()) + " registers)");
            ids.push_back(static_cast<RegisterId>(rid));
        }
        const std::uint64_t exec = reader.magnitude((*fields)[2], "task exec cycles");
        try {
            graph.add_task((*fields)[1], exec, ids);
        } catch (const std::exception& e) {
            reader.fail(e.what());
        }
    }

    const auto edges_line = reader.expect("edges", 2);
    const auto edge_count = reader.count(edges_line[1], "edge count");
    for (std::uint64_t i = 0; i < edge_count; ++i) {
        const auto fields = reader.expect("edge", 4);
        const std::uint64_t src = reader.number(fields[1], "edge source");
        const std::uint64_t dst = reader.number(fields[2], "edge destination");
        if (src >= graph.task_count() || dst >= graph.task_count())
            reader.fail("edge endpoint out of range (graph has " +
                        std::to_string(graph.task_count()) + " tasks)");
        const std::uint64_t comm = reader.magnitude(fields[3], "edge comm cycles");
        try {
            graph.add_edge(static_cast<TaskId>(src), static_cast<TaskId>(dst), comm);
        } catch (const std::exception& e) {
            reader.fail(e.what()); // duplicate edges, self-loops
        }
    }

    try {
        graph.validate();
    } catch (const std::exception& e) {
        throw Error(ErrorCategory::parse, std::string("task graph parse error: ") + e.what());
    }
    return graph;
}

void save_task_graph(const std::string& path, const TaskGraph& graph) {
    std::ofstream os(path);
    if (!os) throw Error(ErrorCategory::io, "cannot open task graph for writing", path);
    write_task_graph(os, graph);
    os.flush();
    if (!os) throw Error(ErrorCategory::io, "failed writing task graph", path);
}

TaskGraph load_task_graph(const std::string& path) {
    std::ifstream is(path);
    if (!is) throw Error(ErrorCategory::io, "cannot open task graph for reading", path);
    return read_task_graph(is);
}

} // namespace seamap
