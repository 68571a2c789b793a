#include "taskgraph/serialization.h"

#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"
#include "util/error.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace seamap {
namespace {

void expect_graphs_equal(const TaskGraph& a, const TaskGraph& b) {
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.batch_count(), b.batch_count());
    ASSERT_EQ(a.task_count(), b.task_count());
    ASSERT_EQ(a.edge_count(), b.edge_count());
    ASSERT_EQ(a.register_file().size(), b.register_file().size());
    for (RegisterId r = 0; r < a.register_file().size(); ++r) {
        EXPECT_EQ(a.register_file().name(r), b.register_file().name(r));
        EXPECT_EQ(a.register_file().bits(r), b.register_file().bits(r));
    }
    for (TaskId t = 0; t < a.task_count(); ++t) {
        EXPECT_EQ(a.task(t).name, b.task(t).name);
        EXPECT_EQ(a.task(t).exec_cycles, b.task(t).exec_cycles);
        EXPECT_EQ(a.task(t).registers, b.task(t).registers);
    }
    for (std::size_t e = 0; e < a.edge_count(); ++e) {
        EXPECT_EQ(a.edge(e).src, b.edge(e).src);
        EXPECT_EQ(a.edge(e).dst, b.edge(e).dst);
        EXPECT_EQ(a.edge(e).comm_cycles, b.edge(e).comm_cycles);
    }
}

TEST(Serialization, RoundTripMpeg2) {
    const TaskGraph original = mpeg2_decoder_graph();
    std::stringstream buffer;
    write_task_graph(buffer, original);
    const TaskGraph reloaded = read_task_graph(buffer);
    expect_graphs_equal(original, reloaded);
}

TEST(Serialization, RoundTripFig8) {
    const TaskGraph original = fig8_example_graph();
    std::stringstream buffer;
    write_task_graph(buffer, original);
    const TaskGraph reloaded = read_task_graph(buffer);
    expect_graphs_equal(original, reloaded);
}

TEST(Serialization, CommentsAndBlankLinesIgnored) {
    const std::vector<std::string> lines = {
        "# a comment", "", "graph tiny", "batches 2", "# registers follow", "registers 1",
        "reg r0 32", "tasks 2", "task a 10 1 0", "task b 20 0", "edges 1", "edge 0 1 5"};
    // Rebuild the text with every single-space separator replaced by
    // `sep`, each line wrapped in `lead`/`trail` and ended by `eol`.
    auto text = [&](const std::string& sep, const std::string& lead, const std::string& trail,
                    const std::string& eol) {
        std::string out;
        for (const std::string& line : lines) {
            out += lead;
            for (const char ch : line) out += ch == ' ' ? sep : std::string(1, ch);
            out += trail + eol;
        }
        return out;
    };
    std::stringstream canonical(text(" ", "", "", "\n"));
    const TaskGraph graph = read_task_graph(canonical);
    EXPECT_EQ(graph.name(), "tiny");
    EXPECT_EQ(graph.batch_count(), 2u);
    EXPECT_EQ(graph.task_count(), 2u);
    EXPECT_EQ(graph.task(0).exec_cycles, 10u);
    EXPECT_EQ(graph.edge(0).comm_cycles, 5u);

    // Every whitespace character a stream's `>>` skips separates fields
    // the same way, wherever it appears on a line.
    const std::vector<std::pair<std::string, std::string>> variants = {
        {"tabs", text("\t", "", "", "\n")},
        {"CRLF", text(" ", "", "", "\r\n")},
        {"runs of spaces", text("    ", "", "", "\n")},
        {"vertical tab and form feed", text("\v\f", "", "", "\n")},
        {"mixed runs", text(" \t\v \f", "", "", "\n")},
        {"trailing whitespace", text(" ", "", " \t ", "\n")},
        {"leading whitespace", text(" ", "\t  ", "", "\n")},
        {"everything at once", text("\t \v", " \f", "\t \r", "\r\n")},
    };
    for (const auto& [label, variant] : variants) {
        SCOPED_TRACE(label);
        std::stringstream buffer(variant);
        expect_graphs_equal(read_task_graph(buffer), graph);
    }
}

TEST(Serialization, WrongKeywordReportsLine) {
    std::stringstream buffer;
    buffer << "graph g\nbatches 1\nNOT_REGISTERS 0\n";
    try {
        (void)read_task_graph(buffer);
        FAIL() << "expected parse error";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::parse);
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("registers"), std::string::npos);
    }
}

TEST(Serialization, TruncatedInputThrows) {
    std::stringstream buffer;
    buffer << "graph g\nbatches 1\nregisters 1\n"; // register line missing
    EXPECT_THROW((void)read_task_graph(buffer), Error);
}

TEST(Serialization, RegisterListLengthMismatchThrows) {
    std::stringstream buffer;
    buffer << "graph g\nbatches 1\nregisters 1\nreg r0 8\n"
           << "tasks 1\ntask a 10 2 0\n"; // claims 2 registers, lists 1
    EXPECT_THROW((void)read_task_graph(buffer), Error);
}

TEST(Serialization, CyclicInputFailsValidation) {
    std::stringstream buffer;
    buffer << "graph g\nbatches 1\nregisters 0\n"
           << "tasks 2\ntask a 1 0\ntask b 1 0\n"
           << "edges 2\nedge 0 1 1\nedge 1 0 1\n";
    EXPECT_THROW((void)read_task_graph(buffer), Error);
}

TEST(Serialization, FileRoundTrip) {
    const TaskGraph original = fig8_example_graph();
    const std::string path = testing::TempDir() + "/fig8_roundtrip.tg";
    save_task_graph(path, original);
    const TaskGraph reloaded = load_task_graph(path);
    expect_graphs_equal(original, reloaded);
}

TEST(Serialization, MissingFileThrows) {
    EXPECT_THROW((void)load_task_graph("/nonexistent/definitely/missing.tg"),
                 std::runtime_error);
}

} // namespace
} // namespace seamap
