// The public problem description: everything the paper's Fig. 4 flow
// needs as *input*, bundled into one immutable, cheaply copyable value.
// A Problem is the stable contract between workload producers (CLI,
// services, tests) and interchangeable analysis engines (the search
// strategies of api/strategy.h, the campaign engine, future backends) —
// the same problem/engine separation frameworks like CFA and OpenSEA
// use for fault analysis.
//
//     Problem problem = ProblemBuilder()
//                           .graph(mpeg2_decoder_graph())
//                           .architecture(4, VoltageScalingTable::arm7_three_level())
//                           .deadline_seconds(mpeg2_deadline_seconds())
//                           .build();                 // validates here
//     DseResult result = explore(problem);            // api/explore.h
//
// Validation happens once, at build(); every consumer downstream can
// assume a well-formed DAG, a matching architecture and a positive
// deadline.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "arch/scaling_table.h"
#include "reliability/design_eval.h"
#include "reliability/ser_model.h"
#include "reliability/seu_estimator.h"
#include "taskgraph/task_graph.h"

#include <memory>
#include <optional>

namespace seamap {

/// Immutable problem instance; build with ProblemBuilder. Copies share
/// the underlying state, so passing Problems by value is cheap and the
/// references returned by the accessors stay valid for the lifetime of
/// any copy.
class Problem {
public:
    const TaskGraph& graph() const { return state_->graph; }
    const MpsocArchitecture& architecture() const { return state_->arch; }
    double deadline_seconds() const { return state_->deadline_seconds; }
    const SerModel& ser_model() const { return state_->ser; }
    ExposurePolicy exposure_policy() const { return state_->policy; }

    /// Gamma estimator configured with this problem's SER model and
    /// exposure policy.
    SeuEstimator make_estimator() const;

    /// Evaluation context for one scaling combination (validated
    /// against the architecture). The context references this problem's
    /// state — keep the Problem (or a copy) alive while using it.
    EvaluationContext evaluation_context(ScalingVector levels) const;

private:
    friend class ProblemBuilder;

    struct State {
        TaskGraph graph;
        MpsocArchitecture arch;
        double deadline_seconds;
        SerModel ser;
        ExposurePolicy policy;
    };

    explicit Problem(std::shared_ptr<const State> state) : state_(std::move(state)) {}

    std::shared_ptr<const State> state_;
};

/// Fluent builder; build() performs all validation and throws
/// std::invalid_argument with a description of everything that is
/// missing or malformed.
class ProblemBuilder {
public:
    ProblemBuilder& graph(TaskGraph graph);
    ProblemBuilder& architecture(MpsocArchitecture arch);
    /// Convenience: a homogeneous MPSoC with `cores` cores and `table`.
    ProblemBuilder& architecture(std::size_t cores, VoltageScalingTable table);
    ProblemBuilder& deadline_seconds(double seconds);
    /// Optional; defaults reproduce the paper's SER parameters.
    ProblemBuilder& ser_model(SerModel model);
    /// Optional; defaults to ExposurePolicy::full_duration (the paper's
    /// semantics).
    ProblemBuilder& exposure_policy(ExposurePolicy policy);

    /// Validates and assembles the immutable Problem.
    Problem build() const;

private:
    std::optional<TaskGraph> graph_;
    std::optional<MpsocArchitecture> arch_;
    std::optional<double> deadline_seconds_;
    SerModel ser_{};
    ExposurePolicy policy_ = ExposurePolicy::full_duration;
};

} // namespace seamap
