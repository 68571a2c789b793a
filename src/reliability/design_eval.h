// One-stop evaluation of a candidate design (mapping + per-core scaling)
// against every metric the paper reports: multiprocessor execution time
// T_M, register usage R, expected SEUs Gamma, and power P. Shared by
// the proposed optimizer, the simulated-annealing baselines and the
// experiment benches so that all of them score designs identically.
//
// evaluate_design() is the *reference* implementation: it builds a
// fresh schedule and fresh accumulators per call. Search hot loops run
// on core/eval_context.h instead — a reusable per-scaling engine with
// preallocated scratch and incremental rescheduling that is pinned bit-identical to this function by
// tests/core/eval_context_equivalence_test.cpp. Change the arithmetic
// here and the fast path must change in lockstep (the harness fails
// loudly otherwise).
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "reliability/seu_estimator.h"
#include "sched/list_scheduler.h"
#include "sched/mapping.h"
#include "taskgraph/task_graph.h"

#include <cstdint>

namespace seamap {

/// Everything fixed during one mapping-optimization run.
struct EvaluationContext {
    const TaskGraph& graph;
    const MpsocArchitecture& arch;
    ScalingVector levels;
    SeuEstimator estimator;
    /// Real-time constraint on T_M, seconds.
    double deadline_seconds;
};

/// Scores of one candidate design.
struct DesignMetrics {
    double tm_seconds = 0.0;          ///< pipelined completion time T_M
    double latency_seconds = 0.0;     ///< one-iteration latency L
    std::uint64_t register_bits = 0;  ///< R = sum_i R_i (eq. 8)
    double gamma = 0.0;               ///< expected SEUs (eq. 3)
    double power_mw = 0.0;            ///< MPSoC power (eq. 5)
    bool feasible = false;            ///< T_M <= deadline
};

/// Schedule + score a complete mapping. Throws on incomplete mappings.
DesignMetrics evaluate_design(const EvaluationContext& ctx, const Mapping& mapping);

/// Variant that also returns the schedule (for Gantt output and the
/// fault-injection simulator).
DesignMetrics evaluate_design(const EvaluationContext& ctx, const Mapping& mapping,
                              Schedule& schedule_out);

} // namespace seamap
