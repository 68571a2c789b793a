// Zero-allocation per-candidate evaluation hot path. The Fig. 4 flow
// evaluates thousands of (mapping, scaling) candidates per exploration;
// reliability/design_eval.h scores each one from scratch — a fresh list
// schedule (priority selection + ~10 heap allocations), fresh register
// unions and fresh SEU/power sums per call. EvalContext is the reusable
// per-scaling evaluation engine both search strategies run on instead:
//
//  - Precomputation: everything that depends only on the graph and the
//    architecture lives in one immutable EvalPlan, built once per
//    exploration and read without locks by every worker's contexts:
//    the list scheduler's placement sequence (a pure function of the
//    graph, sched/list_scheduler.h static_schedule_order), CSR in/out
//    edge arrays, per-(task, level) execution seconds, per-(edge,
//    level) communication seconds and the register word rows. An
//    EvalContext adds only the per-scaling state (each core's level
//    row, frequency, SER rate and active power); per candidate only
//    the timing arithmetic over flat arrays runs.
//  - Scratch reuse: ready lists, per-PE timelines, data-ready arrays,
//    busy/utilization accumulators and register-union bitsets live in
//    the context and are reused across candidates — the steady-state
//    evaluation loop performs no heap allocation.
//  - Incremental re-evaluation: for the move/swap neighbourhood steps
//    of the Fig. 7 search and the SA baseline, only the schedule
//    suffix from the first affected placement position is replayed
//    (positions before the earliest predecessor of a moved task are
//    provably unchanged), and only the affected cores' register unions
//    and busy cycles are recomputed.
//
// Every candidate is scored by scheduling it, as in the paper's Fig. 7
// search: a full pass (evaluate, rebase) or a suffix replay
// (evaluate_move, evaluate_swap). There is no result cache — revisits
// are rare in the walk (well under 1% of candidates), so one would
// cost more memory than the replays it saves.
//
// Determinism contract: both paths (full, incremental) reproduce
// evaluate_design() BIT-IDENTICALLY — the same floating-point
// operations in the same order. The plan's time tables hold
// exactly the quotients the naive path computes per call. The
// naive_reference option turns the context into a thin wrapper over
// evaluate_design() so the equivalence harness
// (tests/core/eval_context_equivalence_test.cpp) and the before/after
// benches drive both paths through identical search code.
//
// An EvalContext is single-threaded state: the explorer builds one per
// scaling combination inside each worker, so contexts are never shared
// across threads. An EvalPlan is immutable after construction and may
// be shared by any number of contexts on any threads.
#pragma once

#include "arch/mpsoc.h"
#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "taskgraph/task_graph.h"
#include "util/rng.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace seamap {

/// Evaluation-path choice. The default is the fast path; the reference
/// flag pins the optimization to the naive implementation.
struct EvalOptions {
    /// Route every evaluation through evaluate_design() instead of the
    /// optimized path (no scratch reuse, no suffix replay). This is the
    /// test oracle the equivalence tests and benches compare against.
    bool naive_reference = false;
};

/// One neighbourhood mutation, reported by random_neighbor_op so the
/// caller can ask EvalContext for an incremental re-evaluation.
struct NeighborOp {
    enum class Kind : unsigned char {
        none, ///< no admissible mutation found; mapping unchanged
        move, ///< task `a` moved from core `from` to core `to`
        swap, ///< tasks `a` and `b` (on different cores) exchanged cores
    };
    Kind kind = Kind::none;
    TaskId a = 0;
    TaskId b = 0;
    CoreId from = 0;
    CoreId to = 0;
};

/// The shared move/swap neighbourhood of both search engines: with
/// probability `swap_probability` exchange two tasks on different
/// cores, otherwise move one task to another core (rejecting moves that
/// would empty a populated core when `require_all_cores`). Mutates
/// `mapping` in place and reports what changed. The RNG draw sequence
/// is the contract: both engines' walks are reproducible bit-for-bit
/// from the seed, so this function consumes draws exactly like the
/// historical per-engine copies it replaces.
NeighborOp random_neighbor_op(Mapping& mapping, Rng& rng, double swap_probability,
                              bool require_all_cores);

/// Immutable graph- and architecture-only precomputation shared by
/// every EvalContext of one exploration. See file comment.
class EvalPlan {
public:
    /// `graph` and `arch` must outlive the plan and every context built
    /// on it.
    EvalPlan(const TaskGraph& graph, const MpsocArchitecture& arch);

    EvalPlan(const EvalPlan&) = delete;
    EvalPlan& operator=(const EvalPlan&) = delete;

private:
    friend class EvalContext;

    /// Out-edge of a task, in TaskGraph::out_edge_indices order (the
    /// order the scheduler advances the sender's comm cursor in).
    struct OutEdge {
        TaskId dst;
        std::size_t edge; ///< TaskGraph edge index
        std::uint64_t comm_cycles;
    };
    /// In-edge of a task, in TaskGraph::in_edge_indices order.
    struct InEdge {
        std::size_t src_pos; ///< the source's position in order_
        std::size_t edge;    ///< TaskGraph edge index
        std::uint64_t comm_cycles;
    };

    const TaskGraph& graph_;
    std::size_t n_ = 0;
    std::size_t cores_ = 0;
    std::size_t words_ = 0; ///< fixed bitset width: register words per row
    double batches_ = 1.0;
    std::vector<double> level_freq_; ///< [level - 1] -> Hz, what the tables divide by

    std::vector<TaskId> order_;             ///< static schedule order
    std::vector<std::size_t> suffix_start_; ///< task -> earliest affected position
    std::vector<std::size_t> out_offsets_;  ///< task -> out_edges_ slice; n_ + 1 entries
    std::vector<OutEdge> out_edges_;
    std::vector<std::size_t> in_offsets_;   ///< task -> in_edges_ slice; n_ + 1 entries
    std::vector<InEdge> in_edges_;
    std::vector<std::uint64_t> exec_cycles_; ///< per task
    /// Level-major time tables: row `level - 1` holds, per task (resp.
    /// per out_edges_ entry), cycles / batches / frequency_hz(level).
    std::vector<double> exec_seconds_; ///< [(level - 1) * n_ + task]
    std::vector<double> comm_seconds_; ///< [(level - 1) * out_edges_.size() + k]
    /// Struct-of-arrays register state: each task's register set as a
    /// fixed-width row of `words_` words (row-major arena, n_ rows), so
    /// a per-core union is a contiguous `dst[w] |= src[w]` word loop
    /// the compiler can vectorize — no pointer-chasing through
    /// RegisterSet's per-set heap blocks.
    std::vector<std::uint64_t> task_reg_words_; ///< [task * words_ + w]
    std::vector<std::uint64_t> reg_bits_;       ///< register id -> width in bits
};

/// Reusable per-scaling evaluation engine. See file comment.
class EvalContext {
public:
    /// `ctx` must outlive the EvalContext. Validates the scaling vector
    /// eagerly and builds a private EvalPlan for ctx's graph and
    /// architecture.
    explicit EvalContext(const EvaluationContext& ctx, EvalOptions options = {});

    /// Runs on a shared `plan`, which must outlive the context. Throws
    /// std::invalid_argument unless the plan was built for ctx's graph
    /// (the same object) and an architecture with ctx's core count and
    /// operating frequencies.
    EvalContext(const EvalPlan& plan, const EvaluationContext& ctx, EvalOptions options = {});

    EvalContext(const EvalContext&) = delete;
    EvalContext& operator=(const EvalContext&) = delete;

    /// The problem this context evaluates against.
    const EvaluationContext& problem() const { return ctx_; }
    const EvalOptions& options() const { return options_; }

    /// Full evaluation of a complete mapping; bit-identical to
    /// evaluate_design(problem(), mapping). Allocation-free after the
    /// first call. Throws std::invalid_argument on size mismatches or
    /// incomplete mappings.
    DesignMetrics evaluate(const Mapping& mapping);

    /// Establish `base` as the incremental-evaluation anchor (the
    /// search's current mapping) and return its metrics. Records the
    /// per-position timeline state evaluate_move/evaluate_swap restart
    /// from. Always a full recorded pass; a known future optimization
    /// is committing the just-replayed suffix of an accepted neighbour
    /// instead, which would help high-acceptance (hot) walk phases.
    DesignMetrics rebase(const Mapping& base);

    /// True once rebase() has run.
    bool has_base() const { return has_base_; }
    const Mapping& base() const { return base_; }
    const DesignMetrics& base_metrics() const { return base_metrics_; }

    /// Metrics of base() with `task` moved to core `to` (base itself is
    /// left untouched), suffix-rescheduled: only placement positions
    /// from the earliest predecessor of `task` onward are replayed, and
    /// only the two affected cores' register unions and busy cycles are
    /// recomputed. Requires a prior rebase().
    DesignMetrics evaluate_move(TaskId task, CoreId to);

    /// Metrics of base() with tasks `a` and `b` exchanging cores.
    DesignMetrics evaluate_swap(TaskId a, TaskId b);

    /// Dispatch on a NeighborOp produced against base(). Kind::none
    /// returns base_metrics().
    DesignMetrics evaluate_neighbor(const NeighborOp& op);

    /// Instrumentation for benches and tests.
    struct Stats {
        std::uint64_t full_evals = 0;        ///< complete timing passes (incl. rebase)
        std::uint64_t incremental_evals = 0; ///< suffix-only replays
        /// Always 0: there is no result cache. Kept because the
        /// end-to-end benchmark's probes (e2ebench/src/probes.cpp) read
        /// it, and that harness is only changed with the benchmark.
        std::uint64_t memo_hits = 0;
    };
    const Stats& stats() const { return stats_; }

private:
    /// A candidate relative to the base: up to two tasks on new cores.
    /// For a move both slots describe the same task.
    struct Override {
        TaskId a;
        CoreId core_a;
        TaskId b;
        CoreId core_b;

        CoreId core_of(const CoreId* base_raw, TaskId w) const {
            if (w == a) return core_a;
            if (w == b) return core_b;
            return base_raw[w];
        }
    };

    void prepare_scaling();
    DesignMetrics evaluate_full(const Mapping& mapping, bool record);
    DesignMetrics evaluate_override(const Override& ov, std::size_t suffix_pos);
    DesignMetrics finish_metrics(double latency);
    void check_mapping(const Mapping& mapping) const;

    std::uint64_t weighted_bits(const std::uint64_t* row) const;

    std::unique_ptr<const EvalPlan> owned_plan_; ///< set by the private-plan constructor
    const EvalPlan& plan_;
    const EvaluationContext& ctx_;
    EvalOptions options_;
    std::size_t n_ = 0;     ///< plan_.n_
    std::size_t cores_ = 0; ///< plan_.cores_

    // Per-scaling state.
    std::vector<const double*> exec_seconds_row_; ///< core -> plan_ row at its level
    std::vector<const double*> comm_seconds_row_; ///< core -> plan_ row at its level
    std::vector<double> core_freq_;
    std::vector<double> ser_rate_;       ///< SER per bit-second at each core's Vdd
    std::vector<double> active_power_mw_;

    // Scratch reused by every evaluation (no steady-state allocation).
    std::vector<double> data_ready_;
    std::vector<double> core_free_;
    std::vector<double> finish_;
    std::vector<std::uint64_t> busy_;
    std::vector<double> busy_seconds_;
    std::vector<double> utilization_;
    std::vector<std::uint64_t> register_bits_;
    std::vector<std::int64_t> busy_delta_;
    std::vector<std::uint64_t> union_words_;   ///< [core * words_ + w]
    std::vector<std::uint64_t> scratch_words_; ///< one row, incremental path
    Mapping mapping_scratch_; ///< naive_reference candidate materialization

    // Incremental base state (valid while has_base_).
    bool has_base_ = false;
    Mapping base_;
    DesignMetrics base_metrics_;
    std::vector<double> base_finish_;
    std::vector<double> base_arrival_;      ///< per edge: data-arrival instant
    std::vector<double> base_core_free_at_; ///< position-major [pos * cores + core]
    std::vector<std::uint64_t> base_busy_;
    std::vector<std::uint64_t> base_bits_;
    // Base task->core partition in CSR form (built by each rebase into
    // fixed-capacity arrays — no per-core vectors, no steady-state
    // growth): core c's tasks are core_task_ids_[core_task_offsets_[c]
    // .. core_task_offsets_[c + 1]), ascending by task id.
    std::vector<std::size_t> core_task_offsets_; ///< cores_ + 1 entries
    std::vector<std::size_t> core_task_cursor_;  ///< counting-sort scratch
    std::vector<TaskId> core_task_ids_;          ///< n_ entries

    Stats stats_;
};

} // namespace seamap
