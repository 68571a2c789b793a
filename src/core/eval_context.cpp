#include "core/eval_context.h"

#include "sched/list_scheduler.h"
#include "taskgraph/register_file.h"
#include "util/float_compare.h"

#include <algorithm>
#include <stdexcept>

// This file is the zero-steady-state-allocation evaluation engine: the
// marker below arms seamap_lint's hot-path-alloc rule, so any
// allocation-shaped call added outside the explicitly allowed setup
// regions fails `make lint` (and tests/core/eval_context_alloc_test.cpp
// enforces the same property at runtime via the operator-new guard).
// seamap-lint: hot-path

namespace seamap {

NeighborOp random_neighbor_op(Mapping& mapping, Rng& rng, double swap_probability,
                              bool require_all_cores) {
    NeighborOp op;
    const auto tasks = static_cast<std::int64_t>(mapping.task_count());
    const auto cores = static_cast<std::int64_t>(mapping.core_count());
    if (cores < 2 || tasks < 1) return op;
    if (tasks >= 2 && rng.uniform() < swap_probability) {
        // Swaps never change per-core populations, so they are always
        // admissible under require_all_cores.
        for (int attempt = 0; attempt < 8; ++attempt) {
            const auto a = static_cast<TaskId>(rng.uniform_int(0, tasks - 1));
            const auto b = static_cast<TaskId>(rng.uniform_int(0, tasks - 1));
            if (a == b || mapping.core_of(a) == mapping.core_of(b)) continue;
            const CoreId core_a = mapping.core_of(a);
            mapping.assign(a, mapping.core_of(b));
            mapping.assign(b, core_a);
            op.kind = NeighborOp::Kind::swap;
            op.a = a;
            op.b = b;
            return op;
        }
    }
    for (int attempt = 0; attempt < 8; ++attempt) {
        const auto task = static_cast<TaskId>(rng.uniform_int(0, tasks - 1));
        const CoreId from = mapping.core_of(task);
        if (require_all_cores && mapping.task_count_on(from) == 1)
            continue; // would empty its core
        auto target = static_cast<CoreId>(rng.uniform_int(0, cores - 2));
        if (target >= from) ++target;
        mapping.assign(task, target);
        op.kind = NeighborOp::Kind::move;
        op.a = task;
        op.b = task;
        op.from = from;
        op.to = target;
        return op;
    }
    return op;
}

// seamap-lint: push-allow(hot-path-alloc) -- constructors: one-time
// per-exploration plan building and per-scaling precomputation and
// scratch sizing; nothing here runs in the steady-state evaluation loop
EvalPlan::EvalPlan(const TaskGraph& graph, const MpsocArchitecture& arch)
    : graph_(graph) {
    n_ = graph.task_count();
    cores_ = arch.core_count();
    batches_ = static_cast<double>(graph.batch_count());
    const std::size_t levels = arch.scaling_table().level_count();
    level_freq_.resize(levels);
    for (std::size_t l = 0; l < levels; ++l)
        level_freq_[l] = arch.frequency_hz(static_cast<ScalingLevel>(l + 1));

    order_ = static_schedule_order(graph);
    std::vector<std::size_t> pos(n_); // task -> position in order_
    for (std::size_t p = 0; p < n_; ++p) pos[order_[p]] = p;

    exec_cycles_.resize(n_);
    out_offsets_.resize(n_ + 1);
    in_offsets_.resize(n_ + 1);
    out_edges_.reserve(graph.edge_count());
    in_edges_.reserve(graph.edge_count());
    for (TaskId t = 0; t < n_; ++t) {
        exec_cycles_[t] = graph.task(t).exec_cycles;
        out_offsets_[t] = out_edges_.size();
        for (std::size_t idx : graph.out_edge_indices(t)) {
            const Edge& e = graph.edge(idx);
            out_edges_.push_back(OutEdge{e.dst, idx, e.comm_cycles});
        }
        in_offsets_[t] = in_edges_.size();
        for (std::size_t idx : graph.in_edge_indices(t)) {
            const Edge& e = graph.edge(idx);
            in_edges_.push_back(InEdge{pos[e.src], idx, e.comm_cycles});
        }
    }
    out_offsets_[n_] = out_edges_.size();
    in_offsets_[n_] = in_edges_.size();

    // Earliest placement position a mutation of task t can influence:
    // every predecessor of t is placed before t, and positions before
    // the earliest predecessor see neither t's core (no edges into t
    // originate there) nor any other changed core.
    suffix_start_.resize(n_);
    for (TaskId t = 0; t < n_; ++t) {
        std::size_t s = pos[t];
        for (std::size_t k = in_offsets_[t]; k < in_offsets_[t + 1]; ++k)
            s = std::min(s, in_edges_[k].src_pos);
        suffix_start_[t] = s;
    }

    // The exact expressions the scheduler evaluates per placement, so
    // every table entry is bit-identical to the per-call quotient.
    const std::size_t out_count = out_edges_.size();
    exec_seconds_.resize(levels * n_);
    comm_seconds_.resize(levels * out_count);
    for (std::size_t l = 0; l < levels; ++l) {
        for (TaskId t = 0; t < n_; ++t)
            exec_seconds_[l * n_ + t] =
                static_cast<double>(exec_cycles_[t]) / batches_ / level_freq_[l];
        for (std::size_t k = 0; k < out_count; ++k)
            comm_seconds_[l * out_count + k] =
                static_cast<double>(out_edges_[k].comm_cycles) / batches_ / level_freq_[l];
    }

    const std::size_t universe = graph.register_file().size();
    words_ = (universe + 63) / 64;
    // SoA register state: every task's register set flattened into one
    // fixed-width row of the arena (tasks whose backing sets are
    // shorter — default-constructed empties — zero-fill), plus the
    // per-register width table the weighted popcount reads.
    task_reg_words_.assign(n_ * words_, 0);
    for (TaskId t = 0; t < n_; ++t) {
        const RegisterSet& regs = graph.task(t).registers;
        std::copy_n(regs.words(), std::min(regs.word_count(), words_),
                    task_reg_words_.begin() + static_cast<std::ptrdiff_t>(t * words_));
    }
    reg_bits_.resize(universe);
    for (RegisterId r = 0; r < universe; ++r) reg_bits_[r] = graph.register_file().bits(r);
}

EvalContext::EvalContext(const EvaluationContext& ctx, EvalOptions options)
    : owned_plan_(std::make_unique<const EvalPlan>(ctx.graph, ctx.arch)),
      plan_(*owned_plan_),
      ctx_(ctx),
      options_(options) {
    prepare_scaling();
}

EvalContext::EvalContext(const EvalPlan& plan, const EvaluationContext& ctx,
                         EvalOptions options)
    : plan_(plan), ctx_(ctx), options_(options) {
    bool same_frequencies = plan.level_freq_.size() == ctx.arch.scaling_table().level_count();
    for (std::size_t l = 0; same_frequencies && l < plan.level_freq_.size(); ++l)
        same_frequencies = exactly_equal(
            plan.level_freq_[l], ctx.arch.frequency_hz(static_cast<ScalingLevel>(l + 1)));
    if (&plan.graph_ != &ctx.graph || plan.cores_ != ctx.arch.core_count() ||
        !same_frequencies)
        throw std::invalid_argument(
            "EvalContext: plan was built for a different graph or architecture");
    prepare_scaling();
}

void EvalContext::prepare_scaling() {
    ctx_.arch.validate_scaling(ctx_.levels);
    n_ = plan_.n_;
    cores_ = plan_.cores_;

    exec_seconds_row_.resize(cores_);
    comm_seconds_row_.resize(cores_);
    core_freq_.resize(cores_);
    ser_rate_.resize(cores_);
    active_power_mw_.resize(cores_);
    for (std::size_t c = 0; c < cores_; ++c) {
        const std::size_t row = ctx_.levels[c] - 1u;
        exec_seconds_row_[c] = plan_.exec_seconds_.data() + row * n_;
        comm_seconds_row_[c] = plan_.comm_seconds_.data() + row * plan_.out_edges_.size();
        core_freq_[c] = plan_.level_freq_[row];
        ser_rate_[c] = ctx_.estimator.ser_model().ser_per_bit_second(
            ctx_.arch.scaling_table().vdd(ctx_.levels[c]));
        active_power_mw_[c] = ctx_.arch.power_model().core_active_power_mw(ctx_.levels[c]);
    }

    data_ready_.resize(n_);
    core_free_.resize(cores_);
    finish_.resize(n_);
    busy_.resize(cores_);
    busy_seconds_.resize(cores_);
    utilization_.resize(cores_);
    register_bits_.resize(cores_);
    busy_delta_.resize(cores_);
    union_words_.resize(cores_ * plan_.words_);
    scratch_words_.resize(plan_.words_);

    base_finish_.resize(n_);
    base_arrival_.resize(ctx_.graph.edge_count());
    base_core_free_at_.resize(n_ * cores_);
    base_busy_.resize(cores_);
    base_bits_.resize(cores_);
    core_task_offsets_.resize(cores_ + 1);
    core_task_cursor_.resize(cores_);
    core_task_ids_.resize(n_);
}
// seamap-lint: pop-allow(hot-path-alloc)

void EvalContext::check_mapping(const Mapping& mapping) const {
    if (mapping.task_count() != n_)
        throw std::invalid_argument("EvalContext: mapping task count != graph task count");
    if (mapping.core_count() != cores_)
        throw std::invalid_argument("EvalContext: mapping core count != architecture");
    if (!mapping.complete())
        throw std::invalid_argument("EvalContext: mapping is incomplete");
}

// Identical arithmetic, in identical order, to ListScheduler::schedule
// + per_core_busy_cycles + per_core_register_bits + SeuEstimator::
// estimate + PowerModel::mpsoc_power_mw — the equivalence harness pins
// this correspondence bit-for-bit.
DesignMetrics EvalContext::evaluate_full(const Mapping& mapping, bool record) {
    check_mapping(mapping);
    const CoreId* core_of = mapping.raw().data();
    const TaskId* order = plan_.order_.data();
    const std::size_t* out_offsets = plan_.out_offsets_.data();
    const EvalPlan::OutEdge* out_edges = plan_.out_edges_.data();

    std::fill(data_ready_.begin(), data_ready_.end(), 0.0);
    std::fill(core_free_.begin(), core_free_.end(), 0.0);
    for (std::size_t p = 0; p < n_; ++p) {
        if (record)
            std::copy(core_free_.begin(), core_free_.end(),
                      base_core_free_at_.begin() +
                          static_cast<std::ptrdiff_t>(p * cores_));
        const TaskId t = order[p];
        const CoreId core = core_of[t];
        const double start = std::max(core_free_[core], data_ready_[t]);
        const double finish = start + exec_seconds_row_[core][t];
        finish_[t] = finish;
        double cursor = finish;
        const double* comm_seconds = comm_seconds_row_[core];
        for (std::size_t k = out_offsets[t]; k < out_offsets[t + 1]; ++k) {
            const EvalPlan::OutEdge& e = out_edges[k];
            const bool cross = core_of[e.dst] != core;
            double arrival = finish;
            if (cross) {
                cursor += comm_seconds[k];
                arrival = cursor;
            }
            if (record) base_arrival_[e.edge] = arrival;
            data_ready_[e.dst] = std::max(data_ready_[e.dst], arrival);
        }
        core_free_[core] = cursor;
    }

    double latency = 0.0;
    for (TaskId t = 0; t < n_; ++t) latency = std::max(latency, finish_[t]);

    // Whole-run busy cycles, eq. (7) attribution (integer, exact).
    std::fill(busy_.begin(), busy_.end(), std::uint64_t{0});
    for (TaskId t = 0; t < n_; ++t) {
        const CoreId core = core_of[t];
        busy_[core] += plan_.exec_cycles_[t];
        for (std::size_t k = out_offsets[t]; k < out_offsets[t + 1]; ++k)
            if (core_of[out_edges[k].dst] != core) busy_[core] += out_edges[k].comm_cycles;
    }

    // Per-core register unions, eq. (8): fixed-width word rows, so the
    // per-task OR is a contiguous word loop over the arena rows (the
    // vectorizable SoA form of `union[core] |= task.registers`).
    const std::size_t words = plan_.words_;
    std::fill(union_words_.begin(), union_words_.end(), std::uint64_t{0});
    for (TaskId t = 0; t < n_; ++t) {
        std::uint64_t* dst = union_words_.data() + core_of[t] * words;
        const std::uint64_t* src = plan_.task_reg_words_.data() + t * words;
        for (std::size_t w = 0; w < words; ++w) dst[w] |= src[w];
    }
    for (std::size_t c = 0; c < cores_; ++c)
        register_bits_[c] = weighted_bits(union_words_.data() + c * words);

    if (record) {
        std::copy(finish_.begin(), finish_.end(), base_finish_.begin());
        std::copy(busy_.begin(), busy_.end(), base_busy_.begin());
        std::copy(register_bits_.begin(), register_bits_.end(), base_bits_.begin());
        // Counting sort into the CSR partition (fixed-capacity arrays;
        // iterating tasks in id order keeps each core's slice ascending,
        // matching the per-core push_back lists this replaces).
        std::fill(core_task_cursor_.begin(), core_task_cursor_.end(), std::size_t{0});
        for (TaskId t = 0; t < n_; ++t) ++core_task_cursor_[core_of[t]];
        core_task_offsets_[0] = 0;
        for (std::size_t c = 0; c < cores_; ++c)
            core_task_offsets_[c + 1] = core_task_offsets_[c] + core_task_cursor_[c];
        std::copy(core_task_offsets_.begin(), core_task_offsets_.end() - 1,
                  core_task_cursor_.begin());
        for (TaskId t = 0; t < n_; ++t) core_task_ids_[core_task_cursor_[core_of[t]]++] = t;
    }
    return finish_metrics(latency);
}

std::uint64_t EvalContext::weighted_bits(const std::uint64_t* row) const {
    // Weighted popcount of one union row: the eq. (8) |R| term. Integer
    // addition commutes exactly, so the value is bit-identical to
    // RegisterSet::bits_in whatever the traversal order.
    const std::uint64_t* reg_bits = plan_.reg_bits_.data();
    std::uint64_t total = 0;
    for (std::size_t w = 0; w < plan_.words_; ++w) {
        std::uint64_t word = row[w];
        while (word != 0) {
            const auto bit = static_cast<unsigned>(__builtin_ctzll(word));
            total += reg_bits[w * 64 + bit];
            word &= word - 1;
        }
    }
    return total;
}

DesignMetrics EvalContext::finish_metrics(double latency) {
    DesignMetrics metrics;
    metrics.latency_seconds = latency;
    double ii = 0.0;
    for (std::size_t c = 0; c < cores_; ++c) {
        busy_seconds_[c] = static_cast<double>(busy_[c]) / core_freq_[c];
        ii = std::max(ii, busy_seconds_[c] / plan_.batches_);
    }
    metrics.tm_seconds = latency + (plan_.batches_ - 1.0) * ii;
    for (std::size_t c = 0; c < cores_; ++c) {
        utilization_[c] = metrics.tm_seconds > 0.0
                              ? std::min(1.0, busy_seconds_[c] / metrics.tm_seconds)
                              : 0.0;
    }
    std::uint64_t total_bits = 0;
    for (std::size_t c = 0; c < cores_; ++c) total_bits += register_bits_[c];
    metrics.register_bits = total_bits;

    double gamma = 0.0;
    const bool full_duration = ctx_.estimator.policy() == ExposurePolicy::full_duration;
    for (std::size_t c = 0; c < cores_; ++c) {
        if (register_bits_[c] == 0) continue; // no live state on this core
        const double exposure = full_duration ? metrics.tm_seconds : busy_seconds_[c];
        gamma += static_cast<double>(register_bits_[c]) * exposure * ser_rate_[c];
    }
    metrics.gamma = gamma;
    metrics.power_mw =
        ctx_.arch.power_model().mpsoc_power_mw_precomputed(active_power_mw_, utilization_);
    metrics.feasible = metrics.tm_seconds <= ctx_.deadline_seconds * (1.0 + 1e-9);
    return metrics;
}

DesignMetrics EvalContext::evaluate(const Mapping& mapping) {
    if (options_.naive_reference) return evaluate_design(ctx_, mapping);
    ++stats_.full_evals;
    return evaluate_full(mapping, false);
}

DesignMetrics EvalContext::rebase(const Mapping& base) {
    base_ = base;
    if (options_.naive_reference) {
        base_metrics_ = evaluate_design(ctx_, base_);
        has_base_ = true;
        return base_metrics_;
    }
    ++stats_.full_evals;
    base_metrics_ = evaluate_full(base_, true);
    has_base_ = true;
    return base_metrics_;
}

DesignMetrics EvalContext::evaluate_move(TaskId task, CoreId to) {
    if (!has_base_) throw std::logic_error("EvalContext::evaluate_move: call rebase() first");
    if (task >= n_) throw std::invalid_argument("EvalContext::evaluate_move: bad task id");
    if (to >= cores_) throw std::invalid_argument("EvalContext::evaluate_move: bad core id");
    if (to == base_.raw()[task]) return base_metrics_;
    if (options_.naive_reference) {
        mapping_scratch_ = base_;
        mapping_scratch_.assign(task, to);
        return evaluate_design(ctx_, mapping_scratch_);
    }
    return evaluate_override(Override{task, to, task, to}, plan_.suffix_start_[task]);
}

DesignMetrics EvalContext::evaluate_swap(TaskId a, TaskId b) {
    if (!has_base_) throw std::logic_error("EvalContext::evaluate_swap: call rebase() first");
    if (a >= n_ || b >= n_)
        throw std::invalid_argument("EvalContext::evaluate_swap: bad task id");
    const CoreId core_a = base_.raw()[a];
    const CoreId core_b = base_.raw()[b];
    if (a == b || core_a == core_b) return base_metrics_;
    if (options_.naive_reference) {
        mapping_scratch_ = base_;
        mapping_scratch_.assign(a, core_b);
        mapping_scratch_.assign(b, core_a);
        return evaluate_design(ctx_, mapping_scratch_);
    }
    return evaluate_override(Override{a, core_b, b, core_a},
                             std::min(plan_.suffix_start_[a], plan_.suffix_start_[b]));
}

DesignMetrics EvalContext::evaluate_neighbor(const NeighborOp& op) {
    switch (op.kind) {
    case NeighborOp::Kind::none:
        if (!has_base_)
            throw std::logic_error("EvalContext::evaluate_neighbor: call rebase() first");
        return base_metrics_;
    case NeighborOp::Kind::move:
        return evaluate_move(op.a, op.to);
    case NeighborOp::Kind::swap:
        return evaluate_swap(op.a, op.b);
    }
    throw std::logic_error("EvalContext::evaluate_neighbor: bad op kind");
}

DesignMetrics EvalContext::evaluate_override(const Override& ov, std::size_t suffix_pos) {
    ++stats_.incremental_evals;
    const CoreId* base_raw = base_.raw().data();
    const TaskId* order = plan_.order_.data();
    const std::size_t* out_offsets = plan_.out_offsets_.data();
    const EvalPlan::OutEdge* out_edges = plan_.out_edges_.data();
    const std::size_t* in_offsets = plan_.in_offsets_.data();
    const EvalPlan::InEdge* in_edges = plan_.in_edges_.data();

    // Restore the timeline state as of `suffix_pos` (every placement
    // before it is provably identical under the override) and replay
    // only the suffix with the candidate core lookup.
    std::copy_n(base_core_free_at_.begin() +
                    static_cast<std::ptrdiff_t>(suffix_pos * cores_),
                cores_, core_free_.begin());
    for (std::size_t q = suffix_pos; q < n_; ++q) {
        const TaskId w = order[q];
        double ready = 0.0;
        for (std::size_t k = in_offsets[w]; k < in_offsets[w + 1]; ++k) {
            if (in_edges[k].src_pos < suffix_pos)
                ready = std::max(ready, base_arrival_[in_edges[k].edge]);
        }
        data_ready_[w] = ready;
    }
    for (std::size_t q = suffix_pos; q < n_; ++q) {
        const TaskId w = order[q];
        const CoreId core = ov.core_of(base_raw, w);
        const double start = std::max(core_free_[core], data_ready_[w]);
        const double finish = start + exec_seconds_row_[core][w];
        finish_[w] = finish;
        double cursor = finish;
        const double* comm_seconds = comm_seconds_row_[core];
        for (std::size_t k = out_offsets[w]; k < out_offsets[w + 1]; ++k) {
            const TaskId dst = out_edges[k].dst;
            const bool cross = ov.core_of(base_raw, dst) != core;
            double arrival = finish;
            if (cross) {
                cursor += comm_seconds[k];
                arrival = cursor;
            }
            data_ready_[dst] = std::max(data_ready_[dst], arrival);
        }
        core_free_[core] = cursor;
    }
    double latency = 0.0;
    for (std::size_t q = 0; q < suffix_pos; ++q)
        latency = std::max(latency, base_finish_[order[q]]);
    for (std::size_t q = suffix_pos; q < n_; ++q)
        latency = std::max(latency, finish_[order[q]]);

    // Busy cycles: integer delta over the touched tasks and their
    // incident edges (exactly equal to a full eq. 7 recompute).
    std::fill(busy_delta_.begin(), busy_delta_.end(), std::int64_t{0});
    const bool two_tasks = ov.b != ov.a;
    auto apply_exec_delta = [&](TaskId t, CoreId cand_core) {
        const auto exec = static_cast<std::int64_t>(plan_.exec_cycles_[t]);
        busy_delta_[base_raw[t]] -= exec;
        busy_delta_[cand_core] += exec;
    };
    apply_exec_delta(ov.a, ov.core_a);
    if (two_tasks) apply_exec_delta(ov.b, ov.core_b);
    auto apply_edge_delta = [&](TaskId src, TaskId dst, std::uint64_t comm_cycles) {
        const auto comm = static_cast<std::int64_t>(comm_cycles);
        if (base_raw[src] != base_raw[dst]) busy_delta_[base_raw[src]] -= comm;
        const CoreId cand_src = ov.core_of(base_raw, src);
        if (cand_src != ov.core_of(base_raw, dst)) busy_delta_[cand_src] += comm;
    };
    // `skip` excludes the edges to or from one task: for b, those
    // between a and b, already handled through a.
    auto apply_incident_deltas = [&](TaskId t, TaskId skip) {
        for (std::size_t k = out_offsets[t]; k < out_offsets[t + 1]; ++k)
            if (out_edges[k].dst != skip)
                apply_edge_delta(t, out_edges[k].dst, out_edges[k].comm_cycles);
        for (std::size_t k = in_offsets[t]; k < in_offsets[t + 1]; ++k) {
            const TaskId src = order[in_edges[k].src_pos];
            if (src != skip) apply_edge_delta(src, t, in_edges[k].comm_cycles);
        }
    };
    apply_incident_deltas(ov.a, static_cast<TaskId>(n_)); // no task has id n_
    if (two_tasks) apply_incident_deltas(ov.b, ov.a);
    for (std::size_t c = 0; c < cores_; ++c)
        busy_[c] = static_cast<std::uint64_t>(static_cast<std::int64_t>(base_busy_[c]) +
                                              busy_delta_[c]);

    // Register unions: only the cores whose task sets changed. Unions
    // are set algebra, so recomputing the two touched cores from their
    // base task lists gives exactly the full eq. 8 result. Same SoA
    // word-row OR as the full pass, over the CSR task slice.
    std::copy(base_bits_.begin(), base_bits_.end(), register_bits_.begin());
    const std::size_t words = plan_.words_;
    std::uint64_t* scratch = scratch_words_.data();
    auto or_task_row = [&](TaskId t) {
        const std::uint64_t* src = plan_.task_reg_words_.data() + t * words;
        for (std::size_t w = 0; w < words; ++w) scratch[w] |= src[w];
    };
    auto recompute_core_bits = [&](CoreId c) {
        std::fill(scratch_words_.begin(), scratch_words_.end(), std::uint64_t{0});
        for (std::size_t i = core_task_offsets_[c]; i < core_task_offsets_[c + 1]; ++i) {
            const TaskId t = core_task_ids_[i];
            if (ov.core_of(base_raw, t) == c) or_task_row(t);
        }
        if (ov.core_a == c && base_raw[ov.a] != c) or_task_row(ov.a);
        if (two_tasks && ov.core_b == c && base_raw[ov.b] != c) or_task_row(ov.b);
        register_bits_[c] = weighted_bits(scratch_words_.data());
    };
    recompute_core_bits(base_raw[ov.a]);
    recompute_core_bits(ov.core_a);
    if (two_tasks) {
        if (base_raw[ov.b] != base_raw[ov.a] && base_raw[ov.b] != ov.core_a)
            recompute_core_bits(base_raw[ov.b]);
        if (ov.core_b != base_raw[ov.a] && ov.core_b != ov.core_a)
            recompute_core_bits(ov.core_b);
    }

    return finish_metrics(latency);
}

} // namespace seamap
