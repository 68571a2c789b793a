#include "core/scaling_bounds.h"

#include "sched/list_scheduler.h"
#include "util/float_compare.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>

namespace seamap {

namespace {

/// Safety margins mirroring the evaluators' own tolerances: a design
/// counts as feasible up to deadline * (1 + 1e-9)
/// (Schedule::meets_deadline) and per-core utilization may reach
/// 1 + 1e-9 (PowerModel), so capacity and utilization denominators use
/// the widened deadline. The final shave absorbs summation-order ulps.
constexpr double k_deadline_slack = 1.0 + 1e-9;
constexpr double k_bound_shave = 1.0 - 1e-9;

/// Pointwise-minimum fold over cases: zero bounds until the first one.
class CornerFold {
public:
    void add(const ScalingBounds& bounds) {
        if (!any_) {
            corner_ = bounds;
            any_ = true;
            return;
        }
        corner_.power_mw_lb = std::min(corner_.power_mw_lb, bounds.power_mw_lb);
        corner_.gamma_lb = std::min(corner_.gamma_lb, bounds.gamma_lb);
    }
    const ScalingBounds& corner() const { return corner_; }

private:
    ScalingBounds corner_;
    bool any_ = false;
};

} // namespace

void insert_into_staircase(std::vector<ScalingBounds>& staircase, const ScalingBounds& point) {
    // First staircase point with power >= the new one.
    auto at = std::lower_bound(staircase.begin(), staircase.end(), point.power_mw_lb,
                               [](const ScalingBounds& p, double power) {
                                   return p.power_mw_lb < power;
                               });
    if (at != staircase.begin() && std::prev(at)->gamma_lb <= point.gamma_lb)
        return; // weakly dominated by a cheaper point
    if (at != staircase.end() && exactly_equal(at->power_mw_lb, point.power_mw_lb) &&
        at->gamma_lb <= point.gamma_lb)
        return; // weakly dominated at equal power
    auto last = at;
    while (last != staircase.end() && last->gamma_lb >= point.gamma_lb) ++last;
    at = staircase.erase(at, last);
    staircase.insert(at, point);
}

ScalingBoundsModel::ScalingBoundsModel(const TaskGraph& graph, const MpsocArchitecture& arch,
                                       double deadline_seconds, const SerModel& ser,
                                       ExposurePolicy policy)
    : arch_(arch), deadline_seconds_(deadline_seconds), policy_(policy), tm_bound_(graph) {
    std::vector<TaskId> all_tasks(graph.task_count());
    std::iota(all_tasks.begin(), all_tasks.end(), TaskId{0});
    union_bits_all_ = graph.union_register_bits(all_tasks);
    min_task_bits_ = std::numeric_limits<std::uint64_t>::max();
    for (TaskId t = 0; t < graph.task_count(); ++t) {
        const std::uint64_t task_bits = graph.task_register_bits(t);
        const double exec = static_cast<double>(graph.task(t).exec_cycles);
        min_task_bits_ = std::min(min_task_bits_, task_bits);
        bits_times_cycles_ += static_cast<double>(task_bits) * exec;
        if (task_bits == 0) cycles_without_registers_ += exec;
    }
    if (graph.task_count() == 0) min_task_bits_ = 0;

    // Per-register coverage: register r can "explain" at most the
    // cycles of the tasks that use it, at a price of its width. The
    // fractional cheapest-price-per-cycle cover of c cycles is then a
    // true lower bound on the union bits of any task set holding c
    // cycles of work (every task is covered by its own registers).
    const RegisterFile& file = graph.register_file();
    struct Cover {
        double bits = 0.0;
        double cycles = 0.0;
    };
    std::vector<Cover> covers(file.size());
    for (std::size_t r = 0; r < covers.size(); ++r)
        covers[r].bits = static_cast<double>(file.bits(static_cast<RegisterId>(r)));
    for (TaskId t = 0; t < graph.task_count(); ++t) {
        const double exec = static_cast<double>(graph.task(t).exec_cycles);
        graph.task(t).registers.for_each([&](RegisterId r) { covers[r].cycles += exec; });
    }
    std::erase_if(covers, [](const Cover& c) { return c.cycles <= 0.0; });
    std::sort(covers.begin(), covers.end(), [](const Cover& a, const Cover& b) {
        return a.bits * b.cycles < b.bits * a.cycles; // bits/cycles ascending
    });
    cover_cycles_prefix_.reserve(covers.size());
    cover_bits_prefix_.reserve(covers.size());
    double cycles_acc = 0.0;
    double bits_acc = 0.0;
    for (const Cover& cover : covers) {
        cycles_acc += cover.cycles;
        bits_acc += cover.bits;
        cover_cycles_prefix_.push_back(cycles_acc);
        cover_bits_prefix_.push_back(bits_acc);
    }

    const VoltageScalingTable& table = arch.scaling_table();
    const PowerModel& power = arch.power_model();
    frequency_hz_.reserve(table.level_count());
    for (std::size_t l = 1; l <= table.level_count(); ++l) {
        const auto level = static_cast<ScalingLevel>(l);
        frequency_hz_.push_back(table.frequency_hz(level));
        active_power_mw_.push_back(power.core_active_power_mw(level));
        energy_per_cycle_mws_.push_back(power.core_energy_per_cycle_mws(level));
        ser_per_bit_second_.push_back(ser.ser_per_bit_second(table.vdd(level)));
    }
    build_case_table(arch.core_count());
}

void ScalingBoundsModel::build_case_table(std::size_t core_count) {
    if (tm_bound_.total_exec_cycles <= 0.0 || deadline_seconds_ <= 0.0) return;
    const std::size_t level_count = frequency_hz_.size();
    // C(C+L, L) as C(C+j, j) for j = 1..L, stopping once past the cap
    // (the running value only grows, and stays far from overflow).
    std::size_t entries = 1;
    for (std::size_t j = 1; j <= level_count && entries <= k_case_table_cap; ++j)
        entries = entries * (core_count + j) / j;
    if (entries > k_case_table_cap) return;

    // case_offset_[k][s] = C(s + k, k + 1): C(s, 1) = s at k = 0, then
    // Pascal's rule C(s + k, k + 1) = C(s + k - 1, k) + C(s + k - 1, k + 1).
    offset_stride_ = core_count + 1;
    case_offset_.assign(level_count * offset_stride_, 0);
    for (std::size_t s = 1; s <= core_count; ++s) case_offset_[s] = s;
    for (std::size_t k = 1; k < level_count; ++k)
        for (std::size_t s = 1; s <= core_count; ++s)
            case_offset_[k * offset_stride_ + s] = case_offset_[(k - 1) * offset_stride_ + s] +
                                                   case_offset_[k * offset_stride_ + s - 1];

    case_table_.resize(entries);
    case_admissible_.assign(entries, false);
    // Odometer over every count vector with sum <= C, level index 0
    // fastest.
    CaseCounts counts(level_count, 0);
    PoweredLevels powered;
    std::size_t sum = 0;
    for (;;) {
        std::size_t index = 0;
        std::size_t prefix = 0;
        for (std::size_t k = 0; k < level_count; ++k) {
            prefix += counts[k];
            index += case_offset_[k * offset_stride_ + prefix];
        }
        case_admissible_[index] = evaluate_case(counts, powered, case_table_[index]);
        std::size_t k = 0;
        while (k < level_count && sum == core_count) {
            sum -= counts[k];
            counts[k++] = 0;
        }
        if (k == level_count) break;
        ++counts[k];
        ++sum;
    }
}

double ScalingBoundsModel::min_union_bits_covering(double cycles) const {
    if (cycles <= 0.0 || cover_cycles_prefix_.empty()) return 0.0;
    if (cycles >= cover_cycles_prefix_.back()) return cover_bits_prefix_.back();
    const auto at = std::lower_bound(cover_cycles_prefix_.begin(),
                                     cover_cycles_prefix_.end(), cycles);
    const std::size_t i = static_cast<std::size_t>(at - cover_cycles_prefix_.begin());
    const double prev_cycles = i == 0 ? 0.0 : cover_cycles_prefix_[i - 1];
    const double prev_bits = i == 0 ? 0.0 : cover_bits_prefix_[i - 1];
    const double step_cycles = cover_cycles_prefix_[i] - prev_cycles;
    const double step_bits = cover_bits_prefix_[i] - prev_bits;
    return prev_bits + step_bits * (cycles - prev_cycles) / step_cycles;
}

ScalingBounds ScalingBoundsModel::case_bounds(const PoweredLevels& powered) const {
    const double deadline = deadline_seconds_ * k_deadline_slack;
    ScalingBounds bounds;

    // Whole-run busy-time capacity of one powered core (see header):
    // deadline * slack for a single batch; the pipelined identity
    // T_M = L + (B-1) * II with per-iteration busy <= II and
    // L >= critical path on the case's fastest core is tighter.
    double fmax = 0.0;
    double rate_sum = 0.0;
    for (const auto& [l, n] : powered) {
        fmax = std::max(fmax, frequency_hz_[l]);
        rate_sum += static_cast<double>(n) * frequency_hz_[l];
    }
    double cap_seconds = deadline * k_deadline_slack;
    const double batches = tm_bound_.batches;
    if (batches > 1.0) {
        const double latency_min = tm_bound_.critical_path_cycles / batches / fmax;
        const double pipelined =
            batches / (batches - 1.0) * (deadline - latency_min) * k_deadline_slack;
        cap_seconds = std::clamp(pipelined, 0.0, cap_seconds);
    }

    // --- power: idle floor of every powered core + fractional ---------
    // knapsack of the work over the case's energy-per-cycle levels.
    std::vector<std::pair<double, double>> fills; // (energy/cycle, capacity)
    double idle_power_mw = 0.0;
    const double idle = arch_.power_model().params().idle_activity;
    for (const auto& [l, n] : powered) {
        idle_power_mw += idle * static_cast<double>(n) * active_power_mw_[l];
        fills.emplace_back(energy_per_cycle_mws_[l],
                           static_cast<double>(n) * frequency_hz_[l] * cap_seconds);
    }
    std::sort(fills.begin(), fills.end());
    double remaining = tm_bound_.total_exec_cycles;
    double busy_energy_mws = 0.0; // min sum_i P_a_i * busy_seconds_i
    for (const auto& [energy_per_cycle, cap] : fills) {
        if (remaining <= 0.0) break;
        const double cycles = std::min(remaining, cap);
        busy_energy_mws += cycles * energy_per_cycle;
        remaining -= cycles;
    }
    bounds.power_mw_lb =
        k_bound_shave * (idle_power_mw + (1.0 - idle) * busy_energy_mws / deadline);

    // --- T_M lower bound over the powered cores only (the gate's own
    // formula, restricted to the case: only powered cores do work) ----
    const double tm_lb = tm_bound_(fmax, rate_sum);

    // --- gamma --------------------------------------------------------
    if (policy_ == ExposurePolicy::full_duration) {
        // Telescoped tier sum over the case's SER rates (see header).
        std::vector<std::pair<double, double>> tiers; // (lambda, capacity)
        for (const auto& [l, n] : powered)
            tiers.emplace_back(ser_per_bit_second_[l],
                               static_cast<double>(n) * frequency_hz_[l] * cap_seconds);
        std::sort(tiers.begin(), tiers.end());
        const double lambda_min = tiers.front().first;
        double rate_lb = static_cast<double>(union_bits_all_) * lambda_min;
        double whole_task_extra = 0.0; // b_min floor at the worst forced tier
        double tier_lambda = lambda_min;
        double prefix_cap = 0.0;
        for (const auto& [lambda, cap] : tiers) {
            if (lambda > tier_lambda) {
                const double overflow = tm_bound_.total_exec_cycles - prefix_cap;
                if (overflow <= 0.0) break;
                const double forced_bits =
                    min_union_bits_covering(overflow - cycles_without_registers_);
                rate_lb += (lambda - tier_lambda) * forced_bits;
                whole_task_extra =
                    static_cast<double>(min_task_bits_) * (lambda - lambda_min);
                tier_lambda = lambda;
            }
            prefix_cap += cap;
        }
        // The fractional cover can undercut a single task's set when
        // the overflow is tiny; the whole-task floor is sound on its
        // own, so take the stronger of the two refinements.
        rate_lb = std::max(rate_lb,
                           static_cast<double>(union_bits_all_) * lambda_min +
                               whole_task_extra);
        bounds.gamma_lb = k_bound_shave * tm_lb * rate_lb;
    } else {
        // busy_only: each task's own bits are exposed for at least its
        // execution time, priced at the case's best SEU-per-cycle rate
        // (lambda / f is how long one cycle is exposed).
        double min_rate_per_cycle = std::numeric_limits<double>::infinity();
        for (const auto& [l, n] : powered)
            min_rate_per_cycle =
                std::min(min_rate_per_cycle, ser_per_bit_second_[l] / frequency_hz_[l]);
        bounds.gamma_lb = k_bound_shave * bits_times_cycles_ * min_rate_per_cycle;
    }
    return bounds;
}

bool ScalingBoundsModel::evaluate_case(const CaseCounts& counts, PoweredLevels& powered,
                                       ScalingBounds& out) const {
    powered.clear();
    double rough_cap = 0.0;
    for (std::size_t l = 0; l < counts.size(); ++l) {
        if (counts[l] == 0) continue;
        powered.emplace_back(l, counts[l]);
        rough_cap += static_cast<double>(counts[l]) * frequency_hz_[l] * deadline_seconds_ *
                     k_deadline_slack * k_deadline_slack * k_deadline_slack;
    }
    // A case without the capacity for the work cannot be powered by
    // any feasible design; the exact per-case capacity is never larger
    // than this rough one, but the fractional knapsack leaving
    // `remaining` work unplaced proves the same thing, so filter on the
    // rough capacity only (cheap and sound both ways: extra cases only
    // make the pruning test stricter).
    if (rough_cap < tm_bound_.total_exec_cycles) return false;
    out = case_bounds(powered);
    return true;
}

template <class Visit>
void ScalingBoundsModel::for_each_case(const ScalingVector& levels, Visit visit) const {
    arch_.validate_scaling(levels);
    if (tm_bound_.total_exec_cycles <= 0.0 || deadline_seconds_ <= 0.0) return;
    const std::size_t level_count = frequency_hz_.size();
    CaseCounts slot(level_count, 0); // n: the combination's cores per level
    for (const ScalingLevel level : levels) ++slot[static_cast<std::size_t>(level) - 1];

    // Odometer over c <= n on the leading levels; the last level runs
    // innermost, where only its own index term moves. c = 0 never has
    // the capacity for positive work, so it is never visited.
    const std::size_t last = level_count - 1;
    const bool tabled = !case_table_.empty();
    CaseCounts counts(level_count, 0);
    PoweredLevels powered;
    ScalingBounds bounds;
    for (;;) {
        std::size_t base = 0;
        std::size_t prefix = 0;
        for (std::size_t k = 0; k < last; ++k) {
            prefix += counts[k];
            if (tabled) base += case_offset_[k * offset_stride_ + prefix];
        }
        for (counts[last] = 0; counts[last] <= slot[last]; ++counts[last]) {
            if (tabled) {
                const std::size_t index =
                    base + case_offset_[last * offset_stride_ + prefix + counts[last]];
                if (case_admissible_[index]) visit(case_table_[index]);
            } else if (evaluate_case(counts, powered, bounds)) {
                visit(bounds);
            }
        }
        std::size_t k = 0;
        while (k < last && counts[k] == slot[k]) counts[k++] = 0;
        if (k == last) break;
        ++counts[k];
    }
}

std::vector<ScalingBounds> ScalingBoundsModel::case_bounds_for(
    const ScalingVector& levels) const {
    std::vector<ScalingBounds> staircase;
    for_each_case(levels, [&](const ScalingBounds& bounds) {
        insert_into_staircase(staircase, bounds);
    });
    return staircase;
}

ScalingBounds ScalingBoundsModel::bounds_for(const ScalingVector& levels) const {
    CornerFold fold;
    for_each_case(levels, [&](const ScalingBounds& bounds) { fold.add(bounds); });
    return fold.corner();
}

ScalingBounds ScalingBoundsModel::corner_of(const std::vector<ScalingBounds>& cases) {
    CornerFold fold;
    for (const ScalingBounds& bounds : cases) fold.add(bounds);
    return fold.corner();
}

} // namespace seamap
