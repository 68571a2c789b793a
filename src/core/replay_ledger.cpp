#include "core/replay_ledger.h"

#include "util/error.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace seamap {

namespace {

/// Prefix the disposal front must cover when slot `pos` is popped.
std::size_t disposal_prefix(std::size_t pos) {
    return pos > k_disposal_window ? pos - k_disposal_window : 0;
}

/// Every powered-core case strictly dominated by some incumbent
/// (different cases may fall to different incumbents).
bool front_prunes(const DominanceFront& front, const std::vector<ScalingBounds>& cases) {
    if (cases.empty()) return false;
    return std::all_of(cases.begin(), cases.end(),
                       [&](const ScalingBounds& bounds) { return front.dominates(bounds); });
}

/// A feasible design powers some case, so it lies on or above that
/// case's bound pair in both coordinates.
bool covered_by_some_case(const DesignMetrics& metrics,
                          const std::vector<ScalingBounds>& cases) {
    return std::any_of(cases.begin(), cases.end(), [&](const ScalingBounds& bounds) {
        return metrics.power_mw >= bounds.power_mw_lb && metrics.gamma >= bounds.gamma_lb;
    });
}

/// The bound audit: every searched feasible design of a slot with cases
/// must respect one of them. Runs on every slot, so an unsound bound is
/// caught deterministically rather than only when a racing worker
/// happens to prune.
void audit_bounds(std::uint64_t rank, const DseSlotRecord& verdict,
                  const std::vector<ScalingBounds>& cases) {
    if (cases.empty() || verdict.kind != DseSlotRecord::Kind::feasible) return;
    if (covered_by_some_case(verdict.point.metrics, cases) &&
        (!verdict.has_min_power || covered_by_some_case(verdict.min_power_point.metrics, cases)))
        return;
    throw std::logic_error("DesignSpaceExplorer: the design found for scaling combination " +
                           std::to_string(rank) +
                           " lies below every case bound — scaling bounds are unsound");
}

} // namespace

ReplayLedger::ReplayLedger(DseCheckpointer* checkpoint) : checkpoint_(checkpoint) {
    if (checkpoint != nullptr && checkpoint->resume_state() != nullptr)
        restored_ = &checkpoint->resume_state()->records;
}

bool ReplayLedger::ready_to_admit() const {
    return replayed_ >= disposal_prefix(window_begin_ + window_.size());
}

ReplayLedger::Admission ReplayLedger::admit(std::uint64_t rank, const ScalingVector& levels,
                                            std::vector<ScalingBounds> cases) {
    Admission admission;
    admission.pos = window_begin_ + window_.size();
    if (restored_ != nullptr && admission.pos < restored_->size()) {
        admission.restored = &(*restored_)[admission.pos];
        if (admission.restored->combo != rank)
            throw Error(ErrorCategory::checkpoint_mismatch,
                        "checkpoint slot order diverges at decided slot " +
                            std::to_string(admission.pos) + " (stored combination " +
                            std::to_string(admission.restored->combo) + ", produced " +
                            std::to_string(rank) + ")",
                        checkpoint_->path());
    }
    advance_disposal_to(disposal_prefix(admission.pos));
    admission.disposed = front_prunes(disposal_front_, cases);
    if (!admission.disposed) ++emitted_;

    Slot& slot = window_.emplace_back();
    slot.rank = rank;
    if (admission.restored != nullptr) {
        DseSlotRecord& verdict = slot.verdict.emplace(*admission.restored);
        verdict.point.levels = levels;
        if (verdict.has_min_power) verdict.min_power_point.levels = levels;
    } else {
        slot.cases = std::move(cases);
        // The replay front is a superset of the lagged front that
        // disposed of the slot, so the replay prunes it too (dominance
        // is monotone).
        if (admission.disposed) slot.verdict.emplace().combo = rank;
    }
    // Restored and disposed slots are decided once their turn comes
    // (restored ones form a prefix, so at once).
    slot.completed = admission.restored != nullptr || admission.disposed;
    advance_replay();
    return admission;
}

bool ReplayLedger::dominated(std::size_t pos) const {
    return front_prunes(replay_front_, window_[pos - window_begin_].cases);
}

void ReplayLedger::complete(std::size_t pos, std::optional<DseSlotRecord> verdict) {
    Slot& done = slot(pos);
    done.completed = true;
    done.verdict = std::move(verdict);
    advance_replay();
}

void ReplayLedger::advance_replay() {
    while (replayed_ < window_begin_ + window_.size() && slot(replayed_).completed) {
        decide(slot(replayed_));
        ++replayed_;
    }
}

// A slot the replay front dominates is pruned whatever its workers did;
// a stop-cut slot stays not_run and ends the recordable prefix, but
// later slots are still decided against the front without it. Restored
// slots replay the snapshot's decision, which the checkpointer already
// holds.
void ReplayLedger::decide(Slot& slot) {
    const bool restored = restored_ != nullptr && replayed_ < restored_->size();
    std::optional<DseSlotRecord>& verdict = slot.verdict;
    if (front_prunes(replay_front_, slot.cases)) {
        verdict.emplace().combo = slot.rank;
    } else if (!verdict) {
        recording_ = false;
    } else if (verdict->kind == DseSlotRecord::Kind::pruned && !restored) {
        throw std::logic_error("DesignSpaceExplorer: worker pruned a slot the deterministic "
                               "replay keeps — scaling bounds are unsound");
    } else if (!restored) {
        audit_bounds(slot.rank, *verdict, slot.cases);
    }
    slot.cases = {};
    if (!verdict) return;
    if (checkpoint_ != nullptr && recording_ && !restored) checkpoint_->record(*verdict);
    if (verdict->kind == DseSlotRecord::Kind::feasible) {
        replay_front_.insert(verdict->point.metrics.power_mw, verdict->point.metrics.gamma);
    } else {
        ++(verdict->kind == DseSlotRecord::Kind::pruned ? pruned_ : no_design_);
        verdict.reset();
    }
}

// Advance the disposal front to exactly `prefix` decided slots, never
// further, so disposal decisions are timing-independent. Slots it
// passes are fully accounted: their feasible verdicts move to the
// rank-keyed map and the slots are dropped.
void ReplayLedger::advance_disposal_to(std::size_t prefix) {
    while (window_begin_ < prefix) {
        Slot& passed = window_.front();
        if (passed.verdict) {
            const DesignMetrics& metrics = passed.verdict->point.metrics;
            disposal_front_.insert(metrics.power_mw, metrics.gamma);
            feasible_.emplace(passed.rank, std::move(*passed.verdict));
        }
        window_.pop_front();
        ++window_begin_;
    }
}

DseResult ReplayLedger::fold(std::uint64_t scalings_total, std::uint64_t skipped_infeasible,
                             bool stopped) {
    const std::size_t admitted = window_begin_ + window_.size();
    if (restored_ != nullptr && admitted < restored_->size() && !stopped)
        throw Error(ErrorCategory::checkpoint_mismatch,
                    "checkpoint holds " + std::to_string(restored_->size()) +
                        " decided slots but this exploration produced only " +
                        std::to_string(admitted),
                    checkpoint_->path());
    advance_disposal_to(admitted); // moves the last feasible verdicts

    // The counters are order-independent sums and the rank-keyed map
    // iterates in ascending enumeration rank, so the point order is the
    // same at any thread count.
    DseResult result;
    result.scalings_total = scalings_total;
    result.scalings_emitted = emitted_;
    result.scalings_skipped_infeasible = skipped_infeasible;
    result.scalings_pruned = pruned_;
    result.scalings_searched = no_design_ + static_cast<std::uint64_t>(feasible_.size());
    result.scalings_enumerated = skipped_infeasible + pruned_ + result.scalings_searched;
    for (auto& [rank, verdict] : feasible_) {
        (void)rank;
        result.feasible_points.push_back(std::move(verdict.point));
        if (verdict.has_min_power)
            result.min_power_points.push_back(std::move(verdict.min_power_point));
    }
    return result;
}

} // namespace seamap
