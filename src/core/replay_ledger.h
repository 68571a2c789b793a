// The explorer's single-threaded decision ledger (core/dse.cpp). Every
// gate-passing pop of the lazy queue is admitted here in pop order, and
// only the ledger decides a slot pruned, no_design or feasible — the
// sequential replay the determinism contract rests on. It owns the
// replay front, the lagged disposal front, the restored checkpoint
// prefix, the records sent to DseCheckpointer::record, and the final
// fold into a DseResult.
//
// No locks inside: the explorer serializes every call behind its one
// mutex, and workers never read ledger state except through
// dominated() — they search and hand over a finished slot's verdict.
// Each decision is thus a pure function of the admitted slots and their
// verdicts, unit-testable without threads.
#pragma once

#include "arch/scaling_enumerator.h"
#include "core/dse.h"
#include "core/dse_checkpoint.h"
#include "core/lazy_scaling_queue.h"
#include "core/scaling_bounds.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

namespace seamap {

/// How far the lazy producer may run ahead of the replayed prefix, in
/// pop-order slots. The pop-time disposal decision for slot p consults
/// the replay front of exactly the first p - k_disposal_window slots —
/// a prefix that is fully decided by the time the producer needs it —
/// so which slots get searches submitted (scalings_emitted) is a pure
/// function of the problem at every thread count, while still keeping
/// up to a window of searches in flight. Thread-count *independent* on
/// purpose: scaling it with num_threads would make emission counts
/// differ between runs. 64 comfortably feeds any sane worker count and
/// keeps at most a window of per-slot case-bound lists alive at once.
inline constexpr std::size_t k_disposal_window = 64;

class ReplayLedger {
public:
    /// `checkpoint`, when non-null, supplies the restored prefix (its
    /// loaded resume_state(), if any) and receives every newly decided
    /// slot of the replay-stable prefix.
    explicit ReplayLedger(DseCheckpointer* checkpoint = nullptr);

    struct Admission {
        std::size_t pos = 0; ///< pop position, the slot's handle
        /// Non-null: decided by this checkpoint record, nothing runs.
        const DseSlotRecord* restored = nullptr;
        /// Provably dominated at pop time: counted pruned, never searched.
        bool disposed = false;
    };

    /// True once the replay covers the disposal window of the next pop;
    /// the producer waits for this before admit().
    bool ready_to_admit() const;

    /// Admit the next gate-passing pop. `cases` holds one bound pair per
    /// admissible powered-core case; the slot is prunable only when
    /// every case is strictly dominated, so an empty list (pruning off,
    /// or the capacity pre-filter could not place the work) never
    /// prunes. Throws Error(checkpoint_mismatch) when the restored
    /// prefix names a different combination at this position.
    Admission admit(std::uint64_t rank, const ScalingVector& levels,
                    std::vector<ScalingBounds> cases);

    /// Worker-side speculative prune check against the current replay
    /// front: only ever a subset of what the replay will prune.
    bool dominated(std::size_t pos) const;

    /// The last start of slot `pos` finished. `verdict` is its folded
    /// outcome (kind pruned when a worker skipped it as dominated), or
    /// nullopt when a stop cut a start short. Decides every slot this
    /// unblocks, in pop order. Throws std::logic_error when a worker
    /// pruned a slot the replay keeps: the scaling bounds are unsound.
    void complete(std::size_t pos, std::optional<DseSlotRecord> verdict);

    /// The final fold, once every admitted slot completed: counters plus
    /// feasible and min-power points in enumeration order. Throws
    /// Error(checkpoint_mismatch) when a run that was not stopped left
    /// restored records unconsumed.
    DseResult fold(std::uint64_t scalings_total, std::uint64_t skipped_infeasible,
                   bool stopped);

private:
    struct Slot {
        std::uint64_t rank = 0;
        std::vector<ScalingBounds> cases; ///< freed once decided
        bool completed = false;
        /// nullopt = stop cut. Once decided, kept only when feasible,
        /// until the disposal front passes the slot.
        std::optional<DseSlotRecord> verdict;
    };

    Slot& slot(std::size_t pos) { return window_[pos - window_begin_]; }
    void advance_replay();
    void decide(Slot& slot);
    void advance_disposal_to(std::size_t prefix);

    DseCheckpointer* checkpoint_;
    const std::vector<DseSlotRecord>* restored_ = nullptr;
    /// Slots from the disposal front's position on; earlier ones are
    /// fully accounted and dropped.
    std::deque<Slot> window_;
    std::size_t window_begin_ = 0;
    std::size_t replayed_ = 0; ///< decided prefix length
    DominanceFront replay_front_;
    DominanceFront disposal_front_;
    /// False from the first stop-cut slot on: nothing after it is
    /// replay-stable in a snapshot.
    bool recording_ = true;
    /// Feasible verdicts only, keyed by enumeration rank for the fold:
    /// sparse, so resident memory tracks the decided designs, never the
    /// full combination space (C(69,5) and up at giant instances).
    std::map<std::uint64_t, DseSlotRecord> feasible_;
    std::uint64_t emitted_ = 0;
    std::uint64_t pruned_ = 0;
    std::uint64_t no_design_ = 0;
};

} // namespace seamap
