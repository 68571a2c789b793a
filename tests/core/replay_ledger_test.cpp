// ReplayLedger in isolation: slots are admitted and completed by hand,
// in whatever order a scenario needs, with no threads and no search —
// the ledger's decisions must follow pop order and its window rule
// regardless. Covers the branches the end-to-end suites cannot reach
// on purpose: unsound bounds, diverging or over-long checkpoints, and
// the exact lag of the disposal front.
#include "core/replay_ledger.h"

#include "util/checkpoint.h"
#include "util/error.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace seamap {
namespace {

constexpr std::size_t k_tasks = 3;
constexpr std::size_t k_cores = 2;

ScalingVector levels_of(std::uint64_t rank) {
    return {static_cast<ScalingLevel>(rank % 3), 1};
}

DseSlotRecord pruned(std::uint64_t rank) {
    DseSlotRecord record;
    record.combo = rank;
    return record;
}

DseSlotRecord no_design(std::uint64_t rank) {
    DseSlotRecord record = pruned(rank);
    record.kind = DseSlotRecord::Kind::no_design;
    return record;
}

DseSlotRecord feasible(std::uint64_t rank, double power, double gamma) {
    DseSlotRecord record = pruned(rank);
    record.kind = DseSlotRecord::Kind::feasible;
    record.point.levels = levels_of(rank);
    record.point.mapping = Mapping(k_tasks, k_cores);
    for (TaskId task = 0; task < k_tasks; ++task)
        record.point.mapping.assign(task, static_cast<CoreId>(task % k_cores));
    record.point.metrics.power_mw = power;
    record.point.metrics.gamma = gamma;
    record.point.metrics.feasible = true;
    return record;
}

/// A snapshot at `path` holding `records`, loaded into a checkpointer
/// the way a resumed exploration receives it.
class RestoredCheckpoint {
public:
    RestoredCheckpoint(const std::string& tag, const std::vector<DseSlotRecord>& records)
        : path_(testing::TempDir() + "/replay_ledger_" + tag + ".ckpt") {
        remove_checkpoint(path_);
        DseCheckpointer writer(path_, 42);
        for (const DseSlotRecord& record : records) writer.record(record);
        writer.flush();
        EXPECT_TRUE(checkpointer_.load(k_tasks, k_cores).has_value());
    }
    ~RestoredCheckpoint() { remove_checkpoint(path_); }

    DseCheckpointer* get() { return &checkpointer_; }

private:
    std::string path_;
    DseCheckpointer checkpointer_{path_, 42};
};

TEST(ReplayLedger, WorkerPrunedSlotTheReplayKeepsMeansUnsoundBounds) {
    ReplayLedger ledger;
    const ReplayLedger::Admission admission = ledger.admit(0, levels_of(0), {{1.0, 1.0}});
    EXPECT_FALSE(admission.disposed);
    EXPECT_FALSE(ledger.dominated(admission.pos)); // empty replay front
    try {
        ledger.complete(admission.pos, pruned(0));
        FAIL() << "expected the unsound-bounds logic_error";
    } catch (const std::logic_error& error) {
        EXPECT_NE(std::string(error.what()).find("scaling bounds are unsound"),
                  std::string::npos);
    }
}

// The bound audit runs on every searched slot, not only when a worker
// happens to prune: a feasible design must lie on or above some case's
// bound pair in both coordinates.
TEST(ReplayLedger, SearchedDesignBelowEveryCaseBoundMeansUnsoundBounds) {
    const std::vector<ScalingBounds> cases = {{2.0, 5.0}, {3.0, 1.0}};
    // True when deciding a slot with `cases` and `verdict` passes the audit.
    auto audited = [&](const DseSlotRecord& verdict) {
        ReplayLedger ledger;
        const ReplayLedger::Admission admission = ledger.admit(4, levels_of(4), cases);
        try {
            ledger.complete(admission.pos, verdict);
        } catch (const std::logic_error& error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("combination 4"), std::string::npos) << what;
            EXPECT_NE(what.find("scaling bounds are unsound"), std::string::npos) << what;
            return false;
        }
        return true;
    };
    EXPECT_TRUE(audited(feasible(4, 2.0, 5.0)));  // on the first case's pair
    EXPECT_TRUE(audited(feasible(4, 3.5, 1.0)));  // above the second case only
    EXPECT_FALSE(audited(feasible(4, 1.0, 0.5))); // below both
    // Above each case in one coordinate, but neither in both.
    EXPECT_FALSE(audited(feasible(4, 2.5, 2.0)));

    // The min-power design is audited too.
    DseSlotRecord tracked = feasible(4, 3.0, 6.0);
    tracked.has_min_power = true;
    tracked.min_power_point = feasible(4, 2.0, 5.0).point;
    EXPECT_TRUE(audited(tracked));
    tracked.min_power_point = feasible(4, 1.5, 6.0).point;
    EXPECT_FALSE(audited(tracked));

    // No cases (pruning off) and no_design verdicts have nothing to audit.
    ReplayLedger unbounded;
    const ReplayLedger::Admission admission = unbounded.admit(4, levels_of(4), {});
    EXPECT_NO_THROW(unbounded.complete(admission.pos, feasible(4, 0.0, 0.0)));
    EXPECT_TRUE(audited(no_design(4)));
}

TEST(ReplayLedger, RestoredRecordForAnotherCombinationIsAMismatch) {
    RestoredCheckpoint snapshot("diverge", {pruned(5)});
    ReplayLedger ledger(snapshot.get());
    try {
        (void)ledger.admit(7, levels_of(7), {});
        FAIL() << "expected checkpoint_mismatch";
    } catch (const Error& error) {
        EXPECT_EQ(error.category(), ErrorCategory::checkpoint_mismatch);
        EXPECT_NE(error.message().find("slot order diverges"), std::string::npos);
    }
}

TEST(ReplayLedger, SnapshotLongerThanTheRunIsAMismatchUnlessStopped) {
    RestoredCheckpoint snapshot("long", {pruned(3), no_design(4)});
    ReplayLedger ledger(snapshot.get());
    EXPECT_NE(ledger.admit(3, levels_of(3), {}).restored, nullptr);
    try {
        (void)ledger.fold(10, 0, /*stopped=*/false);
        FAIL() << "expected checkpoint_mismatch";
    } catch (const Error& error) {
        EXPECT_EQ(error.category(), ErrorCategory::checkpoint_mismatch);
        EXPECT_NE(error.message().find("holds 2 decided slots"), std::string::npos);
    }

    // A stopped run simply has not reached the rest of the prefix yet.
    ReplayLedger stopped(snapshot.get());
    (void)stopped.admit(3, levels_of(3), {});
    EXPECT_EQ(stopped.fold(10, 0, /*stopped=*/true).scalings_pruned, 1u);
}

TEST(ReplayLedger, RestoredPrefixIsDecidedAtAdmissionWithItsLevels) {
    RestoredCheckpoint snapshot("restore", {feasible(2, 1.0, 1.0), pruned(6)});
    ReplayLedger ledger(snapshot.get());
    const ReplayLedger::Admission first = ledger.admit(2, levels_of(2), {});
    ASSERT_NE(first.restored, nullptr);
    EXPECT_EQ(first.restored->kind, DseSlotRecord::Kind::feasible);
    EXPECT_NE(ledger.admit(6, levels_of(6), {}).restored, nullptr);
    // Past the prefix: a live slot the restored design dominates.
    const ReplayLedger::Admission live = ledger.admit(8, levels_of(8), {{2.0, 2.0}});
    EXPECT_EQ(live.restored, nullptr);
    EXPECT_TRUE(ledger.dominated(live.pos));
    ledger.complete(live.pos, pruned(8));

    const DseResult result = ledger.fold(10, 1, false);
    EXPECT_EQ(result.scalings_pruned, 2u);
    EXPECT_EQ(result.scalings_searched, 1u);
    EXPECT_EQ(result.scalings_enumerated, 4u);
    ASSERT_EQ(result.feasible_points.size(), 1u);
    EXPECT_EQ(result.feasible_points[0].levels, levels_of(2));
    EXPECT_EQ(result.feasible_points[0].mapping, feasible(2, 1.0, 1.0).point.mapping);
    // Only the live decision is new to the checkpointer.
    EXPECT_EQ(snapshot.get()->recorded(), 3u);
}

TEST(ReplayLedger, StopCutSlotEndsTheRecordedPrefixButLaterSlotsAreDecided) {
    const std::string path = testing::TempDir() + "/replay_ledger_cut.ckpt";
    DseCheckpointer checkpointer(path, 42);
    ReplayLedger ledger(&checkpointer);
    for (std::uint64_t rank = 0; rank < 3; ++rank)
        (void)ledger.admit(rank, levels_of(rank), {});
    (void)ledger.admit(3, levels_of(3), {{2.0, 2.0}});
    // Completion order is not pop order: nothing is decided until the
    // prefix before a slot is.
    ledger.complete(2, no_design(2));
    ledger.complete(3, no_design(3)); // searched in full, yet dominated
    EXPECT_EQ(checkpointer.recorded(), 0u);
    ledger.complete(0, feasible(0, 1.0, 1.0));
    EXPECT_EQ(checkpointer.recorded(), 1u);
    ledger.complete(1, std::nullopt); // a stop cut slot 1's search
    EXPECT_EQ(checkpointer.recorded(), 1u);

    const DseResult result = ledger.fold(4, 0, true);
    EXPECT_EQ(result.scalings_emitted, 4u);
    EXPECT_EQ(result.scalings_pruned, 1u);   // slot 3, by the replay front
    EXPECT_EQ(result.scalings_searched, 2u); // slots 0 and 2; slot 1 not_run
    EXPECT_EQ(result.scalings_enumerated, 3u);
    ASSERT_EQ(result.feasible_points.size(), 1u);
    EXPECT_EQ(result.feasible_points[0].levels, levels_of(0));
}

/// Feeds slots 0..pos-1 — slot 0 feasible at (1, 1), slot 1 feasible at
/// (0.5, 0.5), the rest unboundable no_design — and reports whether a
/// slot with bounds `probe` is disposed of at pop `pos`.
bool disposed_at(std::size_t pos, ScalingBounds probe) {
    ReplayLedger ledger;
    for (std::uint64_t p = 0; p < pos; ++p) {
        EXPECT_TRUE(ledger.ready_to_admit());
        const ReplayLedger::Admission admission = ledger.admit(p, levels_of(p), {});
        EXPECT_FALSE(admission.disposed);
        ledger.complete(admission.pos, p == 0   ? feasible(p, 1.0, 1.0)
                                       : p == 1 ? feasible(p, 0.5, 0.5)
                                                : no_design(p));
    }
    return ledger.admit(pos, levels_of(pos), {probe}).disposed;
}

TEST(ReplayLedger, DisposalFrontIsTheReplayFrontOfAllButTheLastWindow) {
    const ScalingBounds beaten_by_slot0{2.0, 2.0};
    const ScalingBounds beaten_by_slot1_only{0.75, 0.75};
    EXPECT_FALSE(disposed_at(k_disposal_window, beaten_by_slot0));
    EXPECT_TRUE(disposed_at(k_disposal_window + 1, beaten_by_slot0));
    EXPECT_FALSE(disposed_at(k_disposal_window + 1, beaten_by_slot1_only));
    EXPECT_TRUE(disposed_at(k_disposal_window + 2, beaten_by_slot1_only));
}

TEST(ReplayLedger, ProducerWaitsForTheReplayToCoverTheWindow) {
    ReplayLedger ledger;
    for (std::uint64_t p = 0; p <= k_disposal_window; ++p) {
        EXPECT_TRUE(ledger.ready_to_admit()) << p;
        (void)ledger.admit(p, levels_of(p), {});
    }
    EXPECT_FALSE(ledger.ready_to_admit()); // pop 65 needs slot 0 decided
    ledger.complete(1, no_design(1));
    EXPECT_FALSE(ledger.ready_to_admit());
    ledger.complete(0, no_design(0));
    EXPECT_TRUE(ledger.ready_to_admit());
}

} // namespace
} // namespace seamap
