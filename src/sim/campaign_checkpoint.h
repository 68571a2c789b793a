// Crash-safe checkpoint/resume for sharded fault-injection campaigns
// (sim/campaign.h), built on the generic snapshot layer
// (util/checkpoint.h).
//
// Why resume is trivially exact here: trial t always draws from the
// order-invariant stream Rng(seed).fork_at(t), and a CampaignTally
// (sim/campaign.h) holds only exact integers, so tally merges are
// associative AND commutative. The checkpointer is persistence only:
// it keeps a running copy of the snapshot — the tally of every
// completed shard plus the completed-shard bitmap — and stores and
// reloads it. The report is not built here: CampaignEngine::run folds
// the restored tally and the live shards in shard order, reproducing
// the uninterrupted report byte-for-byte at any thread count and any
// completion order.
//
// Snapshots are keyed by campaign_state_hash() — a content hash of the
// design (graph, mapping, architecture, scaling, schedule), the SER
// model and the campaign shape (trials, shard size, seed, policy,
// weights). num_threads is excluded: results never depend on it.
// shard_size IS included — the bitmap is indexed by shard, so a
// snapshot is only resumable at the shard size that wrote it.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "reliability/ser_model.h"
#include "sched/list_scheduler.h"
#include "sched/mapping.h"
#include "sim/campaign.h"
#include "taskgraph/task_graph.h"
#include "util/checkpoint.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace seamap {

/// Content hash of the campaign inputs that determine the byte-exact
/// report (see file comment for what is deliberately excluded).
std::uint64_t campaign_state_hash(const TaskGraph& graph, const Mapping& mapping,
                                  const MpsocArchitecture& arch, const ScalingVector& levels,
                                  const Schedule& schedule, const SerModel& ser,
                                  const CampaignConfig& config);

/// What load() found in an existing snapshot.
struct CampaignResumeInfo {
    std::uint64_t shards_completed = 0;
    std::uint64_t shard_count = 0;
    bool from_fallback = false;
};

/// Keeps the running snapshot of a campaign — the tally of every
/// completed shard and the completed-shard bitmap — and persists it as
/// crash-safe snapshots. The campaign engine records every finished
/// shard here (thread-safe); the flush cadence counts completed shards.
class CampaignCheckpointer : public CheckpointFile {
public:
    CampaignCheckpointer(std::string path, std::uint64_t state_hash);

    /// Load the snapshot at path() as the running snapshot. Returns
    /// nullopt when no snapshot exists; throws
    /// Error(checkpoint_corrupt/_mismatch) as documented on
    /// load_checkpoint().
    std::optional<CampaignResumeInfo> load();

    /// Shape the snapshot for this run and return the restored tally
    /// (empty when nothing was restored); verifies any loaded state
    /// against the expected shapes (Error(checkpoint_corrupt) on
    /// disagreement — a hash-matched snapshot cannot legitimately
    /// differ). Must run before record_shard()/done_snapshot().
    CampaignTally initialize(std::uint64_t shard_count, std::size_t core_count,
                             std::size_t task_count);

    /// Copy of the completed-shard bitmap (1 = already merged); taken
    /// once before dispatch so workers consult an immutable snapshot.
    std::vector<std::uint8_t> done_snapshot() const;

    /// Fold one finished shard's tally into the snapshot and mark it
    /// done. Thread-safe; ignores shards already recorded.
    void record_shard(std::uint64_t shard, const CampaignTally& tally);

    /// Test hook: invoked after each record_shard (outside the internal
    /// lock) with the new completed count — lets tests stop a campaign
    /// at a deterministic point. Not used in production.
    std::function<void(std::uint64_t)> on_shard_recorded;

private:
    std::uint64_t recorded_locked() const override { return completed_; }
    std::vector<std::string> payload_locked() const override;

    std::uint64_t shard_count_ = 0;
    std::vector<std::uint8_t> done_;
    std::uint64_t completed_ = 0;
    CampaignTally tally_;
};

} // namespace seamap
