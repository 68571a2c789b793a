#include "sim/campaign_checkpoint.h"

#include "util/error.h"
#include "util/strings.h"

#include <utility>

namespace seamap {

namespace {

// --- payload encoding -----------------------------------------------
// Fixed payload of 5 + k_fault_site_count lines:
//   shards <count> completed <n>
//   done <hex bitmap>                  # byte j bit k = shard 8j+k
//   total <ExactMomentsState>          # 7 decimal u64 fields
//   site <i> <ExactMomentsState>       # one per fault site
//   cores <csv u64>
//   tasks <csv u64>
constexpr std::size_t k_payload_lines = 5 + k_fault_site_count;
// Every field is an integer, so the round-trip is exact by
// construction — no float rendering is involved anywhere.

[[noreturn]] void fail_decode(const std::string& path, const std::string& why) {
    throw Error(ErrorCategory::checkpoint_corrupt,
                "corrupt campaign checkpoint payload: " + why, path);
}

std::string hex_of_bitmap(const std::vector<std::uint8_t>& done) {
    std::string out;
    for (std::size_t i = 0; i < done.size(); i += 8) {
        std::uint64_t byte = 0;
        for (std::size_t bit = 0; bit < 8 && i + bit < done.size(); ++bit)
            byte |= static_cast<std::uint64_t>(done[i + bit] != 0) << bit;
        out += hex_of_u64(byte).substr(14);
    }
    return out;
}

std::vector<std::uint8_t> bitmap_of_hex(const std::string& path, std::string_view hex,
                                        std::uint64_t shard_count) {
    if (hex.size() != ((shard_count + 7) / 8) * 2) fail_decode(path, "bitmap length mismatch");
    std::vector<std::uint8_t> done(shard_count, 0);
    for (std::uint64_t i = 0; i < shard_count; i += 8) {
        std::uint64_t byte = 0;
        try {
            byte = u64_of_hex(hex.substr(i / 4, 2));
        } catch (const Error&) {
            fail_decode(path, "non-hex bitmap");
        }
        for (std::uint64_t bit = 0; bit < 8 && i + bit < shard_count; ++bit)
            done[i + bit] = static_cast<std::uint8_t>((byte >> bit) & 1u);
    }
    return done;
}

void encode_moments(std::string& out, const ExactMomentsState& s) {
    out += ' ' + std::to_string(s.count);
    out += ' ' + std::to_string(s.min);
    out += ' ' + std::to_string(s.max);
    out += ' ' + std::to_string(s.sum_hi);
    out += ' ' + std::to_string(s.sum_lo);
    out += ' ' + std::to_string(s.sum_sq_hi);
    out += ' ' + std::to_string(s.sum_sq_lo);
}

std::uint64_t field_u64(const std::string& path, const std::vector<std::string>& fields,
                        std::size_t at) {
    try {
        return parse_u64(fields.at(at));
    } catch (const std::exception&) {
        fail_decode(path, "non-numeric field");
    }
}

ExactMoments decode_moments(const std::string& path, const std::vector<std::string>& fields,
                            std::size_t at) {
    ExactMomentsState s;
    s.count = field_u64(path, fields, at);
    s.min = field_u64(path, fields, at + 1);
    s.max = field_u64(path, fields, at + 2);
    s.sum_hi = field_u64(path, fields, at + 3);
    s.sum_lo = field_u64(path, fields, at + 4);
    s.sum_sq_hi = field_u64(path, fields, at + 5);
    s.sum_sq_lo = field_u64(path, fields, at + 6);
    return ExactMoments::from_state(s);
}

} // namespace

std::uint64_t campaign_state_hash(const TaskGraph& graph, const Mapping& mapping,
                                  const MpsocArchitecture& arch, const ScalingVector& levels,
                                  const Schedule& schedule, const SerModel& ser,
                                  const CampaignConfig& config) {
    HashStream h;
    h.mix("seamap-campaign-state");
    mix_identity(h, graph);
    mix_identity(h, arch);

    // The design under test: mapping, scaling and its exact schedule
    // (the schedule determines every exposure window, so two runs with
    // the same mapping but different schedules must not share a
    // snapshot).
    h.mix(mapping.raw().size());
    for (CoreId core : mapping.raw()) h.mix(core);
    h.mix(levels.size());
    for (ScalingLevel level : levels) h.mix(level);
    h.mix(schedule.entries.size());
    for (const ScheduledTask& entry : schedule.entries) {
        h.mix(entry.task);
        h.mix(entry.core);
        h.mix_double(entry.start_seconds);
        h.mix_double(entry.finish_seconds);
    }
    h.mix_double(schedule.total_time_seconds);
    mix_identity(h, ser);

    // Campaign shape. num_threads is deliberately absent (results are
    // invariant to it); shard_size is present (the bitmap is indexed by
    // shard, so snapshots are bound to the shard size that wrote them).
    h.mix(config.trials);
    h.mix(config.shard_size);
    h.mix(config.seed);
    h.mix(static_cast<std::uint64_t>(config.policy));
    h.mix_double(config.weights.register_file);
    h.mix_double(config.weights.pipeline);
    h.mix_double(config.weights.memory);
    h.mix_double(config.pipeline_bits);
    return h.value();
}

CampaignCheckpointer::CampaignCheckpointer(std::string path, std::uint64_t state_hash)
    : CheckpointFile(std::move(path), "campaign", state_hash) {}

std::optional<CampaignResumeInfo> CampaignCheckpointer::load() {
    std::optional<CheckpointLoad> loaded = load_file();
    if (!loaded) return std::nullopt;
    const std::string& file = path();
    const std::vector<std::string>& lines = loaded->data.lines;
    if (lines.size() != k_payload_lines)
        fail_decode(file, "expected " + std::to_string(k_payload_lines) + " payload lines");

    const std::vector<std::string> head = split(lines[0], ' ');
    if (head.size() != 4 || head[0] != "shards" || head[2] != "completed")
        fail_decode(file, "bad header line");
    const std::uint64_t shard_count = field_u64(file, head, 1);
    const std::uint64_t completed = field_u64(file, head, 3);
    if (completed > shard_count) fail_decode(file, "completed exceeds shard count");

    const std::vector<std::string> done_fields = split(lines[1], ' ');
    if (done_fields.size() != 2 || done_fields[0] != "done")
        fail_decode(file, "bad bitmap line");
    std::vector<std::uint8_t> done = bitmap_of_hex(file, done_fields[1], shard_count);
    std::uint64_t marked = 0;
    for (const std::uint8_t d : done) marked += d;
    if (marked != completed) fail_decode(file, "bitmap disagrees with completed count");

    CampaignTally tally;
    const std::vector<std::string> total_fields = split(lines[2], ' ');
    if (total_fields.size() != 8 || total_fields[0] != "total")
        fail_decode(file, "bad total line");
    tally.total = decode_moments(file, total_fields, 1);
    for (std::size_t s = 0; s < k_fault_site_count; ++s) {
        const std::vector<std::string> fields = split(lines[3 + s], ' ');
        if (fields.size() != 9 || fields[0] != "site" ||
            fields[1] != std::to_string(s))
            fail_decode(file, "bad site line");
        tally.per_site[s] = decode_moments(file, fields, 2);
    }

    const std::vector<std::string> cores_line =
        split(lines[3 + k_fault_site_count], ' ');
    if (cores_line.size() != 2 || cores_line[0] != "cores")
        fail_decode(file, "bad cores line");
    const std::vector<std::string> tasks_line =
        split(lines[4 + k_fault_site_count], ' ');
    if (tasks_line.size() != 2 || tasks_line[0] != "tasks")
        fail_decode(file, "bad tasks line");
    tally.hits_per_core = u64s_of_csv(cores_line[1], file);
    tally.hits_per_task = u64s_of_csv(tasks_line[1], file);

    std::lock_guard lock(mutex_);
    shard_count_ = shard_count;
    done_ = std::move(done);
    completed_ = completed;
    tally_ = std::move(tally);
    cadence_.flushed(completed_);

    CampaignResumeInfo info;
    info.shards_completed = completed_;
    info.shard_count = shard_count_;
    info.from_fallback = loaded->from_fallback;
    return info;
}

CampaignTally CampaignCheckpointer::initialize(std::uint64_t shard_count,
                                               std::size_t core_count,
                                               std::size_t task_count) {
    std::lock_guard lock(mutex_);
    if (completed_ > 0) {
        if (shard_count_ != shard_count || tally_.hits_per_core.size() != core_count ||
            tally_.hits_per_task.size() != task_count)
            throw Error(ErrorCategory::checkpoint_corrupt,
                        "campaign checkpoint shapes disagree with this run", path());
        return tally_;
    }
    shard_count_ = shard_count;
    done_.assign(shard_count, 0);
    tally_ = CampaignTally(core_count, task_count);
    return tally_;
}

std::vector<std::uint8_t> CampaignCheckpointer::done_snapshot() const {
    std::lock_guard lock(mutex_);
    return done_;
}

void CampaignCheckpointer::record_shard(std::uint64_t shard, const CampaignTally& tally) {
    std::uint64_t now_completed = 0;
    {
        std::lock_guard lock(mutex_);
        if (shard >= done_.size() || done_[shard] != 0) return;
        done_[shard] = 1;
        ++completed_;
        tally_.merge(tally);
        now_completed = completed_;
    }
    if (on_shard_recorded) on_shard_recorded(now_completed);
}

std::vector<std::string> CampaignCheckpointer::payload_locked() const {
    std::vector<std::string> lines;
    lines.reserve(k_payload_lines);
    lines.push_back("shards " + std::to_string(shard_count_) + " completed " +
                    std::to_string(completed_));
    lines.push_back("done " + hex_of_bitmap(done_));
    std::string total = "total";
    encode_moments(total, tally_.total.state());
    lines.push_back(std::move(total));
    for (std::size_t s = 0; s < k_fault_site_count; ++s) {
        std::string line = "site " + std::to_string(s);
        encode_moments(line, tally_.per_site[s].state());
        lines.push_back(std::move(line));
    }
    lines.push_back("cores " + csv_of_ints(tally_.hits_per_core));
    lines.push_back("tasks " + csv_of_ints(tally_.hits_per_task));
    return lines;
}

} // namespace seamap
