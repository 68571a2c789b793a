#include "core/dse_checkpoint.h"

#include "util/error.h"
#include "util/strings.h"

#include <utility>

namespace seamap {

namespace {

// --- payload encoding -----------------------------------------------
// One line per decided slot, space-separated fields:
//   pruned <combo>
//   nodesign <combo>
//   feasible <combo> <point> [minpower <point>]
// where <point> = <mapping csv> <tm> <latency> <register_bits> <gamma>
// <power> <feasible 0|1>, doubles rendered as bit-exact hex
// (util/checkpoint.h) so a resumed run is byte-identical. Scaling
// levels are not stored: the combination index recovers them from the
// deterministic enumeration on resume.

void encode_point(std::string& out, const DsePoint& point) {
    out += ' ';
    out += csv_of_ints(point.mapping.raw());
    out += ' ' + hex_of_double(point.metrics.tm_seconds);
    out += ' ' + hex_of_double(point.metrics.latency_seconds);
    out += ' ' + std::to_string(point.metrics.register_bits);
    out += ' ' + hex_of_double(point.metrics.gamma);
    out += ' ' + hex_of_double(point.metrics.power_mw);
    out += point.metrics.feasible ? " 1" : " 0";
}

std::string encode_record(const DseSlotRecord& record) {
    switch (record.kind) {
    case DseSlotRecord::Kind::pruned: return "pruned " + std::to_string(record.combo);
    case DseSlotRecord::Kind::no_design: return "nodesign " + std::to_string(record.combo);
    case DseSlotRecord::Kind::feasible: break;
    }
    std::string out = "feasible " + std::to_string(record.combo);
    encode_point(out, record.point);
    if (record.has_min_power) {
        out += " minpower";
        encode_point(out, record.min_power_point);
    }
    return out;
}

[[noreturn]] void fail_decode(const std::string& path, const std::string& why) {
    throw Error(ErrorCategory::checkpoint_corrupt, "corrupt dse checkpoint payload: " + why,
                path);
}

Mapping mapping_of_csv(const std::string& path, const std::string& csv,
                       std::size_t task_count, std::size_t core_count) {
    const std::vector<std::uint64_t> cores = u64s_of_csv(csv, path);
    if (cores.size() != task_count)
        fail_decode(path, "mapping has " + std::to_string(cores.size()) + " entries for " +
                              std::to_string(task_count) + " tasks");
    Mapping mapping(task_count, core_count);
    for (std::size_t t = 0; t < cores.size(); ++t) {
        if (cores[t] >= core_count)
            fail_decode(path, "mapping entry " + std::to_string(cores[t]) +
                                  " exceeds core count " + std::to_string(core_count));
        mapping.assign(static_cast<TaskId>(t), static_cast<CoreId>(cores[t]));
    }
    return mapping;
}

/// Decode one <point> starting at fields[at]; advances `at`.
DsePoint decode_point(const std::string& path, const std::vector<std::string>& fields,
                      std::size_t& at, std::size_t task_count, std::size_t core_count) {
    if (fields.size() - at < 7) fail_decode(path, "truncated design point");
    DsePoint point;
    point.mapping = mapping_of_csv(path, fields[at], task_count, core_count);
    try {
        point.metrics.tm_seconds = double_of_hex(fields[at + 1]);
        point.metrics.latency_seconds = double_of_hex(fields[at + 2]);
        point.metrics.register_bits = parse_u64(fields[at + 3]);
        point.metrics.gamma = double_of_hex(fields[at + 4]);
        point.metrics.power_mw = double_of_hex(fields[at + 5]);
    } catch (const std::exception&) {
        fail_decode(path, "non-numeric design metrics");
    }
    if (fields[at + 6] != "0" && fields[at + 6] != "1")
        fail_decode(path, "bad feasibility flag '" + fields[at + 6] + "'");
    point.metrics.feasible = fields[at + 6] == "1";
    at += 7;
    return point;
}

DseSlotRecord decode_record(const std::string& path, const std::string& line,
                            std::size_t task_count, std::size_t core_count) {
    const std::vector<std::string> fields = split(line, ' ');
    if (fields.size() < 2) fail_decode(path, "short record line");
    DseSlotRecord record;
    try {
        record.combo = parse_u64(fields[1]);
    } catch (const std::exception&) {
        fail_decode(path, "non-numeric combination index '" + fields[1] + "'");
    }
    if (fields[0] == "pruned") {
        record.kind = DseSlotRecord::Kind::pruned;
        if (fields.size() != 2) fail_decode(path, "trailing fields on pruned record");
        return record;
    }
    if (fields[0] == "nodesign") {
        record.kind = DseSlotRecord::Kind::no_design;
        if (fields.size() != 2) fail_decode(path, "trailing fields on nodesign record");
        return record;
    }
    if (fields[0] != "feasible") fail_decode(path, "unknown record kind '" + fields[0] + "'");
    record.kind = DseSlotRecord::Kind::feasible;
    std::size_t at = 2;
    record.point = decode_point(path, fields, at, task_count, core_count);
    if (at < fields.size()) {
        if (fields[at] != "minpower")
            fail_decode(path, "unexpected field '" + fields[at] + "' after design point");
        ++at;
        record.min_power_point = decode_point(path, fields, at, task_count, core_count);
        record.has_min_power = true;
    }
    if (at != fields.size()) fail_decode(path, "trailing fields on feasible record");
    return record;
}

} // namespace

std::uint64_t dse_state_hash(const TaskGraph& graph, const MpsocArchitecture& arch,
                             double deadline_seconds, const DseParams& params,
                             const SerModel& ser, ExposurePolicy policy,
                             std::string_view strategy_name) {
    HashStream h;
    // v2: the lazy bound-sorted enumeration (core/lazy_scaling_queue.h)
    // changed the slot pop order, so v1 snapshots do not replay; the
    // salt makes them fail the state-hash check cleanly.
    h.mix("seamap-dse-state-v2");
    mix_identity(h, graph);
    mix_identity(h, arch);
    mix_identity(h, ser);
    h.mix(static_cast<std::uint64_t>(policy));
    h.mix_double(deadline_seconds);

    // Search configuration. num_threads, EvalOptions and the wall-clock
    // budgets are deliberately absent: the result is invariant to them,
    // and resuming across thread counts is the point of the feature.
    const LocalSearchParams& s = params.search;
    h.mix(s.max_iterations);
    h.mix_double(s.initial_temperature);
    h.mix_double(s.final_temperature);
    h.mix_double(s.swap_probability);
    h.mix(s.sweep_interval);
    h.mix(static_cast<std::uint64_t>(s.require_all_cores));
    h.mix(s.restarts);
    h.mix(s.seed);
    h.mix(static_cast<std::uint64_t>(s.track_min_power));
    // Former knobs, now constants, keep their slots so snapshot hashes
    // stay stable: stage 2 always starts from the Fig. 6 greedy mapping.
    h.mix(std::uint64_t{1});
    h.mix_double(k_power_tie_tolerance);
    h.mix(static_cast<std::uint64_t>(params.prune));
    h.mix(std::max<std::size_t>(1, params.multi_start));
    h.mix(strategy_name);
    return h.value();
}

DseCheckpointer::DseCheckpointer(std::string path, std::uint64_t state_hash)
    : CheckpointFile(std::move(path), "dse", state_hash) {}

std::optional<DseResumeInfo> DseCheckpointer::load(std::size_t task_count,
                                                   std::size_t core_count) {
    std::optional<CheckpointLoad> loaded = load_file();
    if (!loaded) return std::nullopt;
    DseResumeState state;
    state.records.reserve(loaded->data.lines.size());
    for (const std::string& line : loaded->data.lines)
        state.records.push_back(decode_record(path(), line, task_count, core_count));
    std::lock_guard lock(mutex_);
    lines_ = std::move(loaded->data.lines);
    cadence_.flushed(lines_.size());
    resume_ = std::move(state);
    DseResumeInfo info;
    info.slots_decided = resume_->records.size();
    info.from_fallback = loaded->from_fallback;
    return info;
}

void DseCheckpointer::record(const DseSlotRecord& record) {
    std::lock_guard lock(mutex_);
    lines_.push_back(encode_record(record));
}

} // namespace seamap
