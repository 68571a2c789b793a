// Versioned, crash-safe snapshot files — the persistence layer under
// the exploration (core/dse_checkpoint.h) and campaign
// (sim/campaign_checkpoint.h) checkpoints.
//
// A checkpoint is a line-oriented text document:
//
//   seamap-checkpoint <format>        # magic + format version
//   library <x.y.z>                   # writing library version
//   kind <dse|campaign|...>           # which subsystem owns the payload
//   hash <16 hex digits>              # content hash of the producing state
//   lines <n>                         # payload line count
//   <n payload lines>                 # owner-defined
//   checksum <16 hex digits>          # FNV-1a 64 over every byte above
//
// Safety properties:
//  - Writes are atomic: the document is written to "<path>.tmp",
//    fsync'd, and renamed over <path>; a crash mid-write never damages
//    the previous snapshot. The previous snapshot is first rotated to
//    "<path>.prev", so one good fallback always survives a torn rename
//    window.
//  - Loads are tolerant: a truncated, bit-flipped or otherwise mangled
//    file fails the trailing checksum (or the structure checks) and the
//    loader falls back to "<path>.prev"; only when every candidate is
//    corrupt does it raise Error(checkpoint_corrupt).
//  - Loads are strict about identity: a wrong kind, a different
//    producing-state hash or an incompatible library version raises
//    Error(checkpoint_mismatch) with a diagnostic naming both sides —
//    resuming against the wrong problem is never silent.
//
// Payload encodings need bit-exact doubles to keep resumed results
// byte-identical, so hex_of_double/double_of_hex round-trip the IEEE
// bit pattern instead of going through decimal. Integer sequences
// (mappings, hit counters) share one comma-separated decimal codec,
// and both snapshot owners share one FlushCadence.
#pragma once

#include "util/cancellation.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace seamap {

/// Current on-disk format version; bump when the envelope (not a
/// payload) changes shape. See CONTRIBUTING.md "Checkpoint format &
/// versioning" for the evolution rules.
inline constexpr std::uint64_t k_checkpoint_format = 1;

/// One snapshot: the owner's kind tag, the content hash of the state
/// that produced it, and the owner-defined payload lines.
struct CheckpointData {
    std::string kind;
    std::uint64_t state_hash = 0;
    std::vector<std::string> lines;
};

/// Result of a tolerant load.
struct CheckpointLoad {
    CheckpointData data;
    /// True when <path> was corrupt and "<path>.prev" supplied the data.
    bool from_fallback = false;
};

/// Atomically persist `data` at `path` (tmp + fsync + rename), rotating
/// any existing snapshot to "<path>.prev" first. Throws Error(io) when
/// the file system refuses.
void save_checkpoint(const std::string& path, const CheckpointData& data);

/// Load the snapshot at `path`, falling back to "<path>.prev" when the
/// primary is corrupt. Returns nullopt when neither file exists. Throws
/// Error(checkpoint_corrupt) when every existing candidate is damaged,
/// and Error(checkpoint_mismatch) when the snapshot's kind, state hash
/// or library version disagrees with the caller's expectation.
std::optional<CheckpointLoad> load_checkpoint(const std::string& path,
                                              std::string_view expected_kind,
                                              std::uint64_t expected_hash);

/// Remove `path`, its ".prev" rotation and any stale ".tmp"; used after
/// a run completes and by tests. Missing files are not an error.
void remove_checkpoint(const std::string& path);

/// FNV-1a 64-bit checksum over `bytes`.
std::uint64_t fnv1a64(std::string_view bytes);

/// Order-sensitive content-hash accumulator: fold values with mix()
/// and read the digest with value(). Built on splitmix64, so single-bit
/// input changes diffuse through the whole digest.
class HashStream {
public:
    void mix(std::uint64_t x);
    void mix(std::string_view text);
    /// Hashes the IEEE-754 bit pattern — bit-exact, no rounding.
    void mix_double(double x);

    std::uint64_t value() const { return state_; }

private:
    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Bit-exact double <-> 16-hex-digit rendering for payloads.
std::string hex_of_double(double x);
double double_of_hex(std::string_view hex); ///< throws Error(parse)

std::string hex_of_u64(std::uint64_t x);
std::uint64_t u64_of_hex(std::string_view hex); ///< throws Error(parse)

/// Comma-separated decimal rendering of an integer sequence for
/// payloads ("" when empty).
template <class Int>
std::string csv_of_ints(const std::vector<Int>& xs) {
    std::string out;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(xs[i]);
    }
    return out;
}

/// Inverse of csv_of_ints ("" decodes to no values). Throws
/// Error(checkpoint_corrupt) naming `path` and the first non-numeric
/// field.
std::vector<std::uint64_t> u64s_of_csv(std::string_view csv, const std::string& path);

/// When a checkpointer persists: once `every` records are pending
/// (0 = never by count) or `interval_seconds` elapsed since the last
/// flush (<= 0 = never by time), and never while nothing is pending.
/// Records are counted by the owner (decided slots, completed shards).
/// Not thread-safe: owners call it under their own lock.
class FlushCadence {
public:
    void set(std::uint64_t every, double interval_seconds);

    /// True when `recorded` differs from the count last on disk.
    bool pending(std::uint64_t recorded) const { return recorded != flushed_; }
    /// True when records are pending and the count or the interval is due.
    bool due(std::uint64_t recorded) const;
    /// The first `recorded` records are on disk (after a flush or a
    /// load; 0 after the files are removed); restarts the interval.
    void flushed(std::uint64_t recorded);

private:
    std::uint64_t every_ = 0;
    std::uint64_t flushed_ = 0;
    IntervalTimer timer_{0.0};
};

/// What both checkpointers (core/dse_checkpoint.h,
/// sim/campaign_checkpoint.h) share: one snapshot path with its kind
/// and state hash, and the FlushCadence deciding when to rewrite it.
/// An owner counts its records (decided slots, completed shards) and
/// renders its payload lines; flushing on cadence or on demand, and
/// removal, live here. Thread-safe: owners guard their own state with
/// mutex_.
class CheckpointFile {
public:
    virtual ~CheckpointFile() = default;
    CheckpointFile(const CheckpointFile&) = delete;
    CheckpointFile& operator=(const CheckpointFile&) = delete;

    /// Persist after every `every` new records (0 = never by
    /// count) and whenever `interval_seconds` elapsed since the last
    /// flush (0 = never by time). flush() is always available.
    void set_cadence(std::uint64_t every, double interval_seconds);
    /// Persist when the cadence is due and new records exist.
    void maybe_flush();
    /// Persist now when new records exist since the last flush.
    void flush();
    /// Delete the snapshot files (after a completed run, when the
    /// caller does not want to keep the finished snapshot).
    void remove();

    const std::string& path() const { return path_; }
    /// Records so far, loaded ones included.
    std::uint64_t recorded() const;

protected:
    CheckpointFile(std::string path, std::string kind, std::uint64_t state_hash);

    /// load_checkpoint() for this file's kind and state hash.
    std::optional<CheckpointLoad> load_file() const;

    /// Records so far and the payload encoding them; called
    /// with mutex_ held.
    virtual std::uint64_t recorded_locked() const = 0;
    virtual std::vector<std::string> payload_locked() const = 0;

    mutable std::mutex mutex_;
    /// Owners mark a loaded snapshot's records as flushed.
    FlushCadence cadence_;

private:
    void flush_locked();

    std::string path_;
    std::string kind_;
    std::uint64_t state_hash_;
};

} // namespace seamap
