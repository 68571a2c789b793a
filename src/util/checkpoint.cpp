#include "util/checkpoint.h"

#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/version.h"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define SEAMAP_HAVE_FSYNC 1
#endif

namespace seamap {

namespace {

constexpr std::string_view k_magic = "seamap-checkpoint";

/// Checkpoints are resumable only within the library minor line: the
/// payload encodings are owned by code that may change between minors.
std::string compatible_version_prefix() {
    return std::to_string(k_version_major) + "." + std::to_string(k_version_minor) + ".";
}

std::string render(const CheckpointData& data) {
    std::string out;
    out += std::string(k_magic) + " " + std::to_string(k_checkpoint_format) + "\n";
    out += "library " + std::string(k_version_string) + "\n";
    out += "kind " + data.kind + "\n";
    out += "hash " + hex_of_u64(data.state_hash) + "\n";
    out += "lines " + std::to_string(data.lines.size()) + "\n";
    for (const std::string& line : data.lines) out += line + "\n";
    out += "checksum " + hex_of_u64(fnv1a64(out)) + "\n";
    return out;
}

/// Write `text` to `path` and flush it to stable storage before
/// returning. Throws Error(io) on any failure.
void write_file_synced(const std::string& path, const std::string& text) {
#if SEAMAP_HAVE_FSYNC
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw Error(ErrorCategory::io, "cannot open checkpoint for writing", path);
    std::size_t written = 0;
    while (written < text.size()) {
        const ::ssize_t n = ::write(fd, text.data() + written, text.size() - written);
        if (n < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            throw Error(ErrorCategory::io, "checkpoint write failed", path);
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        throw Error(ErrorCategory::io, "checkpoint fsync failed", path);
    }
    if (::close(fd) != 0) throw Error(ErrorCategory::io, "checkpoint close failed", path);
#else
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) throw Error(ErrorCategory::io, "cannot open checkpoint for writing", path);
    os << text;
    os.flush();
    if (!os) throw Error(ErrorCategory::io, "checkpoint write failed", path);
#endif
}

/// Flush the directory entry of `path` so the rename itself is durable.
/// Best effort: some file systems refuse directory fsync.
void sync_parent_dir(const std::string& path) {
#if SEAMAP_HAVE_FSYNC
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) return;
    ::fsync(fd);
    ::close(fd);
#else
    (void)path;
#endif
}

bool file_exists(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return is.good();
}

/// Parse one snapshot file. Returns nullopt when the file does not
/// exist; throws Error(checkpoint_corrupt) for every structural or
/// checksum failure — the caller decides whether a fallback exists.
std::optional<CheckpointData> parse_file(const std::string& path, std::string* library_out) {
    std::ifstream is(path, std::ios::binary);
    if (!is) return std::nullopt;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const std::string text = buffer.str();

    auto corrupt = [&](const std::string& why) -> Error {
        return Error(ErrorCategory::checkpoint_corrupt, "corrupt checkpoint: " + why, path);
    };

    // The checksum line is the last line of a well-formed file; verify
    // it over the exact byte prefix before trusting anything else.
    if (text.empty() || text.back() != '\n') throw corrupt("truncated file");
    const std::size_t last_start = text.find_last_of('\n', text.size() - 2);
    const std::size_t body_end = last_start == std::string::npos ? 0 : last_start + 1;
    const std::string_view last_line(text.data() + body_end, text.size() - body_end - 1);
    constexpr std::string_view k_checksum_key = "checksum ";
    if (last_line.substr(0, k_checksum_key.size()) != k_checksum_key)
        throw corrupt("missing trailing checksum");
    std::uint64_t stored = 0;
    try {
        stored = u64_of_hex(last_line.substr(k_checksum_key.size()));
    } catch (const Error&) {
        throw corrupt("unreadable checksum");
    }
    const std::uint64_t actual = fnv1a64(std::string_view(text.data(), body_end));
    if (stored != actual) throw corrupt("checksum mismatch");

    // Body: header lines then payload.
    std::istringstream body(text.substr(0, body_end));
    std::string line;
    auto next_line = [&](std::string_view what) -> std::string {
        if (!std::getline(body, line)) throw corrupt("missing " + std::string(what));
        return line;
    };
    auto keyed = [&](std::string_view key) -> std::string {
        const std::string l = next_line(key);
        const std::string prefix = std::string(key) + " ";
        if (l.substr(0, prefix.size()) != prefix)
            throw corrupt("expected '" + std::string(key) + "' line");
        return l.substr(prefix.size());
    };

    const std::string magic_line = next_line("magic");
    const std::string magic_prefix = std::string(k_magic) + " ";
    if (magic_line.substr(0, magic_prefix.size()) != magic_prefix)
        throw corrupt("bad magic");
    std::uint64_t format = 0;
    try {
        format = parse_u64(magic_line.substr(magic_prefix.size()));
    } catch (const std::exception&) {
        throw corrupt("bad format version");
    }
    if (format != k_checkpoint_format)
        throw Error(ErrorCategory::checkpoint_mismatch,
                    "checkpoint format " + std::to_string(format) +
                        " is not the supported format " + std::to_string(k_checkpoint_format),
                    path);

    CheckpointData data;
    const std::string library = keyed("library");
    if (library_out != nullptr) *library_out = library;
    data.kind = keyed("kind");
    try {
        data.state_hash = u64_of_hex(keyed("hash"));
    } catch (const Error&) {
        throw corrupt("unreadable state hash");
    }
    std::uint64_t count = 0;
    try {
        count = parse_u64(keyed("lines"));
    } catch (const std::exception&) {
        throw corrupt("bad line count");
    }
    for (std::uint64_t i = 0; i < count; ++i)
        data.lines.push_back(next_line("payload line"));
    if (std::getline(body, line)) throw corrupt("trailing data after payload");
    return data;
}

} // namespace

void save_checkpoint(const std::string& path, const CheckpointData& data) {
    const std::string tmp = path + ".tmp";
    write_file_synced(tmp, render(data));
    // Keep one previous good snapshot as the torn-write fallback. The
    // brief window where <path> is absent is covered by ".prev".
    if (file_exists(path)) {
        const std::string prev = path + ".prev";
        if (std::rename(path.c_str(), prev.c_str()) != 0)
            throw Error(ErrorCategory::io, "cannot rotate previous checkpoint", path);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw Error(ErrorCategory::io, "cannot publish checkpoint", path);
    sync_parent_dir(path);
}

std::optional<CheckpointLoad> load_checkpoint(const std::string& path,
                                              std::string_view expected_kind,
                                              std::uint64_t expected_hash) {
    const std::string prev = path + ".prev";
    std::optional<CheckpointData> data;
    std::string library;
    bool from_fallback = false;
    try {
        data = parse_file(path, &library);
    } catch (const Error& primary) {
        if (primary.category() != ErrorCategory::checkpoint_corrupt) throw;
        // Torn/corrupted primary: fall back to the rotated snapshot.
        try {
            data = parse_file(prev, &library);
        } catch (const Error&) {
            data.reset();
        }
        if (!data) throw; // both damaged: surface the primary diagnostic
        from_fallback = true;
    }
    if (!data) {
        // No primary file; a bare ".prev" (crash between the two
        // renames) is still a good snapshot.
        try {
            data = parse_file(prev, &library);
        } catch (const Error& fallback) {
            if (fallback.category() != ErrorCategory::checkpoint_corrupt) throw;
            throw Error(ErrorCategory::checkpoint_corrupt,
                        "corrupt checkpoint and no usable fallback", path);
        }
        if (!data) return std::nullopt;
        from_fallback = true;
    }

    if (data->kind != expected_kind)
        throw Error(ErrorCategory::checkpoint_mismatch,
                    "checkpoint kind '" + data->kind + "' does not match expected '" +
                        std::string(expected_kind) + "'",
                    path);
    const std::string prefix = compatible_version_prefix();
    if (library.substr(0, prefix.size()) != prefix)
        throw Error(ErrorCategory::checkpoint_mismatch,
                    "checkpoint written by library " + library +
                        " is not resumable by this " + std::string(k_version_string),
                    path);
    if (data->state_hash != expected_hash)
        throw Error(ErrorCategory::checkpoint_mismatch,
                    "checkpoint state hash " + hex_of_u64(data->state_hash) +
                        " does not match this run's " + hex_of_u64(expected_hash) +
                        " — different problem, parameters or strategy",
                    path);
    CheckpointLoad load;
    load.data = std::move(*data);
    load.from_fallback = from_fallback;
    return load;
}

void remove_checkpoint(const std::string& path) {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    std::remove((path + ".tmp").c_str());
}

std::uint64_t fnv1a64(std::string_view bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

void HashStream::mix(std::uint64_t x) { state_ = splitmix64(state_ ^ x); }

void HashStream::mix(std::string_view text) {
    mix(fnv1a64(text));
    mix(text.size());
}

void HashStream::mix_double(double x) { mix(std::bit_cast<std::uint64_t>(x)); }

std::string hex_of_double(double x) { return hex_of_u64(std::bit_cast<std::uint64_t>(x)); }

double double_of_hex(std::string_view hex) {
    return std::bit_cast<double>(u64_of_hex(hex));
}

std::string hex_of_u64(std::uint64_t x) {
    static constexpr char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (std::size_t i = 0; i < 16; ++i)
        out[15 - i] = digits[(x >> (4 * i)) & 0xfULL];
    return out;
}

std::uint64_t u64_of_hex(std::string_view hex) {
    if (hex.empty() || hex.size() > 16)
        throw Error(ErrorCategory::parse, "bad hex64 field: '" + std::string(hex) + "'");
    std::uint64_t value = 0;
    for (const char c : hex) {
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            throw Error(ErrorCategory::parse, "bad hex64 field: '" + std::string(hex) + "'");
    }
    return value;
}

std::vector<std::uint64_t> u64s_of_csv(std::string_view csv, const std::string& path) {
    std::vector<std::uint64_t> out;
    if (csv.empty()) return out;
    for (const std::string& field : split(csv, ',')) {
        try {
            out.push_back(parse_u64(field));
        } catch (const std::exception&) {
            throw Error(ErrorCategory::checkpoint_corrupt,
                        "corrupt checkpoint payload: non-numeric field '" + field + "'", path);
        }
    }
    return out;
}

void FlushCadence::set(std::uint64_t every, double interval_seconds) {
    every_ = every;
    timer_ = IntervalTimer(interval_seconds);
}

bool FlushCadence::due(std::uint64_t recorded) const {
    if (!pending(recorded)) return false;
    return (every_ > 0 && recorded - flushed_ >= every_) || timer_.due();
}

void FlushCadence::flushed(std::uint64_t recorded) {
    flushed_ = recorded;
    timer_.reset();
}

CheckpointFile::CheckpointFile(std::string path, std::string kind, std::uint64_t state_hash)
    : path_(std::move(path)), kind_(std::move(kind)), state_hash_(state_hash) {}

void CheckpointFile::set_cadence(std::uint64_t every, double interval_seconds) {
    std::lock_guard lock(mutex_);
    cadence_.set(every, interval_seconds);
}

void CheckpointFile::maybe_flush() {
    std::lock_guard lock(mutex_);
    if (cadence_.due(recorded_locked())) flush_locked();
}

void CheckpointFile::flush() {
    std::lock_guard lock(mutex_);
    if (cadence_.pending(recorded_locked())) flush_locked();
}

void CheckpointFile::remove() {
    std::lock_guard lock(mutex_);
    remove_checkpoint(path_);
    cadence_.flushed(0);
}

std::uint64_t CheckpointFile::recorded() const {
    std::lock_guard lock(mutex_);
    return recorded_locked();
}

std::optional<CheckpointLoad> CheckpointFile::load_file() const {
    return load_checkpoint(path_, kind_, state_hash_);
}

void CheckpointFile::flush_locked() {
    CheckpointData data;
    data.kind = kind_;
    data.state_hash = state_hash_;
    data.lines = payload_locked();
    save_checkpoint(path_, data);
    cadence_.flushed(recorded_locked());
}

} // namespace seamap
