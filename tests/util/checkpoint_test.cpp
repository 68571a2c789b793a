// The generic snapshot layer: atomic writes, the ".prev" rotation,
// tolerant loads over a corpus of damaged files, strict identity
// checks, the shared integer codec and the shared flush cadence. The
// file cases run against real files in the test temp directory.
#include "util/checkpoint.h"

#include "util/error.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace seamap {
namespace {

class CheckpointTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::path(testing::TempDir()) /
               ("checkpoint_test_" +
                std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        path_ = (dir_ / "snap.ckpt").string();
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    CheckpointData sample(std::uint64_t hash, const std::string& marker) const {
        CheckpointData data;
        data.kind = "dse";
        data.state_hash = hash;
        data.lines = {"alpha " + marker, "beta", "gamma 3"};
        return data;
    }

    std::string read_file() const {
        std::ifstream is(path_);
        return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
    }

    void write_file(const std::string& text) const {
        std::ofstream os(path_);
        os << text;
    }

    std::filesystem::path dir_;
    std::string path_;
};

TEST_F(CheckpointTest, RoundTrip) {
    save_checkpoint(path_, sample(0x1234, "one"));
    const auto loaded = load_checkpoint(path_, "dse", 0x1234);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_FALSE(loaded->from_fallback);
    EXPECT_EQ(loaded->data.kind, "dse");
    EXPECT_EQ(loaded->data.state_hash, 0x1234u);
    ASSERT_EQ(loaded->data.lines.size(), 3u);
    EXPECT_EQ(loaded->data.lines[0], "alpha one");
    EXPECT_EQ(loaded->data.lines[2], "gamma 3");
}

TEST_F(CheckpointTest, MissingFileIsNullopt) {
    EXPECT_FALSE(load_checkpoint(path_, "dse", 1).has_value());
}

TEST_F(CheckpointTest, NoStaleTmpAfterSave) {
    save_checkpoint(path_, sample(1, "x"));
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(CheckpointTest, SecondSaveRotatesPrev) {
    save_checkpoint(path_, sample(1, "first"));
    save_checkpoint(path_, sample(1, "second"));
    EXPECT_TRUE(std::filesystem::exists(path_ + ".prev"));
    const auto loaded = load_checkpoint(path_, "dse", 1);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->data.lines[0], "alpha second");
}

TEST_F(CheckpointTest, TruncatedPrimaryFallsBackToPrev) {
    save_checkpoint(path_, sample(1, "good"));
    save_checkpoint(path_, sample(1, "newer"));
    const std::string full = read_file();
    for (const std::size_t keep : {std::size_t{0}, std::size_t{10}, full.size() / 2,
                                   full.size() - 1}) {
        write_file(full.substr(0, keep));
        const auto loaded = load_checkpoint(path_, "dse", 1);
        ASSERT_TRUE(loaded.has_value()) << "keep=" << keep;
        EXPECT_TRUE(loaded->from_fallback) << "keep=" << keep;
        EXPECT_EQ(loaded->data.lines[0], "alpha good") << "keep=" << keep;
    }
}

TEST_F(CheckpointTest, BitFlipFailsChecksumAndFallsBack) {
    save_checkpoint(path_, sample(1, "good"));
    save_checkpoint(path_, sample(1, "newer"));
    std::string full = read_file();
    // Flip one payload byte; the envelope still parses, the checksum must not.
    const std::size_t pos = full.find("beta");
    ASSERT_NE(pos, std::string::npos);
    full[pos] = 'B';
    write_file(full);
    const auto loaded = load_checkpoint(path_, "dse", 1);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->from_fallback);
    EXPECT_EQ(loaded->data.lines[0], "alpha good");
}

TEST_F(CheckpointTest, BothCorruptRaisesCheckpointCorrupt) {
    save_checkpoint(path_, sample(1, "good"));
    save_checkpoint(path_, sample(1, "newer"));
    write_file("garbage\n");
    {
        std::ofstream os(path_ + ".prev");
        os << "more garbage\n";
    }
    try {
        (void)load_checkpoint(path_, "dse", 1);
        FAIL() << "expected checkpoint_corrupt";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::checkpoint_corrupt);
    }
}

TEST_F(CheckpointTest, EmptyFileWithoutPrevRaisesCorrupt) {
    write_file("");
    try {
        (void)load_checkpoint(path_, "dse", 1);
        FAIL() << "expected checkpoint_corrupt";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::checkpoint_corrupt);
    }
}

TEST_F(CheckpointTest, WrongHashIsMismatchNamingBothSides) {
    save_checkpoint(path_, sample(0xabcd, "x"));
    try {
        (void)load_checkpoint(path_, "dse", 0x9999);
        FAIL() << "expected checkpoint_mismatch";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::checkpoint_mismatch);
        const std::string what = e.what();
        EXPECT_NE(what.find(hex_of_u64(0xabcd)), std::string::npos) << what;
        EXPECT_NE(what.find(hex_of_u64(0x9999)), std::string::npos) << what;
    }
}

TEST_F(CheckpointTest, WrongKindIsMismatch) {
    save_checkpoint(path_, sample(1, "x"));
    try {
        (void)load_checkpoint(path_, "campaign", 1);
        FAIL() << "expected checkpoint_mismatch";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::checkpoint_mismatch);
    }
}

TEST_F(CheckpointTest, RemoveDeletesEverything) {
    save_checkpoint(path_, sample(1, "a"));
    save_checkpoint(path_, sample(1, "b"));
    remove_checkpoint(path_);
    EXPECT_FALSE(std::filesystem::exists(path_));
    EXPECT_FALSE(std::filesystem::exists(path_ + ".prev"));
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
    remove_checkpoint(path_); // idempotent
}

TEST(CheckpointHex, DoubleRoundTripIsBitExact) {
    for (const double x : {0.0, -0.0, 1.0, -1.5, 3.141592653589793, 1e-300, 1e300,
                           0.1, 2.2250738585072014e-308}) {
        const std::string hex = hex_of_double(x);
        EXPECT_EQ(hex.size(), 16u);
        const double back = double_of_hex(hex);
        EXPECT_EQ(std::memcmp(&back, &x, sizeof x), 0) << x;
    }
}

TEST(CheckpointHex, U64RoundTrip) {
    for (const std::uint64_t x :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xdeadbeefcafebabeULL},
          ~std::uint64_t{0}}) {
        EXPECT_EQ(u64_of_hex(hex_of_u64(x)), x);
    }
}

TEST(CheckpointHex, BadHexIsParseError) {
    EXPECT_THROW((void)u64_of_hex("not-hex-at-all!!"), Error);
    EXPECT_THROW((void)u64_of_hex(""), Error);
    EXPECT_THROW((void)u64_of_hex("0123456789abcdef0"), Error); // 17 digits
    EXPECT_THROW((void)double_of_hex("12x4"), Error);
}

TEST(CheckpointHash, StreamIsOrderSensitive) {
    HashStream a, b;
    a.mix(1);
    a.mix(2);
    b.mix(2);
    b.mix(1);
    EXPECT_NE(a.value(), b.value());
    HashStream c, d;
    c.mix("xy");
    c.mix("z");
    d.mix("x");
    d.mix("yz");
    EXPECT_NE(c.value(), d.value());
}

TEST(CheckpointCsv, IntegerSequencesRoundTrip) {
    const std::vector<std::uint64_t> xs = {0, 7, 42, ~std::uint64_t{0}};
    EXPECT_EQ(csv_of_ints(xs), "0,7,42,18446744073709551615");
    EXPECT_EQ(u64s_of_csv(csv_of_ints(xs), "p"), xs);
    EXPECT_EQ(csv_of_ints(std::vector<std::uint32_t>{3, 1}), "3,1");
    EXPECT_EQ(csv_of_ints(std::vector<std::uint64_t>{}), "");
    EXPECT_TRUE(u64s_of_csv("", "p").empty());
}

TEST(CheckpointCsv, NonNumericFieldIsCorruptNamingThePath) {
    for (const char* csv : {"1,x,3", "1,,3", "1,2,", "-1"}) {
        try {
            (void)u64s_of_csv(csv, "snap.ckpt");
            ADD_FAILURE() << "expected checkpoint_corrupt for '" << csv << "'";
        } catch (const Error& e) {
            EXPECT_EQ(e.category(), ErrorCategory::checkpoint_corrupt) << csv;
            EXPECT_EQ(e.context(), "snap.ckpt") << csv;
        }
    }
}

TEST(FlushCadence, DueAfterEveryNPendingRecords) {
    FlushCadence cadence;
    cadence.set(3, 0.0);
    EXPECT_FALSE(cadence.due(1));
    EXPECT_FALSE(cadence.due(2));
    EXPECT_TRUE(cadence.due(3));
    cadence.flushed(3);
    EXPECT_FALSE(cadence.due(5));
    EXPECT_TRUE(cadence.due(6));
    EXPECT_TRUE(cadence.due(100));
}

TEST(FlushCadence, EveryZeroNeverFiresByCount) {
    FlushCadence cadence;
    cadence.set(0, 0.0);
    for (const std::uint64_t recorded : {std::uint64_t{1}, std::uint64_t{64},
                                         std::uint64_t{1'000'000}}) {
        EXPECT_TRUE(cadence.pending(recorded)) << recorded;
        EXPECT_FALSE(cadence.due(recorded)) << recorded;
    }
}

TEST(FlushCadence, NeverDueWhileNothingIsPending) {
    FlushCadence cadence;
    cadence.set(1, 1e-9); // both triggers armed; the interval is always elapsed
    EXPECT_FALSE(cadence.pending(0));
    EXPECT_FALSE(cadence.due(0));
    cadence.flushed(4);
    EXPECT_FALSE(cadence.pending(4));
    EXPECT_FALSE(cadence.due(4));
    EXPECT_TRUE(cadence.due(5));
    cadence.flushed(0); // the files were removed: everything is pending again
    EXPECT_TRUE(cadence.due(4));
}

TEST(FlushCadence, IntervalRestartsAfterAFlush) {
    FlushCadence cadence;
    cadence.set(0, 0.2);
    EXPECT_FALSE(cadence.due(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    EXPECT_TRUE(cadence.due(1));
    cadence.flushed(1);
    EXPECT_FALSE(cadence.due(2)); // a fresh interval started at the flush
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    EXPECT_TRUE(cadence.due(2));
}

} // namespace
} // namespace seamap
