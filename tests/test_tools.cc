/**
 * @file
 * Tests for the tooling layer: the argument parser, the JSON writer
 * (including stats export), and the OUT_MUX reorder/align model.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/args.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "core/out_mux.hh"
#include "core/priority_encoder.hh"

namespace xbs
{
namespace
{

std::vector<char *>
argvOf(std::vector<std::string> &storage)
{
    std::vector<char *> out;
    for (auto &s : storage)
        out.push_back(s.data());
    return out;
}

TEST(Args, ParsesAllKinds)
{
    std::string name = "default";
    uint64_t count = 5;
    double ratio = 1.0;
    bool flag = false;

    ArgParser p("prog", "test");
    p.addString("name", &name, "a name");
    p.addUint("count", &count, "a count");
    p.addDouble("ratio", &ratio, "a ratio");
    p.addBool("flag", &flag, "a flag");

    std::vector<std::string> args = {"prog", "--name=xbc",
                                     "--count", "42",
                                     "--ratio=2.5", "--flag"};
    auto argv = argvOf(args);
    EXPECT_TRUE(p.parse((int)argv.size(), argv.data()));
    EXPECT_EQ(name, "xbc");
    EXPECT_EQ(count, 42u);
    EXPECT_DOUBLE_EQ(ratio, 2.5);
    EXPECT_TRUE(flag);
}

TEST(Args, BoolExplicitValues)
{
    bool flag = true;
    ArgParser p("prog", "test");
    p.addBool("flag", &flag, "a flag");
    std::vector<std::string> args = {"prog", "--flag=false"};
    auto argv = argvOf(args);
    EXPECT_TRUE(p.parse((int)argv.size(), argv.data()));
    EXPECT_FALSE(flag);
}

TEST(Args, PositionalCollected)
{
    ArgParser p("prog", "test");
    std::vector<std::string> args = {"prog", "one", "two"};
    auto argv = argvOf(args);
    EXPECT_TRUE(p.parse((int)argv.size(), argv.data()));
    ASSERT_EQ(p.positional().size(), 2u);
    EXPECT_EQ(p.positional()[0], "one");
}

TEST(Args, HelpReturnsFalse)
{
    ArgParser p("prog", "test");
    std::vector<std::string> args = {"prog", "--help"};
    auto argv = argvOf(args);
    EXPECT_FALSE(p.parse((int)argv.size(), argv.data()));
}

TEST(Args, UnknownFlagIsFatal)
{
    ArgParser p("prog", "test");
    std::vector<std::string> args = {"prog", "--nope"};
    auto argv = argvOf(args);
    EXPECT_EXIT(p.parse((int)argv.size(), argv.data()),
                testing::ExitedWithCode(1), "unknown flag");
}

TEST(Args, BadIntegerIsFatal)
{
    // strtoull alone would read "" as 0 and "-1" as 2^64-1.
    for (const char *bad : {"abc", "-1", " -1", ""}) {
        uint64_t v = 0;
        ArgParser p("prog", "test");
        p.addUint("n", &v, "n");
        std::vector<std::string> args = {"prog",
                                         std::string("--n=") + bad};
        auto argv = argvOf(args);
        EXPECT_EXIT(p.parse((int)argv.size(), argv.data()),
                    testing::ExitedWithCode(1), "expects an integer")
            << "'" << bad << "'";
    }
}

TEST(Args, BadNumberIsFatal)
{
    for (const char *bad : {"abc", "", "nan", "inf", "-inf"}) {
        double v = 0.0;
        ArgParser p("prog", "test");
        p.addDouble("x", &v, "x");
        std::vector<std::string> args = {"prog",
                                         std::string("--x=") + bad};
        auto argv = argvOf(args);
        EXPECT_EXIT(p.parse((int)argv.size(), argv.data()),
                    testing::ExitedWithCode(1), "expects a number")
            << "'" << bad << "'";
    }
}

TEST(Args, UsageMentionsFlags)
{
    uint64_t v = 7;
    ArgParser p("prog", "does things");
    p.addUint("count", &v, "how many");
    std::string u = p.usage();
    EXPECT_NE(u.find("--count"), std::string::npos);
    EXPECT_NE(u.find("how many"), std::string::npos);
    EXPECT_NE(u.find("default: 7"), std::string::npos);
}

TEST(Json, ObjectAndArray)
{
    std::ostringstream os;
    {
        JsonWriter j(os, /*pretty=*/false);
        j.beginObject();
        j.field("a", (uint64_t)1);
        j.field("b", "two");
        j.beginArray("c");
        j.field("", 1.5);
        j.field("", true);
        j.endArray();
        j.endObject();
        EXPECT_TRUE(j.balanced());
    }
    EXPECT_EQ(os.str(), "{\"a\":1,\"b\":\"two\",\"c\":[1.5,true]}");
}

TEST(Json, EscapesStrings)
{
    std::ostringstream os;
    JsonWriter j(os, false);
    j.beginObject();
    j.field("s", "a\"b\\c\nd");
    j.endObject();
    EXPECT_EQ(os.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(Json, StatsExportRoundShape)
{
    StatGroup root("root");
    StatGroup child("frontend", &root);
    ScalarStat s(&child, "cycles", "cycles");
    s += 12;
    AverageStat a(&child, "avg", "average");
    a.sample(2.0);
    a.sample(4.0);

    std::ostringstream os;
    JsonWriter j(os, false);
    root.dumpJson(j);
    std::string out = os.str();
    EXPECT_NE(out.find("\"frontend\":{"), std::string::npos);
    EXPECT_NE(out.find("\"cycles\":12"), std::string::npos);
    EXPECT_NE(out.find("\"avg\":3"), std::string::npos);
}

struct OutMuxFixture : public testing::Test
{
    OutMuxFixture() : root("test"), mux(XbcParams{}, &root) {}

    StatGroup root;
    OutMux mux;
};

TEST_F(OutMuxFixture, CompactsSegments)
{
    // XB1 in banks 0 (2 uops, head) and 3 (4 uops, primary); XB2's
    // prefix in bank 2 (3 uops).
    EXPECT_EQ(mux.route(0, 2), 0u);
    EXPECT_EQ(mux.route(3, 4), 2u);
    EXPECT_EQ(mux.route(2, 3), 6u);
    mux.closeCycle();
    EXPECT_EQ(mux.segments.value(), 3u);
    EXPECT_EQ(mux.cycles.value(), 1u);
    EXPECT_DOUBLE_EQ(mux.occupancy.mean(), 9.0);
    // A cycle that routed nothing is not counted.
    mux.closeCycle();
    EXPECT_EQ(mux.cycles.value(), 1u);
}

TEST_F(OutMuxFixture, ShiftDistances)
{
    // bank1's natural slice starts at uop 4; compacted to offset 0.
    mux.route(1, 4);
    mux.closeCycle();
    EXPECT_EQ(mux.shift.samples(), 1u);
    EXPECT_DOUBLE_EQ(mux.shift.mean(), 4.0);
}

TEST_F(OutMuxFixture, SharedReadFansOut)
{
    // The priority encoder can grant the same line twice (shared
    // read); the mux routes the one read to two segments.
    EXPECT_EQ(mux.route(1, 2), 0u);
    EXPECT_EQ(mux.route(1, 2), 2u);
    mux.closeCycle();
    EXPECT_EQ(mux.segments.value(), 2u);
}

TEST_F(OutMuxFixture, RejectsOverflow)
{
    EXPECT_DEATH(
        {
            for (unsigned bank : {0, 1, 2, 3, 0})
                mux.route(bank, 4);
        },
        "OUT_MUX width");
}

struct PrioFixture : public testing::Test
{
    PrioFixture() : root("test"), pe(4, &root) {}

    StatGroup root;
    PriorityEncoder pe;
};

TEST_F(PrioFixture, PaperExample)
{
    // Section 3.6's worked example: XB1 in banks 0 and 3 of set 23,
    // XB2 in banks 2 and 3 of set 15. XB1 has priority; XB2's prefix
    // in bank 2 is fetched, its suffix in bank 3 is deferred.
    pe.reset();
    EXPECT_TRUE(pe.claim(0, 23, 0));   // XB1 head
    EXPECT_TRUE(pe.claim(3, 23, 0));   // XB1 primary
    EXPECT_TRUE(pe.claim(2, 15, 0));   // XB2 prefix
    EXPECT_FALSE(pe.wouldGrant(3, 15, 0));
    EXPECT_FALSE(pe.claim(3, 15, 0));  // XB2 suffix deferred
    EXPECT_EQ(pe.busyMask(), 0b1101u);
    EXPECT_EQ(pe.conflicts.value(), 1u);
}

TEST_F(PrioFixture, DifferentSetsPerBankInOneCycle)
{
    // "In a given cycle a different set may be accessed in each
    // bank" - the banks are independent.
    pe.reset();
    EXPECT_TRUE(pe.claim(0, 23, 0));
    EXPECT_TRUE(pe.claim(1, 15, 1));
    EXPECT_TRUE(pe.claim(2, 7, 0));
    EXPECT_TRUE(pe.claim(3, 99, 1));
    EXPECT_EQ(pe.busyMask(), 0b1111u);
}

TEST_F(PrioFixture, SharedLineGranted)
{
    pe.reset();
    EXPECT_TRUE(pe.claim(1, 23, 0));
    EXPECT_TRUE(pe.wouldGrant(1, 23, 0));   // same physical line
    EXPECT_TRUE(pe.claim(1, 23, 0));
    EXPECT_FALSE(pe.wouldGrant(1, 23, 1));  // other way: busy
    EXPECT_EQ(pe.shared.value(), 1u);
    EXPECT_EQ(pe.grants.value(), 1u);
}

TEST_F(PrioFixture, ResetFreesBanks)
{
    pe.reset();
    EXPECT_TRUE(pe.claim(2, 5, 0));
    pe.reset();
    EXPECT_TRUE(pe.wouldGrant(2, 6, 1));
    EXPECT_TRUE(pe.claim(2, 6, 1));
}

} // anonymous namespace
} // namespace xbs
