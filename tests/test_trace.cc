/**
 * @file
 * Unit tests for the trace layer: trace construction and validation,
 * block-length statistics (Figure 1 machinery), and binary I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "test_helpers.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"

namespace xbs
{
namespace
{

TEST(Trace, BasicProperties)
{
    CodeBuilder cb;
    int32_t a = cb.seq(2);
    int32_t b = cb.seq(3);
    int32_t j = cb.jump(0);
    auto code = cb.finalize();

    Trace t = makeTestTrace(code, {{a, false}, {b, false}, {j, false},
                                   {a, false}});
    EXPECT_EQ(t.numRecords(), 4u);
    EXPECT_EQ(t.totalUops(), 2u + 3 + 1 + 2);
    EXPECT_EQ(t.nextIp(0), code->inst(b).ip);
    EXPECT_EQ(t.nextIp(3), 0u);  // past the end
    t.validate();
}

TEST(Trace, ValidateCatchesBadSuccessor)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    (void)cb.seq();
    int32_t c = cb.seq();
    cb.jump(0);
    auto code = cb.finalize();

    // a is Seq but the next record skips an instruction.
    Trace t = makeTestTrace(code, {{a, false}, {c, false}});
    EXPECT_DEATH(t.validate(), "seq successor mismatch");
}

TEST(Trace, ValidateCondBranchPaths)
{
    CodeBuilder cb;
    int32_t br = cb.cond(2);     // taken -> idx 2
    int32_t ft = cb.seq();       // idx 1 fall-through
    int32_t tk = cb.seq();       // idx 2 taken target
    cb.jump(0);
    auto code = cb.finalize();

    makeTestTrace(code, {{br, true}, {tk, false}}).validate();
    makeTestTrace(code, {{br, false}, {ft, false}}).validate();

    Trace bad = makeTestTrace(code, {{br, true}, {ft, false}});
    EXPECT_DEATH(bad.validate(), "taken target mismatch");
}

TEST(BranchBias, CountsAndMonotonicity)
{
    BranchBiasTable t;
    for (int i = 0; i < 99; ++i)
        t.observe(5, true);
    t.observe(5, false);
    EXPECT_EQ(t.count(5), 100u);
    EXPECT_NEAR(t.bias(5), 0.99, 1e-9);
    EXPECT_TRUE(t.monotonic(5, 0.99));
    EXPECT_FALSE(t.monotonic(5, 0.992));
    EXPECT_EQ(t.count(6), 0u);
    EXPECT_DOUBLE_EQ(t.bias(6), 0.0);
}

TEST(BranchBias, NotTakenDirection)
{
    BranchBiasTable t;
    for (int i = 0; i < 10; ++i)
        t.observe(1, false);
    EXPECT_DOUBLE_EQ(t.bias(1), 1.0);
}

/** Straight-line code: one XB of the summed uops (capped). */
TEST(BlockStats, StraightLineEndsOnBranch)
{
    CodeBuilder cb;
    int32_t a = cb.seq(3);
    int32_t b = cb.seq(2);
    int32_t br = cb.cond(0, 1);
    auto code = cb.finalize();

    Trace t = makeTestTrace(code, {{a, 0}, {b, 0}, {br, true},
                                   {a, 0}, {b, 0}, {br, true}});
    auto s = computeBlockLengthStats(t);
    // Two XBs of 3+2+1 = 6 uops each.
    EXPECT_EQ(s.xb.total(), 2u);
    EXPECT_DOUBLE_EQ(s.xb.mean(), 6.0);
    // Basic blocks identical here (no direct jumps).
    EXPECT_DOUBLE_EQ(s.basicBlock.mean(), 6.0);
    // Dual XB = two consecutive XBs fused: 12.
    EXPECT_EQ(s.dualXb.count(12), 1u);
}

/** Direct jumps end basic blocks but not extended blocks. */
TEST(BlockStats, JumpsAbsorbedByXbs)
{
    CodeBuilder cb;
    int32_t a = cb.seq(2);
    int32_t j = cb.jump(2);
    int32_t b = cb.seq(2);
    int32_t br = cb.cond(0, 1);
    auto code = cb.finalize();

    Trace t = makeTestTrace(code, {{a, 0}, {j, 0}, {b, 0}, {br, 1}});
    auto s = computeBlockLengthStats(t);
    // Basic blocks: [a j] = 3 uops, [b br] = 3 uops.
    EXPECT_EQ(s.basicBlock.total(), 2u);
    EXPECT_DOUBLE_EQ(s.basicBlock.mean(), 3.0);
    // XB: the jump is absorbed -> one block of 6 uops.
    EXPECT_EQ(s.xb.total(), 1u);
    EXPECT_DOUBLE_EQ(s.xb.mean(), 6.0);
}

/** A >99.2%-biased branch is absorbed in the promotion view. */
TEST(BlockStats, PromotionAbsorbsMonotonicBranches)
{
    CodeBuilder cb;
    int32_t a = cb.seq(3);
    int32_t br1 = cb.cond(2, 1);  // always not-taken below
    int32_t b = cb.seq(3);
    int32_t br2 = cb.cond(0, 1);  // alternates
    auto code = cb.finalize();

    std::vector<std::pair<int32_t, bool>> path;
    for (int i = 0; i < 200; ++i) {
        path.push_back({a, false});
        path.push_back({br1, false});  // monotonic NT
        path.push_back({b, false});
        path.push_back({br2, i % 2 == 0});
    }
    Trace t = makeTestTrace(code, path);
    auto s = computeBlockLengthStats(t, 0.992);
    // Plain XB view: blocks of 4 (a,br1) and 4 (b,br2).
    EXPECT_DOUBLE_EQ(s.xb.mean(), 4.0);
    // Promotion view: br1 absorbed -> blocks of 8.
    EXPECT_DOUBLE_EQ(s.xbPromoted.mean(), 8.0);
}

/** The 16-uop quota splits long runs. */
TEST(BlockStats, QuotaSplitsLongBlocks)
{
    CodeBuilder cb;
    std::vector<int32_t> seqs;
    for (int i = 0; i < 10; ++i)
        seqs.push_back(cb.seq(4));
    int32_t br = cb.cond(0, 1);
    auto code = cb.finalize();

    std::vector<std::pair<int32_t, bool>> path;
    for (int32_t s : seqs)
        path.push_back({s, false});
    path.push_back({br, true});
    Trace t = makeTestTrace(code, path);
    auto s = computeBlockLengthStats(t);
    // 41 uops split into 16+16+9 under the quota.
    EXPECT_EQ(s.xb.total(), 3u);
    EXPECT_EQ(s.xb.count(16), 2u);
    EXPECT_EQ(s.xb.count(9), 1u);
}

TEST(BlockStats, DualXbCapped)
{
    CodeBuilder cb;
    int32_t a = cb.seq(9);
    int32_t br1 = cb.cond(0, 1);
    auto code = cb.finalize();

    std::vector<std::pair<int32_t, bool>> path;
    for (int i = 0; i < 4; ++i) {
        path.push_back({a, false});
        path.push_back({br1, true});
    }
    Trace t = makeTestTrace(code, path);
    auto s = computeBlockLengthStats(t);
    // XBs of 10; dual pairs 10+10 capped at 16.
    EXPECT_EQ(s.dualXb.count(16), 2u);
}

TEST(TraceIo, RoundTrip)
{
    CodeBuilder cb;
    int32_t a = cb.seq(2);
    int32_t br = cb.cond(0, 1);
    auto code = cb.finalize();
    Trace t = makeTestTrace(code, {{a, 0}, {br, 1}, {a, 0}, {br, 0}},
                            "roundtrip");

    std::string path = testing::TempDir() + "/xbs_roundtrip.xbt";
    ASSERT_TRUE(writeTraceEx(t, path).isOk());
    Expected<Trace> back = readTraceEx(path);
    std::remove(path.c_str());
    ASSERT_TRUE(back.ok()) << back.status().toString();
    const Trace &u = back.value();

    EXPECT_EQ(u.name(), "roundtrip");
    ASSERT_EQ(u.numRecords(), t.numRecords());
    EXPECT_EQ(u.code().size(), t.code().size());
    for (std::size_t i = 0; i < t.numRecords(); ++i) {
        EXPECT_EQ(u.record(i).staticIdx, t.record(i).staticIdx);
        EXPECT_EQ(u.record(i).taken, t.record(i).taken);
        EXPECT_EQ(u.inst(i).ip, t.inst(i).ip);
        EXPECT_EQ(u.inst(i).numUops, t.inst(i).numUops);
        EXPECT_EQ(u.inst(i).cls, t.inst(i).cls);
    }
    u.validate();
}

} // anonymous namespace
} // namespace xbs
