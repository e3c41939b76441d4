/**
 * @file
 * Unit tests for the trace-cache baseline: fill-unit end conditions,
 * the cache's redundancy/replacement behavior, and the frontend's
 * conservation and mode-switching properties.
 */

#include <gtest/gtest.h>

#include "tc/fill_unit.hh"
#include "tc/tc_frontend.hh"
#include "tc/trace_cache.hh"
#include "test_helpers.hh"
#include "workload/catalog.hh"

namespace xbs
{
namespace
{

std::vector<TraceLine>
collectTraces(const Trace &trace, const TraceLimits &limits)
{
    TcFillUnit fill(limits);
    std::vector<TraceLine> out;
    for (std::size_t i = 0; i < trace.numRecords(); ++i) {
        fill.feed(trace, i,
                  [&](const TraceLine &l) { out.push_back(l); });
    }
    return out;
}

TEST(TcFill, EndsOnThirdCondBranch)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    int32_t b1 = cb.cond(0);
    int32_t b2 = cb.cond(0);
    int32_t b3 = cb.cond(0);
    int32_t c = cb.seq();
    cb.jump(0);
    auto code = cb.finalize();

    Trace t = makeTestTrace(code, {{a, 0}, {b1, 0}, {b2, 0}, {b3, 0},
                                   {c, 0}});
    TraceLimits lim;
    auto traces = collectTraces(t, lim);
    ASSERT_GE(traces.size(), 1u);
    // First trace ends exactly at the third conditional branch.
    EXPECT_EQ(traces[0].insts.size(), 4u);
    EXPECT_EQ(traces[0].numCondBranches, 3u);
}

TEST(TcFill, EndsOnReturnAndIndirect)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    int32_t r = cb.ret();
    int32_t b = cb.seq();
    int32_t ij = cb.add(InstClass::IndirectJump, 3, 2, kNoTarget, 0);
    auto code = cb.finalize();

    Trace t = makeTestTrace(code, {{a, 0}, {r, 0}, {b, 0}, {ij, 0}});
    auto traces = collectTraces(t, TraceLimits{});
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].insts.back().staticIdx, r);
    EXPECT_EQ(traces[1].insts.back().staticIdx, ij);
}

TEST(TcFill, QuotaSplits)
{
    CodeBuilder cb;
    std::vector<int32_t> seqs;
    for (int i = 0; i < 6; ++i)
        seqs.push_back(cb.seq(4));
    cb.jump(0);
    auto code = cb.finalize();

    std::vector<std::pair<int32_t, bool>> path;
    for (int32_t s : seqs)
        path.push_back({s, false});
    Trace t = makeTestTrace(code, path);
    auto traces = collectTraces(t, TraceLimits{});
    // 24 uops split at the 16-uop quota: the first trace holds 4
    // instructions (16 uops).
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].numUops, 16u);
}

TEST(TcFill, CallsAndJumpsEmbedded)
{
    CodeBuilder cb;
    int32_t a = cb.seq();
    int32_t j = cb.jump(2);
    int32_t b = cb.seq();
    int32_t call = cb.call(5);
    int32_t c = cb.seq();
    int32_t f = cb.seq();  // callee body
    cb.ret();
    (void)c;
    auto code = cb.finalize();

    Trace t = makeTestTrace(code, {{a, 0}, {j, 0}, {b, 0}, {call, 0},
                                   {f, 0}});
    TcFillUnit fill(TraceLimits{});
    std::vector<TraceLine> out;
    for (std::size_t i = 0; i < t.numRecords(); ++i)
        fill.feed(t, i, [&](const TraceLine &l) { out.push_back(l); });
    // No end condition seen yet: everything is one pending trace.
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(fill.active());
    EXPECT_EQ(fill.pending().insts.size(), 5u);
}

struct TcCacheFixture : public testing::Test
{
    TcCacheFixture()
        : root("test"), tc(1024, 4, TraceLimits{}, &root)
    {
    }

    TraceLine
    makeLine(const Trace &trace, std::size_t first, std::size_t count)
    {
        TraceLine l;
        l.valid = true;
        l.startIp = trace.inst(first).ip;
        for (std::size_t i = first; i < first + count; ++i) {
            l.insts.push_back(EmbeddedInst{
                (int32_t)trace.record(i).staticIdx,
                (uint8_t)trace.record(i).taken});
            l.numUops += trace.inst(i).numUops;
        }
        return l;
    }

    StatGroup root;
    TraceCache tc;
};

TEST_F(TcCacheFixture, InsertLookup)
{
    CodeBuilder cb;
    int32_t a = cb.seq(2);
    int32_t br = cb.cond(0);
    auto code = cb.finalize();
    Trace t = makeTestTrace(code, {{a, 0}, {br, 1}});

    EXPECT_EQ(tc.lookup(t.inst(0).ip), nullptr);
    tc.insert(makeLine(t, 0, 2), t.code());
    const TraceLine *l = tc.lookup(t.inst(0).ip);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->numUops, 3u);
    EXPECT_EQ(tc.hits.value(), 1u);
}

TEST_F(TcCacheFixture, NoPathAssociativity)
{
    CodeBuilder cb;
    int32_t a = cb.seq(2);
    int32_t br = cb.cond(0);
    auto code = cb.finalize();
    Trace taken_path = makeTestTrace(code, {{a, 0}, {br, 1}});
    Trace nt_path = makeTestTrace(code, {{a, 0}, {br, 0}});

    tc.insert(makeLine(taken_path, 0, 2), *code);
    tc.insert(makeLine(nt_path, 0, 2), *code);
    EXPECT_EQ(tc.replacements.value(), 1u);
    const TraceLine *l = tc.lookup(code->inst(a).ip);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->insts[1].taken, 0);
}

TEST_F(TcCacheFixture, RedundancyCountsCopies)
{
    CodeBuilder cb;
    int32_t a = cb.seq(2);
    int32_t b = cb.seq(2);
    int32_t br = cb.cond(0);
    auto code = cb.finalize();
    Trace t = makeTestTrace(code, {{a, 0}, {b, 0}, {br, 1},
                                   {b, 0}, {br, 1}});

    // Two traces overlapping on instructions b and br.
    tc.insert(makeLine(t, 0, 3), t.code());
    EXPECT_DOUBLE_EQ(tc.redundancy(), 1.0);
    tc.insert(makeLine(t, 3, 2), t.code());
    // b (2 uops) and br (1 uop) now resident twice; a once.
    EXPECT_NEAR(tc.redundancy(), 8.0 / 5.0, 1e-9);
}

TEST_F(TcCacheFixture, FillFactorReflectsFragmentation)
{
    CodeBuilder cb;
    int32_t a = cb.seq(2);
    int32_t br = cb.cond(0);
    auto code = cb.finalize();
    Trace t = makeTestTrace(code, {{a, 0}, {br, 1}});
    tc.insert(makeLine(t, 0, 2), t.code());
    // 3 uops in a 16-uop line.
    EXPECT_NEAR(tc.fillFactor(), 3.0 / 16.0, 1e-9);
}

TEST(TcFrontend, Conservation)
{
    Trace trace = makeCatalogTrace("li", 30000);
    FrontendParams fp;
    TcParams tp;
    TcFrontend fe(fp, tp);
    fe.run(trace);
    EXPECT_EQ(fe.metrics().deliveryUops.value() +
                  fe.metrics().buildUops.value(),
              trace.totalUops());
}

TEST(TcFrontend, WarmCodeHitsDeliveryMode)
{
    // A tiny loopy workload must settle into delivery mode.
    Trace trace = makeCatalogTrace("compress", 50000);
    FrontendParams fp;
    TcParams tp;
    TcFrontend fe(fp, tp);
    fe.run(trace);
    EXPECT_LT(fe.metrics().missRate(), 0.10);
    EXPECT_GT(fe.metrics().bandwidth(), 4.0);
    EXPECT_GT(fe.cache().redundancy(), 1.0);
}

TEST(TcFrontend, BandwidthBoundedByRenamer)
{
    Trace trace = makeCatalogTrace("go", 30000);
    FrontendParams fp;
    TcFrontend fe(fp, TcParams{});
    fe.run(trace);
    EXPECT_LE(fe.metrics().bandwidth(),
              (double)fp.renamerWidth + 1e-9);
}

TEST(TcBuildInDelivery, ConservesAndBuildsMore)
{
    Trace trace = makeCatalogTrace("perl", 50000);
    FrontendParams fp;
    TcParams base, always;
    always.buildInDelivery = true;
    TcFrontend fb(fp, base), fa(fp, always);
    fb.run(trace);
    fa.run(trace);
    EXPECT_EQ(fa.metrics().deliveryUops.value() +
                  fa.metrics().buildUops.value(),
              trace.totalUops());
    // Building from the delivered stream inserts strictly more
    // traces than build-mode-only filling.
    EXPECT_GT(fa.cache().inserts.value() +
                  fa.cache().replacements.value(),
              fb.cache().inserts.value() +
                  fb.cache().replacements.value());
}

TEST(TcPathAssoc, CoexistingPaths)
{
    CodeBuilder cb;
    int32_t a = cb.seq(2);
    int32_t br = cb.cond(0);
    auto code = cb.finalize();
    Trace taken_path = makeTestTrace(code, {{a, 0}, {br, 1}});
    Trace nt_path = makeTestTrace(code, {{a, 0}, {br, 0}});

    StatGroup root("t");
    TraceCache tc(1024, 4, TraceLimits{}, &root);

    auto makeLine = [&](const Trace &t) {
        TraceLine l;
        l.valid = true;
        l.startIp = t.inst(0).ip;
        for (std::size_t i = 0; i < t.numRecords(); ++i) {
            l.insts.push_back(EmbeddedInst{(int32_t)t.record(i).staticIdx,
                                           (uint8_t)t.record(i).taken});
            l.numUops += t.inst(i).numUops;
        }
        return l;
    };

    tc.insert(makeLine(taken_path), *code, /*path_associative=*/true);
    tc.insert(makeLine(nt_path), *code, /*path_associative=*/true);
    EXPECT_EQ(tc.replacements.value(), 0u);
    auto all = tc.lookupAll(code->inst(a).ip);
    EXPECT_EQ(all.size(), 2u);

    // Re-inserting an identical path refreshes instead of adding.
    tc.insert(makeLine(nt_path), *code, /*path_associative=*/true);
    EXPECT_EQ(tc.replacements.value(), 1u);
    EXPECT_EQ(tc.lookupAll(code->inst(a).ip).size(), 2u);
}

TEST(TcPathAssoc, FrontendImprovesOrMatchesBase)
{
    Trace trace = makeCatalogTrace("perl", 50000);
    FrontendParams fp;
    TcParams base, pa;
    pa.pathAssociative = true;
    TcFrontend fb(fp, base), fa(fp, pa);
    fb.run(trace);
    fa.run(trace);
    EXPECT_EQ(fa.metrics().deliveryUops.value() +
                  fa.metrics().buildUops.value(),
              trace.totalUops());
    // Perfect path selection cannot lose against replace-on-conflict
    // by much; typically it wins on alternating-path code.
    EXPECT_LE(fa.metrics().missRate(),
              fb.metrics().missRate() + 0.01);
}

TEST(TcFrontend, SmallerCacheMissesMore)
{
    Trace trace = makeCatalogTrace("word", 60000);
    FrontendParams fp;
    TcParams small, large;
    small.capacityUops = 4096;
    large.capacityUops = 65536;
    TcFrontend fs(fp, small), fl(fp, large);
    fs.run(trace);
    fl.run(trace);
    EXPECT_GT(fs.metrics().missRate(), fl.metrics().missRate());
}

} // anonymous namespace
} // namespace xbs
