/**
 * @file
 * Tests for the full XBC frontend: conservation, mode behavior,
 * branch promotion / de-promotion dynamics, set search, the
 * complex-XB storage modes, parameterized invariant sweeps, and the
 * XBTB's lookup hints.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/xbc_frontend.hh"
#include "test_helpers.hh"
#include "workload/catalog.hh"
#include "workload/cfg.hh"
#include "workload/executor.hh"

namespace xbs
{
namespace
{

TEST(XbcFrontend, Conservation)
{
    Trace trace = makeCatalogTrace("li", 30000);
    FrontendParams fp;
    XbcParams xp;
    XbcFrontend fe(fp, xp);
    fe.run(trace);
    EXPECT_EQ(fe.metrics().deliveryUops.value() +
                  fe.metrics().buildUops.value(),
              trace.totalUops());
    fe.dataArray().checkInvariants();
}

TEST(XbcFrontend, WarmLoopReachesDeliveryMode)
{
    Trace trace = makeCatalogTrace("compress", 50000);
    FrontendParams fp;
    XbcFrontend fe(fp, XbcParams{});
    fe.run(trace);
    EXPECT_LT(fe.metrics().missRate(), 0.05);
    EXPECT_GT(fe.metrics().bandwidth(), 4.0);
    EXPECT_GT(fe.buildExits.value(), 0u);
}

TEST(XbcFrontend, BandwidthBoundedByRenamer)
{
    Trace trace = makeCatalogTrace("go", 30000);
    FrontendParams fp;
    XbcFrontend fe(fp, XbcParams{});
    fe.run(trace);
    EXPECT_LE(fe.metrics().bandwidth(),
              (double)fp.renamerWidth + 1e-9);
}

TEST(XbcFrontend, NearlyRedundancyFree)
{
    Trace trace = makeCatalogTrace("word", 50000);
    FrontendParams fp;
    XbcFrontend fe(fp, XbcParams{});
    fe.run(trace);
    // "Nearly redundancy free": only transient promotion copies.
    EXPECT_LT(fe.dataArray().redundancy(), 1.6);
}

TEST(XbcFrontend, SmallerCacheMissesMore)
{
    Trace trace = makeCatalogTrace("excel", 60000);
    FrontendParams fp;
    XbcParams small, large;
    small.capacityUops = 4096;
    large.capacityUops = 65536;
    XbcFrontend fs(fp, small), fl(fp, large);
    fs.run(trace);
    fl.run(trace);
    EXPECT_GT(fs.metrics().missRate(), fl.metrics().missRate());
}

/**
 * A hand-built workload with one >99%-monotonic branch between two
 * hot XBs: promotion must fire and supply through the branch.
 */
std::shared_ptr<const Program>
makeMonotonicProgram()
{
    CfgProgram cfg("mono");
    int f = cfg.addFunction("main");
    auto &fn = cfg.function(f);

    // header: body, monotonic NT branch, body, latch loop.
    int header = fn.addBlock();
    fn.blocks[header].body.push_back({4, 2});
    fn.blocks[header].body.push_back({4, 2});
    CondBehavior mono;
    mono.kind = CondBehavior::Kind::Biased;
    mono.biasTaken = 0.001;  // essentially never taken
    mono.seed = 7;
    fn.blocks[header].term.kind = TermKind::CondBranch;
    fn.blocks[header].term.cond = mono;
    fn.blocks[header].term.length = 2;
    fn.blocks[header].term.numUops = 1;

    int mid = fn.addBlock();  // fall-through path (the hot one)
    fn.blocks[mid].body.push_back({4, 2});
    fn.blocks[mid].body.push_back({4, 1});
    CondBehavior loop;
    loop.kind = CondBehavior::Kind::Loop;
    loop.tripCount = 1u << 30;
    loop.tripJitter = 0.0;
    fn.blocks[mid].term.kind = TermKind::CondBranch;
    fn.blocks[mid].term.targetBlock = header;
    fn.blocks[mid].term.cond = loop;
    fn.blocks[mid].term.length = 2;
    fn.blocks[mid].term.numUops = 1;

    int cold = fn.addBlock();  // taken target of the monotonic branch
    fn.blocks[cold].body.push_back({4, 1});
    fn.blocks[cold].term.kind = TermKind::Jump;
    fn.blocks[cold].term.targetBlock = cold + 1;
    int exit_blk = fn.addBlock();
    fn.blocks[exit_blk].term.kind = TermKind::Return;

    cfg.function(f).blocks[header].term.targetBlock = cold;
    return cfg.link();
}

TEST(XbcPromotion, MonotonicBranchGetsPromoted)
{
    auto prog = makeMonotonicProgram();
    Trace trace = Executor(prog, 3).run(30000);

    FrontendParams fp;
    XbcParams xp;
    XbcFrontend fe(fp, xp);
    fe.run(trace);

    EXPECT_GE(fe.promotions.value(), 1u);
    EXPECT_GT(fe.promotedSupplied.value(), 100u);
    fe.dataArray().checkInvariants();

    // The promoted branch no longer consumes predictions: the
    // frontend makes strictly fewer conditional predictions than a
    // promotion-free configuration (that is the bandwidth win the
    // paper claims for a fixed prediction bandwidth).
    XbcParams off;
    off.promotionEnabled = false;
    XbcFrontend base(fp, off);
    base.run(trace);
    EXPECT_EQ(base.promotions.value(), 0u);
    EXPECT_LT(fe.metrics().condBranches.value(),
              base.metrics().condBranches.value());
}

TEST(XbcPromotion, WrongPathRedirectsWithoutBuild)
{
    auto prog = makeMonotonicProgram();
    Trace trace = Executor(prog, 3).run(60000);
    FrontendParams fp;
    XbcFrontend fe(fp, XbcParams{});
    fe.run(trace);
    // The 0.1% taken path occurs a few dozen times in 60K insts; at
    // least some must hit the promoted wrong-path redirect.
    EXPECT_GT(fe.promotedWrongPath.value(), 0u);
    fe.dataArray().checkInvariants();
}

/** A branch that turns monotonic, then flips: must de-promote. */
TEST(XbcPromotion, MisbehavingBranchDepromotes)
{
    CodeBuilder cb;
    int32_t a = cb.seq(2);
    int32_t br = cb.cond(kNoTarget, 1);   // patched below
    int32_t b = cb.seq(2);
    int32_t latch = cb.cond(0, 1);        // loop back to a
    int32_t tgt = cb.seq(1);              // br's taken target
    int32_t j = cb.jump(2);               // jump back to b
    cb.patchTarget(br, tgt);
    auto code = cb.finalize();

    std::vector<std::pair<int32_t, bool>> path;
    // Phase 1: br always not-taken (promotes).
    for (int i = 0; i < 400; ++i) {
        path.push_back({a, false});
        path.push_back({br, false});
        path.push_back({b, false});
        path.push_back({latch, true});
    }
    // Phase 2: br always taken (misbehaves; must de-promote).
    for (int i = 0; i < 400; ++i) {
        path.push_back({a, false});
        path.push_back({br, true});
        path.push_back({tgt, false});
        path.push_back({j, false});
        path.push_back({b, false});
        path.push_back({latch, true});
    }
    Trace trace = makeTestTrace(code, path);

    FrontendParams fp;
    XbcFrontend fe(fp, XbcParams{});
    fe.run(trace);
    EXPECT_GE(fe.promotions.value(), 1u);
    EXPECT_GE(fe.depromotions.value(), 1u);
    fe.dataArray().checkInvariants();
}

TEST(XbcFrontend, SetSearchSavesBuilds)
{
    Trace trace = makeCatalogTrace("word", 60000);
    FrontendParams fp;
    XbcParams with, without;
    without.setSearchEnabled = false;
    XbcFrontend fw(fp, with), fo(fp, without);
    fw.run(trace);
    fo.run(trace);
    EXPECT_GT(fw.dataArray().setSearchHits.value(), 0u);
    // Set search turns rebuilds into one-cycle penalties.
    EXPECT_LE(fw.metrics().missRate(),
              fo.metrics().missRate() + 1e-9);
}

struct ModeParams
{
    XbcParams::ComplexMode mode;
    const char *name;
};

class ComplexModeTest : public testing::TestWithParam<ModeParams>
{
};

TEST_P(ComplexModeTest, ConservationAndInvariants)
{
    Trace trace = makeCatalogTrace("perl", 30000);
    FrontendParams fp;
    XbcParams xp;
    xp.complexMode = GetParam().mode;
    XbcFrontend fe(fp, xp);
    fe.run(trace);
    EXPECT_EQ(fe.metrics().deliveryUops.value() +
                  fe.metrics().buildUops.value(),
              trace.totalUops());
    fe.dataArray().checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ComplexModeTest,
    testing::Values(
        ModeParams{XbcParams::ComplexMode::Complex, "complex"},
        ModeParams{XbcParams::ComplexMode::PrefixSplit, "split"},
        ModeParams{XbcParams::ComplexMode::Duplicate, "dup"}),
    [](const testing::TestParamInfo<ModeParams> &info) {
        return info.param.name;
    });

struct GeometryParams
{
    unsigned banks;
    unsigned bankUops;
    unsigned ways;
    unsigned capacity;
    unsigned fetchXbs;
};

class GeometryTest : public testing::TestWithParam<GeometryParams>
{
};

TEST_P(GeometryTest, RunsCleanAcrossGeometries)
{
    const auto g = GetParam();
    Trace trace = makeCatalogTrace("go", 25000);
    FrontendParams fp;
    XbcParams xp;
    xp.numBanks = g.banks;
    xp.bankUops = g.bankUops;
    xp.ways = g.ways;
    xp.capacityUops = g.capacity;
    xp.xbQuotaUops = std::min(16u, g.banks * g.bankUops);
    xp.fetchXbsPerCycle = g.fetchXbs;
    XbcFrontend fe(fp, xp);
    fe.run(trace);
    EXPECT_EQ(fe.metrics().deliveryUops.value() +
                  fe.metrics().buildUops.value(),
              trace.totalUops());
    EXPECT_LE(fe.metrics().bandwidth(),
              (double)fp.renamerWidth + 1e-9);
    fe.dataArray().checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeometryTest,
    testing::Values(GeometryParams{4, 4, 2, 32768, 2},
                    GeometryParams{4, 4, 1, 32768, 2},
                    GeometryParams{4, 4, 4, 32768, 2},
                    GeometryParams{2, 8, 2, 32768, 2},
                    GeometryParams{8, 2, 2, 32768, 2},
                    GeometryParams{4, 4, 2, 8192, 2},
                    GeometryParams{4, 4, 2, 65536, 2},
                    GeometryParams{4, 4, 2, 32768, 1},
                    GeometryParams{4, 4, 2, 32768, 3}));

TEST(XbcFrontend, SingleXbPerCycleLowersBandwidth)
{
    Trace trace = makeCatalogTrace("vortex", 40000);
    FrontendParams fp;
    XbcParams one, two;
    one.fetchXbsPerCycle = 1;
    two.fetchXbsPerCycle = 2;
    XbcFrontend f1(fp, one), f2(fp, two);
    f1.run(trace);
    f2.run(trace);
    EXPECT_LT(f1.metrics().bandwidth(), f2.metrics().bandwidth());
}

TEST(XbcFrontend, OutMuxRoutesEveryDeliveryCycle)
{
    Trace trace = makeCatalogTrace("compress", 30000);
    FrontendParams fp;
    XbcFrontend fe(fp, XbcParams{});
    fe.run(trace);
    // Hot loops mean plenty of delivery cycles, each closed once.
    EXPECT_GT(fe.outMux().cycles.value(), 1000u);
    EXPECT_GE(fe.outMux().segments.value(),
              fe.outMux().cycles.value());
    // The mux never sees more than the 16-uop fetch width.
    EXPECT_LE(fe.outMux().occupancy.mean(), 16.0);
    EXPECT_GT(fe.outMux().occupancy.mean(), 4.0);
}

TEST(XbcFrontend, ContinuousInvariantStress)
{
    // Run with the invariant checker armed on every 32 completions:
    // any bookkeeping drift in the data array aborts loudly.
    Trace trace = makeCatalogTrace("netscape", 40000);
    FrontendParams fp;
    XbcParams xp;
    xp.capacityUops = 4096;  // small = heavy eviction traffic
    xp.checkInvariantsEveryN = 32;
    XbcFrontend fe(fp, xp);
    fe.run(trace);
    fe.dataArray().checkInvariants();
    EXPECT_EQ(fe.metrics().deliveryUops.value() +
                  fe.metrics().buildUops.value(),
              trace.totalUops());
}

TEST(XbcFrontend, DeterministicRuns)
{
    Trace trace = makeCatalogTrace("halflife", 20000);
    FrontendParams fp;
    XbcFrontend a(fp, XbcParams{}), b(fp, XbcParams{});
    a.run(trace);
    b.run(trace);
    EXPECT_EQ(a.metrics().cycles.value(), b.metrics().cycles.value());
    EXPECT_EQ(a.metrics().deliveryUops.value(),
              b.metrics().deliveryUops.value());
    EXPECT_EQ(a.promotions.value(), b.promotions.value());
}

// ---------------------------------------------------------------
// XBTB lookup hints: a host cache that never changes what a probe
// returns, counts or ages.

TEST(XbtbHint, StaleHintIsIgnored)
{
    StatGroup root("t");
    Xbtb xbtb(2, 2, &root);  // one set of two ways
    Xbtb::Entry *hint = &xbtb.allocate(0x100, InstClass::CondBranch);
    EXPECT_EQ(xbtb.find(0x100, hint), hint);
    xbtb.allocate(0x200, InstClass::CondBranch);

    // The LRU way is reallocated to another IP.
    xbtb.allocate(0x300, InstClass::CondBranch);
    ASSERT_EQ(hint->xbIp, 0x300u);
    EXPECT_EQ(xbtb.find(0x100, hint), nullptr);
    EXPECT_EQ(xbtb.lookup(0x100, hint), xbtb.lookup(0x100));
    EXPECT_EQ(xbtb.lookup(0x200, hint), xbtb.lookup(0x200));
    EXPECT_NE(xbtb.find(0x200, hint), nullptr);

    // reset() clears the entry the hint names, leaving IP 0 in it.
    Xbtb::Entry *h200 = xbtb.find(0x200);
    xbtb.reset();
    EXPECT_EQ(xbtb.find(0x200, h200), nullptr);
    EXPECT_EQ(xbtb.lookup(0x200, h200), nullptr);
    EXPECT_EQ(xbtb.find(0, h200), nullptr);
    EXPECT_EQ(xbtb.hits.value(), 0u);
}

TEST(XbtbHint, HintedTwinCountsAndAgesAlike)
{
    // Two XBTBs see one random stream of allocations, lookups and
    // finds over more IPs than they hold. One passes each IP's last
    // returned entry (or a random other IP's) as the hint; the other
    // passes none.
    StatGroup root_a("a"), root_b("b");
    Xbtb hinted(64, 4, &root_a), plain(64, 4, &root_b);
    std::vector<Xbtb::Entry *> last(300, nullptr);
    auto slot = [](const Xbtb &t, const Xbtb::Entry *e) {
        return e ? (long)t.indexOf(*e) : -1L;
    };
    Rng rng(11);
    for (int i = 0; i < 20000; ++i) {
        const std::size_t k = rng.below(last.size());
        const uint64_t ip = 0x1000 + 3 * k;
        Xbtb::Entry *hint =
            rng.chance(0.2) ? last[rng.below(last.size())] : last[k];
        switch (rng.below(3)) {
          case 0:
            hinted.allocate(ip, InstClass::CondBranch);
            plain.allocate(ip, InstClass::CondBranch);
            break;
          case 1: {
            Xbtb::Entry *a = hinted.lookup(ip, hint);
            ASSERT_EQ(slot(hinted, a), slot(plain, plain.lookup(ip)));
            last[k] = a;
            break;
          }
          default: {
            Xbtb::Entry *a = hinted.find(ip, hint);
            ASSERT_EQ(slot(hinted, a), slot(plain, plain.find(ip)));
            last[k] = a;
            break;
          }
        }
    }
    EXPECT_EQ(hinted.lookups.value(), plain.lookups.value());
    EXPECT_EQ(hinted.hits.value(), plain.hits.value());
    EXPECT_GT(hinted.hits.value(), 0u);
    EXPECT_GT(hinted.entryEvictions.value(), 0u);
    for (std::size_t i = 0; i < hinted.entryCount(); ++i) {
        EXPECT_EQ(hinted.entryAt(i).valid, plain.entryAt(i).valid);
        EXPECT_EQ(hinted.entryAt(i).xbIp, plain.entryAt(i).xbIp);
        EXPECT_EQ(hinted.entryAt(i).lru, plain.entryAt(i).lru);
    }
}

} // anonymous namespace
} // namespace xbs
