/**
 * @file
 * Tests for the simulation driver: config factory, suite runner,
 * and aggregation helpers.
 */

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/runner.hh"

namespace xbs
{
namespace
{

TEST(Config, FactoryProducesNamedFrontends)
{
    EXPECT_EQ(makeFrontend(SimConfig::icBaseline())->name(), "ic");
    EXPECT_EQ(makeFrontend(SimConfig::dcBaseline())->name(), "dcfe");
    EXPECT_EQ(makeFrontend(SimConfig::tcBaseline())->name(), "tc");
    EXPECT_EQ(makeFrontend(SimConfig::bbtcBaseline())->name(),
              "bbtc");
    EXPECT_EQ(makeFrontend(SimConfig::xbcBaseline())->name(),
              "xbcfe");
}

TEST(Config, BaselineCapacities)
{
    auto tc = SimConfig::tcBaseline(16384, 2);
    EXPECT_EQ(tc.tc.capacityUops, 16384u);
    EXPECT_EQ(tc.tc.ways, 2u);
    auto xbc = SimConfig::xbcBaseline(8192, 1);
    EXPECT_EQ(xbc.xbc.capacityUops, 8192u);
    EXPECT_EQ(xbc.xbc.ways, 1u);
}

TEST(Config, KindNames)
{
    EXPECT_STREQ(frontendKindName(FrontendKind::Ic), "IC");
    EXPECT_STREQ(frontendKindName(FrontendKind::Dc), "DC");
    EXPECT_STREQ(frontendKindName(FrontendKind::Tc), "TC");
    EXPECT_STREQ(frontendKindName(FrontendKind::Bbtc), "BBTC");
    EXPECT_STREQ(frontendKindName(FrontendKind::Xbc), "XBC");
}

TEST(Config, UnsignedFieldsRejectValuesAboveUint32)
{
    // A cast would truncate these mod 2^32: a 32K TC, 2 ways.
    RunSpec spec;
    spec.frontend = "tc";
    spec.capacity = 4295000064ull;
    Expected<SimConfig> big = spec.config();
    ASSERT_FALSE(big.ok());
    EXPECT_NE(big.status().cause().find("capacity 4295000064"),
              std::string::npos)
        << big.status().toString();
    spec.capacity = 32768;
    spec.ways = 4294967298ull;
    EXPECT_FALSE(spec.config().ok());

    // UINT32_MAX itself still fits.
    spec.ways = 4294967295ull;
    ASSERT_TRUE(spec.config().ok());
    EXPECT_EQ(spec.config().value().tc.ways, 4294967295u);

    EXPECT_TRUE(checkUnsignedFlags({{"xbtb-entries", 8192},
                                    {"fetch-xbs", 4294967295ull}})
                    .isOk());
    Status st = checkUnsignedFlags({{"xbtb-entries", 4096},
                                    {"fetch-xbs", 4294967298ull}});
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.cause().find("fetch-xbs 4294967298"), std::string::npos)
        << st.toString();
}

TEST(Runner, RunOneProducesMetrics)
{
    SuiteRunner runner(15000, {"compress"});
    RunResult r = runner.runOne("compress", "xbc",
                                SimConfig::xbcBaseline());
    EXPECT_EQ(r.workload, "compress");
    EXPECT_EQ(r.suite, "SPECint95");
    EXPECT_EQ(r.label, "xbc");
    EXPECT_GT(r.bandwidth, 0.0);
    EXPECT_GE(r.missRate, 0.0);
    EXPECT_LE(r.missRate, 1.0);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.totalUops, 0u);
}

TEST(Runner, SweepCoversWorkloadsTimesConfigs)
{
    SuiteRunner runner(8000, {"compress", "quake2"});
    std::vector<std::pair<std::string, SimConfig>> configs = {
        {"tc", SimConfig::tcBaseline()},
        {"xbc", SimConfig::xbcBaseline()},
    };
    unsigned progress_calls = 0;
    auto results = runner.sweep(configs, [&](const RunResult &) {
        ++progress_calls;
    });
    EXPECT_EQ(results.size(), 4u);
    EXPECT_EQ(progress_calls, 4u);

    // Workload-outer order: both configs of a workload adjacent.
    EXPECT_EQ(results[0].workload, results[1].workload);
    EXPECT_NE(results[0].label, results[1].label);
}

TEST(Runner, DefaultsToFullCatalog)
{
    SuiteRunner runner(1000);
    EXPECT_EQ(runner.workloads().size(), 21u);
}

TEST(Runner, Aggregation)
{
    std::vector<RunResult> rs;
    RunResult a;
    a.label = "x";
    a.suite = "S1";
    a.missRate = 0.2;
    a.bandwidth = 6.0;
    RunResult b = a;
    b.missRate = 0.4;
    b.bandwidth = 8.0;
    RunResult c = a;
    c.suite = "S2";
    c.missRate = 0.9;
    rs = {a, b, c};

    EXPECT_NEAR(SuiteRunner::meanMissRate(rs, "x", "S1"), 0.3, 1e-9);
    EXPECT_NEAR(SuiteRunner::meanMissRate(rs, "x"), 0.5, 1e-9);
    EXPECT_NEAR(SuiteRunner::meanBandwidth(rs, "x", "S1"), 7.0, 1e-9);
    EXPECT_DOUBLE_EQ(SuiteRunner::meanMissRate(rs, "nolabel"), 0.0);
}

TEST(Runner, RedundancyReportedPerStructure)
{
    SuiteRunner runner(15000, {"word"});
    RunResult tc = runner.runOne("word", "tc",
                                 SimConfig::tcBaseline());
    RunResult xbc = runner.runOne("word", "xbc",
                                  SimConfig::xbcBaseline());
    EXPECT_GT(tc.redundancy, 1.2);
    EXPECT_LT(xbc.redundancy, tc.redundancy);
}

} // anonymous namespace
} // namespace xbs
