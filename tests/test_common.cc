/**
 * @file
 * Unit tests for the common utility library: bit operations, the
 * deterministic RNG, statistics, histograms, table formatting, and
 * SHA-256.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "common/bitops.hh"
#include "common/crc32.hh"
#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/sha256.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace xbs
{
namespace
{

TEST(Bitops, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(12));
}

TEST(Bitops, Logarithms)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);

    // Edges: 0 keeps its historical results, 2^k +- 1 straddle the
    // boundaries, and the top bit and all-ones use every bit.
    EXPECT_EQ(floorLog2(0), 0u);
    EXPECT_EQ(ceilLog2(0), 1u);
    EXPECT_EQ(ceilLog2(1), 0u);
    for (unsigned k = 2; k < 64; ++k) {
        const uint64_t p = 1ULL << k;
        EXPECT_EQ(floorLog2(p - 1), k - 1) << k;
        EXPECT_EQ(floorLog2(p), k) << k;
        EXPECT_EQ(floorLog2(p + 1), k) << k;
        EXPECT_EQ(ceilLog2(p - 1), k) << k;
        EXPECT_EQ(ceilLog2(p), k) << k;
        EXPECT_EQ(ceilLog2(p + 1), k + 1) << k;
    }
    EXPECT_EQ(floorLog2(1ULL << 63), 63u);
    EXPECT_EQ(ceilLog2(1ULL << 63), 63u);
    EXPECT_EQ(floorLog2(UINT64_MAX), 63u);
    EXPECT_EQ(ceilLog2(UINT64_MAX), 64u);
}

TEST(Bitops, MaskAndBits)
{
    EXPECT_EQ(mask(0), 0ULL);
    EXPECT_EQ(mask(4), 0xfULL);
    EXPECT_EQ(mask(64), ~0ULL);
    EXPECT_EQ(bits(0xabcdULL, 4, 8), 0xbcULL);
}

TEST(Bitops, FoldedIndexInRange)
{
    for (uint64_t ip : {0ULL, 1ULL, 0x400000ULL, 0xdeadbeefULL}) {
        EXPECT_LT(foldedIndex(ip, 1024), 1024ULL);
        EXPECT_EQ(foldedIndex(ip, 1), 0ULL);
    }
}

TEST(Bitops, FoldedIndexSpreads)
{
    // Consecutive hot addresses must not collapse to few sets.
    std::set<uint64_t> seen;
    for (uint64_t ip = 0x400000; ip < 0x400000 + 4096; ip += 4)
        seen.insert(foldedIndex(ip, 256));
    EXPECT_GE(seen.size(), 200u);
}

TEST(Bitops, PopCount)
{
    EXPECT_EQ(popCount(0), 0u);
    EXPECT_EQ(popCount(0xf), 4u);
    EXPECT_EQ(popCount(~0ULL), 64u);
    EXPECT_EQ(popCount(1ULL << 63), 1u);
    EXPECT_EQ(popCount((1ULL << 63) + 1), 2u);
    EXPECT_EQ(popCount((1ULL << 32) - 1), 32u);
    EXPECT_EQ(popCount(UINT64_MAX - 1), 63u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    bool differs = false;
    for (int i = 0; i < 100; ++i) {
        uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17ULL);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= v == -3;
        hit_hi |= v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformMean)
{
    Rng rng(99);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceProbability)
{
    Rng rng(5);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR((double)hits / n, 0.3, 0.02);
}

TEST(Rng, WeightedRespectWeights)
{
    Rng rng(11);
    std::vector<double> w = {1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.weighted(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR((double)counts[2] / counts[0], 3.0, 0.4);
}

TEST(Rng, BoundedGeometricMeanAndCap)
{
    Rng rng(13);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        uint32_t v = rng.boundedGeometric(4.0, 100);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 100u);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 4.0, 0.25);
}

TEST(Rng, BoundedGeometricCapBinds)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(rng.boundedGeometric(50.0, 8), 8u);
}

TEST(Zipf, SkewedTowardLowRanks)
{
    Rng rng(3);
    ZipfTable table(100, 1.0);
    int low = 0, high = 0;
    for (int i = 0; i < 10000; ++i) {
        std::size_t r = table.sample(rng);
        EXPECT_LT(r, 100u);
        if (r < 10)
            ++low;
        if (r >= 90)
            ++high;
    }
    EXPECT_GT(low, high * 5);
}

TEST(Stats, ScalarAccumulates)
{
    StatGroup root("root");
    ScalarStat s(&root, "s", "test");
    ++s;
    s += 4;
    EXPECT_EQ(s.value(), 5u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, AverageMean)
{
    StatGroup root("root");
    AverageStat a(&root, "a", "test");
    a.sample(1.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_EQ(a.count(), 2u);
}

TEST(Stats, DistributionBuckets)
{
    StatGroup root("root");
    DistributionStat d(&root, "d", "test", 0.0, 10.0, 1.0);
    d.sample(0.5);
    d.sample(1.5);
    d.sample(1.6);
    d.sample(-1.0);   // underflow
    d.sample(100.0);  // overflow
    EXPECT_EQ(d.samples(), 5u);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(1), 2u);
}

TEST(Stats, GroupDumpAndFind)
{
    StatGroup root("root");
    StatGroup child("child", &root);
    ScalarStat s(&child, "hits", "hits");
    s += 7;
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("root.child.hits"), std::string::npos);

    const StatBase *found = root.find("child.hits");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(dynamic_cast<const ScalarStat *>(found)->value(), 7u);
    EXPECT_EQ(root.find("child.nope"), nullptr);
    EXPECT_EQ(root.find("nope.hits"), nullptr);
}

TEST(Stats, GroupReset)
{
    StatGroup root("root");
    ScalarStat s(&root, "s", "test");
    s += 3;
    root.resetStats();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Histogram, MeanAndFraction)
{
    Histogram h(16);
    h.add(4, 2);
    h.add(8);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_NEAR(h.mean(), (4 * 2 + 8) / 3.0, 1e-9);
    EXPECT_NEAR(h.fraction(4), 2.0 / 3.0, 1e-9);
}

TEST(Histogram, ClampsToDomain)
{
    Histogram h(16);
    h.add(100);
    EXPECT_EQ(h.count(16), 1u);
}

TEST(Histogram, Merge)
{
    Histogram a(16), b(16);
    a.add(2);
    b.add(2);
    b.add(6);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.count(2), 2u);
}

TEST(Histogram, Percentile)
{
    Histogram h(16);
    for (uint32_t v = 1; v <= 10; ++v)
        h.add(v);
    EXPECT_EQ(h.percentile(0.5), 5u);
    EXPECT_EQ(h.percentile(1.0), 10u);
}

TEST(Histogram, SummaryPercentiles)
{
    Histogram h(200);
    for (uint32_t v = 1; v <= 100; ++v)
        h.add(v);
    EXPECT_EQ(h.p50(), 50u);
    EXPECT_EQ(h.p95(), 95u);
    EXPECT_EQ(h.p99(), 99u);
}

TEST(Histogram, SummaryPercentilesSingleBin)
{
    Histogram h(16);
    h.add(7, 1000);
    EXPECT_EQ(h.p50(), 7u);
    EXPECT_EQ(h.p95(), 7u);
    EXPECT_EQ(h.p99(), 7u);
}

TEST(Histogram, PercentileOfEmptyIsZero)
{
    Histogram h(16);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p95(), 0u);
    EXPECT_EQ(h.p99(), 0u);
}

// Regression: with few samples, p * total truncates to zero, which
// used to "satisfy" the target at bin 0 before any mass accumulated.
TEST(Histogram, SmallTotalPercentilesHitTheSample)
{
    Histogram h(16);
    h.add(7);
    EXPECT_EQ(h.p50(), 7u);
    EXPECT_EQ(h.p95(), 7u);
    EXPECT_EQ(h.p99(), 7u);

    Histogram two(16);
    two.add(3);
    two.add(9);
    EXPECT_EQ(two.percentile(0.25), 3u);
    EXPECT_EQ(two.p50(), 3u);
    EXPECT_EQ(two.p99(), 9u);
}

TEST(Histogram, PercentileClampsP)
{
    Histogram h(16);
    h.add(5);
    EXPECT_EQ(h.percentile(-1.0), 5u);
    EXPECT_EQ(h.percentile(2.0), 5u);
}

TEST(Histogram, RenderContainsBars)
{
    Histogram h(16);
    h.add(3, 10);
    h.add(7, 5);
    std::string r = h.render("test");
    EXPECT_NE(r.find("test"), std::string::npos);
    EXPECT_NE(r.find('#'), std::string::npos);
    EXPECT_NE(r.find("3 |"), std::string::npos);
}

TEST(Histogram, RenderEmpty)
{
    Histogram h(4);
    EXPECT_NE(h.render("empty").find("<empty>"), std::string::npos);
}

TEST(Logging, QuietSuppressesInform)
{
    setLogQuiet(true);
    EXPECT_TRUE(logQuiet());
    xbs_inform("this should not appear");
    setLogQuiet(false);
    EXPECT_FALSE(logQuiet());
}

TEST(Table, RenderAligned)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::string s = t.render();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CsvQuoting)
{
    TextTable t({"a", "b"});
    t.addRow({"x,y", "he said \"hi\""});
    std::string csv = t.csv();
    EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
    EXPECT_NE(csv.find("\"\"hi\"\""), std::string::npos);
}

TEST(Table, Formatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(0.295, 1), "29.5%");
}

// The hand-rolled SHA-256 guards checkpoints; pin it to the FIPS
// 180-4 vectors.
TEST(Sha256, KnownVectors)
{
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca4959"
              "91b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410f"
              "f61f20015ad");
    EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklm"
                        "nlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd"
              "419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    const std::string text =
        "a checkpoint is restored only if its guard hash matches";
    Sha256 h;
    for (char c : text)
        h.update(&c, 1);
    EXPECT_EQ(h.hexDigest(), sha256Hex(text));
}

TEST(Sha256, LengthBoundaryBlocks)
{
    // 55/56/64 bytes straddle the padding boundary cases.
    for (std::size_t len : {55u, 56u, 63u, 64u, 65u}) {
        std::string a(len, 'x');
        Sha256 h;
        h.update(a.substr(0, len / 2));
        h.update(a.substr(len / 2));
        EXPECT_EQ(h.hexDigest(), sha256Hex(a)) << "len " << len;
    }
}

// CRC-32 guards checkpoint sections and trace files; pin the
// slicing-by-8 form to the standard check value and to a plain
// bit-at-a-time reference.
uint32_t
crc32Reference(const uint8_t *p, std::size_t len)
{
    uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return ~crc;
}

TEST(Crc32, CheckValue)
{
    EXPECT_EQ(crc32(0, "123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32(0, "", 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLength)
{
    Rng rng(11);
    std::vector<uint8_t> buf(64 + 7);
    for (std::size_t len = 0; len <= 64; ++len) {
        // Every start alignment within an 8-byte slice.
        for (std::size_t start = 0; start < 8; ++start) {
            for (auto &b : buf)
                b = (uint8_t)rng.next();
            EXPECT_EQ(crc32(0, buf.data() + start, len),
                      crc32Reference(buf.data() + start, len))
                << "len " << len << " start " << start;
        }
    }
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    Rng rng(5);
    std::vector<uint8_t> buf(100);
    for (auto &b : buf)
        b = (uint8_t)rng.next();
    const uint32_t whole = crc32(0, buf.data(), buf.size());
    for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
        const uint32_t head = crc32(0, buf.data(), cut);
        EXPECT_EQ(crc32(head, buf.data() + cut, buf.size() - cut), whole)
            << "cut " << cut;
    }
    uint32_t bytewise = 0;
    for (uint8_t b : buf)
        bytewise = crc32(bytewise, &b, 1);
    EXPECT_EQ(bytewise, whole);
}

} // anonymous namespace
} // namespace xbs
