/**
 * @file
 * Unit and property tests for the XBC data array: the three overlap
 * cases of the build algorithm, reverse-order extension, complex-XB
 * suffix sharing, eviction truncation (head-line rule), set search,
 * dynamic placement, the redundancy bookkeeping, insertion order
 * within a set, and allocation-free steady-state operation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "common/random.hh"
#include "core/data_array.hh"
#include "core/out_mux.hh"
#include "test_helpers.hh"

namespace
{
/** Heap allocations made through operator new so far. */
uint64_t gHeapAllocs = 0;
} // anonymous namespace

// Counting replacements for this binary's global allocator. They
// stay out of line: inlined, GCC sees malloc's pointer reach operator
// delete (or new's reach free) and warns of a mismatch.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    ++gHeapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace xbs
{
namespace
{

/**
 * Fixture with the paper's running example:
 *   A:  a1 a2 (jmp C)      - one prefix
 *   B:  b1 b2              - the other prefix, falls into C
 *   CD: c d (cond branch)  - the shared suffix
 * Each instruction expands to 2 uops, so prefixes are 4 uops and the
 * suffix is 4 uops, aligning exactly with 4-uop bank lines.
 */
struct ArrayFixture : public testing::Test
{
    ArrayFixture() : root("test")
    {
        a1 = cb.seq(2);
        a2 = cb.seq(2);
        b1 = cb.seq(2);
        b2 = cb.seq(2);
        c = cb.seq(2);
        d = cb.cond(0, 2);
        code = cb.finalize();
        endIp = code->inst(d).ip;
    }

    std::unique_ptr<XbcDataArray>
    makeArray(XbcParams p = XbcParams{})
    {
        auto arr = std::make_unique<XbcDataArray>(p, &root);
        arr->bindCode(code.get());
        return arr;
    }

    XbSeq
    seqOf(std::initializer_list<int32_t> insts)
    {
        XbSeq s;
        for (int32_t i : insts)
            appendInstUops(*code, i, s);
        return s;
    }

    CodeBuilder cb;
    StatGroup root;
    std::shared_ptr<const StaticCode> code;
    int32_t a1, a2, b1, b2, c, d;
    uint64_t endIp;
};

TEST_F(ArrayFixture, FreshAllocation)
{
    auto arr = makeArray();
    XbPointer ptr;
    auto oc = arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &ptr);
    EXPECT_EQ(oc, XbcDataArray::InsertOutcome::Allocated);
    ASSERT_TRUE(ptr.valid);
    EXPECT_EQ(ptr.xbIp, endIp);
    EXPECT_EQ(ptr.entryIdx, b1);

    auto acc = arr->lookup(endIp, ptr.mask, b1);
    ASSERT_NE(acc.variant, nullptr);
    EXPECT_EQ(acc.entryPos, 0u);
    EXPECT_EQ(acc.variant->seq.size(), 8u);
    arr->checkInvariants();
    EXPECT_DOUBLE_EQ(arr->redundancy(), 1.0);
}

TEST_F(ArrayFixture, Case1ContainedNeedsNoStorage)
{
    auto arr = makeArray();
    XbPointer full;
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &full);
    uint64_t unique_before = arr->uniqueUopsResident();

    XbPointer sub;
    auto oc = arr->insert(seqOf({c, d}), endIp, 0, &sub);
    EXPECT_EQ(oc, XbcDataArray::InsertOutcome::AlreadyPresent);
    ASSERT_TRUE(sub.valid);
    EXPECT_EQ(sub.entryIdx, c);
    EXPECT_EQ(sub.mask, full.mask);
    EXPECT_EQ(arr->uniqueUopsResident(), unique_before);

    // The mid-XB entry point must be readable (multiple entries).
    auto acc = arr->lookup(endIp, sub.mask, c);
    ASSERT_NE(acc.variant, nullptr);
    EXPECT_EQ(acc.entryPos, 4u);
    arr->checkInvariants();
}

TEST_F(ArrayFixture, Case2ExtensionGrowsAtHead)
{
    auto arr = makeArray();
    XbPointer small;
    arr->insert(seqOf({c, d}), endIp, 0, &small);

    XbPointer big;
    auto oc = arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &big);
    EXPECT_EQ(oc, XbcDataArray::InsertOutcome::Extended);
    ASSERT_TRUE(big.valid);

    // No duplication: every uop resident exactly once.
    EXPECT_DOUBLE_EQ(arr->redundancy(), 1.0);
    EXPECT_EQ(arr->uniqueUopsResident(), 8u);

    // Both the old entry (C) and the new head (B1) must resolve.
    EXPECT_NE(arr->lookup(endIp, big.mask, b1).variant, nullptr);
    auto mid = arr->lookup(endIp, big.mask, c);
    ASSERT_NE(mid.variant, nullptr);
    EXPECT_EQ(mid.entryPos, 4u);
    arr->checkInvariants();
}

TEST_F(ArrayFixture, Case2FillsHeadLineFreeSlots)
{
    auto arr = makeArray();
    // 6-uop XB: head line holds 2 uops, leaving 2 free slots.
    XbPointer p0;
    arr->insert(seqOf({b2, c, d}), endIp, 0, &p0);
    auto acc0 = arr->lookup(endIp, p0.mask, b2);
    ASSERT_NE(acc0.variant, nullptr);
    unsigned lines_before = (unsigned)acc0.variant->lines.size();

    // Extending by one 2-uop instruction must reuse the head line.
    XbPointer p1;
    auto oc = arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &p1);
    EXPECT_EQ(oc, XbcDataArray::InsertOutcome::Extended);
    auto acc1 = arr->lookup(endIp, p1.mask, b1);
    ASSERT_NE(acc1.variant, nullptr);
    EXPECT_EQ(acc1.variant->lines.size(), lines_before);
    EXPECT_EQ(p1.mask, p0.mask);
    arr->checkInvariants();
}

TEST_F(ArrayFixture, Case3ComplexSharesSuffix)
{
    auto arr = makeArray();
    XbPointer bcd, acd;
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &bcd);
    auto oc = arr->insert(seqOf({a1, a2, c, d}), endIp, 0, &acd);
    EXPECT_EQ(oc, XbcDataArray::InsertOutcome::ComplexAdded);
    ASSERT_TRUE(acd.valid);
    // The two prefixes may land in different ways of the same bank
    // (the paper's preferred placement), so the masks can coincide;
    // the entry point disambiguates the variants.

    // The suffix (c, d: 4 uops) is shared, so the array holds
    // 8 + 4 = 12 uops, all unique.
    EXPECT_EQ(arr->uniqueUopsResident(), 12u);
    EXPECT_DOUBLE_EQ(arr->redundancy(), 1.0);

    // Both prefixes readable through their own masks.
    EXPECT_NE(arr->lookup(endIp, bcd.mask, b1).variant, nullptr);
    EXPECT_NE(arr->lookup(endIp, acd.mask, a1).variant, nullptr);
    arr->checkInvariants();
}

TEST_F(ArrayFixture, Case3PartialBoundarySharing)
{
    // Misaligned suffix: store b1 b2 c d (8 uops -> lines [4][4]),
    // then a2 c d (6 uops, common suffix c d = 4 uops, which spans
    // line 2 fully; prefix a2 = 2 uops in its own line). Then probe
    // a sequence whose common suffix cuts INTO a line: b2 c d shares
    // 6 uops (b2's 2 live mid-line) -> case 1 contained, no storage.
    auto arr = makeArray();
    XbPointer bcd;
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &bcd);

    XbPointer probe;
    auto oc1 = arr->insert(seqOf({b2, c, d}), endIp, 0, &probe);
    EXPECT_EQ(oc1, XbcDataArray::InsertOutcome::AlreadyPresent);

    XbPointer acd;
    auto oc2 = arr->insert(seqOf({a2, c, d}), endIp, 0, &acd);
    EXPECT_EQ(oc2, XbcDataArray::InsertOutcome::ComplexAdded);
    EXPECT_DOUBLE_EQ(arr->redundancy(), 1.0);
    arr->checkInvariants();

    auto acc = arr->lookup(endIp, acd.mask, a2);
    ASSERT_NE(acc.variant, nullptr);
    ASSERT_EQ(acc.variant->seq.size(), 6u);
}

TEST_F(ArrayFixture, DuplicateModeReintroducesRedundancy)
{
    XbcParams p;
    p.complexMode = XbcParams::ComplexMode::Duplicate;
    auto arr = makeArray(p);
    XbPointer bcd, acd;
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &bcd);
    auto oc = arr->insert(seqOf({a1, a2, c, d}), endIp, 0, &acd);
    EXPECT_EQ(oc, XbcDataArray::InsertOutcome::IndependentAdded);
    // c and d stored twice now.
    EXPECT_GT(arr->redundancy(), 1.0);
    arr->checkInvariants();
}

TEST_F(ArrayFixture, PrefixSplitModeReportsPrefixNeeded)
{
    XbcParams p;
    p.complexMode = XbcParams::ComplexMode::PrefixSplit;
    auto arr = makeArray(p);
    XbPointer bcd, acd;
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &bcd);
    unsigned common = 0;
    auto oc = arr->insert(seqOf({a1, a2, c, d}), endIp, 0, &acd,
                          &common);
    EXPECT_EQ(oc, XbcDataArray::InsertOutcome::PrefixNeeded);
    EXPECT_EQ(common, 4u);
    arr->checkInvariants();
}

TEST_F(ArrayFixture, SetSearchRepairsStaleMask)
{
    auto arr = makeArray();
    XbPointer ptr;
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &ptr);

    // A pointer with a wrong mask misses but set search finds it.
    uint32_t bogus = ptr.mask ^ 0x1;
    EXPECT_EQ(arr->lookup(endIp, bogus, b1).variant, nullptr);
    auto acc = arr->setSearch(endIp, b1);
    ASSERT_NE(acc.variant, nullptr);
    EXPECT_EQ(acc.variant->mask, ptr.mask);
    EXPECT_EQ(arr->setSearchHits.value(), 1u);
}

TEST_F(ArrayFixture, SetSearchMissOnAbsentEntry)
{
    auto arr = makeArray();
    XbPointer ptr;
    arr->insert(seqOf({c, d}), endIp, 0, &ptr);
    EXPECT_EQ(arr->setSearch(endIp, b1).variant, nullptr);
    EXPECT_EQ(arr->setSearch(0xdead, c).variant, nullptr);
}

TEST_F(ArrayFixture, LookupRejectsMidInstructionEntry)
{
    auto arr = makeArray();
    XbPointer ptr;
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &ptr);
    // Entry must be at an instruction boundary; a bogus static index
    // that never starts an instruction in this XB misses.
    EXPECT_EQ(arr->lookup(endIp, ptr.mask, a1).variant, nullptr);
}

TEST_F(ArrayFixture, HeadLineEvictedFirstAndSuffixSurvives)
{
    // Tiny geometry: one set, 2 banks x 1 way x 4 uops = 8 uops.
    XbcParams p;
    p.capacityUops = 8;
    p.numBanks = 2;
    p.bankUops = 4;
    p.ways = 1;
    p.xbQuotaUops = 8;
    auto arr = makeArray(p);
    ASSERT_EQ(arr->numSets(), 1u);

    XbPointer big;
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &big);
    auto acc = arr->lookup(endIp, big.mask, b1);
    ASSERT_NE(acc.variant, nullptr);
    ASSERT_EQ(acc.variant->lines.size(), 2u);
    arr->touch(*acc.variant, 0);  // head gets the older timestamp

    // A new 4-uop XB (different tag) must evict the HEAD line.
    uint64_t tag2 = code->inst(a2).ip;
    XbPointer p2;
    arr->insert(seqOf({a1, a2}), tag2, 0, &p2);
    ASSERT_TRUE(p2.valid);

    // The big XB's head entry is gone, but entering at its middle
    // (instruction c, in the surviving primary line) still works.
    EXPECT_EQ(arr->setSearch(endIp, b1).variant, nullptr);
    auto mid = arr->setSearch(endIp, c);
    ASSERT_NE(mid.variant, nullptr);
    EXPECT_EQ(mid.variant->seq.size(), 4u);
    arr->checkInvariants();
}

TEST_F(ArrayFixture, DemoteLruMakesVictim)
{
    XbcParams p;
    p.capacityUops = 8;
    p.numBanks = 2;
    p.bankUops = 4;
    p.ways = 1;
    p.xbQuotaUops = 8;
    auto arr = makeArray(p);

    uint64_t tag_cd = endIp;
    uint64_t tag_b = code->inst(b2).ip;
    XbPointer pcd, pb;
    arr->insert(seqOf({c, d}), tag_cd, 0, &pcd);    // bank 0
    arr->insert(seqOf({b1, b2}), tag_b, 0, &pb);    // bank 1
    // Demote the b XB; the next allocation must take its line even
    // though it is younger.
    arr->demoteLru(tag_b, pb.mask);
    uint64_t tag_a = code->inst(a2).ip;
    XbPointer pa;
    arr->insert(seqOf({a1, a2}), tag_a, 0, &pa);
    EXPECT_NE(arr->findQuiet(tag_cd, c).variant, nullptr);
    EXPECT_EQ(arr->findQuiet(tag_b, b1).variant, nullptr);
    arr->checkInvariants();
}

TEST_F(ArrayFixture, DynamicPlacementRelocates)
{
    XbcParams p;
    p.dynamicPlacementThreshold = 3;
    auto arr = makeArray(p);
    XbPointer ptr;
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &ptr);
    auto acc = arr->lookup(endIp, ptr.mask, b1);
    ASSERT_NE(acc.variant, nullptr);
    ASSERT_EQ(acc.variant->lines.size(), 2u);
    uint32_t old_mask = acc.variant->mask;

    // Report conflicts on the primary line with a free bank hint.
    uint32_t free_banks = ~old_mask & 0xf;
    bool moved = false;
    for (int i = 0; i < 3; ++i) {
        acc = arr->setSearch(endIp, b1);
        ASSERT_NE(acc.variant, nullptr);
        moved = arr->noteConflict(*acc.variant, 1, free_banks);
    }
    EXPECT_TRUE(moved);
    EXPECT_EQ(arr->relocations.value(), 1u);
    // Mask changed; set search still finds the XB.
    auto again = arr->setSearch(endIp, b1);
    ASSERT_NE(again.variant, nullptr);
    EXPECT_NE(again.variant->mask, old_mask);
    arr->checkInvariants();
}

TEST_F(ArrayFixture, ResetClearsEverything)
{
    auto arr = makeArray();
    XbPointer ptr;
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &ptr);
    arr->reset();
    EXPECT_EQ(arr->findQuiet(endIp, b1).variant, nullptr);
    EXPECT_EQ(arr->uniqueUopsResident(), 0u);
    EXPECT_EQ(arr->inserts.value(), 0u);
    arr->checkInvariants();
}

// version() is what a caller's memo of a lookup answer is checked
// against, so it must move on every call that can change a set's
// variants and stay put on the read and LRU paths.
TEST_F(ArrayFixture, VersionMovesOnlyWhenVariantsMayChange)
{
    XbcParams p;
    p.dynamicPlacementThreshold = 2;
    auto arr = makeArray(p);
    uint64_t seen = arr->version();
    auto moved = [&] {
        const bool m = arr->version() != seen;
        seen = arr->version();
        return m;
    };

    XbPointer ptr;
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &ptr);
    EXPECT_TRUE(moved());

    auto acc = arr->lookup(endIp, ptr.mask, b1);
    ASSERT_NE(acc.variant, nullptr);
    arr->touch(*acc.variant, acc.entryPos);
    EXPECT_NE(arr->findQuiet(endIp, c).variant, nullptr);
    EXPECT_NE(arr->setSearch(endIp, b1).variant, nullptr);
    EXPECT_NE(arr->longestVariant(endIp), nullptr);
    arr->demoteLru(endIp, ptr.mask);
    // A conflict below the relocation threshold only counts.
    EXPECT_FALSE(arr->noteConflict(*acc.variant, 1, ~ptr.mask & 0xf));
    EXPECT_FALSE(moved());

    acc = arr->lookup(endIp, ptr.mask, b1);
    ASSERT_NE(acc.variant, nullptr);
    EXPECT_TRUE(arr->noteConflict(*acc.variant, 1, ~ptr.mask & 0xf));
    EXPECT_TRUE(moved());

    std::size_t valid_line = 0;
    while (!arr->faultInvalidateLine(valid_line))
        ++valid_line;
    EXPECT_TRUE(moved());
    Rng rng(3);
    ASSERT_TRUE(arr->faultCorruptSlot(rng));
    EXPECT_TRUE(moved());

    arr->reset();
    EXPECT_TRUE(moved());

    // An insert whose line allocation evicts: one set of 2 banks x
    // 1 way, filled by the 4-line XB's successor.
    XbcParams tiny;
    tiny.capacityUops = 8;
    tiny.numBanks = 2;
    tiny.bankUops = 4;
    tiny.ways = 1;
    tiny.xbQuotaUops = 8;
    arr = makeArray(tiny);
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &ptr);
    seen = arr->version();
    arr->insert(seqOf({a1, a2}), code->inst(a2).ip, 0, &ptr);
    EXPECT_GT(arr->evictions.value(), 0u);
    EXPECT_TRUE(moved());
}

TEST_F(ArrayFixture, FirstInsertedVariantWinsAfterForeignEviction)
{
    // One set of 2 banks x 3 ways: every tag shares it.
    XbcParams p;
    p.capacityUops = 24;
    p.numBanks = 2;
    p.bankUops = 4;
    p.ways = 3;
    p.xbQuotaUops = 8;
    auto arr = makeArray(p);
    ASSERT_EQ(arr->numSets(), 1u);

    // Another tag first, then two complex variants of endIp that
    // share the c d line and land on the same bank mask.
    const uint64_t other = 0x1000;
    XbPointer po, bcd, acd;
    arr->insert(seqOf({a1, a2}), other, 0, &po);
    arr->insert(seqOf({b1, b2, c, d}), endIp, 0, &bcd);
    ASSERT_EQ(arr->insert(seqOf({a1, a2, c, d}), endIp, 0, &acd),
              XbcDataArray::InsertOutcome::ComplexAdded);
    ASSERT_EQ(bcd.mask, acd.mask);

    // Fill the last free lines, then evict the other tag's line, the
    // least recently used: both variants shift down in the set.
    XbPointer px;
    arr->insert(seqOf({b1, b2}), 0x2000, 0, &px);
    arr->insert(seqOf({b1, b2}), 0x3000, 0, &px);
    ASSERT_EQ(arr->evictions.value(), 0u);
    arr->insert(seqOf({b1, b2}), 0x4000, 0, &px);
    ASSERT_EQ(arr->evictions.value(), 1u);
    EXPECT_EQ(arr->findQuiet(other, a1).variant, nullptr);

    // Both variants contain c; the first inserted (b prefix) wins.
    auto acc = arr->lookup(endIp, bcd.mask, c);
    ASSERT_NE(acc.variant, nullptr);
    EXPECT_EQ(acc.variant->seq.front().staticIdx, b1);
    EXPECT_EQ(acc.entryPos, 4u);
    auto quiet = arr->findQuiet(endIp, c);
    ASSERT_NE(quiet.variant, nullptr);
    EXPECT_EQ(quiet.variant->seq.front().staticIdx, b1);
    const auto *longest = arr->longestVariant(endIp);
    ASSERT_NE(longest, nullptr);
    EXPECT_EQ(longest->seq.front().staticIdx, b1);
    auto second = arr->lookup(endIp, acd.mask, a1);
    ASSERT_NE(second.variant, nullptr);
    EXPECT_EQ(second.variant->seq.front().staticIdx, a1);
    arr->checkInvariants();
}

/** One operation of a replayable array workload. */
struct StreamOp
{
    std::size_t seq;  ///< index into the stream's sequences
    uint64_t tag;
    uint32_t prevMask;
};

TEST(ArrayAllocations, WarmArraySecondPassAllocatesNothing)
{
    // Eight cond-ended blocks whose suffixes are stored as XBs in a
    // small array, so the stream extends, shares, evicts, truncates
    // and relocates.
    CodeBuilder cb;
    std::vector<std::vector<int32_t>> blocks(8);
    for (auto &block : blocks) {
        for (int i = 0; i < 6; ++i)
            block.push_back(cb.seq(1 + i % 3));
        block.push_back(cb.cond(0, 1));
    }
    auto code = cb.finalize();

    XbcParams p;
    p.capacityUops = 256;
    p.dynamicPlacementThreshold = 2;
    StatGroup root("alloc");
    XbcDataArray arr(p, &root);
    arr.bindCode(code.get());

    std::vector<XbSeq> seqs;
    std::vector<StreamOp> ops;
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        const auto &block = blocks[rng.below(blocks.size())];
        XbSeq seq;
        for (std::size_t k = rng.below(block.size()); k < block.size();
             ++k) {
            appendInstUops(*code, block[k], seq);
        }
        if (seq.size() > p.xbQuotaUops)
            continue;
        seqs.push_back(seq);
        ops.push_back({seqs.size() - 1, code->inst(block.back()).ip,
                       (uint32_t)rng.below(16)});
    }

    auto pass = [&]() {
        for (const StreamOp &op : ops) {
            const XbSeq &seq = seqs[op.seq];
            XbPointer ptr;
            arr.insert(seq, op.tag, op.prevMask, &ptr);
            if (!ptr.valid)
                continue;
            auto acc = arr.lookup(op.tag, ptr.mask, ptr.entryIdx);
            if (!acc.variant)
                continue;
            arr.touch(*acc.variant, acc.entryPos);
            arr.noteConflict(*acc.variant, 0, 0xf);
            (void)arr.longestVariant(op.tag);
            (void)arr.setSearch(op.tag, seq.back().staticIdx);
        }
    };
    pass();
    const uint64_t evictions = arr.evictions.value();
    const uint64_t before = gHeapAllocs;
    pass();
    EXPECT_EQ(gHeapAllocs - before, 0u);
    EXPECT_GT(arr.evictions.value(), evictions);
    EXPECT_GT(arr.relocations.value(), 0u);
    arr.checkInvariants();
}

TEST(ArrayAllocations, OutMuxRouteAllocatesNothing)
{
    StatGroup root("alloc");
    OutMux mux(XbcParams{}, &root);
    const unsigned inputs[][2] = {{0, 4}, {2, 3}, {1, 4}, {3, 1}};
    auto cycle = [&] {
        for (const auto &in : inputs)
            mux.route(in[0], in[1]);
        mux.closeCycle();
    };
    cycle();
    const uint64_t before = gHeapAllocs;
    for (int i = 0; i < 1000; ++i)
        cycle();
    EXPECT_EQ(gHeapAllocs - before, 0u);
    EXPECT_EQ(mux.segments.value(), 4004u);
    EXPECT_EQ(mux.cycles.value(), 1001u);
}

TEST(ArrayFaults, CorruptSlotWithForeignUopStaysInBoundsAndBalanced)
{
    // The code's last instruction has one uop, so moving a later uop
    // of the 4-uop instruction onto it pairs it with a uop number
    // past the end of the code.
    CodeBuilder cb;
    int32_t wide = cb.seq(4);
    int32_t last = cb.cond(0, 1);
    auto code = cb.finalize();
    StatGroup root("fault");
    XbcDataArray arr(XbcParams{}, &root);
    arr.bindCode(code.get());
    XbSeq seq;
    appendInstUops(*code, wide, seq);
    appendInstUops(*code, last, seq);
    const uint64_t tag = code->inst(last).ip;
    XbPointer ptr;
    arr.insert(seq, tag, 0, &ptr);

    Rng rng(5);
    bool foreign_seen = false;
    for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(arr.faultCorruptSlot(rng));
        for (const UopSlot &s : arr.longestVariant(tag)->seq)
            foreign_seen |= s.staticIdx == last && s.seq > 0;
        std::size_t accounting = 0;
        arr.auditStorage([&](AuditViolation v) {
            accounting += v.kind == AuditViolation::Kind::Accounting;
        });
        EXPECT_EQ(accounting, 0u);
        EXPECT_LE(arr.uniqueUopsResident(), code->totalUops());
    }
    EXPECT_TRUE(foreign_seen);
}

/**
 * Property test: random subsequence inserts over a long instruction
 * chain must keep every internal invariant across geometries.
 */
struct FuzzParams
{
    unsigned banks;
    unsigned ways;
    unsigned capacity;
    XbcParams::ComplexMode mode;
};

class ArrayFuzz : public testing::TestWithParam<FuzzParams>
{
};

TEST_P(ArrayFuzz, RandomInsertsKeepInvariants)
{
    const auto fp = GetParam();

    CodeBuilder cb;
    std::vector<int32_t> chain;
    for (int i = 0; i < 39; ++i)
        chain.push_back(cb.seq(1 + i % 3));
    chain.push_back(cb.cond(0, 1));
    auto code = cb.finalize();

    XbcParams p;
    p.numBanks = fp.banks;
    p.bankUops = 4;
    p.ways = fp.ways;
    p.capacityUops = fp.capacity;
    p.xbQuotaUops = std::min(16u, fp.banks * 4);
    p.complexMode = fp.mode;

    StatGroup root("fuzz");
    XbcDataArray arr(p, &root);
    arr.bindCode(code.get());

    Rng rng(fp.banks * 1000 + fp.ways * 100 + fp.capacity);
    for (int iter = 0; iter < 400; ++iter) {
        // Random suffix of the chain, ending at the final branch.
        std::size_t start = rng.below(chain.size() - 1);
        XbSeq seq;
        for (std::size_t i = start; i < chain.size(); ++i) {
            const auto &si = code->inst(chain[i]);
            if (seq.size() + si.numUops > p.xbQuotaUops) {
                seq.clear();  // keep only what still fits the quota
            }
            appendInstUops(*code, chain[i], seq);
        }
        if (seq.empty() || seq.front().seq != 0)
            continue;
        uint64_t tag = code->inst(chain.back()).ip;
        XbPointer ptr;
        arr.insert(seq, tag, (uint32_t)rng.below(16), &ptr);

        if (iter % 25 == 0)
            arr.checkInvariants();
        if (ptr.valid) {
            auto acc = arr.lookup(tag, ptr.mask, ptr.entryIdx);
            if (acc.variant) {
                // Every stored image must be a contiguous tail of
                // the static chain, ending at the branch.
                const XbImage &vs = acc.variant->seq;
                ASSERT_FALSE(vs.empty());
                EXPECT_EQ(vs.back().staticIdx, chain.back());
                std::size_t ci = chain.size();
                for (std::size_t k = vs.size(); k-- > 0;) {
                    if (k + 1 == vs.size() ||
                        vs[k].staticIdx != vs[k + 1].staticIdx) {
                        ASSERT_GT(ci, 0u);
                        --ci;
                    }
                    EXPECT_EQ(vs[k].staticIdx, chain[ci]);
                }
            }
        }
    }
    arr.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ArrayFuzz,
    testing::Values(
        FuzzParams{4, 2, 32768, XbcParams::ComplexMode::Complex},
        FuzzParams{4, 2, 1024, XbcParams::ComplexMode::Complex},
        FuzzParams{4, 1, 512, XbcParams::ComplexMode::Complex},
        FuzzParams{2, 2, 256, XbcParams::ComplexMode::Complex},
        FuzzParams{8, 2, 2048, XbcParams::ComplexMode::Complex},
        FuzzParams{4, 2, 1024, XbcParams::ComplexMode::Duplicate},
        FuzzParams{4, 4, 4096, XbcParams::ComplexMode::Complex}));

} // anonymous namespace
} // namespace xbs
