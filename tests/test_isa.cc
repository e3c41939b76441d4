/**
 * @file
 * Unit tests for the ISA layer: instruction classification, static
 * code images, uop identity/expansion, and the decode model.
 */

#include <gtest/gtest.h>

#include "isa/decoder.hh"
#include "isa/static_inst.hh"
#include "isa/types.hh"
#include "isa/uop.hh"

namespace xbs
{
namespace
{

TEST(InstClassify, XbEndConditions)
{
    // Section 3.1: conditional and indirect branches (and returns)
    // end XBs; calls end XBs for XRSB bookkeeping; unconditional
    // direct jumps and plain instructions do not.
    EXPECT_TRUE(endsXb(InstClass::CondBranch));
    EXPECT_TRUE(endsXb(InstClass::IndirectJump));
    EXPECT_TRUE(endsXb(InstClass::IndirectCall));
    EXPECT_TRUE(endsXb(InstClass::Return));
    EXPECT_TRUE(endsXb(InstClass::DirectCall));
    EXPECT_FALSE(endsXb(InstClass::DirectJump));
    EXPECT_FALSE(endsXb(InstClass::Seq));
}

TEST(InstClassify, TraceEndConditions)
{
    // [Rote96]: traces embed direct jumps and calls, end on indirect
    // transfers and returns (the branch quota is handled separately).
    EXPECT_TRUE(endsTrace(InstClass::IndirectJump));
    EXPECT_TRUE(endsTrace(InstClass::Return));
    EXPECT_FALSE(endsTrace(InstClass::CondBranch));
    EXPECT_FALSE(endsTrace(InstClass::DirectJump));
    EXPECT_FALSE(endsTrace(InstClass::DirectCall));
}

TEST(InstClassify, BasicBlockEndsOnAnyControl)
{
    EXPECT_TRUE(endsBasicBlock(InstClass::DirectJump));
    EXPECT_TRUE(endsBasicBlock(InstClass::CondBranch));
    EXPECT_FALSE(endsBasicBlock(InstClass::Seq));
}

TEST(InstClassify, FallThrough)
{
    EXPECT_TRUE(hasFallThrough(InstClass::Seq));
    EXPECT_TRUE(hasFallThrough(InstClass::CondBranch));
    EXPECT_FALSE(hasFallThrough(InstClass::DirectJump));
    EXPECT_FALSE(hasFallThrough(InstClass::Return));
}

TEST(InstClassify, Names)
{
    EXPECT_STREQ(instClassName(InstClass::CondBranch), "cond");
    EXPECT_STREQ(instClassName(InstClass::Return), "ret");
    EXPECT_STREQ(uopClassName(UopClass::Load), "load");
}

StaticInst
makeInst(uint64_t ip, uint8_t len, uint8_t uops,
         InstClass cls = InstClass::Seq)
{
    StaticInst si;
    si.ip = ip;
    si.length = len;
    si.numUops = uops;
    si.cls = cls;
    return si;
}

TEST(StaticCode, AppendFinalizeLookup)
{
    StaticCode code;
    EXPECT_EQ(code.append(makeInst(0x100, 3, 2)), 0);
    EXPECT_EQ(code.append(makeInst(0x103, 1, 1)), 1);
    code.finalize();
    EXPECT_TRUE(code.finalized());
    EXPECT_EQ(code.size(), 2u);
    EXPECT_EQ(code.indexOf(0x100), 0);
    EXPECT_EQ(code.indexOf(0x103), 1);
    EXPECT_EQ(code.indexOf(0x999), kNoTarget);
    EXPECT_EQ(code.indexOf(0x101), kNoTarget);  // inside an instruction
    EXPECT_EQ(code.indexOf(0x0ff), kNoTarget);
    EXPECT_EQ(code.totalUops(), 3u);
}

TEST(StaticCode, FallThroughIp)
{
    StaticInst si = makeInst(0x200, 5, 1);
    EXPECT_EQ(si.fallThroughIp(), 0x205u);
}

TEST(StaticCodeDeath, DuplicateIpPanics)
{
    StaticCode code;
    code.append(makeInst(0x100, 3, 1));
    code.append(makeInst(0x100, 3, 1));
    EXPECT_DEATH(code.finalize(), "duplicate IP");
}

TEST(StaticCodeDeath, DescendingIpPanics)
{
    StaticCode code;
    code.append(makeInst(0x103, 1, 1));
    code.append(makeInst(0x100, 3, 1));
    EXPECT_DEATH(code.finalize(), "descending IP 100");
}

TEST(Uop, IdRoundTrip)
{
    UopId id = makeUopId(0x401234, 3);
    EXPECT_EQ(uopIdIp(id), 0x401234u);
    EXPECT_EQ(uopIdSeq(id), 3u);
}

TEST(Uop, ExpansionDeterministicAndComplete)
{
    StaticInst si = makeInst(0x400, 4, 3, InstClass::CondBranch);
    std::vector<Uop> a, b;
    EXPECT_EQ(expandUops(si, a), 3u);
    expandUops(si, b);
    ASSERT_EQ(a.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(a[i].cls, b[i].cls);
        EXPECT_EQ(a[i].ip, 0x400u);
        EXPECT_EQ(a[i].seq, i);
        EXPECT_EQ(a[i].ofTotal, 3u);
    }
    // Last uop of a control instruction is the branch uop.
    EXPECT_EQ(a.back().cls, UopClass::Branch);
    EXPECT_TRUE(a.back().isControlUop());
    EXPECT_FALSE(a.front().isControlUop());
}

TEST(Uop, NonControlExpansionHasNoBranchUop)
{
    StaticInst si = makeInst(0x500, 2, 4, InstClass::Seq);
    std::vector<Uop> v;
    expandUops(si, v);
    for (const auto &u : v)
        EXPECT_NE(u.cls, UopClass::Branch);
}

TEST(Decoder, AdmitsWithinLimits)
{
    DecodeParams p;
    p.fetchBytes = 16;
    p.decodeWidth = 4;
    p.uopWidth = 6;
    Decoder d(p);

    unsigned bytes = 0, insts = 0, uops = 0;
    EXPECT_TRUE(d.admit(makeInst(0, 4, 2), bytes, insts, uops));
    EXPECT_TRUE(d.admit(makeInst(4, 4, 2), bytes, insts, uops));
    EXPECT_TRUE(d.admit(makeInst(8, 4, 2), bytes, insts, uops));
    // Fourth instruction would exceed the 6-uop emission cap.
    EXPECT_FALSE(d.admit(makeInst(12, 4, 2), bytes, insts, uops));
    EXPECT_EQ(uops, 6u);
}

TEST(Decoder, DecodeWidthBinds)
{
    DecodeParams p;
    p.decodeWidth = 2;
    Decoder d(p);
    unsigned bytes = 0, insts = 0, uops = 0;
    EXPECT_TRUE(d.admit(makeInst(0, 1, 1), bytes, insts, uops));
    EXPECT_TRUE(d.admit(makeInst(1, 1, 1), bytes, insts, uops));
    EXPECT_FALSE(d.admit(makeInst(2, 1, 1), bytes, insts, uops));
}

TEST(Decoder, FetchBytesBind)
{
    DecodeParams p;
    p.fetchBytes = 8;
    Decoder d(p);
    unsigned bytes = 0, insts = 0, uops = 0;
    EXPECT_TRUE(d.admit(makeInst(0, 7, 1), bytes, insts, uops));
    EXPECT_FALSE(d.admit(makeInst(7, 2, 1), bytes, insts, uops));
    EXPECT_TRUE(d.admit(makeInst(7, 1, 1), bytes, insts, uops));
}

} // anonymous namespace
} // namespace xbs
