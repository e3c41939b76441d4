/**
 * @file
 * Static (flattened) representation of program instructions.
 *
 * A StaticCode object is the immutable, flattened image of a synthetic
 * program: an array of StaticInst in strictly ascending address order,
 * so an IP's index is found by binary search. Dynamic traces reference
 * instructions by index into this array, which keeps trace records
 * tiny and makes IP arithmetic trivial.
 */

#ifndef XBS_ISA_STATIC_INST_HH
#define XBS_ISA_STATIC_INST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/types.hh"

namespace xbs
{

/** Sentinel index meaning "no static target" (indirect / return). */
constexpr int32_t kNoTarget = -1;

/** Sentinel index meaning "no behavior attached". */
constexpr int32_t kNoBehavior = -1;

/** The most uops one instruction expands into (DESIGN.md section 2):
 *  the generator draws 1..kMaxInstUops and the trace reader rejects
 *  anything else, so every instruction fits one decode cycle. */
constexpr unsigned kMaxInstUops = 4;

/**
 * One static instruction. Kept to 24 bytes so multi-megabyte programs
 * stay cache friendly.
 */
struct StaticInst
{
    uint64_t ip = 0;       ///< virtual address of the first byte
    uint8_t length = 1;    ///< encoded length in bytes (1..15)
    uint8_t numUops = 1;   ///< uop expansion count (1..kMaxInstUops)
    InstClass cls = InstClass::Seq;

    /**
     * Target instruction index for direct control transfers
     * (CondBranch taken path, DirectJump, DirectCall); kNoTarget for
     * everything else.
     */
    int32_t takenIdx = kNoTarget;

    /**
     * For CondBranch / IndirectJump / IndirectCall: index into the
     * program's behavior table driving dynamic outcomes.
     */
    int32_t behaviorId = kNoBehavior;

    /**
     * Static uop number of this instruction's first uop: the prefix
     * sum of numUops over the code image, set by finalize(). It sits
     * in the tail padding.
     */
    uint32_t firstUop = 0;

    /** @return the fall-through IP (the next sequential address). */
    uint64_t fallThroughIp() const { return ip + length; }

    bool isControl() const { return xbs::isControl(cls); }
    bool endsXb() const { return xbs::endsXb(cls); }
    bool endsTrace() const { return xbs::endsTrace(cls); }
    bool endsBasicBlock() const { return xbs::endsBasicBlock(cls); }
};
static_assert(sizeof(StaticInst) == 24, "StaticInst outgrew 24 bytes");

/**
 * Immutable flattened code image. Instances are shared between the
 * workload executor, traces, and frontends via shared_ptr.
 */
class StaticCode
{
  public:
    StaticCode() = default;

    /** Append an instruction; returns its index. */
    int32_t append(const StaticInst &inst);

    /** Finalize: check that the IPs ascend, validate target indices
     *  and number the uops. */
    void finalize();

    const StaticInst &inst(int32_t idx) const { return insts_[idx]; }
    const StaticInst &operator[](int32_t idx) const
    {
        return insts_[idx];
    }

    std::size_t size() const { return insts_.size(); }
    bool finalized() const { return finalized_; }

    /** @return instruction index at @p ip, or kNoTarget (a binary
     *  search over the ascending IPs). */
    int32_t indexOf(uint64_t ip) const;

    /** Total static uop footprint (sum of numUops). */
    uint64_t totalUops() const { return totalUops_; }

    /** Mutable access during construction only. */
    StaticInst &mutableInst(int32_t idx);

  private:
    std::vector<StaticInst> insts_;
    uint64_t totalUops_ = 0;
    bool finalized_ = false;
};

} // namespace xbs

#endif // XBS_ISA_STATIC_INST_HH
