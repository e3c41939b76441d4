/**
 * @file
 * A trace-cache line: one dynamic trace of up to 16 uops with at most
 * 3 conditional branches, ending early on indirect branches and
 * returns ([Rote96] end conditions, as configured by the paper's
 * section 4: "a 4 way set-associative cache, where each line holds a
 * single trace of up to 16 uops with a maximum of 3 branches").
 */

#ifndef XBS_TC_TRACE_LINE_HH
#define XBS_TC_TRACE_LINE_HH

#include <cstdint>
#include <vector>

#include "isa/static_inst.hh"

namespace xbs
{

/** One macro instruction embedded in a trace, with its direction. */
struct EmbeddedInst
{
    int32_t staticIdx = 0;
    uint8_t taken = 0;  ///< embedded direction for cond branches
};

struct TraceLine
{
    bool valid = false;
    uint64_t startIp = 0;   ///< trace tag: IP of the first instruction
    uint64_t lru = 0;
    std::vector<EmbeddedInst> insts;
    unsigned numUops = 0;
    unsigned numCondBranches = 0;

    void
    clear()
    {
        valid = false;
        startIp = 0;
        insts.clear();
        numUops = 0;
        numCondBranches = 0;
    }
};

/** Build-time limits for trace construction. */
struct TraceLimits
{
    unsigned maxUops = 16;
    unsigned maxCondBranches = 3;
};

} // namespace xbs

#endif // XBS_TC_TRACE_LINE_HH
