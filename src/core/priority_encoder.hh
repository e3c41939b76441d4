/**
 * @file
 * The priority encoder of the XBC access path (paper section 3.6).
 *
 * Each bank has a single decoder, so in one cycle a bank can serve
 * exactly one (set, way) line. The priority encoder receives the
 * XBTB's pointers in order, grants each XB's lines bank by bank, and
 * defers anything that would need an already-claimed bank - that is
 * the bank-conflict mechanism behind the paper's example where XB2's
 * prefix in bank2 is fetched while its suffix in bank3 loses to XB1.
 *
 * One refinement the physical design gets for free: if two requests
 * name the *same* line (same bank, set, and way - e.g. two complex-XB
 * siblings sharing a suffix line), a single read serves both, so the
 * second request is granted rather than deferred.
 */

#ifndef XBS_CORE_PRIORITY_ENCODER_HH
#define XBS_CORE_PRIORITY_ENCODER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"

namespace xbs
{

class PriorityEncoder : public StatGroup
{
  public:
    PriorityEncoder(unsigned num_banks, StatGroup *parent)
        : StatGroup("prioenc", parent), grants_(num_banks)
    {
        xbs_assert(num_banks >= 1, "need at least one bank");
    }

    /** Start a new cycle: all banks free. */
    void
    reset()
    {
        for (auto &g : grants_)
            g.busy = false;
    }

    /** Would a read of line (bank, set, way) be served this cycle? */
    bool
    wouldGrant(unsigned bank, uint32_t set, uint8_t way) const
    {
        xbs_assert(bank < grants_.size(), "bank out of range");
        const Grant &g = grants_[bank];
        return !g.busy || (g.set == set && g.way == way);
    }

    /**
     * Claim line (bank, set, way) for this cycle.
     * @return true if granted (also when it aliases an existing
     *         grant of the very same line)
     */
    bool
    claim(unsigned bank, uint32_t set, uint8_t way)
    {
        xbs_assert(bank < grants_.size(), "bank out of range");
        Grant &g = grants_[bank];
        if (!g.busy) {
            g = Grant{true, set, way};
            ++grants;
            return true;
        }
        if (g.set == set && g.way == way) {
            ++shared;
            return true;
        }
        ++conflicts;
        return false;
    }

    /** Banks with a grant this cycle. */
    uint32_t
    busyMask() const
    {
        uint32_t mask_bits = 0;
        for (std::size_t b = 0; b < grants_.size(); ++b)
            mask_bits |= (uint32_t)grants_[b].busy << b;
        return mask_bits;
    }

    ScalarStat grants{this, "grants", "bank reads granted"};
    ScalarStat shared{this, "shared",
        "requests served by an already-granted identical read"};
    ScalarStat conflicts{this, "conflicts",
        "requests deferred on a busy bank"};

  private:
    struct Grant
    {
        bool busy = false;
        uint32_t set = 0;
        uint8_t way = 0;
    };

    std::vector<Grant> grants_;
};

} // namespace xbs

#endif // XBS_CORE_PRIORITY_ENCODER_HH
