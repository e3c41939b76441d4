/**
 * @file
 * Root-cause taxonomy for frontend losses (docs/MODEL.md "Miss
 * attribution").
 *
 * Two parallel accountings share one cause vocabulary:
 *  - every build-mode uop is charged to the cause that pushed the
 *    frontend out of delivery (sum over causes == buildUops), and
 *  - every fetch-silent cycle is charged to the event that injected
 *    the bubble (sum over causes == stallCycles).
 *
 * The XBC frontend uses the fine-grained causes (XBTB miss,
 * compulsory/capacity/conflict array misses via the evicted-tag
 * shadow directory, set-search and promotion-recovery bubbles); the
 * TC/DC/BBTC frontends use the coarser structural causes; the IC
 * baseline only ever charges cycles (it has no build mode).
 */

#ifndef XBS_ATTRIB_TAXONOMY_HH
#define XBS_ATTRIB_TAXONOMY_HH

#include <cstdint>

namespace xbs
{

enum class Cause : uint8_t
{
    ColdStart,          ///< initial build before the first delivery
    XbtbMiss,           ///< no (or stale) XBTB successor pointer
    XbcCompulsory,      ///< array miss, tag never built before
    XbcCapacity,        ///< array miss, tag evicted long ago
    XbcConflict,        ///< array miss, tag in the evicted-tag shadow
    StructMiss,         ///< TC/DC/BBTC structure lookup miss
    PartialHit,         ///< resident trace diverged from the path
    CondMispredict,     ///< XBP / gshare direction mispredict
    BtbMiss,            ///< taken direct transfer missing in the BTB
    IndirectMispredict, ///< XiBTB / indirect-target mispredict
    ReturnMispredict,   ///< XRSB / return-stack mispredict
    IcMiss,             ///< instruction-cache fill bubble
    L2Miss,             ///< fill that also missed the L2
    SetSearch,          ///< XBC set-search repair cycle
    BankConflict,       ///< XBC bank-conflict deferral
    PromotionRecovery,  ///< promoted branch took the infrequent path
    Unattributed,       ///< charged with no recorded cause
    kCount
};

constexpr std::size_t kNumCauses = (std::size_t)Cause::kCount;

/** Stable lowerCamel identifier ("xbcConflict"), used for stat names
 *  and every JSON surface. */
const char *causeName(Cause cause);

} // namespace xbs

#endif // XBS_ATTRIB_TAXONOMY_HH
