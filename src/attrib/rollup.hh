/**
 * @file
 * The portable form of one run's attribution result: the per-cause
 * uop and silent-cycle totals as (name, count) lists, detached from
 * the live AttribRecorder so it can travel through the batch pipeline
 * (xbsim --json stdout -> scheduler -> report.json -> bench.json
 * -> xbregress/xbexplain) as plain JSON.
 *
 * Only nonzero categories are carried; the two sum invariants
 * (uops == buildUops, cycles == silentCycles) stay checkable at every
 * hop via sumsMatch().
 */

#ifndef XBS_ATTRIB_ROLLUP_HH
#define XBS_ATTRIB_ROLLUP_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace xbs
{

class JsonValue;
class JsonWriter;

struct AttribRollup
{
    bool has = false;
    uint64_t buildUops = 0;
    uint64_t silentCycles = 0;
    /** Nonzero categories only, taxonomy order. */
    std::vector<std::pair<std::string, uint64_t>> uops;
    std::vector<std::pair<std::string, uint64_t>> cycles;

    uint64_t uopSum() const;
    uint64_t cycleSum() const;

    /** Both category sums reproduce their aggregates exactly. */
    bool sumsMatch() const
    {
        return uopSum() == buildUops && cycleSum() == silentCycles;
    }

    /** Name of the largest uop category ("" when empty). */
    std::string dominantUopCause() const;
};

/** Read the "attrib" object xbsim emits (absent fields tolerated). */
AttribRollup parseAttribRollup(const JsonValue &obj);

/** Emit @p r as a (nested) "attrib"-style object under @p key. */
void writeAttribRollup(JsonWriter &jw, const AttribRollup &r,
                       const std::string &key = "attrib");

} // namespace xbs

#endif // XBS_ATTRIB_ROLLUP_HH
