/**
 * @file
 * The trace cache proper: a set-associative array of TraceLines
 * indexed and tagged by the trace's starting IP. The basic academic
 * model has no path associativity: at most one trace per start IP,
 * so building a different path through the same start replaces the
 * old trace.
 *
 * The cache tracks uop redundancy (how many copies of each (ip, seq)
 * uop are resident) and fragmentation (filled vs. reserved slots),
 * the two effects the XBC is designed to eliminate.
 */

#ifndef XBS_TC_TRACE_CACHE_HH
#define XBS_TC_TRACE_CACHE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <functional>

#include "common/stats.hh"
#include "frontend/oracle.hh"
#include "isa/uop.hh"
#include "tc/trace_line.hh"
#include "trace/trace.hh"

namespace xbs
{

class TraceCache : public StatGroup
{
  public:
    /**
     * @param capacity_uops total uop capacity (e.g. 32768)
     * @param ways          associativity (paper: 4)
     * @param limits        per-line build limits
     * @param parent        stat group parent
     */
    TraceCache(unsigned capacity_uops, unsigned ways,
               const TraceLimits &limits, StatGroup *parent);

    /** @return the resident trace starting at @p ip, or nullptr. */
    const TraceLine *lookup(uint64_t ip);

    /**
     * Path-associative lookup: all resident traces starting at
     * @p ip (at most `ways`); the caller selects by path. Counted
     * as one lookup; LRU updated when the caller reports its pick
     * through touch().
     */
    std::vector<const TraceLine *> lookupAll(uint64_t ip);

    /** LRU-refresh a line returned by lookupAll. */
    void touch(const TraceLine *line);

    /**
     * Insert a finished trace (replaces a same-IP trace if any;
     * with @p path_associative, only a same-IP *same-path* trace is
     * replaced and differing paths coexist in other ways).
     */
    void insert(const TraceLine &line, const StaticCode &code,
                bool path_associative = false);

    unsigned numSets() const { return numSets_; }
    unsigned ways() const { return ways_; }
    const TraceLimits &limits() const { return limits_; }

    /** Current uop redundancy: resident uop instances per unique. */
    double redundancy() const;

    /** Fraction of reserved uop slots actually filled. */
    double fillFactor() const;

    /**
     * Non-aborting structural audit: per-line build limits (uop and
     * conditional-branch caps, stored uop counts) and the
     * redundancy/fragmentation accounting recomputed against the
     * resident lines. Violations go to @p sink; the walk always
     * completes.
     */
    void auditStorage(
        const StaticCode &code,
        const std::function<void(AuditViolation)> &sink) const;

    ScalarStat lookups{this, "lookups", "trace cache lookups"};
    ScalarStat hits{this, "hits", "trace cache lookup hits"};
    ScalarStat inserts{this, "inserts", "traces built and inserted"};
    ScalarStat replacements{this, "replacements",
        "same-IP trace replacements (path conflicts)"};
    ScalarStat evictions{this, "evictions", "LRU evictions"};

    void reset();

  private:
    std::size_t setOf(uint64_t ip) const;
    void accountInsert(const TraceLine &line, const StaticCode &code);
    void accountEvict(const TraceLine &line, const StaticCode &code);

    unsigned numSets_;
    unsigned ways_;
    TraceLimits limits_;
    std::vector<TraceLine> lines_;
    uint64_t clock_ = 0;

    /// @{ Redundancy / fragmentation accounting.
    std::unordered_map<UopId, uint32_t> residency_;
    uint64_t filledUops_ = 0;
    /// @}
};

} // namespace xbs

#endif // XBS_TC_TRACE_CACHE_HH
