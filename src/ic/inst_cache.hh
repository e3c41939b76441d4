/**
 * @file
 * Byte-addressed instruction cache model (the legacy path of every
 * frontend, and the IC baseline of section 2.1). Set-associative
 * with true LRU; contents are tracked at line granularity only,
 * since the simulator never needs the actual bytes.
 */

#ifndef XBS_IC_INST_CACHE_HH
#define XBS_IC_INST_CACHE_HH

#include <cstdint>
#include <vector>

namespace xbs
{

class InstCache
{
  public:
    /**
     * @param capacity_bytes total capacity (power-of-two)
     * @param line_bytes     line size (power-of-two)
     * @param ways           associativity
     */
    InstCache(unsigned capacity_bytes, unsigned line_bytes,
              unsigned ways);

    /**
     * Access the line containing @p ip; fills on miss (the fill
     * latency is charged by the caller).
     *
     * @return true on hit
     */
    bool access(uint64_t ip);

    /** Probe without fill or LRU update. */
    bool contains(uint64_t ip) const;

    unsigned lineBytes() const { return lineBytes_; }
    unsigned numSets() const { return numSets_; }
    unsigned ways() const { return ways_; }

    /** Line-aligned address of @p ip. */
    uint64_t lineOf(uint64_t ip) const { return ip & ~lineMask_; }

    void reset();

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lru = 0;
    };

    std::size_t setOf(uint64_t line_addr) const;

    unsigned lineBytes_;
    unsigned numSets_;
    unsigned ways_;
    uint64_t lineMask_;
    std::vector<Entry> entries_;
    uint64_t clock_ = 0;
};

} // namespace xbs

#endif // XBS_IC_INST_CACHE_HH
