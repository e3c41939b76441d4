#include "ic/inst_cache.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace xbs
{

InstCache::InstCache(unsigned capacity_bytes, unsigned line_bytes,
                     unsigned ways)
    : lineBytes_(line_bytes), ways_(ways),
      lineMask_((uint64_t)line_bytes - 1)
{
    xbs_assert(isPowerOf2(capacity_bytes) && isPowerOf2(line_bytes),
               "IC geometry must be powers of two");
    xbs_assert(ways >= 1, "IC needs at least one way");
    unsigned lines = capacity_bytes / line_bytes;
    xbs_assert(lines >= ways, "IC smaller than one set");
    numSets_ = lines / ways;
    xbs_assert(isPowerOf2(numSets_), "IC set count must be 2^n");
    entries_.resize((std::size_t)numSets_ * ways_);
}

std::size_t
InstCache::setOf(uint64_t line_addr) const
{
    return (std::size_t)((line_addr / lineBytes_) & (numSets_ - 1));
}

bool
InstCache::access(uint64_t ip)
{
    uint64_t line = lineOf(ip);
    std::size_t base = setOf(line) * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = entries_[base + w];
        if (e.valid && e.tag == line) {
            e.lru = ++clock_;
            return true;
        }
    }
    // Miss: fill into the LRU way.
    Entry *victim = &entries_[base];
    for (unsigned w = 1; w < ways_; ++w) {
        Entry &e = entries_[base + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru && victim->valid)
            victim = &e;
    }
    victim->valid = true;
    victim->tag = line;
    victim->lru = ++clock_;
    return false;
}

bool
InstCache::contains(uint64_t ip) const
{
    uint64_t line = lineOf(ip);
    std::size_t base = setOf(line) * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        const Entry &e = entries_[base + w];
        if (e.valid && e.tag == line)
            return true;
    }
    return false;
}

void
InstCache::reset()
{
    for (auto &e : entries_)
        e = Entry{};
    clock_ = 0;
}

} // namespace xbs
