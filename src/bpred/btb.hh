/**
 * @file
 * Branch Target Buffer: set-associative, LRU, tagged by branch IP.
 * Used by the legacy (IC-path) pipeline of all frontends to redirect
 * fetch for taken direct branches without waiting for decode.
 */

#ifndef XBS_BPRED_BTB_HH
#define XBS_BPRED_BTB_HH

#include <cstdint>
#include <optional>
#include <vector>

namespace xbs
{

class Btb
{
  public:
    /**
     * @param num_sets power-of-two set count
     * @param ways     associativity
     */
    Btb(unsigned num_sets = 1024, unsigned ways = 4);

    /** @return the stored target for @p ip, if present (updates LRU). */
    std::optional<uint64_t> lookup(uint64_t ip);

    /** Insert or refresh the mapping ip -> target. */
    void update(uint64_t ip, uint64_t target);

    /** Remove a mapping if present (used on target changes). */
    void invalidate(uint64_t ip);

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    void reset();

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t target = 0;
        uint64_t lru = 0;
    };

    std::size_t setOf(uint64_t ip) const;
    Entry *findEntry(uint64_t ip);

    unsigned numSets_;
    unsigned ways_;
    std::vector<Entry> entries_;
    uint64_t clock_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/** Return stack buffer: a fixed-depth circular stack of return IPs. */
class ReturnStack
{
  public:
    explicit ReturnStack(unsigned depth = 16);

    void push(uint64_t return_ip);

    /** Pop the predicted return target; 0 if empty. */
    uint64_t pop();

    /** Top without popping; 0 if empty. */
    uint64_t top() const;

    unsigned size() const { return size_; }

    /** Pops that found the stack empty (deep call chains wrapping
     *  the circular stack; attribution splits return mispredicts on
     *  this). */
    uint64_t underflows() const { return underflows_; }

    void reset();

  private:
    std::vector<uint64_t> stack_;
    unsigned topIdx_ = 0;
    unsigned size_ = 0;
    uint64_t underflows_ = 0;
};

/**
 * Indirect target predictor: a tagged last-target table indexed by
 * branch IP (the paper's XiBTB plays this role at XB granularity).
 */
class IndirectPredictor
{
  public:
    explicit IndirectPredictor(unsigned num_sets = 512,
                               unsigned ways = 4);

    std::optional<uint64_t> predict(uint64_t ip);
    void update(uint64_t ip, uint64_t target);
    void reset();

  private:
    Btb table_;
};

} // namespace xbs

#endif // XBS_BPRED_BTB_HH
