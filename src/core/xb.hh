/**
 * @file
 * Extended-block value types shared across the XBC sub-units.
 */

#ifndef XBS_CORE_XB_HH
#define XBS_CORE_XB_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "isa/static_inst.hh"
#include "isa/uop.hh"

namespace xbs
{

/// @{ Caps of the XBC's inline storage: the paper's 4 banks x 4 uops
///    and 16-uop XBs, plus the bank ablation's 2 x 8 and 8 x 2.
///    XbcDataArray checks a geometry against them once.
constexpr unsigned kMaxBanks = 8;
constexpr unsigned kMaxBankUops = 8;
constexpr unsigned kMaxXbUops = 16;
/// @}

/**
 * A vector of at most @p N elements stored inline, so holding or
 * copying one never touches the heap. Staying within N is the
 * caller's contract.
 */
template <typename T, unsigned N>
class InlineVec
{
    static_assert(N <= UINT8_MAX, "size_ is 8 bits");

  public:
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    T &front() { return data_[0]; }
    const T &front() const { return data_[0]; }
    const T &back() const { return data_[size_ - 1]; }

    void clear() { size_ = 0; }
    void push_back(const T &v) { data_[size_++] = v; }

    template <typename It>
    void
    assign(It first, It last)
    {
        size_ = 0;
        insert(end(), first, last);
    }

    /** Insert [first, last) before @p pos. */
    template <typename It>
    void
    insert(T *pos, It first, It last)
    {
        const auto n = (uint8_t)(last - first);
        std::copy_backward(pos, end(), end() + n);
        std::copy(first, last, pos);
        size_ += n;
    }

    void
    erase(T *first, T *last)
    {
        std::copy(last, end(), first);
        size_ -= (uint8_t)(last - first);
    }

    bool
    operator==(const InlineVec &o) const
    {
        return std::equal(begin(), end(), o.begin(), o.end());
    }

  private:
    uint8_t size_ = 0;  ///< first, so it shares a line with data_[0]
    T data_[N];
};

/** One uop slot in a bank line: a specific uop of a specific inst. */
struct UopSlot
{
    int32_t staticIdx = kNoTarget;
    uint8_t seq = 0;

    bool operator==(const UopSlot &o) const
    {
        return staticIdx == o.staticIdx && seq == o.seq;
    }
};

/** An XB's uop sequence in logical order (earliest uop first). */
using XbSeq = std::vector<UopSlot>;

/** An XB's uop sequence as the data array holds it, inline. */
using XbImage = InlineVec<UopSlot, kMaxXbUops>;

/**
 * Pointer into the XBC as provided by the XBTB (paper section 3.5):
 * the XB_IP (tag of the target XB = IP of its ending instruction), a
 * bank mask selecting the variant, and the entry point. The hardware
 * encodes the entry as OFFSET (uops counted backward from the end);
 * the model carries the entry instruction's static index, which is
 * equivalent and self-checking.
 */
struct XbPointer
{
    bool valid = false;
    uint64_t xbIp = 0;
    uint32_t mask = 0;
    int32_t entryIdx = kNoTarget;
};

/**
 * Append the uops of instruction @p idx of @p code to @p seq.
 */
inline void
appendInstUops(const StaticCode &code, int32_t idx, XbSeq &seq)
{
    const StaticInst &si = code.inst(idx);
    for (unsigned s = 0; s < si.numUops; ++s)
        seq.push_back(UopSlot{idx, (uint8_t)s});
}

/** Length in uops of the longest common suffix of two sequences. */
template <typename SeqA, typename SeqB>
unsigned
commonSuffixLength(const SeqA &a, const SeqB &b)
{
    unsigned n = 0;
    while (n < a.size() && n < b.size() &&
           a[a.size() - 1 - n] == b[b.size() - 1 - n]) {
        ++n;
    }
    return n;
}

} // namespace xbs

#endif // XBS_CORE_XB_HH
