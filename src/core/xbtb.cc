#include "core/xbtb.hh"

#include "common/logging.hh"

namespace xbs
{

Xbtb::Xbtb(unsigned entries, unsigned ways, StatGroup *parent)
    : StatGroup("xbtb", parent), ways_(ways)
{
    xbs_assert(ways >= 1 && entries >= ways, "bad XBTB geometry");
    numSets_ = 1u << floorLog2(entries / ways);
    entries_.resize((std::size_t)numSets_ * ways_);
}

Xbtb::Entry &
Xbtb::allocate(uint64_t xb_ip, InstClass end_type)
{
    if (Entry *e = find(xb_ip)) {
        e->endType = end_type;
        e->lru = ++clock_;
        return *e;
    }
    std::size_t base = setOf(xb_ip) * ways_;
    Entry *victim = &entries_[base];
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = entries_[base + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }
    if (victim->valid)
        ++entryEvictions;
    *victim = Entry{};
    victim->valid = true;
    victim->xbIp = xb_ip;
    victim->endType = end_type;
    victim->lru = ++clock_;
    ++allocations;
    return *victim;
}

void
Xbtb::reset()
{
    for (auto &e : entries_)
        e = Entry{};
    clock_ = 0;
    resetStats();
}

XiBtb::XiBtb(unsigned sets, unsigned ways, StatGroup *parent)
    : StatGroup("xibtb", parent), ways_(ways)
{
    xbs_assert(ways >= 1 && sets >= 1, "bad XiBTB geometry");
    numSets_ = 1u << floorLog2(sets);
    slots_.resize((std::size_t)numSets_ * ways_);
}

std::size_t
XiBtb::setOf(uint64_t ip) const
{
    return (std::size_t)foldedIndex(ip, numSets_, 0);
}

const XbPointer *
XiBtb::predict(uint64_t xb_ip)
{
    ++lookups;
    std::size_t base = setOf(xb_ip) * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        Slot &s = slots_[base + w];
        if (s.valid && s.tag == xb_ip) {
            s.lru = ++clock_;
            ++hits;
            return &s.ptr;
        }
    }
    return nullptr;
}

void
XiBtb::update(uint64_t xb_ip, const XbPointer &ptr)
{
    std::size_t base = setOf(xb_ip) * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        Slot &s = slots_[base + w];
        if (s.valid && s.tag == xb_ip) {
            s.ptr = ptr;
            s.lru = ++clock_;
            return;
        }
    }
    Slot *victim = &slots_[base];
    for (unsigned w = 0; w < ways_; ++w) {
        Slot &s = slots_[base + w];
        if (!s.valid) {
            victim = &s;
            break;
        }
        if (s.lru < victim->lru)
            victim = &s;
    }
    victim->valid = true;
    victim->tag = xb_ip;
    victim->ptr = ptr;
    victim->lru = ++clock_;
}

void
XiBtb::reset()
{
    for (auto &s : slots_)
        s = Slot{};
    clock_ = 0;
    resetStats();
}

Xrsb::Xrsb(unsigned depth)
    : stack_(depth, 0)
{
    xbs_assert(depth >= 1, "XRSB needs depth");
}

void
Xrsb::push(uint64_t call_xb_ip)
{
    topIdx_ = (topIdx_ + 1) % stack_.size();
    stack_[topIdx_] = call_xb_ip;
    if (size_ < stack_.size())
        ++size_;
}

uint64_t
Xrsb::pop()
{
    if (size_ == 0)
        return 0;
    uint64_t v = stack_[topIdx_];
    topIdx_ = (topIdx_ + stack_.size() - 1) % stack_.size();
    --size_;
    return v;
}

void
Xrsb::reset()
{
    topIdx_ = 0;
    size_ = 0;
}

} // namespace xbs
