#include "core/xbtb.hh"

#include "ckpt/serial.hh"
#include "common/logging.hh"

namespace xbs
{

void
ckptSaveXbPointer(CkptSink &sink, const XbPointer &ptr)
{
    sink.b(ptr.valid);
    sink.u64(ptr.xbIp);
    sink.u32(ptr.mask);
    sink.i32(ptr.entryIdx);
}

XbPointer
ckptLoadXbPointer(CkptSource &src)
{
    XbPointer ptr;
    ptr.valid = src.b();
    ptr.xbIp = src.u64();
    ptr.mask = src.u32();
    ptr.entryIdx = src.i32();
    return ptr;
}

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

void
Xbtb::ckptSave(CkptSink &sink) const
{
    sink.u64(entries_.size());
    for (const Entry &e : entries_) {
        sink.b(e.valid);
        sink.u64(e.xbIp);
        sink.u64(e.lru);
        sink.u8((uint8_t)e.endType);
        ckptSaveXbPointer(sink, e.taken);
        ckptSaveXbPointer(sink, e.fallthrough);
        sink.u8(e.counter);
        sink.b(e.promoted);
        sink.b(e.promotedTaken);
        ckptSaveXbPointer(sink, e.promotedPtr);
    }
    sink.u64(clock_);
}

void
Xbtb::ckptLoad(CkptSource &src)
{
    uint64_t n = src.count(1);
    src.require(n == entries_.size());
    for (std::size_t i = 0; src.ok() && i < entries_.size(); ++i) {
        Entry &e = entries_[i];
        e.valid = src.b();
        e.xbIp = src.u64();
        e.lru = src.u64();
        uint8_t end_type = src.u8();
        src.require(end_type < (uint8_t)InstClass::NumClasses);
        e.endType = (InstClass)end_type;
        e.taken = ckptLoadXbPointer(src);
        e.fallthrough = ckptLoadXbPointer(src);
        e.counter = src.u8();
        e.promoted = src.b();
        e.promotedTaken = src.b();
        e.promotedPtr = ckptLoadXbPointer(src);
    }
    clock_ = src.u64();

    // find() returns the first way holding an IP; a second one would
    // be unreachable, and an XBTB hint relies on there being none.
    for (std::size_t i = 0; src.ok() && i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        const std::size_t set_end = (i / ways_ + 1) * ways_;
        for (std::size_t j = i + 1; e.valid && j < set_end; ++j)
            src.require(!(entries_[j].valid && entries_[j].xbIp == e.xbIp));
    }
}

void
XiBtb::ckptSave(CkptSink &sink) const
{
    sink.u64(slots_.size());
    for (const Slot &s : slots_) {
        sink.b(s.valid);
        sink.u64(s.tag);
        sink.u64(s.lru);
        ckptSaveXbPointer(sink, s.ptr);
    }
    sink.u64(clock_);
}

void
XiBtb::ckptLoad(CkptSource &src)
{
    uint64_t n = src.count(1);
    src.require(n == slots_.size());
    for (std::size_t i = 0; src.ok() && i < slots_.size(); ++i) {
        Slot &s = slots_[i];
        s.valid = src.b();
        s.tag = src.u64();
        s.lru = src.u64();
        s.ptr = ckptLoadXbPointer(src);
    }
    clock_ = src.u64();
}

void
Xrsb::ckptSave(CkptSink &sink) const
{
    sink.u64(stack_.size());
    for (uint64_t v : stack_)
        sink.u64(v);
    sink.u32(topIdx_);
    sink.u32(size_);
}

void
Xrsb::ckptLoad(CkptSource &src)
{
    uint64_t n = src.count(8);
    src.require(n == stack_.size());
    for (std::size_t i = 0; src.ok() && i < stack_.size(); ++i)
        stack_[i] = src.u64();
    topIdx_ = src.u32();
    size_ = src.u32();
    src.require(topIdx_ < stack_.size() && size_ <= stack_.size());
}

} // namespace xbs
