#include "bpred/btb.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace xbs
{

Btb::Btb(unsigned num_sets, unsigned ways)
    : numSets_(num_sets), ways_(ways)
{
    xbs_assert(isPowerOf2(num_sets), "BTB sets must be a power of 2");
    xbs_assert(ways >= 1, "BTB needs at least one way");
    entries_.resize((std::size_t)numSets_ * ways_);
}

std::size_t
Btb::setOf(uint64_t ip) const
{
    return (std::size_t)foldedIndex(ip, numSets_, 1);
}

Btb::Entry *
Btb::findEntry(uint64_t ip)
{
    std::size_t base = setOf(ip) * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = entries_[base + w];
        if (e.valid && e.tag == ip)
            return &e;
    }
    return nullptr;
}

std::optional<uint64_t>
Btb::lookup(uint64_t ip)
{
    if (Entry *e = findEntry(ip)) {
        e->lru = ++clock_;
        ++hits_;
        return e->target;
    }
    ++misses_;
    return std::nullopt;
}

void
Btb::update(uint64_t ip, uint64_t target)
{
    if (Entry *e = findEntry(ip)) {
        e->target = target;
        e->lru = ++clock_;
        return;
    }
    std::size_t base = setOf(ip) * ways_;
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
    victim->tag = ip;
    victim->target = target;
    victim->lru = ++clock_;
}

void
Btb::invalidate(uint64_t ip)
{
    if (Entry *e = findEntry(ip))
        e->valid = false;
}

void
Btb::reset()
{
    for (auto &e : entries_)
        e = Entry{};
    clock_ = hits_ = misses_ = 0;
}

ReturnStack::ReturnStack(unsigned depth)
    : stack_(depth, 0)
{
    xbs_assert(depth >= 1, "return stack needs depth");
}

void
ReturnStack::push(uint64_t return_ip)
{
    topIdx_ = (topIdx_ + 1) % stack_.size();
    stack_[topIdx_] = return_ip;
    if (size_ < stack_.size())
        ++size_;
}

uint64_t
ReturnStack::pop()
{
    if (size_ == 0) {
        ++underflows_;
        return 0;
    }
    uint64_t v = stack_[topIdx_];
    topIdx_ = (topIdx_ + stack_.size() - 1) % stack_.size();
    --size_;
    return v;
}

uint64_t
ReturnStack::top() const
{
    return size_ ? stack_[topIdx_] : 0;
}

void
ReturnStack::reset()
{
    topIdx_ = 0;
    size_ = 0;
    underflows_ = 0;
}

IndirectPredictor::IndirectPredictor(unsigned num_sets, unsigned ways)
    : table_(num_sets, ways)
{
}

std::optional<uint64_t>
IndirectPredictor::predict(uint64_t ip)
{
    return table_.lookup(ip);
}

void
IndirectPredictor::update(uint64_t ip, uint64_t target)
{
    table_.update(ip, target);
}

void
IndirectPredictor::reset()
{
    table_.reset();
}

} // namespace xbs
