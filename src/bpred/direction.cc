#include "bpred/direction.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace xbs
{

GsharePredictor::GsharePredictor(unsigned history_bits)
    : historyBits_(history_bits)
{
    xbs_assert(history_bits >= 1 && history_bits <= 24,
               "unreasonable gshare history %u", history_bits);
    table_.resize(1ULL << historyBits_);
}

void
GsharePredictor::reset()
{
    history_ = 0;
    for (auto &c : table_)
        c.init(2);
}

BimodalPredictor::BimodalPredictor(unsigned table_bits)
    : tableBits_(table_bits)
{
    table_.resize(1ULL << tableBits_);
}

std::size_t
BimodalPredictor::index(uint64_t ip) const
{
    return (std::size_t)(((ip >> 1) ^ (ip >> (1 + tableBits_))) &
                         mask(tableBits_));
}

bool
BimodalPredictor::predict(uint64_t ip) const
{
    return table_[index(ip)].taken();
}

void
BimodalPredictor::update(uint64_t ip, bool taken)
{
    table_[index(ip)].train(taken);
}

void
BimodalPredictor::reset()
{
    for (auto &c : table_)
        c.init(2);
}

} // namespace xbs
