#include "bpred/direction.hh"

#include "ckpt/serial.hh"
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

void
GsharePredictor::ckptSave(CkptSink &sink) const
{
    sink.u64(history_);
    sink.u64(table_.size());
    for (const Counter2 &c : table_)
        sink.u8(c.raw());
}

void
GsharePredictor::ckptLoad(CkptSource &src)
{
    history_ = src.u64();
    uint64_t n = src.count(1);
    src.require(n == table_.size());
    for (std::size_t i = 0; src.ok() && i < table_.size(); ++i)
        table_[i].init(src.u8());
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
