#include "trace/trace.hh"

#include "common/logging.hh"

namespace xbs
{

Trace::Trace(std::shared_ptr<const StaticCode> code,
             std::vector<TraceRecord> records, std::string name)
    : code_(std::move(code)), records_(std::move(records)),
      name_(std::move(name))
{
    xbs_assert(code_ != nullptr && code_->finalized(),
               "trace needs finalized code");
    for (const auto &r : records_) {
        xbs_assert((std::size_t)r.staticIdx < code_->size(),
                   "record index %d out of range", (int)r.staticIdx);
        totalUops_ += code_->inst(r.staticIdx).numUops;
    }
}

void
Trace::validate() const
{
    for (std::size_t i = 0; i + 1 < records_.size(); ++i) {
        const auto &si = inst(i);
        const uint64_t succ = inst(i + 1).ip;
        switch (si.cls) {
          case InstClass::Seq:
            xbs_assert(succ == si.fallThroughIp(),
                       "record %zu: seq successor mismatch", i);
            break;
          case InstClass::CondBranch:
            if (record(i).taken) {
                xbs_assert(si.takenIdx != kNoTarget &&
                           succ == code_->inst(si.takenIdx).ip,
                           "record %zu: taken target mismatch", i);
            } else {
                xbs_assert(succ == si.fallThroughIp(),
                           "record %zu: fall-through mismatch", i);
            }
            break;
          case InstClass::DirectJump:
          case InstClass::DirectCall:
            xbs_assert(si.takenIdx != kNoTarget &&
                       succ == code_->inst(si.takenIdx).ip,
                       "record %zu: direct target mismatch", i);
            break;
          default:
            // Indirect targets are only known dynamically; nothing
            // static to check beyond index validity (checked above).
            break;
        }
    }
}

} // namespace xbs
