/**
 * @file
 * Dynamic instruction traces.
 *
 * A Trace is the unit the standalone frontend simulator consumes (the
 * paper drives its simulator with 30M-instruction x86 traces; ours are
 * synthetic and typically 2M instructions). Each record references a
 * StaticInst by index, so a record is 4 bytes and all static
 * properties (IP, length, uop count, class, direct target) are shared.
 */

#ifndef XBS_TRACE_TRACE_HH
#define XBS_TRACE_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/static_inst.hh"

namespace xbs
{

/**
 * One dynamic instruction instance. The 31-bit index holds every
 * index a code image can have: StaticCode indices are int32_t, and
 * the trace reader rejects a code image above INT32_MAX instructions.
 */
struct TraceRecord
{
    uint32_t staticIdx : 31 = 0;  ///< index into the trace's StaticCode
    uint32_t taken : 1 = 0;       ///< conditional branches: direction
};

static_assert(sizeof(TraceRecord) == 4, "TraceRecord should be 4B");

/** An immutable dynamic trace over a shared static code image. */
class Trace
{
  public:
    Trace(std::shared_ptr<const StaticCode> code,
          std::vector<TraceRecord> records,
          std::string name = "trace");

    const StaticCode &code() const { return *code_; }
    std::shared_ptr<const StaticCode> codePtr() const { return code_; }

    const std::string &name() const { return name_; }

    std::size_t numRecords() const { return records_.size(); }

    const TraceRecord &record(std::size_t i) const
    {
        return records_[i];
    }

    /** Static instruction of record @p i. */
    const StaticInst &inst(std::size_t i) const
    {
        return code_->inst(records_[i].staticIdx);
    }

    /**
     * IP of the dynamic successor of record @p i (the actual path the
     * frontend must supply). Returns 0 past the end of the trace.
     */
    uint64_t
    nextIp(std::size_t i) const
    {
        return i + 1 < records_.size() ? inst(i + 1).ip : 0;
    }

    /** Total dynamic uop count. */
    uint64_t totalUops() const { return totalUops_; }

    /** Validate internal consistency (targets match successors). */
    void validate() const;

  private:
    std::shared_ptr<const StaticCode> code_;
    std::vector<TraceRecord> records_;
    std::string name_;
    uint64_t totalUops_ = 0;
};

} // namespace xbs

#endif // XBS_TRACE_TRACE_HH
