/**
 * @file
 * Trace-cache fill unit: accumulates decoded instructions along the
 * executed path in build mode and emits finished TraceLines.
 */

#ifndef XBS_TC_FILL_UNIT_HH
#define XBS_TC_FILL_UNIT_HH

#include <functional>

#include "tc/trace_line.hh"
#include "trace/trace.hh"

namespace xbs
{

class TcFillUnit
{
  public:
    explicit TcFillUnit(const TraceLimits &limits) : limits_(limits) {}

    /** Abandon the current partial trace and start fresh. */
    void restart();

    /**
     * Feed one executed instruction (record @p rec of @p trace).
     * When the instruction completes a trace, the finished line is
     * handed to @p sink and filling restarts at the next instruction.
     *
     * @return true if a trace was completed by this instruction
     */
    bool feed(const Trace &trace, std::size_t rec,
              const std::function<void(const TraceLine &)> &sink);

    /** Whether a partial trace is being accumulated. */
    bool active() const { return line_.valid; }

    const TraceLine &pending() const { return line_; }

  private:
    TraceLimits limits_;
    TraceLine line_;
};

} // namespace xbs

#endif // XBS_TC_FILL_UNIT_HH
