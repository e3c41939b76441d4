#include "batch/job.hh"

#include <algorithm>

#include "common/logging.hh"

namespace xbs
{

const char *
jobClassName(JobClass cls)
{
    switch (cls) {
      case JobClass::Ok:          return "ok";
      case JobClass::Usage:       return "usage";
      case JobClass::Data:        return "data";
      case JobClass::Audit:       return "audit";
      case JobClass::Interrupted: return "interrupted";
      case JobClass::Timeout:     return "timeout";
      case JobClass::Crash:       return "crash";
      case JobClass::Spawn:       return "spawn";
      case JobClass::Resource:    return "resource";
    }
    return "?";
}

bool
jobClassRetryable(JobClass cls)
{
    // Resource is the typed "the host ran out of something" verdict
    // (fork EAGAIN, fd-table ENFILE, ENOMEM): backoff gives the host
    // a chance to recover, unlike the deterministic classes.
    return cls == JobClass::Timeout || cls == JobClass::Crash ||
           cls == JobClass::Resource;
}

JobClass
classifyOutcome(bool timed_out, bool exited, int exit_code,
                int term_signal)
{
    (void)term_signal;
    // The watchdog's verdict outranks whatever the dying child
    // reported.
    if (timed_out)
        return JobClass::Timeout;
    if (!exited)
        return JobClass::Crash;
    switch (exit_code) {
      case kExitOk:          return JobClass::Ok;
      case kExitUsage:       return JobClass::Usage;
      case kExitData:        return JobClass::Data;
      case kExitAudit:       return JobClass::Audit;
      case kExitInterrupted: return JobClass::Interrupted;
      case 127:              return JobClass::Spawn;  // exec failed
      default:               return JobClass::Crash;
    }
}

std::string
sanitizeNote(const std::string &text, std::size_t max_len)
{
    std::string out;
    out.reserve(std::min(text.size(), max_len));
    for (unsigned char c : text) {
        if (out.size() >= max_len) {
            out += "...";
            break;
        }
        // Control bytes (including \n, which would split the table
        // row, and \e, which could drive a terminal) become spaces;
        // high bytes pass through (the JSON writer escapes its own
        // metacharacters).
        out += (c < 0x20 || c == 0x7f) ? ' ' : (char)c;
    }
    return out;
}

std::vector<JobSpec>
buildJobMatrix(const std::vector<std::string> &workloads,
               const std::vector<std::string> &frontends,
               const std::vector<uint64_t> &capacities, uint64_t insts)
{
    std::vector<JobSpec> jobs;
    int id = 0;
    for (const std::string &w : workloads) {
        for (const std::string &f : frontends) {
            for (uint64_t cap : capacities) {
                JobSpec j;
                j.id = id++;
                j.run.workload = w;
                j.run.frontend = f;
                j.run.capacity = cap;
                j.run.insts = insts;
                jobs.push_back(std::move(j));
            }
        }
    }
    return jobs;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        std::string item = csv.substr(pos, comma - pos);
        if (!item.empty())
            out.push_back(std::move(item));
        pos = comma + 1;
    }
    return out;
}

} // namespace xbs
