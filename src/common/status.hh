/**
 * @file
 * Recoverable-error layer: Status and Expected<T>.
 *
 * Historically every I/O or configuration failure in xbcsim went
 * through xbs_fatal(), which makes the tools unusable as libraries
 * and turns a truncated trace file into a process exit deep inside
 * trace_io. Status carries a failure *description* instead: the
 * cause, plus optional context (file path, byte offset) attached as
 * the error propagates outward. Expected<T> is the value-or-Status
 * union returned by fallible constructors such as readTraceEx().
 *
 * The tools translate Status into process exit codes (see ExitCode):
 * usage/configuration errors keep the legacy code 1, data/I-O errors
 * exit 2, and audit violations (src/verify) exit 3.
 */

#ifndef XBS_COMMON_STATUS_HH
#define XBS_COMMON_STATUS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace xbs
{

/** Process exit codes shared by xbsim, xbtrace, and xbatch. */
enum ExitCode : int
{
    kExitOk = 0,
    kExitUsage = 1,  ///< bad flags / unknown names (legacy fatal())
    kExitData = 2,   ///< malformed or unreadable input data
    kExitAudit = 3,  ///< invariant/oracle violations (--audit)

    /// A sweep completed end to end but some jobs failed after
    /// retries: the report is valid and names the casualties
    /// (xbatch's "graceful degradation" outcome).
    kExitDegraded = 4,

    /// The process caught SIGINT/SIGTERM, flushed partial output
    /// (interval stats, audit report, a drained sweep's report) and
    /// stopped early.
    kExitInterrupted = 5,

    /// A benchmark comparison found at least one gated metric
    /// outside its tolerance (xbregress's failure outcome; the
    /// delta table names the offenders).
    kExitRegression = 6,
};

/**
 * Machine-readable failure class, orthogonal to the human-readable
 * cause string. Generic covers everything that predates the typing;
 * the specific codes exist where a *caller's policy* depends on what
 * went wrong: the scheduler retries Resource failures (disk full,
 * fork limits — the host may recover) but not Corrupt ones.
 */
enum class StatusCode
{
    Generic,    ///< untyped failure (default)
    Resource,   ///< ENOSPC/EDQUOT/EAGAIN/ENOMEM: transient host limit
    Corrupt,    ///< data present but failed integrity/parse checks
    NotFound,   ///< addressed object does not exist
};

const char *statusCodeName(StatusCode code);

/** Success-or-error result with file/offset/cause context. */
class [[nodiscard]] Status
{
  public:
    /** Default: success. */
    Status() = default;

    static Status ok() { return Status(); }

    static Status
    error(std::string cause)
    {
        Status st;
        st.failed_ = true;
        st.cause_ = std::move(cause);
        return st;
    }

    static Status
    error(StatusCode code, std::string cause)
    {
        Status st = error(std::move(cause));
        st.code_ = code;
        return st;
    }

    /// @{ Attach context while propagating (chainable; the first
    ///    caller to attach wins, so inner context is preserved).
    Status &
    withFile(const std::string &path)
    {
        if (failed_ && file_.empty())
            file_ = path;
        return *this;
    }

    Status &
    withOffset(uint64_t byte_offset)
    {
        if (failed_ && !offset_)
            offset_ = byte_offset;
        return *this;
    }
    /// @}

    /** Refine a propagating error's code (first refinement wins,
     *  like withFile; no-op on success or an already-typed error). */
    Status &
    withCode(StatusCode code)
    {
        if (failed_ && code_ == StatusCode::Generic)
            code_ = code;
        return *this;
    }

    bool isOk() const { return !failed_; }
    explicit operator bool() const { return !failed_; }

    StatusCode code() const { return code_; }

    /** Retrying the same operation later may succeed (the failure is
     *  a host condition, not a property of the data or request). */
    bool transient() const
    {
        return failed_ && code_ == StatusCode::Resource;
    }

    const std::string &cause() const { return cause_; }
    const std::string &file() const { return file_; }
    const std::optional<uint64_t> &offset() const { return offset_; }

    /** "cause [in 'file'] [at byte N]" for messages and logs. */
    std::string
    toString() const
    {
        if (!failed_)
            return "ok";
        std::string s = cause_;
        if (!file_.empty())
            s += " in '" + file_ + "'";
        if (offset_)
            s += " at byte " + std::to_string(*offset_);
        return s;
    }

  private:
    bool failed_ = false;
    StatusCode code_ = StatusCode::Generic;
    std::string cause_;
    std::string file_;
    std::optional<uint64_t> offset_;
};

inline const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Generic:    return "generic";
      case StatusCode::Resource:   return "resource";
      case StatusCode::Corrupt:    return "corrupt";
      case StatusCode::NotFound:   return "not-found";
    }
    return "?";
}

/**
 * A T or the Status explaining why there is none. Construction from
 * a value yields success; construction from a Status (which must be
 * an error) yields failure.
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {}

    Expected(Status status) : status_(std::move(status))
    {
        xbs_assert(!status_.isOk(),
                   "Expected built from an ok Status");
    }

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    const Status &status() const { return status_; }

    const T &
    value() const
    {
        xbs_assert(ok(), "Expected::value() on error: %s",
                   status_.toString().c_str());
        return *value_;
    }

    T &
    value()
    {
        xbs_assert(ok(), "Expected::value() on error: %s",
                   status_.toString().c_str());
        return *value_;
    }

    /** Move the value out (asserts ok). */
    T
    take()
    {
        xbs_assert(ok(), "Expected::take() on error: %s",
                   status_.toString().c_str());
        return std::move(*value_);
    }

  private:
    std::optional<T> value_;
    Status status_;
};

} // namespace xbs

#endif // XBS_COMMON_STATUS_HH
