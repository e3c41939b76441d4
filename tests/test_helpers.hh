/**
 * @file
 * Shared helpers for unit tests: hand-built tiny programs and traces,
 * and self-cleaning scratch directories.
 */

#ifndef XBS_TESTS_TEST_HELPERS_HH
#define XBS_TESTS_TEST_HELPERS_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "isa/static_inst.hh"
#include "trace/trace.hh"

namespace xbs
{

/** Incremental builder for a hand-written StaticCode image. */
class CodeBuilder
{
  public:
    CodeBuilder() : code_(std::make_shared<StaticCode>()) {}

    /** Append an instruction at the current cursor IP. */
    int32_t
    add(InstClass cls, uint8_t len = 4, uint8_t uops = 1,
        int32_t taken_idx = kNoTarget, int32_t behavior_id = kNoBehavior)
    {
        StaticInst si;
        si.ip = cursor_;
        si.length = len;
        si.numUops = uops;
        si.cls = cls;
        si.takenIdx = taken_idx;
        si.behaviorId = behavior_id;
        cursor_ += len;
        return code_->append(si);
    }

    int32_t seq(uint8_t uops = 1, uint8_t len = 4)
    {
        return add(InstClass::Seq, len, uops);
    }

    int32_t cond(int32_t taken_idx, uint8_t uops = 1)
    {
        return add(InstClass::CondBranch, 2, uops, taken_idx, 0);
    }

    int32_t jump(int32_t target_idx)
    {
        return add(InstClass::DirectJump, 2, 1, target_idx);
    }

    int32_t call(int32_t target_idx)
    {
        return add(InstClass::DirectCall, 5, 2, target_idx);
    }

    int32_t ret() { return add(InstClass::Return, 1, 2); }

    /** Patch a forward branch target after the target exists. */
    void
    patchTarget(int32_t inst_idx, int32_t target_idx)
    {
        code_->mutableInst(inst_idx).takenIdx = target_idx;
    }

    std::shared_ptr<const StaticCode>
    finalize()
    {
        code_->finalize();
        return code_;
    }

    uint64_t ipOf(int32_t idx) const { return code_->inst(idx).ip; }

  private:
    std::shared_ptr<StaticCode> code_;
    uint64_t cursor_ = 0x1000;
};

/** Build a trace from (staticIdx, taken) pairs. */
inline Trace
makeTestTrace(std::shared_ptr<const StaticCode> code,
              const std::vector<std::pair<int32_t, bool>> &path,
              const std::string &name = "test")
{
    std::vector<TraceRecord> records;
    records.reserve(path.size());
    for (const auto &[idx, taken] : path) {
        TraceRecord r;
        r.staticIdx = idx;
        r.taken = taken ? 1 : 0;
        records.push_back(r);
    }
    return Trace(std::move(code), std::move(records), name);
}

/**
 * A fresh /tmp/xbs_test_XXXXXX directory that is removed, with all it
 * holds, when the TempDir goes out of scope. Forked children must
 * leave with _exit so that only the creating process removes it.
 */
class TempDir
{
  public:
    TempDir() : path(make()) {}

    ~TempDir()
    {
        std::error_code ec;
        if (!path.empty())
            std::filesystem::remove_all(path, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string path;

  private:
    static std::string
    make()
    {
        char tmpl[] = "/tmp/xbs_test_XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        return dir ? dir : "";
    }
};

} // namespace xbs

#endif // XBS_TESTS_TEST_HELPERS_HH
