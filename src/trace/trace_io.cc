#include "trace/trace_io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_set>

#include "common/crc32.hh"

namespace xbs
{

namespace
{

constexpr char kMagic[4] = {'X', 'B', 'T', '2'};

/** Serialized sizes (the structs are written field by field). */
constexpr uint64_t kInstBytes = 8 + 1 + 1 + 1 + 4 + 4;
constexpr uint64_t kRecordBytes = 4 + 1;

struct FileCloser
{
    void operator()(FILE *f) const { if (f) std::fclose(f); }
};

using FilePtr = std::unique_ptr<FILE, FileCloser>;

/**
 * Bounds-tracked reader over the one kTraceBufBytes buffer: every get
 * knows the current byte offset (for error context) and the total
 * file size (so section counts can be sanity-checked before any
 * allocation). The buffer is refilled as it drains, and the bytes it
 * drops feed the running CRC, so the file is read in one pass.
 */
struct Reader
{
    FILE *f = nullptr;
    uint64_t offset = 0;
    uint64_t size = 0;
    Status error;  ///< the first failure
    std::unique_ptr<uint8_t[]> buf{new uint8_t[kTraceBufBytes]};
    std::size_t pos = 0, len = 0;  ///< buf[pos, len) is not read yet
    uint32_t crc = 0;              ///< of the file bytes before buf[0]

    /** Make @p n <= kTraceBufBytes unread bytes available at
     *  buf[pos], topping the buffer up once it runs low. */
    bool
    fill(std::size_t n, const char *what)
    {
        if (len - pos < n && error.isOk()) {
            crc = crc32(crc, buf.get(), pos);
            std::memmove(buf.get(), buf.get() + pos, len - pos);
            len -= pos;
            pos = 0;
            len += std::fread(buf.get() + len, 1, kTraceBufBytes - len, f);
            if (len < n)
                fail(std::string("truncated ") + what);
        }
        return len - pos >= n;
    }

    void
    skip(std::size_t n)
    {
        pos += n;
        offset += n;
    }

    bool
    read(void *dst, std::size_t n, const char *what)
    {
        if (!fill(n, what))
            return false;
        std::memcpy(dst, buf.get() + pos, n);
        skip(n);
        return true;
    }

    template <typename T>
    T
    get(const char *what)
    {
        T v{};
        read(&v, sizeof(T), what);
        return v;
    }

    uint64_t remaining() const { return size - offset; }

    void
    fail(std::string cause)
    {
        if (error.isOk()) {
            error = Status::error(StatusCode::Corrupt, std::move(cause))
                        .withOffset(offset);
        }
    }
};

} // anonymous namespace

Status
writeTraceEx(const Trace &trace, const std::string &path)
{
    // Refuse anything the format fields cannot represent instead of
    // wrapping on the (uint32_t) cast the old writer performed.
    if (trace.name().size() > kMaxTraceNameLen) {
        return Status::error(
            "trace name length " + std::to_string(trace.name().size()) +
            " exceeds the format limit of " +
            std::to_string(kMaxTraceNameLen))
            .withFile(path);
    }

    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return Status::error("cannot open for writing").withFile(path);

    // Pack the fields into the one buffer; each full buffer goes out
    // in one fwrite, after feeding the running CRC.
    std::unique_ptr<uint8_t[]> buf(new uint8_t[kTraceBufBytes]);
    std::size_t len = 0;
    uint64_t written = 0;
    uint32_t crc = 0;
    bool ok = true;
    auto flush = [&]() {
        crc = crc32(crc, buf.get(), len);
        ok = ok && std::fwrite(buf.get(), 1, len, f.get()) == len;
        written += ok ? len : 0;
        len = 0;
    };
    auto write = [&](const void *src, std::size_t n) {
        if (len + n > kTraceBufBytes)
            flush();
        std::memcpy(buf.get() + len, src, n);
        len += n;
    };
    auto put = [&](auto v) { write(&v, sizeof(v)); };

    write(kMagic, 4);
    put(uint32_t(trace.name().size()));
    write(trace.name().data(), trace.name().size());

    const auto &code = trace.code();
    put(uint64_t(code.size()));
    for (std::size_t i = 0; i < code.size(); ++i) {
        const auto &si = code.inst((int32_t)i);
        put(uint64_t(si.ip));
        put(uint8_t(si.length));
        put(uint8_t(si.numUops));
        put(uint8_t(si.cls));
        put(int32_t(si.takenIdx));
        put(int32_t(si.behaviorId));
    }

    put(uint64_t(trace.numRecords()));
    for (std::size_t i = 0; i < trace.numRecords(); ++i) {
        put(int32_t(trace.record(i).staticIdx));
        put(uint8_t(trace.record(i).taken));
    }
    flush();
    put(crc);
    flush();
    if (!ok || std::fflush(f.get()) != 0 || std::fclose(f.release()) != 0) {
        return Status::error("trace write failed")
            .withFile(path).withOffset(written);
    }
    return Status::ok();
}

Expected<Trace>
readTraceEx(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return Status::error("cannot open for reading").withFile(path);

    Reader r;
    r.f = f.get();
    if (std::fseek(r.f, 0, SEEK_END) != 0)
        return Status::error("cannot seek").withFile(path);
    long end = std::ftell(r.f);
    if (end < 0)
        return Status::error("cannot tell").withFile(path);
    r.size = (uint64_t)end;
    std::rewind(r.f);

    char magic[4] = {};
    if (!r.read(magic, 4, "header") ||
        std::memcmp(magic, kMagic, 4) != 0) {
        return Status::error(StatusCode::Corrupt,
                             "'" + path + "' is not an XBT2 trace file")
            .withOffset(0);
    }

    // Name section, with the length checked against both the format
    // cap and the bytes actually present.
    auto name_len = r.get<uint32_t>("name length");
    if (!r.error.isOk())
        return r.error.withFile(path);
    if (name_len > kMaxTraceNameLen) {
        r.fail("name length " + std::to_string(name_len) +
               " exceeds the format limit of " +
               std::to_string(kMaxTraceNameLen));
        return r.error.withFile(path);
    }
    if (name_len > r.remaining()) {
        r.fail("name length " + std::to_string(name_len) +
               " exceeds the " + std::to_string(r.remaining()) +
               " bytes left in the file");
        return r.error.withFile(path);
    }
    std::string name(name_len, '\0');
    if (name_len && !r.read(name.data(), name_len, "name"))
        return r.error.withFile(path);

    // Instruction section: bound the count by the bytes present
    // before reserving anything, then validate each field so the
    // StaticCode/Trace constructors (which assert) never see junk.
    auto num_insts = r.get<uint64_t>("instruction count");
    if (!r.error.isOk())
        return r.error.withFile(path);
    if (num_insts > r.remaining() / kInstBytes) {
        r.fail("instruction count " + std::to_string(num_insts) +
               " exceeds the " + std::to_string(r.remaining()) +
               " bytes left in the file");
        return r.error.withFile(path);
    }
    if (num_insts > (uint64_t)INT32_MAX) {
        r.fail("instruction count " + std::to_string(num_insts) +
               " exceeds the 31-bit index space");
        return r.error.withFile(path);
    }

    auto code = std::make_shared<StaticCode>();
    std::unordered_set<uint64_t> seen_ips;
    seen_ips.reserve((std::size_t)num_insts);
    for (uint64_t i = 0; i < num_insts; ++i) {
        uint64_t inst_off = r.offset;
        StaticInst si;
        si.ip = r.get<uint64_t>("instruction");
        si.length = r.get<uint8_t>("instruction");
        si.numUops = r.get<uint8_t>("instruction");
        auto cls = r.get<uint8_t>("instruction");
        si.takenIdx = r.get<int32_t>("instruction");
        si.behaviorId = r.get<int32_t>("instruction");
        if (!r.error.isOk())
            return r.error.withFile(path);

        auto bad = [&](const std::string &what) {
            r.error = Status::error(StatusCode::Corrupt, "instruction " +
                                    std::to_string(i) + ": " + what)
                          .withOffset(inst_off).withFile(path);
            return r.error;
        };
        if (si.length < 1 || si.length > 15)
            return bad("length " + std::to_string(si.length) +
                       " outside 1..15");
        if (si.numUops < 1 || si.numUops > 16)
            return bad("uop count " + std::to_string(si.numUops) +
                       " outside 1..16");
        if (cls >= (uint8_t)InstClass::NumClasses)
            return bad("unknown class " + std::to_string(cls));
        si.cls = (InstClass)cls;
        if (si.takenIdx != kNoTarget &&
            (si.takenIdx < 0 || (uint64_t)si.takenIdx >= num_insts)) {
            return bad("takenIdx " + std::to_string(si.takenIdx) +
                       " out of range");
        }
        if (si.behaviorId != kNoBehavior && si.behaviorId < 0)
            return bad("negative behaviorId");
        if (!seen_ips.insert(si.ip).second)
            return bad("duplicate ip " + std::to_string(si.ip));
        code->append(si);
    }
    code->finalize();

    // Record section, again count-bounded by the remaining bytes and
    // with every index checked against the code image.
    auto num_records = r.get<uint64_t>("record count");
    if (!r.error.isOk())
        return r.error.withFile(path);
    if (num_records > r.remaining() / kRecordBytes) {
        r.fail("record count " + std::to_string(num_records) +
               " exceeds the " + std::to_string(r.remaining()) +
               " bytes left in the file");
        return r.error.withFile(path);
    }
    std::vector<TraceRecord> records((std::size_t)num_records);
    for (uint64_t i = 0; i < num_records;) {
        if (!r.fill(kRecordBytes, "record"))
            return r.error.withFile(path);
        // Decode every whole record in the buffer in one tight loop.
        const uint8_t *p = r.buf.get() + r.pos;
        const uint64_t n = std::min<uint64_t>(
            (r.len - r.pos) / kRecordBytes, num_records - i);
        for (uint64_t k = 0; k < n; ++k, ++i, p += kRecordBytes) {
            TraceRecord &rec = records[i];
            std::memcpy(&rec.staticIdx, p, 4);
            rec.taken = p[4];
            // A negative index wraps above num_insts (<= INT32_MAX).
            const bool idx_ok = (uint32_t)rec.staticIdx < num_insts;
            if (!idx_ok || rec.taken > 1) {
                const std::string what =
                    idx_ok ? "taken flag " + std::to_string(rec.taken) +
                                 " is not 0/1"
                           : "staticIdx " + std::to_string(rec.staticIdx) +
                                 " out of range";
                return Status::error(StatusCode::Corrupt,
                                     "record " + std::to_string(i) + ": " +
                                         what)
                    .withOffset(r.offset + k * kRecordBytes)
                    .withFile(path);
            }
        }
        r.skip(n * kRecordBytes);
    }

    // The trailer ends the file. It holds the CRC of every byte
    // before it and is checked only once the body has parsed.
    const uint32_t computed = crc32(r.crc, r.buf.get(), r.pos);
    if (r.remaining() > 4) {
        r.fail(std::to_string(r.remaining() - 4) +
               " trailing bytes after the record section");
    } else if (r.fill(4, "checksum trailer") &&
               std::memcmp(r.buf.get() + r.pos, &computed, 4) != 0) {
        r.fail("checksum mismatch");
    }
    if (!r.error.isOk())
        return r.error.withFile(path);

    return Trace(std::move(code), std::move(records),
                 std::move(name));
}

} // namespace xbs
