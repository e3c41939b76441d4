#include "ckpt/checkpoint.hh"

#include <cstring>

#include "common/fs.hh"
#include "common/sha256.hh"

namespace xbs
{

const char kCkptMagic[8] = {'X', 'B', 'C', 'K', 'P', 'T', '1', '\n'};

namespace
{

constexpr std::size_t kHashLen = 32; // raw sha256 bytes
constexpr uint32_t kMetaVersion = 1;

Status
corrupt(const std::string &cause, uint64_t offset)
{
    Status st = Status::error(StatusCode::Corrupt, cause);
    st.withOffset(offset);
    return st;
}

/** Decode a 64-char hex digest to 32 raw bytes; "" on bad input. */
std::string
hexToRaw(const std::string &hex)
{
    if (hex.size() != 2 * kHashLen)
        return std::string();
    std::string raw(kHashLen, '\0');
    for (std::size_t i = 0; i < kHashLen; ++i) {
        int v = 0;
        for (int half = 0; half < 2; ++half) {
            char c = hex[2 * i + half];
            int d;
            if (c >= '0' && c <= '9')
                d = c - '0';
            else if (c >= 'a' && c <= 'f')
                d = c - 'a' + 10;
            else
                return std::string();
            v = (v << 4) | d;
        }
        raw[i] = (char)v;
    }
    return raw;
}

} // namespace

std::string
encodeCkptMeta(const CkptMeta &meta)
{
    CkptSink s;
    s.u32(kMetaVersion);
    s.str(meta.frontend);
    s.str(meta.workload);
    s.u64(meta.insts);
    s.u64(meta.capacity);
    s.u32(meta.ways);
    s.str(meta.traceName);
    s.u64(meta.numRecords);
    s.u64(meta.totalUops);
    s.str(meta.specCanonical);
    s.str(meta.specDigest);
    s.u64(meta.cycle);
    s.str(meta.buildCompiler);
    s.str(meta.buildType);
    s.str(meta.buildFlags);
    s.str(meta.buildSource);
    s.str(meta.buildCxxStandard);
    s.b(meta.buildSanitized);
    return s.take();
}

Expected<CkptMeta>
decodeCkptMeta(const std::string &payload)
{
    CkptSource s(payload);
    uint32_t version = s.u32();
    if (s.ok() && version != kMetaVersion) {
        return Status::error(StatusCode::Corrupt,
                             "unsupported checkpoint meta version " +
                                 std::to_string(version));
    }
    CkptMeta meta;
    meta.frontend = s.str();
    meta.workload = s.str();
    meta.insts = s.u64();
    meta.capacity = s.u64();
    meta.ways = s.u32();
    meta.traceName = s.str();
    meta.numRecords = s.u64();
    meta.totalUops = s.u64();
    meta.specCanonical = s.str();
    meta.specDigest = s.str();
    meta.cycle = s.u64();
    meta.buildCompiler = s.str();
    meta.buildType = s.str();
    meta.buildFlags = s.str();
    meta.buildSource = s.str();
    meta.buildCxxStandard = s.str();
    meta.buildSanitized = s.b();
    if (!s.consumed()) {
        return Status::error(StatusCode::Corrupt,
                             "malformed checkpoint meta section");
    }
    return meta;
}

Status
checkCkptBuild(const CkptMeta &meta, const std::string &build_type,
               bool sanitized)
{
    if (meta.buildType != build_type) {
        return Status::error(
            StatusCode::Corrupt,
            "checkpoint build type '" + meta.buildType +
                "' incompatible with running build '" + build_type +
                "'");
    }
    if (meta.buildSanitized != sanitized) {
        return Status::error(
            StatusCode::Corrupt,
            std::string("checkpoint sanitizer flavor mismatch "
                        "(checkpoint ") +
                (meta.buildSanitized ? "sanitized" : "plain") +
                ", running build " + (sanitized ? "sanitized" : "plain") +
                ")");
    }
    return Status::ok();
}

std::string
CheckpointWriter::encode() const
{
    std::string out(kCkptMagic, sizeof(kCkptMagic));
    {
        CkptSink s;
        s.u32(kCkptFormatVersion);
        out += s.bytes();
    }
    for (const auto &kv : sections_) {
        CkptSink s;
        s.u16((uint16_t)kv.first.size());
        out += s.bytes();
        out += kv.first;
        CkptSink body;
        body.u64(kv.second.size());
        out += body.bytes();
        out += kv.second;
        CkptSink crc;
        crc.u32(ckptCrc32(kv.second));
        out += crc.bytes();
    }
    // Sentinel + whole-file guard hash.
    CkptSink sentinel;
    sentinel.u16(0);
    out += sentinel.bytes();
    Sha256 sha;
    sha.update(out.data(), out.size());
    out += hexToRaw(sha.hexDigest());
    return out;
}

Status
CheckpointWriter::writeTo(const std::string &path) const
{
    return writeFileAtomic(path, encode());
}

Expected<CheckpointFile>
parseCheckpoint(const std::string &bytes)
{
    CheckpointFile file;

    std::size_t pos = 0;
    if (bytes.size() < sizeof(kCkptMagic) + 4)
        return corrupt("truncated checkpoint header", bytes.size());
    if (std::memcmp(bytes.data(), kCkptMagic, sizeof(kCkptMagic)) != 0)
        return corrupt("bad checkpoint magic", 0);
    pos += sizeof(kCkptMagic);

    uint32_t version = 0;
    for (int i = 0; i < 4; ++i)
        version |= (uint32_t)(uint8_t)bytes[pos + i] << (8 * i);
    if (version != kCkptFormatVersion) {
        return corrupt("unsupported checkpoint format version " +
                           std::to_string(version),
                       pos);
    }
    pos += 4;

    for (;;) {
        if (bytes.size() - pos < 2)
            return corrupt("truncated section header", pos);
        uint16_t name_len = (uint16_t)(uint8_t)bytes[pos] |
                            ((uint16_t)(uint8_t)bytes[pos + 1] << 8);
        pos += 2;
        if (name_len == 0)
            break; // sentinel: trailer follows
        if (bytes.size() - pos < name_len)
            return corrupt("truncated section name", pos);
        std::string name = bytes.substr(pos, name_len);
        pos += name_len;

        if (bytes.size() - pos < 8)
            return corrupt("truncated section length", pos);
        uint64_t payload_len = 0;
        for (int i = 0; i < 8; ++i)
            payload_len |= (uint64_t)(uint8_t)bytes[pos + i] << (8 * i);
        pos += 8;
        if (bytes.size() - pos < payload_len)
            return corrupt("truncated section '" + name + "'", pos);
        std::string payload = bytes.substr(pos, payload_len);
        pos += payload_len;

        if (bytes.size() - pos < 4)
            return corrupt("truncated section crc", pos);
        uint32_t stored = 0;
        for (int i = 0; i < 4; ++i)
            stored |= (uint32_t)(uint8_t)bytes[pos + i] << (8 * i);
        if (stored != ckptCrc32(payload)) {
            return corrupt("section '" + name + "' crc mismatch", pos);
        }
        pos += 4;

        if (file.section(name))
            return corrupt("duplicate section '" + name + "'", pos);
        file.sections_.emplace_back(std::move(name),
                                    std::move(payload));
    }

    // pos sits just past the sentinel; the guard hash covers
    // everything before it.
    if (bytes.size() - pos < kHashLen)
        return corrupt("truncated guard hash", pos);
    Sha256 sha;
    sha.update(bytes.data(), pos);
    std::string expect = hexToRaw(sha.hexDigest());
    if (bytes.compare(pos, kHashLen, expect) != 0)
        return corrupt("guard hash mismatch", pos);
    pos += kHashLen;
    if (pos != bytes.size())
        return corrupt("trailing bytes after guard hash", pos);

    return file;
}

Expected<CheckpointFile>
readCheckpointFile(const std::string &path)
{
    Expected<std::string> bytes = readFileToString(path);
    if (!bytes.ok()) {
        Status st = bytes.status();
        st.withFile(path);
        return st;
    }
    Expected<CheckpointFile> file = parseCheckpoint(bytes.take());
    if (!file.ok()) {
        Status st = file.status();
        st.withFile(path);
        return st;
    }
    return file;
}

namespace
{

enum class StatKind : uint8_t
{
    Scalar = 1,
    Average = 2,
    Formula = 3,
    Distribution = 4,
};

void
saveGroup(const StatGroup &group, CkptSink &sink)
{
    sink.str(group.statName());
    sink.u32((uint32_t)group.stats().size());
    for (const StatBase *stat : group.stats()) {
        sink.str(stat->name());
        if (const auto *s = dynamic_cast<const ScalarStat *>(stat)) {
            sink.u8((uint8_t)StatKind::Scalar);
            sink.u64(s->value());
        } else if (const auto *a =
                       dynamic_cast<const AverageStat *>(stat)) {
            sink.u8((uint8_t)StatKind::Average);
            sink.f64(a->sum());
            sink.u64(a->count());
        } else if (dynamic_cast<const FormulaStat *>(stat)) {
            // Stateless: restored by restoring its ingredients.
            sink.u8((uint8_t)StatKind::Formula);
        } else if (const auto *d =
                       dynamic_cast<const DistributionStat *>(stat)) {
            sink.u8((uint8_t)StatKind::Distribution);
            sink.u32((uint32_t)d->numBuckets());
            for (std::size_t i = 0; i < d->numBuckets(); ++i)
                sink.u64(d->bucketCount(i));
            sink.u64(d->underflow());
            sink.u64(d->overflow());
            sink.u64(d->samples());
            sink.f64(d->sum());
            sink.f64(d->squares());
        } else {
            // Unknown stat kind: record as formula-like (no state).
            sink.u8((uint8_t)StatKind::Formula);
        }
    }
    sink.u32((uint32_t)group.children().size());
    for (const StatGroup *child : group.children())
        saveGroup(*child, sink);
}

Status
loadGroup(StatGroup &group, CkptSource &src)
{
    std::string name = src.str();
    if (src.ok() && name != group.statName()) {
        return Status::error(StatusCode::Corrupt,
                             "stat tree mismatch: expected group '" +
                                 group.statName() + "', found '" +
                                 name + "'");
    }
    uint32_t num_stats = src.u32();
    if (src.ok() && num_stats != group.stats().size()) {
        return Status::error(StatusCode::Corrupt,
                             "stat tree mismatch in group '" +
                                 group.statName() + "'");
    }
    for (std::size_t i = 0; src.ok() && i < group.stats().size();
         ++i) {
        StatBase *stat = group.stats()[i];
        std::string sname = src.str();
        uint8_t kind = src.u8();
        if (!src.ok())
            break;
        if (sname != stat->name()) {
            return Status::error(StatusCode::Corrupt,
                                 "stat tree mismatch: expected '" +
                                     stat->name() + "', found '" +
                                     sname + "'");
        }
        switch ((StatKind)kind) {
          case StatKind::Scalar: {
            auto *s = dynamic_cast<ScalarStat *>(stat);
            uint64_t v = src.u64();
            if (!s)
                return Status::error(StatusCode::Corrupt,
                                     "stat kind mismatch for '" +
                                         sname + "'");
            s->set(v);
            break;
          }
          case StatKind::Average: {
            auto *a = dynamic_cast<AverageStat *>(stat);
            double sum = src.f64();
            uint64_t count = src.u64();
            if (!a)
                return Status::error(StatusCode::Corrupt,
                                     "stat kind mismatch for '" +
                                         sname + "'");
            a->restore(sum, count);
            break;
          }
          case StatKind::Formula:
            break;
          case StatKind::Distribution: {
            auto *d = dynamic_cast<DistributionStat *>(stat);
            uint32_t buckets = src.u32();
            if (!d || !src.ok() ||
                (std::size_t)buckets != (d ? d->numBuckets() : 0)) {
                return Status::error(StatusCode::Corrupt,
                                     "stat kind mismatch for '" +
                                         sname + "'");
            }
            std::vector<uint64_t> counts(buckets);
            for (uint32_t b = 0; b < buckets; ++b)
                counts[b] = src.u64();
            uint64_t under = src.u64();
            uint64_t over = src.u64();
            uint64_t samples = src.u64();
            double sum = src.f64();
            double squares = src.f64();
            if (!src.ok())
                break;
            d->restore(counts, under, over, samples, sum, squares);
            break;
          }
          default:
            return Status::error(StatusCode::Corrupt,
                                 "unknown stat kind for '" + sname +
                                     "'");
        }
    }
    uint32_t num_children = src.u32();
    if (src.ok() && num_children != group.children().size()) {
        return Status::error(StatusCode::Corrupt,
                             "stat tree mismatch in group '" +
                                 group.statName() + "'");
    }
    for (StatGroup *child : group.children()) {
        if (!src.ok())
            break;
        Status st = loadGroup(*child, src);
        if (!st.isOk())
            return st;
    }
    if (!src.ok()) {
        return Status::error(StatusCode::Corrupt,
                             "truncated stat tree in group '" +
                                 group.statName() + "'");
    }
    return Status::ok();
}

} // namespace

void
saveStatTree(const StatGroup &group, CkptSink &sink)
{
    saveGroup(group, sink);
}

Status
loadStatTree(StatGroup &group, CkptSource &src)
{
    return loadGroup(group, src);
}

void
saveHistogram(const Histogram &h, CkptSink &sink)
{
    sink.u32((uint32_t)h.bins().size());
    for (uint64_t bin : h.bins())
        sink.u64(bin);
    sink.u64(h.total());
    sink.f64(h.sumValue());
}

void
loadHistogram(Histogram &h, CkptSource &src)
{
    uint32_t bins = src.u32();
    src.require(bins == h.bins().size());
    std::vector<uint64_t> counts(src.ok() ? bins : 0);
    for (uint32_t i = 0; src.ok() && i < bins; ++i)
        counts[i] = src.u64();
    uint64_t total = src.u64();
    double sum = src.f64();
    if (src.ok())
        h.restore(counts, total, sum);
}

} // namespace xbs
