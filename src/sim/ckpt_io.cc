#include "sim/ckpt_io.hh"

#include "common/sha256.hh"
#include "prof/build_info.hh"

namespace xbs
{

namespace
{

/** Canonical spec text: newline-joined argv of the spec. */
std::string
canonicalSpec(const RunSpec &spec)
{
    std::string out;
    for (const std::string &arg : spec.toArgv()) {
        if (!out.empty())
            out += '\n';
        out += arg;
    }
    return out;
}

} // anonymous namespace

CkptMeta
makeCkptMeta(const RunSpec &spec, const Trace &trace, uint64_t cycle)
{
    CkptMeta meta;
    meta.frontend = spec.frontend;
    meta.workload = spec.workload;
    meta.insts = spec.insts;
    meta.capacity = spec.capacity;
    meta.ways = (unsigned)spec.ways;
    meta.traceName = trace.name();
    meta.numRecords = trace.numRecords();
    meta.totalUops = trace.totalUops();
    meta.specCanonical = canonicalSpec(spec);
    meta.specDigest = sha256Hex(meta.specCanonical);
    meta.cycle = cycle;

    const BuildInfo &bi = buildInfo();
    meta.buildCompiler = bi.compiler;
    meta.buildType = bi.buildType;
    meta.buildFlags = bi.flags;
    meta.buildSource = bi.source;
    meta.buildCxxStandard = std::to_string(bi.cxxStandard);
    meta.buildSanitized = bi.sanitized;
    return meta;
}

std::string
encodeCheckpoint(const Frontend &fe, const CkptMeta &meta)
{
    CheckpointWriter w;
    w.addSection("meta", encodeCkptMeta(meta));
    fe.saveState(w);
    return w.encode();
}

Status
writeCheckpoint(const Frontend &fe, const CkptMeta &meta,
                const std::string &path)
{
    CheckpointWriter w;
    w.addSection("meta", encodeCkptMeta(meta));
    fe.saveState(w);
    return w.writeTo(path);
}

Status
restoreCheckpoint(Frontend &fe, const CheckpointFile &file,
                  const RunSpec &spec, const Trace &trace)
{
    const std::string *raw = file.section("meta");
    if (!raw) {
        return Status::error(StatusCode::Corrupt,
                             "checkpoint lacks a 'meta' section");
    }
    Expected<CkptMeta> decoded = decodeCkptMeta(*raw);
    if (!decoded.ok())
        return decoded.status();
    const CkptMeta meta = decoded.take();

    // Identity: the checkpoint must come from the exact same
    // simulation cell. The spec digest subsumes the individual spec
    // fields, but checking them separately yields messages that name
    // the actual mismatch.
    auto mismatch = [](const std::string &what, const std::string &a,
                       const std::string &b) {
        return Status::error(
            StatusCode::Corrupt,
            "checkpoint " + what + " mismatch: checkpoint has '" + a +
                "', this run needs '" + b + "'");
    };
    if (meta.frontend != spec.frontend)
        return mismatch("frontend", meta.frontend, spec.frontend);
    if (meta.workload != spec.workload)
        return mismatch("workload", meta.workload, spec.workload);
    if (meta.insts != spec.insts) {
        return mismatch("insts", std::to_string(meta.insts),
                        std::to_string(spec.insts));
    }
    if (meta.capacity != spec.capacity) {
        return mismatch("capacity", std::to_string(meta.capacity),
                        std::to_string(spec.capacity));
    }
    if (meta.ways != (unsigned)spec.ways) {
        return mismatch("ways", std::to_string(meta.ways),
                        std::to_string(spec.ways));
    }
    if (meta.traceName != trace.name())
        return mismatch("trace", meta.traceName, trace.name());
    if (meta.numRecords != trace.numRecords()) {
        return mismatch("trace records",
                        std::to_string(meta.numRecords),
                        std::to_string(trace.numRecords()));
    }
    if (meta.totalUops != trace.totalUops()) {
        return mismatch("trace uops", std::to_string(meta.totalUops),
                        std::to_string(trace.totalUops()));
    }
    const std::string canonical = canonicalSpec(spec);
    if (meta.specCanonical != canonical ||
        meta.specDigest != sha256Hex(canonical)) {
        return mismatch("spec", meta.specDigest,
                        sha256Hex(canonical));
    }

    const BuildInfo &bi = buildInfo();
    Status build = checkCkptBuild(meta, bi.buildType, bi.sanitized);
    if (!build.isOk())
        return build;

    return fe.restoreState(file);
}

Status
restoreCheckpointPath(Frontend &fe, const std::string &path,
                      const RunSpec &spec, const Trace &trace)
{
    Expected<CheckpointFile> file = readCheckpointFile(path);
    if (!file.ok())
        return file.status();
    return restoreCheckpoint(fe, file.take(), spec, trace);
}

} // namespace xbs
