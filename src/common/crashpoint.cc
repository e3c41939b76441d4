#include "common/crashpoint.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

namespace xbs
{

namespace
{

struct CrashConfig
{
    bool armed = false;
    std::string site;
    unsigned long target = 1;  ///< die on the target-th hit
    unsigned long hits = 0;
};

CrashConfig &
config()
{
    static CrashConfig cfg;
    return cfg;
}

void
loadFromEnv()
{
    CrashConfig &cfg = config();
    cfg = CrashConfig{};
    const char *env = std::getenv("XBATCH_CRASH_AT");
    if (!env || !*env)
        return;
    const char *colon = std::strrchr(env, ':');
    if (colon) {
        cfg.site.assign(env, (std::size_t)(colon - env));
        cfg.target = std::strtoul(colon + 1, nullptr, 10);
        if (cfg.target == 0)
            cfg.target = 1;
    } else {
        cfg.site = env;
        cfg.target = 1;
    }
    cfg.armed = !cfg.site.empty();
}

bool
initialized()
{
    static const bool once = (loadFromEnv(), true);
    return once;
}

} // anonymous namespace

void
crashPoint(const char *site)
{
    if (!initialized())
        return;
    CrashConfig &cfg = config();
    if (!cfg.armed || cfg.site != site)
        return;
    if (++cfg.hits < cfg.target)
        return;
    // Model SIGKILL / power loss at this exact instruction: no
    // destructors, no stream flushes, no atexit handlers. The one
    // message goes straight to fd 2 so the harness can attribute the
    // death even when stdio buffers die with the process.
    char msg[128];
    int n = std::snprintf(msg, sizeof(msg),
                          "crashpoint: dying at %s (hit %lu)\n", site,
                          cfg.hits);
    if (n > 0)
        (void)!::write(2, msg, (std::size_t)n);
    ::_exit(kCrashPointExit);
}

bool
crashPointArmed()
{
    (void)initialized();
    return config().armed;
}

const std::vector<std::string> &
crashPointSites()
{
    // Keep in sync with the crashPoint() calls in common/fs.cc; the
    // crash matrix fails if a listed site never fires, so drift is
    // caught by the test suite, not review.
    static const std::vector<std::string> sites = {
        "atomic.tmp_written",   // tmp file written, not yet fsync'd
        "atomic.tmp_synced",    // tmp fsync'd, not yet renamed
        "atomic.renamed",       // renamed, directory not yet fsync'd
        "atomic.dir_synced",    // fully durable
        "append.opened",        // log created, dir entry not durable
        "append.pre_write",     // record not yet written
        "append.written",       // record written, not yet fsync'd
        "append.synced",        // record durable
    };
    return sites;
}

void
crashPointReset()
{
    (void)initialized();
    loadFromEnv();
}

} // namespace xbs
