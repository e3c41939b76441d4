#include "common/crashpoint.hh"

#include <cstdio>
#include <cstring>

#include <unistd.h>

namespace xbs
{

namespace
{

const char *g_armed = nullptr;

} // anonymous namespace

void
crashPoint(const char *site)
{
    if (!g_armed || std::strcmp(g_armed, site) != 0)
        return;
    // The one message goes straight to fd 2, so it survives the
    // stdio buffers that die with the process.
    char msg[128];
    int n = std::snprintf(msg, sizeof(msg), "crashpoint: dying at %s\n",
                          site);
    if (n > 0)
        (void)!::write(2, msg, (std::size_t)n);
    ::_exit(kCrashPointExit);
}

void
armCrashPoint(const char *site)
{
    g_armed = site;
}

} // namespace xbs
