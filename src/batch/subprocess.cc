#include "batch/subprocess.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/fs.hh"
#include "common/signals.hh"

namespace xbs
{

namespace
{

/** Typed so the scheduler can tell transient host exhaustion (fork
 *  EAGAIN, fd-table ENFILE, ...) from a broken binary and retry it. */
Status
errnoError(const std::string &what)
{
    return Status::error(errnoStatusCode(errno),
                         what + ": " + std::strerror(errno));
}

/** Make @p fd non-blocking and close-on-exec on the parent side. */
bool
prepareParentEnd(int fd)
{
    int fl = ::fcntl(fd, F_GETFL);
    if (fl < 0 || ::fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0)
        return false;
    int fdfl = ::fcntl(fd, F_GETFD);
    return fdfl >= 0 &&
           ::fcntl(fd, F_SETFD, fdfl | FD_CLOEXEC) >= 0;
}

/** Drain @p fd into @p sink until EAGAIN/EOF; true on EOF. */
bool
drainFd(int fd, std::string &sink)
{
    char buf[4096];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            sink.append(buf, (std::size_t)n);
            continue;
        }
        if (n == 0)
            return true;  // EOF
        if (errno == EINTR)
            continue;
        return false;  // EAGAIN: nothing more right now
    }
}

} // anonymous namespace

Expected<Child>
forkChild(const std::function<int()> &body)
{
    int outPipe[2], errPipe[2];
    if (::pipe(outPipe) != 0)
        return errnoError("pipe failed");
    if (::pipe(errPipe) != 0) {
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        return errnoError("pipe failed");
    }

    // Whatever the supervisor has buffered is written once, by the
    // supervisor, and never again by a child that inherited it.
    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid < 0) {
        for (int fd : {outPipe[0], outPipe[1], errPipe[0],
                       errPipe[1]}) {
            ::close(fd);
        }
        return errnoError("fork failed");
    }

    if (pid == 0) {
        // Child: own process group (kill escalation targets the
        // group), default stop signals, pipes onto stdout/stderr.
        ::setpgid(0, 0);
        resetStopHandlers();
        ::dup2(outPipe[1], STDOUT_FILENO);
        ::dup2(errPipe[1], STDERR_FILENO);
        for (int fd : {outPipe[0], outPipe[1], errPipe[0],
                       errPipe[1]}) {
            ::close(fd);
        }
        int code = 0;
        try {
            code = body();
        } catch (...) {
            // Never unwind into the supervisor's frames: die the
            // way an exec'd program's uncaught exception would.
            std::abort();
        }
        std::cout.flush();
        std::fflush(nullptr);
        ::_exit(code);
    }

    // Parent. Mirror the setpgid to close the race either way.
    ::setpgid(pid, pid);
    ::close(outPipe[1]);
    ::close(errPipe[1]);

    Child child;
    child.pid = pid;
    child.outFd = outPipe[0];
    child.errFd = errPipe[0];
    if (!prepareParentEnd(child.outFd) ||
        !prepareParentEnd(child.errFd)) {
        Status st = errnoError("fcntl failed");
        signalChild(child, SIGKILL);
        int raw;
        while (!reapChild(child, &raw)) {
        }
        return st;
    }
    return child;
}

Expected<Child>
spawnChild(const std::vector<std::string> &argv)
{
    if (argv.empty())
        return Status::error("empty argv");
    return forkChild([&argv] {
        std::vector<char *> cargv;
        for (const std::string &arg : argv)
            cargv.push_back(const_cast<char *>(arg.c_str()));
        cargv.push_back(nullptr);
        ::execvp(cargv[0], cargv.data());
        // exec failed: 127 is the shell convention the classifier
        // maps to JobClass::Spawn.
        return 127;
    });
}

void
pumpChild(Child &child)
{
    if (child.outFd >= 0 && drainFd(child.outFd, child.out)) {
        ::close(child.outFd);
        child.outFd = -1;
    }
    if (child.errFd >= 0 && drainFd(child.errFd, child.err)) {
        ::close(child.errFd);
        child.errFd = -1;
    }
}

bool
reapChild(Child &child, int *raw_status)
{
    if (!child.alive())
        return false;
    int status = 0;
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    pid_t r = ::wait4(child.pid, &status, WNOHANG, &ru);
    if (r == 0)
        return false;
    if (r < 0 && errno == EINTR)
        return false;
    if (r > 0) {
        // Per-child host accounting (Linux: ru_maxrss is in KiB).
        child.hasUsage = true;
        child.maxRssKb = (uint64_t)ru.ru_maxrss;
        child.userSec = (double)ru.ru_utime.tv_sec +
                        (double)ru.ru_utime.tv_usec / 1e6;
        child.sysSec = (double)ru.ru_stime.tv_sec +
                       (double)ru.ru_stime.tv_usec / 1e6;
        child.inBlock = (uint64_t)ru.ru_inblock;
        child.outBlock = (uint64_t)ru.ru_oublock;
    }
    // Exited (or waitpid lost it): drain the tail of both pipes and
    // close them.
    pumpChild(child);
    closeChildFds(child);
    child.pid = -1;
    *raw_status = r < 0 ? 0 : status;
    return true;
}

void
signalChild(const Child &child, int signum)
{
    if (!child.alive())
        return;
    // Negative pid: the whole process group, so wrapper-script
    // children (and anything a hung job spawned) die with it.
    if (::kill(-child.pid, signum) != 0 && errno == ESRCH)
        ::kill(child.pid, signum);
}

void
closeChildFds(Child &child)
{
    if (child.outFd >= 0) {
        ::close(child.outFd);
        child.outFd = -1;
    }
    if (child.errFd >= 0) {
        ::close(child.errFd);
        child.errFd = -1;
    }
}

} // namespace xbs
