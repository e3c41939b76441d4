#include "common/fs.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/crashpoint.hh"

namespace xbs
{

namespace
{

std::string
errnoString()
{
    return std::strerror(errno);
}

std::string
dirnameOf(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

Status
fsyncPath(const std::string &path, int flags)
{
    int fd = ::open(path.c_str(), flags);
    if (fd < 0) {
        return Status::error("cannot open for fsync: " +
                             errnoString()).withFile(path);
    }
    int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
        return Status::error("fsync failed: " + errnoString())
            .withFile(path);
    }
    return Status::ok();
}

} // anonymous namespace

StatusCode
errnoStatusCode(int err)
{
    switch (err) {
      case ENOSPC:
      case EDQUOT:
      case EAGAIN:
      case ENOMEM:
      case EMFILE:
      case ENFILE:
        return StatusCode::Resource;
      case ENOENT:
        return StatusCode::NotFound;
      default:
        return StatusCode::Generic;
    }
}

Status
ensureDir(const std::string &dir)
{
    if (dir.empty())
        return Status::error("empty directory path");
    std::string partial;
    std::istringstream ss(dir);
    std::string component;
    if (dir[0] == '/')
        partial = "/";
    while (std::getline(ss, component, '/')) {
        if (component.empty())
            continue;
        if (!partial.empty() && partial.back() != '/')
            partial += '/';
        partial += component;
        if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
            return Status::error(errnoStatusCode(errno),
                                 "mkdir failed: " + errnoString())
                .withFile(partial);
        }
    }
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        return Status::error("not a directory").withFile(dir);
    return Status::ok();
}

Status
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string tmp =
        path + ".tmp." + std::to_string((long)::getpid());
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        return Status::error(errnoStatusCode(errno),
                             "cannot create temp file: " +
                             errnoString()).withFile(tmp);
    }
    std::size_t off = 0;
    while (off < content.size()) {
        ssize_t n = ::write(fd, content.data() + off,
                            content.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            Status st = Status::error(errnoStatusCode(errno),
                                      "write failed: " +
                                      errnoString())
                            .withFile(tmp).withOffset(off);
            ::close(fd);
            ::unlink(tmp.c_str());
            return st;
        }
        off += (std::size_t)n;
    }
    crashPoint("atomic.tmp_written");
    if (::fsync(fd) != 0) {
        Status st = Status::error(errnoStatusCode(errno),
                                  "fsync failed: " + errnoString())
                        .withFile(tmp);
        ::close(fd);
        ::unlink(tmp.c_str());
        return st;
    }
    ::close(fd);
    crashPoint("atomic.tmp_synced");
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        Status st = Status::error(errnoStatusCode(errno),
                                  "rename failed: " + errnoString())
                        .withFile(path);
        ::unlink(tmp.c_str());
        return st;
    }
    crashPoint("atomic.renamed");
    // Make the rename itself durable: without the directory fsync a
    // power loss here can forget the whole entry despite the fsync'd
    // contents.
    Status st = fsyncPath(dirnameOf(path), O_RDONLY | O_DIRECTORY);
    crashPoint("atomic.dir_synced");
    return st;
}

Expected<std::string>
readFileToString(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        return Status::error(errnoStatusCode(errno),
                             "cannot open: " + errnoString())
            .withFile(path);
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    if (is.bad()) {
        return Status::error("read failed: " + errnoString())
            .withFile(path);
    }
    return ss.str();
}

bool
pathExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

} // namespace xbs
