#include "fleet/executor.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"

namespace stfm
{
namespace fleet
{

WorkerChannel
launchPipedProcess(const std::vector<std::string> &argv)
{
    STFM_ASSERT(!argv.empty(), "worker launch argv is empty");
    int inPipe[2];
    int outPipe[2];
    if (::pipe(inPipe) != 0) {
        throw SimError(formatMessage("cannot create worker pipes: %s",
                                     std::strerror(errno)));
    }
    if (::pipe(outPipe) != 0) {
        const int saved = errno;
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        throw SimError(formatMessage("cannot create worker pipes: %s",
                                     std::strerror(saved)));
    }
    // Parent-held ends must not leak into later workers' execs.
    ::fcntl(inPipe[1], F_SETFD, FD_CLOEXEC);
    ::fcntl(outPipe[0], F_SETFD, FD_CLOEXEC);
    const pid_t pid = ::fork();
    if (pid < 0) {
        const int saved = errno;
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        throw SimError(formatMessage("cannot fork worker: %s",
                                     std::strerror(saved)));
    }
    if (pid == 0) {
        ::dup2(inPipe[0], STDIN_FILENO);
        ::dup2(outPipe[1], STDOUT_FILENO);
        ::close(inPipe[0]);
        ::close(outPipe[1]);
        std::vector<char *> args;
        args.reserve(argv.size() + 1);
        for (const std::string &arg : argv)
            args.push_back(const_cast<char *>(arg.c_str()));
        args.push_back(nullptr);
        ::execvp(args[0], args.data());
        ::_exit(127); // The exit path classifies this as a crash.
    }
    ::close(inPipe[0]);
    ::close(outPipe[1]);
    ::fcntl(outPipe[0], F_SETFL, O_NONBLOCK);

    WorkerChannel channel;
    channel.pid = pid;
    channel.in = inPipe[1];
    channel.out = outPipe[0];
    return channel;
}

} // namespace fleet
} // namespace stfm
