/**
 * @file
 * Worker launch: how the supervisor turns "start a worker" into a
 * process with a frame-protocol channel.
 *
 * The channel is deliberately minimal — a pid to signal and two file
 * descriptors — because the frame protocol (fleet/protocol.hh) is the
 * whole contract between supervisor and worker.
 */

#ifndef STFM_FLEET_EXECUTOR_HH
#define STFM_FLEET_EXECUTOR_HH

#include <string>
#include <vector>

#include <sys/types.h>

namespace stfm
{
namespace fleet
{

/** A launched worker: a process handle plus its stdio channel. */
struct WorkerChannel
{
    pid_t pid = -1;
    /** Write end toward the worker's stdin (frame dispatch). */
    int in = -1;
    /** Read end from the worker's stdout (frames; O_NONBLOCK). */
    int out = -1;
};

/**
 * Fork/exec @p argv with a pipe pair on its stdin/stdout. The
 * parent-held ends are FD_CLOEXEC so they never leak into later
 * workers, and the read end is nonblocking. Throws SimError only when
 * no process can be started (pipe/fork failure; every descriptor
 * opened so far is closed first). An exec that fails in the child
 * exits 127, which the supervisor sees as immediate EOF and classifies
 * like any other worker death.
 */
WorkerChannel launchPipedProcess(const std::vector<std::string> &argv);

} // namespace fleet
} // namespace stfm

#endif // STFM_FLEET_EXECUTOR_HH
