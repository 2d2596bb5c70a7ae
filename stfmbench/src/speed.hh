/**
 * @file
 * The host's speed, read from a fixed piece of reference work.
 *
 * The reference host is a virtual machine on a shared physical host,
 * and its speed drifts by tens of per cent over minutes as other
 * tenants' load comes and goes: the same fig11-8core sweep took 11.8 s
 * at one time and 6.6 s ten minutes later. A timed run therefore also
 * times a fixed reference lap beside its sweeps and scales its host
 * times to the speed at which that lap takes kReferenceLapSeconds. The
 * lap is the benchmark's own code, so no change to the simulator moves
 * it.
 *
 * The lap sorts a fixed array of 64 Ki random 32-bit integers with
 * std::sort: branchy, data-dependent work on a working set that fits in
 * a core's L2, like the simulator's inner loops. Of four kernels tried
 * on the reference host (a dependent multiply chain, a pointer walk
 * over 2 MiB, this sort and a table-lookup mix), its lap followed the
 * simulator's time most closely: over 8 minutes of batches of low16
 * runs alternating with laps, the correlation of 20-second means was
 * 0.80, and dividing by the lap cut their variation from 8.2 % to 4.9 %.
 */

#ifndef STFMBENCH_SPEED_HH
#define STFMBENCH_SPEED_HH

#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace stfmbench
{

/** Host seconds of one lap on the reference host at a typical speed. */
inline constexpr double kReferenceLapSeconds = 0.005;

/** Host seconds of one lap, timed now on the calling thread. */
double referenceLap();

/**
 * Times one lap every 100 ms on a thread of its own, from construction
 * until destruction (which stops and joins the thread), so that the host's speed is known for any interval
 * in between. That costs about 5 % of one core.
 */
class SpeedSampler
{
  public:
    using Clock = std::chrono::steady_clock;

    SpeedSampler();

    /**
     * Median host seconds of the laps that ended in [@p from, @p to],
     * and how many there were (0 s when none).
     */
    std::pair<double, std::size_t> lapBetween(Clock::time_point from,
                                              Clock::time_point to);

  private:
    std::mutex mutex_;
    /** End time and host seconds of every lap so far. */
    std::vector<std::pair<Clock::time_point, double>> laps_;
    /** Last, so that it stops and joins before the laps go. */
    std::jthread thread_;
};

} // namespace stfmbench

#endif // STFMBENCH_SPEED_HH
