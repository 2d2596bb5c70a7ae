#include "speed.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>

namespace stfmbench
{

namespace
{

const std::vector<std::uint32_t> &
unsorted()
{
    static const std::vector<std::uint32_t> values = [] {
        std::vector<std::uint32_t> v(1u << 16);
        std::mt19937 rng(12345);
        for (std::uint32_t &x : v)
            x = static_cast<std::uint32_t>(rng());
        return v;
    }();
    return values;
}

} // namespace

double
referenceLap()
{
    thread_local std::vector<std::uint32_t> work;
    const auto start = std::chrono::steady_clock::now();
    work = unsorted();
    std::sort(work.begin(), work.end());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

SpeedSampler::SpeedSampler()
    : thread_([this](std::stop_token stop) {
          while (!stop.stop_requested()) {
              const double seconds = referenceLap();
              {
                  const std::lock_guard<std::mutex> guard(mutex_);
                  laps_.emplace_back(Clock::now(), seconds);
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
      })
{}

std::pair<double, std::size_t>
SpeedSampler::lapBetween(Clock::time_point from, Clock::time_point to)
{
    std::vector<double> inside;
    {
        const std::lock_guard<std::mutex> guard(mutex_);
        for (const auto &[end, seconds] : laps_)
            if (end >= from && end <= to)
                inside.push_back(seconds);
    }
    if (inside.empty())
        return {0.0, 0};
    const auto middle = inside.begin() + inside.size() / 2;
    std::nth_element(inside.begin(), middle, inside.end());
    return {*middle, inside.size()};
}

} // namespace stfmbench
