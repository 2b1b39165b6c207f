// Shared types of the benchmark: what one repetition of a workload reports,
// and the workload table main.cpp drives.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cudastf/cudastf.hpp"
#include "trace.hpp"

namespace perfbench {

/// Result of one repetition. Times are host wall-clock seconds except
/// sim_time_s, which is the simulated makespan (platform.now()).
struct rep_result {
  double setup_s = 0.0;  ///< start of the repetition -> first submission
  double run_s = 0.0;    ///< first submission -> return of ctx.finalize()
  std::uint64_t tasks = 0;   ///< STF submissions, counted by the workload
  std::uint64_t failed = 0;  ///< failed or cancelled, from finalize's report
  double sim_time_s = 0.0;
  /// Named per-layer counters (cudasim.*, cudastf.*, mem.*, xfer.*, graph.*).
  std::vector<std::pair<std::string, double>> counters;
  /// Empty when the repetition's output matched its reference.
  std::string output_error;
};

/// One benchmark workload. `check` runs a small compute-on instance of the
/// same program against a host reference (outside any timed region) and
/// returns an error message, or "" when it matches. `rep` runs one timed
/// repetition on inputs generated from `seed`.
struct workload {
  const char* name;
  /// Single submitting thread: sim_time_s and the op/mem/xfer/graph
  /// counters must repeat exactly across repetitions of one seed.
  bool deterministic;
  std::string (*check)(std::uint64_t seed);
  rep_result (*rep)(std::uint64_t seed);
};

workload taskgraph_workload();
workload taskgraph_mt_workload();
workload cholesky_ooc_workload();
workload fhe_dot_workload();
workload weather_graph_workload();

using clock = std::chrono::steady_clock;

inline double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// Times one repetition's setup. Construct it where setup starts (it opens
/// the setup span); call submit_starts() right before the first submission.
class rep_timer {
 public:
  rep_timer()
      : t0_(clock::now()), setup_span_(std::in_place, trace::layer::setup) {}
  void submit_starts(rep_result& r) {
    setup_span_.reset();
    t_submit_ = clock::now();
    r.setup_s = std::chrono::duration<double>(t_submit_ - t0_).count();
  }
  clock::time_point submitted() const { return t_submit_; }

 private:
  clock::time_point t0_;
  clock::time_point t_submit_{};
  std::optional<trace::scope> setup_span_;
};

/// Ends a repetition the same way on every workload: drains the simulator
/// (platform().synchronize()), finalizes, and fills run_s (measured from
/// the timer's first submission), failed, sim_time_s and the counters.
void finish_rep(cudastf::context& ctx, const rep_timer& timer, rep_result& r);

/// splitmix64: derives independent input streams from the run seed.
inline std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
