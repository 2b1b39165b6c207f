// In-memory span recorder for the benchmark's traced run.
//
// The benchmark opens a span around every call it makes into a layer's
// public function (and around its own kernel functors). Each span records
// its layer, start, end and the span that was open on the same thread when
// it started (its parent). Spans stay in per-thread buffers until the
// repetition ends; analyse() then derives per-layer totals and self times
// (a span's duration minus the part its children cover).
//
// While disarmed a scope costs one relaxed atomic load, so the untraced
// repetitions that give the end-to-end metrics run the same code.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

/// The layer a span is charged to. Names are the per-layer metric prefixes.
enum class layer : std::uint8_t {
  setup,             ///< platform, inputs, keys, graph generation
  app,               ///< a workload's submission call(s) into its library
  cudastf_register,  ///< ctx.logical_data(...)
  cudastf_task,      ///< ctx.task(...)->*body
  cudastf_fence,     ///< ctx.fence()
  cudasim_launch,    ///< platform::launch_kernel from the benchmark's bodies
  payload,           ///< the benchmark's own kernel functors
  cudasim_drain,     ///< platform::synchronize() before finalize
  cudastf_finalize,  ///< ctx.finalize()
  count
};
inline constexpr std::size_t layer_count = static_cast<std::size_t>(layer::count);

const char* layer_name(layer l);

inline constexpr std::uint32_t no_parent = 0xffffffffu;

struct span_record {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t parent;  ///< index in the same thread's buffer, or no_parent
  layer l;
};

/// Spans of one thread, in opening order (a parent precedes its children).
struct thread_spans {
  std::uint32_t thread = 0;
  std::vector<span_record> spans;
};

namespace detail {
extern std::atomic<bool> armed;
std::uint32_t open(layer l);
void close(std::uint32_t idx);
}  // namespace detail

/// Arms or disarms recording. Call only while no submitting thread runs.
void arm(bool on);

/// Moves every recorded span out of the per-thread buffers.
std::vector<thread_spans> collect();

/// RAII span: records [construction, destruction) when armed.
class scope {
 public:
  explicit scope(layer l)
      : idx_(detail::armed.load(std::memory_order_relaxed) ? detail::open(l)
                                                           : no_parent) {}
  ~scope() {
    if (idx_ != no_parent) {
      detail::close(idx_);
    }
  }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  std::uint32_t idx_;
};

/// Per-layer figures of one traced repetition.
struct layer_stats {
  std::array<double, layer_count> total_s{};  ///< summed span durations
  std::array<double, layer_count> self_s{};   ///< summed self times
  std::array<std::uint64_t, layer_count> spans{};
  /// Self time of every span, in microseconds, for the per-call latency
  /// layers (task, launch, fence); empty for the others.
  std::array<std::vector<double>, layer_count> self_us;
};

layer_stats analyse(const std::vector<thread_spans>& threads);

/// Writes spans as Chrome trace-event JSON (viewable in a trace viewer),
/// keeping at most `max_spans` of them in opening order so every kept
/// span's parent is kept too. `meta` is a JSON object placed under
/// "otherData". Returns false if the file could not be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<thread_spans>& threads,
                        std::size_t max_spans, const std::string& meta);

}  // namespace perfbench::trace
