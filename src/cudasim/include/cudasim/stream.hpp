// Simulated CUDA streams and events.
//
// Thread-safety: all mutating operations take the platform lock internally.
// event::query() is the one lock-free read (it backs event_list pruning on
// the submission path); it reads the atomic node pointer and the node's
// atomic completion flag, and is conservative — a stale pointer to a
// recycled node yields `false`, never a false `true`, and the result is
// monotonic (once true, always true). Concurrent submissions to the *same*
// stream must be serialized externally (the STF layer submits under its
// context lock); different streams need no coordination.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "cudasim/des.hpp"
#include "cudasim/fault.hpp"

namespace cudasim {

class platform;
class graph;
class event;

/// An in-order queue of asynchronous operations on one device
/// (cudaStream_t). Streams are movable handles; destroying a stream does
/// not wait for its work (as in CUDA).
class stream {
 public:
  /// Creates a stream on `device` (default: the platform's current device).
  explicit stream(platform& p, int device = -1);
  ~stream();

  stream(stream&& other) noexcept;
  stream& operator=(stream&&) = delete;
  stream(const stream&) = delete;
  stream& operator=(const stream&) = delete;

  platform& owner() const { return *plat_; }
  int device() const { return device_; }

  /// Process-unique stream identity, stable across moves. Used by the STF
  /// layer to prune events dominated by a later event on the same stream
  /// (paper §IV: in-order streams make the later event a superset).
  std::uint64_t uid() const { return uid_; }

  /// Sticky CUDA-style error state. A fault injected on a submission marks
  /// the stream; while marked, further kernel/copy/alloc submissions are
  /// refused without side effects (work submitted *before* the fault still
  /// completes). The caller observes the code here and acknowledges it with
  /// clear_status() — mirroring cudaStreamQuery + cudaGetLastError.
  sim_status status() const { return status_; }
  void set_status(sim_status s) { status_ = s; }
  void clear_status() { status_ = sim_status::success; }

  /// Makes future work on this stream wait for `e` (cudaStreamWaitEvent).
  void wait_event(const event& e);

  /// Batched cudaStreamWaitEvent: future work on this stream waits for all
  /// `n` events. Pending events are fused into a single join marker instead
  /// of one marker per event, so the fast path creates at most one node.
  void wait_events(const event* const* evs, std::size_t n);

  /// Blocks (drains the simulation) until all work submitted so far is done.
  void synchronize();

  /// Virtual completion time of the last submitted op (0 if none pending).
  timepoint last_op_end() const;

  // --- stream capture (cudaStreamBeginCapture-style) ---
  // While capturing, operations submitted to this stream are recorded into
  // `g` as graph nodes instead of being executed.
  void begin_capture(graph& g);
  graph* end_capture();
  bool capturing() const { return capture_ != nullptr; }
  graph* capture_graph() const { return capture_; }

  // Internal: dependency chaining used by the platform. `last_` is atomic
  // because platform::collect_handles() clears completed tails under the
  // platform lock while the STF stream backend reads the tail holding only
  // the context lock (backend_stream.cpp).
  op_node* last() const { return last_.load(std::memory_order_acquire); }
  void set_last(op_node* n) { last_.store(n, std::memory_order_release); }
  void drop_completed();  ///< forget last_ if it already completed
  /// Internal: monotone per-stream counter stamped onto recorded events.
  std::uint64_t next_record_seq() { return ++record_seq_; }
  // Internal: capture bookkeeping (nodes this stream's capture tail).
  void* capture_tail_ = nullptr;

 private:
  platform* plat_;
  int device_;
  std::uint64_t uid_;
  std::uint64_t record_seq_ = 0;
  std::atomic<op_node*> last_{nullptr};
  graph* capture_ = nullptr;
  // Written only by platform submission calls made while the submitting
  // thread owns the stream (same thread that reads it back), so it needs no
  // atomicity of its own.
  sim_status status_ = sim_status::success;
};

/// A marker in a stream's work queue (cudaEvent_t).
class event {
 public:
  explicit event(platform& p);
  ~event();

  event(event&& other) noexcept;
  event(const event&) = delete;
  event& operator=(const event&) = delete;
  event& operator=(event&&) = delete;

  /// Captures the current tail of `s` (cudaEventRecord).
  void record(stream& s);

  /// Drains the simulation until the recorded point has completed.
  void synchronize();

  /// True once the recorded point has completed (cudaEventQuery).
  /// Lock-free and safe to call from any thread; conservative (may lag the
  /// truth by one handle sweep) and monotonic once it returns true.
  bool query() const;

  /// Virtual timestamp of completion; only valid after synchronize().
  timepoint completion_time() const { return t_end_; }

  /// uid() of the stream this event was last recorded on (0 if never
  /// recorded). Together with record_seq() this orders events on the same
  /// stream for dominance pruning.
  std::uint64_t record_stream_uid() const { return stream_uid_; }
  std::uint64_t record_seq() const { return seq_; }

  // Internal.
  op_node* node() const { return node_.load(std::memory_order_acquire); }
  void drop_completed();

 private:
  friend class stream;
  friend class platform;
  platform* plat_;
  /// Pending tail node, null once collected. Atomic: cleared by
  /// platform::collect_handles() under the platform lock while query() may
  /// read it lock-free from a submitting thread.
  std::atomic<op_node*> node_{nullptr};
  bool recorded_ = false;
  timepoint t_end_ = 0.0;
  std::uint64_t stream_uid_ = 0;
  std::uint64_t seq_ = 0;
  /// Links in the platform's event registry, guarded by its registry mutex.
  event* reg_prev_ = nullptr;
  event* reg_next_ = nullptr;
};

}  // namespace cudasim
