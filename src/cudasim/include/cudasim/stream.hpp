// Simulated CUDA streams and events.
//
// Thread-safety: all mutating operations take the platform lock internally.
// The event calls on the submission path take none: event::query() (it
// backs event_list pruning) reads the platform's atomic completion count
// and at most the recorded node's atomic `done` flag and id, and is exact
// up to a completion in flight on another thread — never a false `true`,
// and monotonic (once true, always true); event::record() reads the
// stream's atomic tail the same way. Concurrent submissions to the *same*
// stream, its event records included, must be serialized externally (the
// STF layer submits under its context lock); different streams need no
// coordination.
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

/// Opaque handle to a node inside a graph template.
struct graph_node {
  std::uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};

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
  // the context lock (backend_stream.cpp). The tail is an unchecked
  // pointer, so it keeps that sweep: gc() only runs after it.
  op_node* last() const { return last_.load(std::memory_order_acquire); }
  void set_last(op_node* n) { last_.store(n, std::memory_order_release); }
  void drop_completed();  ///< forget last_ if it already completed
  // Internal: capture bookkeeping, the node the next captured op chains
  // behind (invalid while nothing has been captured).
  graph_node capture_tail_;

 private:
  platform* plat_;
  int device_;
  std::uint64_t uid_;
  std::atomic<op_node*> last_{nullptr};
  graph* capture_ = nullptr;
  // Written only by platform submission calls made while the submitting
  // thread owns the stream (same thread that reads it back), so it needs no
  // atomicity of its own.
  sim_status status_ = sim_status::success;
};

/// A marker in a stream's work queue (cudaEvent_t), held as a plain value:
/// copies are independent handles to the same recorded point, and an event
/// needs no registration or cleanup. It keeps the recorded node together
/// with that node's id and the platform's completion count at record time.
/// While the count has not moved, the node cannot have completed; once it
/// has, a node that is done, or that carries another id because gc()
/// recycled it, means the recorded point completed. A default-constructed
/// event is unrecorded.
class event {
 public:
  event() = default;
  explicit event(platform& p) : plat_(&p) {}

  /// Captures the current tail of `s` (cudaEventRecord).
  void record(stream& s);

  /// Drains the simulation until the recorded point has completed.
  void synchronize() const;

  /// True once the recorded point has completed (cudaEventQuery); false for
  /// an unrecorded event. Lock-free and safe to call from any thread.
  /// Defined in platform.hpp, which it reads the completion count from.
  bool query() const;

  /// uid() of the stream this event was last recorded on (0 if never
  /// recorded).
  std::uint64_t record_stream_uid() const { return stream_uid_; }
  /// Id of the recorded node, 0 if the stream was idle. A stream's tail
  /// only ever moves to a newer node, and an idle stream has completed
  /// everything recorded on it before, so of two events recorded on the
  /// same stream the one with the larger id completes last (dominance
  /// pruning orders them by it).
  std::uint64_t node_id() const { return id_; }

  // Internal: the recorded node while it may still be pending, null once
  // the event is complete — never a recycled node.
  op_node* pending_node() const { return query() ? nullptr : node_; }

 private:
  platform* plat_ = nullptr;
  op_node* node_ = nullptr;   ///< recorded tail; null if the stream was idle
  std::uint64_t id_ = 0;      ///< node_->id at record time
  std::uint64_t stamp_ = 0;   ///< platform ops_completed() at record time
  std::uint64_t stream_uid_ = 0;
};

}  // namespace cudasim
