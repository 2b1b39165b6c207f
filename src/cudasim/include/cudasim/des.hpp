// Discrete-event simulation core for the simulated CUDA platform.
//
// Every asynchronous operation (kernel, copy, allocation, host callback,
// event marker) is an op_node in a dependency DAG. Engines model exclusive
// hardware resources (a device's compute pipeline, its copy engines, the
// host callback thread): ops mapped to the same engine serialize, everything
// else is ordered only by explicit dependencies. A virtual clock measured in
// seconds advances as the DAG is drained.
//
// The submission path is allocation-free in steady state: nodes come from a
// slab pool and are recycled by gc(), names are interned once, bodies live
// in a small-buffer callable, and successor edges use inline storage.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

namespace cudasim {

/// Virtual time in seconds.
using timepoint = double;

/// Hardware resource classes an operation can occupy.
enum class engine_kind : std::uint8_t {
  none,      ///< pure synchronization marker; completes with its predecessors
  compute,   ///< a device's kernel pipeline (exclusive)
  copy_in,   ///< a device's host-to-device / intra-device copy engine
  copy_out,  ///< a device's device-to-host / peer copy engine
  host,      ///< the host callback executor (one per platform)
};

class engine;
struct op_node;

/// Move-only callable with small-buffer storage, replacing std::function on
/// the op_node hot path: typical bodies (a memcpy closure, a deferred free)
/// fit inline, so creating a node performs no heap allocation.
class task_fn {
 public:
  static constexpr std::size_t inline_capacity = 48;

  task_fn() noexcept = default;
  task_fn(std::nullptr_t) noexcept {}

  template <class F,
            class = std::enable_if_t<!std::is_same_v<std::decay_t<F>, task_fn> &&
                                     std::is_invocable_v<std::decay_t<F>&>>>
  task_fn(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, std::function<void()>>) {
      if (!f) {
        return;  // empty std::function stays an empty task_fn
      }
    }
    if constexpr (sizeof(D) <= inline_capacity &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &vtable_inline<D>;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      vt_ = &vtable_heap<D>;
    }
  }

  task_fn(task_fn&& o) noexcept { move_from(o); }
  task_fn& operator=(task_fn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  task_fn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  task_fn(const task_fn&) = delete;
  task_fn& operator=(const task_fn&) = delete;
  ~task_fn() { reset(); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }
  void operator()() { vt_->invoke(buf_); }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

 private:
  struct vtable {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
    void (*relocate)(void* dst, void* src) noexcept;
  };

  template <class D>
  static constexpr vtable vtable_inline = {
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* p) noexcept { static_cast<D*>(p)->~D(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      }};

  template <class D>
  static constexpr vtable vtable_heap = {
      [](void* p) { (**reinterpret_cast<D**>(p))(); },
      [](void* p) noexcept { delete *reinterpret_cast<D**>(p); },
      [](void* dst, void* src) noexcept {
        std::memcpy(dst, src, sizeof(D*));
      }};

  void move_from(task_fn& o) noexcept {
    vt_ = o.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(buf_, o.buf_);
      o.vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[inline_capacity];
  const vtable* vt_ = nullptr;
};

/// Successor-edge list with inline storage for the common fan-out (<= 4);
/// spills to the heap only for wide joins. Trivial elements, so growth is a
/// plain memcpy and clear() keeps the spilled capacity for pooled reuse.
class succ_list {
 public:
  succ_list() noexcept = default;
  succ_list(const succ_list&) = delete;
  succ_list& operator=(const succ_list&) = delete;
  ~succ_list() { delete[] heap_; }

  void push_back(op_node* n) {
    if (size_ == cap_) {
      grow();
    }
    data()[size_++] = n;
  }

  void clear() noexcept { size_ = 0; }
  std::uint32_t size() const noexcept { return size_; }
  op_node** begin() noexcept { return data(); }
  op_node** end() noexcept { return data() + size_; }

 private:
  static constexpr std::uint32_t inline_cap = 4;

  op_node** data() noexcept { return heap_ != nullptr ? heap_ : inline_; }

  void grow() {
    const std::uint32_t new_cap = cap_ * 2;
    op_node** p = new op_node*[new_cap];
    std::memcpy(p, data(), size_ * sizeof(op_node*));
    delete[] heap_;
    heap_ = p;
    cap_ = new_cap;
  }

  op_node* inline_[inline_cap];
  op_node** heap_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = inline_cap;
};

/// A node of the simulated dependency DAG.
///
/// Nodes are created by the platform, wired to predecessors at submission
/// time, and consumed exactly once by timeline::drain(). `body` (optional)
/// runs when the node completes so that numerical side effects happen in a
/// valid topological order.
///
/// Nodes live in timeline-owned slabs and are recycled by timeline::gc()
/// after completion; slabs are never freed while the timeline lives. A
/// holder of an op_node* past completion either keeps the node's id and
/// compares it (cudasim::event), or drops the pointer before gc() runs (see
/// platform::collect_handles()).
struct op_node {
  /// Unique per timeline; a recycled node gets a fresh one. Atomic because
  /// event::query() reads it without the platform lock to tell the node it
  /// recorded from a later incarnation.
  std::atomic<std::uint64_t> id{0};
  const char* name = "";  ///< interned by the owning timeline
  int device = -1;        ///< owning device, -1 for host/none
  engine* eng = nullptr;
  double duration = 0.0;  ///< engine occupancy time in seconds
  task_fn body;

  succ_list succs;
  int unmet = 0;  ///< predecessors not yet complete
  bool submitted = false;
  /// Completion flag. Atomic because event::query() reads it without the
  /// platform lock: completion stores `true` with release order, and
  /// make_node() resets a recycled node to `false` with release order after
  /// storing its new id, so a reader that observes the reset also observes
  /// the new id. All other accesses happen under the platform lock.
  std::atomic<bool> done{false};
  /// True when this node represents accepted work (it occupies an engine,
  /// or it is the join marker of a multi-engine operation such as a peer
  /// copy). Pure synchronization markers appended by submission wrappers
  /// (e.g. retry backoff delays) leave it false, so backends can tell "the
  /// stream tail moved because work was enqueued" apart from "only a marker
  /// was appended" when classifying partial submissions.
  bool real_work = false;
  /// Hang-injection markers (fault_kind::stall). A transient stall enlarges
  /// `duration` by the injected delay and sets `stalled`; a permanent stall
  /// sets `stall_permanent`, making start_on_engine() wedge the engine
  /// forever instead of scheduling a completion event — only cancel() (or
  /// process exit) releases it.
  bool stalled = false;
  bool stall_permanent = false;
  /// Set by cancel(): the node was completed administratively, its body
  /// discarded. Successors still fire (the DAG stays drainable); callers
  /// that care about data validity must handle that themselves.
  bool cancelled = false;
  timepoint t_submit = 0.0;  ///< when submit() accepted the node
  timepoint t_ready = 0.0;
  timepoint t_start = 0.0;
  timepoint t_end = 0.0;
};

/// An exclusive resource that executes at most one op at a time, in the
/// order ops become ready (FIFO among ready ops).
class engine {
 public:
  explicit engine(engine_kind kind) : kind_(kind) {}

  engine_kind kind() const { return kind_; }
  bool idle() const { return running_ == nullptr; }
  timepoint busy_until() const { return busy_until_; }

 private:
  friend class timeline;
  engine_kind kind_;
  op_node* running_ = nullptr;
  timepoint busy_until_ = 0.0;
  std::deque<op_node*> ready_fifo_;
};

/// The event-driven scheduler. Owns all op nodes; drains the pending DAG on
/// demand, advancing the virtual clock and running node bodies.
class timeline {
 public:
  timeline() = default;
  timeline(const timeline&) = delete;
  timeline& operator=(const timeline&) = delete;
  ~timeline();

  /// Creates a node; the caller wires dependencies before submit().
  op_node* make_node(std::string_view name, int device, engine* eng,
                     double duration, task_fn body = {});

  /// Declares that `succ` cannot start before `pred` completes.
  /// Predecessors that already completed are ignored.
  static void add_dep(op_node* pred, op_node* succ);

  /// Hands the node to the scheduler. All deps must be wired already.
  void submit(op_node* node);

  /// Exception-safety valve for submission paths: turns a created (and
  /// possibly half-wired) node into an inert zero-duration marker and
  /// submits it. The DAG stays drainable, predecessors that already hold an
  /// edge to the node resolve normally, and the node returns to the slab
  /// pool through the usual gc() route instead of leaking. Counted in
  /// nodes_abandoned().
  void abandon(op_node* node);

  /// Runs the simulation until every submitted node has completed.
  void drain();

  /// Runs the simulation until the given node has completed.
  void drain_until(const op_node* node);

  /// Bounded drain for deadline-aware waiting: processes every pending event
  /// with completion time <= t, in order. Returns the number of operations
  /// completed. Never blocks on a wedged engine — a permanently stalled op
  /// has no pending event, so the caller regains control at the horizon.
  std::size_t drain_until_time(timepoint t);

  /// Completes the single earliest pending operation. Returns false when no
  /// completion event is pending (idle, or every live op is wedged).
  bool drain_one();

  /// Advances the virtual clock to at least t without completing anything:
  /// deadline detection itself costs virtual time, so waiting out a deadline
  /// window is observable in now().
  void advance_now(timepoint t) { now_ = std::max(now_, t); }

  /// Cooperative cancellation (hang recovery): administratively completes a
  /// submitted, not-yet-done node whose dependencies are all met — tearing
  /// it out of its engine (fixing busy_until_ so the engine un-wedges) or
  /// out of the ready FIFO, discarding its body, and firing its completion
  /// at max(now, start/ready time) so successors and recorded events
  /// resolve. Returns false for nodes that cannot be cancelled (null, not
  /// submitted, already done, or still waiting on predecessors — cancelling
  /// those would corrupt unmet accounting). Any completion event already
  /// scheduled for the node becomes stale; the drain loops skip done nodes.
  bool cancel(op_node* node);

  /// Progress-watchdog diagnostic: lists every submitted-but-incomplete
  /// operation (name, device, engine, unmet-dependency count) so a stuck
  /// DES fails fast with the offending ops named instead of hanging the
  /// caller. Appended to the errors drain()/drain_until() throw.
  std::string stuck_report() const;

  /// Recycles every completed node into the slab pool. Holders that do not
  /// check ids (stream tails, stall victims) must have dropped their
  /// pointers first: platform::collect_handles() runs before every gc().
  void gc();

  /// Largest completion time observed so far.
  timepoint now() const { return now_; }

  /// Number of nodes processed since construction. Lock-free: a caller that
  /// reads a count also observes `done` on every node that count includes.
  /// A node only turns complete inside complete(), which bumps the count, so
  /// while it has not moved nothing has completed (event::query() and the
  /// transfer planner answer from it without touching any node).
  std::uint64_t completed_count() const {
    return completed_.load(std::memory_order_acquire);
  }

  /// Submitted but not yet completed nodes.
  std::uint64_t live_count() const { return live_; }

  /// Nodes served from the recycle pool instead of fresh slab space
  /// (fast-path perf counter).
  std::uint64_t nodes_pooled() const { return pooled_; }

  /// Nodes neutralized by abandon() after a submission-path exception.
  std::uint64_t nodes_abandoned() const { return abandoned_; }

 private:
  struct pending_event {
    timepoint time;
    std::uint64_t seq;
    op_node* node;
    bool operator>(const pending_event& o) const {
      return time > o.time || (time == o.time && seq > o.seq);
    }
  };

  struct sv_hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct sv_eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  const char* intern(std::string_view name);
  void on_ready(op_node* node, timepoint t);
  void start_on_engine(engine* eng, timepoint t);
  void complete(op_node* node);

  static constexpr std::size_t slab_nodes = 256;

  std::vector<op_node*> slabs_;          ///< slab base pointers (owned)
  std::size_t slab_used_ = slab_nodes;   ///< forces first-slab allocation
  std::vector<op_node*> free_;           ///< recycled nodes ready for reuse
  std::vector<op_node*> retired_;        ///< completed, awaiting gc()
  std::unordered_set<std::string, sv_hash, sv_eq> names_;

  std::priority_queue<pending_event, std::vector<pending_event>,
                      std::greater<pending_event>>
      events_;
  timepoint now_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::atomic<std::uint64_t> completed_{0};  ///< written under the driver lock
  std::uint64_t live_ = 0;  ///< submitted but not completed
  std::uint64_t pooled_ = 0;
  std::uint64_t abandoned_ = 0;
};

}  // namespace cudasim
