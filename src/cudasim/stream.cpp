#include "cudasim/stream.hpp"

#include <atomic>
#include <stdexcept>

#include "cudasim/graph.hpp"
#include "cudasim/platform.hpp"

namespace cudasim {

namespace {
// Process-global so stream identities never collide, even across platforms.
std::atomic<std::uint64_t> next_stream_uid{1};
}  // namespace

stream::stream(platform& p, int device)
    : plat_(&p),
      device_(device < 0 ? p.current_device() : device),
      uid_(next_stream_uid.fetch_add(1, std::memory_order_relaxed)) {
  if (device_ >= p.device_count()) {
    throw std::out_of_range("cudasim: stream on nonexistent device");
  }
  std::lock_guard lock(p.mutex());
  p.register_stream(this);
}

stream::~stream() {
  if (plat_ != nullptr) {
    std::lock_guard lock(plat_->mutex());
    plat_->unregister_stream(this);
  }
}

stream::stream(stream&& other) noexcept
    : plat_(other.plat_),
      device_(other.device_),
      uid_(other.uid_),
      record_seq_(other.record_seq_),
      last_(other.last_.load(std::memory_order_relaxed)),
      capture_(other.capture_),
      status_(other.status_) {
  capture_tail_ = other.capture_tail_;
  std::lock_guard lock(plat_->mutex());
  plat_->unregister_stream(&other);
  plat_->register_stream(this);
  other.plat_ = nullptr;
  other.last_.store(nullptr, std::memory_order_relaxed);
  other.capture_ = nullptr;
}

void stream::wait_event(const event& e) {
  const event* p = &e;
  wait_events(&p, 1);
}

void stream::wait_events(const event* const* evs, std::size_t n) {
  if (capturing()) {
    throw std::logic_error(
        "cudasim: wait_event is not supported during capture; use graph "
        "dependencies instead");
  }
  std::lock_guard lock(plat_->mutex());
  // Collect still-pending nodes (completed events need no ordering) and fuse
  // them, together with the previous tail, into one join marker so future
  // work waits on everything. Very wide lists chain one join per chunk.
  op_node* tail = last_.load(std::memory_order_relaxed);
  constexpr std::size_t chunk = 16;
  op_node* pending[chunk];
  std::size_t np = 0;
  for (std::size_t i = 0; i < n; ++i) {
    op_node* evn = evs[i]->node();
    if (evn == nullptr || evn->done.load(std::memory_order_relaxed) ||
        evn == tail) {
      continue;
    }
    pending[np++] = evn;
    if (np == chunk) {
      op_node* join = plat_->tl().make_node("waitEvent", device_, nullptr, 0.0);
      timeline::add_dep(tail, join);
      for (std::size_t j = 0; j < np; ++j) {
        timeline::add_dep(pending[j], join);
      }
      tail = join;
      last_.store(join, std::memory_order_release);
      plat_->tl().submit(join);
      np = 0;
    }
  }
  if (np != 0) {
    op_node* join = plat_->tl().make_node("waitEvent", device_, nullptr, 0.0);
    timeline::add_dep(tail, join);
    for (std::size_t j = 0; j < np; ++j) {
      timeline::add_dep(pending[j], join);
    }
    last_.store(join, std::memory_order_release);
    plat_->tl().submit(join);
  }
}

void stream::synchronize() { plat_->stream_synchronize(*this); }

timepoint stream::last_op_end() const {
  op_node* tail = last_.load(std::memory_order_acquire);
  return tail == nullptr ? 0.0 : tail->t_end;
}

void stream::begin_capture(graph& g) {
  if (capturing()) {
    throw std::logic_error("cudasim: stream already capturing");
  }
  capture_ = &g;
  capture_tail_ = {};
}

graph* stream::end_capture() {
  graph* g = capture_;
  capture_ = nullptr;
  capture_tail_ = {};
  return g;
}

void stream::drop_completed() {
  op_node* tail = last_.load(std::memory_order_relaxed);
  if (tail != nullptr && tail->done.load(std::memory_order_relaxed)) {
    last_.store(nullptr, std::memory_order_release);
  }
}

// Event registration goes through the platform's event registry, which
// locks its own mutex: an event may be created or destroyed on any thread
// without the platform lock.
event::event(platform& p) : plat_(&p) { p.register_event(this); }

event::~event() {
  if (plat_ != nullptr) {
    plat_->unregister_event(this);
  }
}

event::event(event&& other) noexcept
    : plat_(other.plat_),
      node_(other.node_.load(std::memory_order_relaxed)),
      recorded_(other.recorded_),
      t_end_(other.t_end_),
      stream_uid_(other.stream_uid_),
      seq_(other.seq_) {
  plat_->unregister_event(&other);
  plat_->register_event(this);
  other.plat_ = nullptr;
  other.node_.store(nullptr, std::memory_order_relaxed);
}

void event::record(stream& s) {
  if (s.capturing()) {
    throw std::logic_error("cudasim: event record during capture unsupported");
  }
  std::lock_guard lock(plat_->mutex());
  // Capture the stream's current tail directly (the event completes exactly
  // when the tail op completes) instead of enqueueing a marker node — the
  // common record-after-submit pattern then allocates nothing.
  recorded_ = true;
  stream_uid_ = s.uid();
  seq_ = s.next_record_seq();
  op_node* tail = s.last();
  if (tail == nullptr || tail->done.load(std::memory_order_relaxed)) {
    // Stream already idle: the event is complete as of "now".
    node_.store(nullptr, std::memory_order_release);
    t_end_ = tail != nullptr ? tail->t_end : plat_->tl().now();
    return;
  }
  node_.store(tail, std::memory_order_release);
}

void event::synchronize() {
  std::lock_guard lock(plat_->mutex());
  if (!recorded_) {
    throw std::logic_error("cudasim: synchronizing an unrecorded event");
  }
  op_node* n = node_.load(std::memory_order_relaxed);
  if (n != nullptr && !n->done.load(std::memory_order_relaxed)) {
    plat_->tl().drain_until(n);
  }
  drop_completed();
}

bool event::query() const {
  // Lock-free: the only simulator read allowed without the platform lock.
  // Both loads are acquire so a `true` result happens-after the completing
  // store; a stale pointer to a since-recycled node reads as `false`
  // (conservative), and nullptr means already collected (complete).
  if (!recorded_) {
    return false;
  }
  op_node* n = node_.load(std::memory_order_acquire);
  return n == nullptr || n->done.load(std::memory_order_acquire);
}

void event::drop_completed() {
  op_node* n = node_.load(std::memory_order_relaxed);
  if (n != nullptr && n->done.load(std::memory_order_relaxed)) {
    t_end_ = n->t_end;
    node_.store(nullptr, std::memory_order_release);
  }
}

}  // namespace cudasim
