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
    op_node* evn = evs[i]->pending_node();
    if (evn == nullptr || evn == tail) {
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

void event::record(stream& s) {
  if (s.capturing()) {
    throw std::logic_error("cudasim: event record during capture unsupported");
  }
  plat_ = &s.owner();
  stream_uid_ = s.uid();
  // Capture the stream's current tail directly (the event completes exactly
  // when the tail op completes) instead of enqueueing a marker node — the
  // common record-after-submit pattern then allocates nothing.
  //
  // Lock-free. The caller owns `s`, so another thread can only sweep its
  // tail (a done node) to null before gc() recycles it. The count is read
  // first, so a tail still pending after it completes past the stamp. The
  // id is read with acquire; make_node() publishes a recycled node's id
  // with release, after the sweep, so if it is not this tail's id the
  // re-read of the tail sees the sweep.
  const std::uint64_t stamp = plat_->ops_completed();
  op_node* tail = s.last();
  if (tail != nullptr) {
    const std::uint64_t id = tail->id.load(std::memory_order_acquire);
    if (!tail->done.load(std::memory_order_acquire) && s.last() == tail) {
      node_ = tail;
      id_ = id;
      stamp_ = stamp;
      return;
    }
  }
  node_ = nullptr;  // stream idle: complete as of "now"
  id_ = 0;
  stamp_ = 0;
}

void event::synchronize() const {
  if (stream_uid_ == 0) {
    throw std::logic_error("cudasim: synchronizing an unrecorded event");
  }
  std::lock_guard lock(plat_->mutex());
  if (!query()) {
    plat_->tl().drain_until(node_);
  }
}

}  // namespace cudasim
