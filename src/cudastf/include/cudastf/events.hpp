// Abstract events and event lists (§IV). The entire core of CUDASTF is
// organized around lists of abstract events: every asynchronous algorithm
// takes a list of input events and returns a list of output events.
// Backends materialize events differently — the stream backend as recorded
// simulated CUDA events, the graph backend as graph-node handles — and the
// coherence machinery never looks inside.
//
// Lists are small (typically 0–4 entries), so storage is an inline buffer
// that only spills to the heap for pathological fan-in. Merging prunes
// redundant entries (§IV): exact duplicates, events whose work has already
// completed, and events dominated by a later event recorded on the same
// in-order stream. Pruning keeps lists tiny and directly shrinks the
// dependencies the backends must wire.
// Abstract events and event lists (§IV). The entire core of CUDASTF is
// organized around lists of abstract events: every asynchronous algorithm
// takes a list of input events and returns a list of output events.
// Backends materialize events differently — the stream backend as recorded
// simulated CUDA events, the graph backend as graph-node handles — and the
// coherence machinery never looks inside.
//
// An event is a small tagged value, as cheap to copy as a cudaEvent_t
// handle: no heap object, no refcount. A stream event is a cudasim::event,
// whose completion test reads one counter while nothing has completed since
// it was recorded (cudasim/stream.hpp). A graph event names a node of the
// graph under construction.
//
// Lists are small (typically 0–4 entries), so storage is an inline buffer
// that only spills to the heap for pathological fan-in. Merging prunes
// redundant entries (§IV): exact duplicates, events whose work has already
// completed, and events dominated by a later event recorded on the same
// in-order stream. Pruning keeps lists tiny and directly shrinks the
// dependencies the backends must wire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "cudasim/platform.hpp"

namespace cudastf {

/// Tuning knobs for the event-list fast path. Process-global; only
/// test_fastpath flips them, as the reference that pruning is a pure
/// transformation (simulated timelines must be identical either way).
struct fastpath_config {
  bool dedup = true;            ///< drop exact duplicate events on merge
  bool prune_completed = true;  ///< drop events the timeline already retired
  bool prune_dominated = true;  ///< same-stream later-event dominance (§IV)
};

inline fastpath_config& fastpath() {
  static fastpath_config cfg;
  return cfg;
}

/// An abstract completion event: empty, a recorded simulator event, or a
/// node of the graph backend's epoch under construction.
class event {
 public:
  enum class kind : std::uint8_t { none, stream, graph };

  event() : sim_() {}
  explicit event(const cudasim::event& e) : sim_(e), kind_(kind::stream) {}
  /// `serial` is unique among one graph backend's events and increases with
  /// submission order, so it also tells which epoch the node belongs to.
  event(cudasim::graph_node node, std::uint64_t serial)
      : graph_{serial, node}, kind_(kind::graph) {}

  explicit operator bool() const { return kind_ != kind::none; }
  kind type() const { return kind_; }

  /// True once the work this event guards has completed; such events can be
  /// dropped from any list. Graph events have no individual completion.
  bool completed() const { return kind_ == kind::stream && sim_.query(); }

  /// Dominance key: events sharing a nonzero lane() are totally ordered by
  /// seq() (an in-order stream), so the largest seq() subsumes the rest.
  /// Lane 0 means "not comparable".
  std::uint64_t lane() const {
    return kind_ == kind::stream ? sim_.record_stream_uid() : 0;
  }
  std::uint64_t seq() const {
    switch (kind_) {
      case kind::stream:
        return sim_.node_id();
      case kind::graph:
        return graph_.serial;
      case kind::none:
        break;
    }
    return 0;
  }

  /// The simulator event (stream events only).
  const cudasim::event& sim() const { return sim_; }
  /// The graph node and its serial (graph events only).
  cudasim::graph_node graph_node() const { return graph_.node; }
  std::uint64_t serial() const { return graph_.serial; }

  /// Identity: the same recorded point of a stream, or the same
  /// graph-backend event.
  friend bool operator==(const event& a, const event& b) {
    return a.kind_ == b.kind_ && a.lane() == b.lane() && a.seq() == b.seq();
  }

 private:
  struct graph_ref {
    std::uint64_t serial;
    cudasim::graph_node node;
  };
  union {
    cudasim::event sim_;  ///< kind::stream
    graph_ref graph_;     ///< kind::graph
  };
  kind kind_ = kind::none;
};

static_assert(std::is_trivially_copyable_v<event> && sizeof(event) == 48);

/// A list of abstract events; completion of the list means completion of
/// every member. Inline capacity matches the "typically 0–4 entries"
/// invariant; events are trivially copyable values, so copies are plain
/// element copies and moves of a spilled list are pointer steals.
class event_list {
 public:
  static constexpr std::size_t inline_capacity = 4;

  event_list() = default;
  explicit event_list(const event& e) {
    if (e) {
      data_[size_++] = e;
    }
  }

  event_list(const event_list& o) { copy_from(o); }
  event_list(event_list&& o) noexcept { move_from(o); }
  event_list& operator=(const event_list& o) {
    if (this != &o) {
      release_heap();
      copy_from(o);
    }
    return *this;
  }
  event_list& operator=(event_list&& o) noexcept {
    if (this != &o) {
      release_heap();
      move_from(o);
    }
    return *this;
  }
  ~event_list() { release_heap(); }

  /// Inserts `e` unless it is redundant. Returns the number of events this
  /// insertion pruned (the incoming one, or a dominated resident entry).
  std::size_t add(const event& e) {
    if (!e) {
      return 0;
    }
    const fastpath_config& cfg = fastpath();
    if (cfg.prune_completed && e.completed()) {
      return 1;
    }
    const std::uint64_t lane = cfg.prune_dominated ? e.lane() : 0;
    if (cfg.dedup || lane != 0) {
      for (std::size_t i = 0; i < size_; ++i) {
        event& cur = data_[i];
        if (cfg.dedup && cur == e) {
          return 1;
        }
        if (lane != 0 && cur.lane() == lane) {
          if (e.seq() > cur.seq()) {
            cur = e;  // incoming dominates the resident event
          }
          return 1;  // otherwise incoming is covered by the resident event
        }
      }
    }
    std::size_t pruned = 0;
    if (size_ == cap_) {
      // Before spilling to the heap, try to compact away entries whose work
      // has since completed — lists usually stay within the inline buffer.
      if (cfg.prune_completed) {
        pruned = prune_completed_entries();
      }
      if (size_ == cap_) {
        grow(cap_ * 2);
      }
    }
    data_[size_++] = e;
    return pruned;
  }

  /// l = merge(l, other) — the paper's fundamental composition primitive.
  /// Returns the number of redundant events pruned by the merge.
  std::size_t merge(const event_list& other) {
    std::size_t pruned = 0;
    for (std::size_t i = 0; i < other.size_; ++i) {
      pruned += add(other.data_[i]);
    }
    return pruned;
  }

  /// Drops entries whose work already completed; returns how many.
  std::size_t prune_completed_entries() {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      if (!data_[i].completed()) {
        data_[kept++] = data_[i];
      }
    }
    const std::size_t pruned = size_ - kept;
    size_ = static_cast<std::uint32_t>(kept);
    return pruned;
  }

  void reserve(std::size_t n) {
    if (n > cap_) {
      grow(n);
    }
  }

  void clear() { size_ = 0; }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const event* begin() const { return data_; }
  const event* end() const { return data_ + size_; }

 private:
  bool spilled() const { return data_ != inline_; }

  void grow(std::size_t new_cap) {
    event* p = new event[new_cap];
    std::memcpy(static_cast<void*>(p), data_, size_ * sizeof(event));
    if (spilled()) {
      delete[] data_;
    }
    data_ = p;
    cap_ = static_cast<std::uint32_t>(new_cap);
  }

  void copy_from(const event_list& o) {
    if (o.size_ > cap_) {
      grow(o.size_);
    }
    std::memcpy(static_cast<void*>(data_), o.data_, o.size_ * sizeof(event));
    size_ = o.size_;
  }

  void move_from(event_list& o) noexcept {
    if (o.spilled()) {
      data_ = o.data_;
      cap_ = o.cap_;
      o.data_ = o.inline_;
      o.cap_ = inline_capacity;
    } else {
      std::memcpy(static_cast<void*>(data_), o.data_, o.size_ * sizeof(event));
    }
    size_ = o.size_;
    o.size_ = 0;
  }

  /// Returns to the empty inline state (keeps no heap block).
  void release_heap() {
    size_ = 0;
    if (spilled()) {
      delete[] data_;
      data_ = inline_;
    }
    cap_ = inline_capacity;
  }

  event inline_[inline_capacity];
  event* data_ = inline_;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = inline_capacity;
};

/// Convenience: merged copy of two lists.
inline event_list merged(const event_list& a, const event_list& b) {
  event_list out;
  out.reserve(a.size() + b.size());
  out.merge(a);
  out.merge(b);
  return out;
}

}  // namespace cudastf
