// Graph backend. Threading contract (DESIGN.md §11): stream capture funnels
// every op through one graph under construction, so there is one capturer
// at a time — every call arrives under the context lock, nothing here
// needs its own locking, and the plain stats_ counters stay data-race free.
#include <cstdint>

#include "cudastf/backend.hpp"
#include "cudastf/error.hpp"

namespace cudastf {

namespace {

constexpr std::uint64_t fnv_prime = 1099511628211ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * fnv_prime;
}

std::uint64_t fnv_str(std::uint64_t h, std::string_view s) {
  for (char c : s) {
    h = fnv_mix(h, static_cast<unsigned char>(c));
  }
  return h;
}

}  // namespace

graph_backend::graph_backend(cudasim::platform& p) : plat_(&p), graph_(p) {
  epoch_stream_ = std::make_unique<cudasim::stream>(p, 0);
  host_capture_ = std::make_unique<cudasim::stream>(p, 0);
  for (int d = 0; d < p.device_count(); ++d) {
    capture_.push_back(std::make_unique<cudasim::stream>(p, d));
    alloc_.push_back(std::make_unique<cudasim::stream>(p, d));
  }
}

void graph_backend::ensure_epoch() {
  if (open_) {
    return;
  }
  open_ = true;
  for (auto& s : capture_) {
    s->begin_capture(graph_);
  }
  host_capture_->begin_capture(graph_);
  epoch_first_ = next_serial_;
  summary_ = 1469598103934665603ull;
  external_deps_.clear();
}

event graph_backend::run(int device, channel ch, const event_list& deps,
                         const std::function<void(cudasim::stream&)>& payload,
                         std::string_view name, run_result* rr) {
  ensure_epoch();
  cudasim::stream& s =
      ch == channel::host ? *host_capture_
                          : *capture_.at(static_cast<std::size_t>(device));

  dep_nodes_.clear();
  for (const event& e : deps) {
    if (e.type() == event::kind::stream) {
      // Real-stream work (e.g. allocations): the epoch launch will wait.
      external_deps_.add(e);
    } else if (e.serial() >= epoch_first_) {
      dep_nodes_.push_back(e.graph_node());
    }
    // Nodes of flushed epochs are ordered by the epoch stream: drop.
  }
  stats_.deps_wired += dep_nodes_.size();

  cudasim::graph_node tail;
  if (dep_nodes_.size() == 1) {
    tail = dep_nodes_.front();
  } else if (dep_nodes_.size() > 1) {
    tail = graph_.add_empty_node(dep_nodes_);
  }
  s.capture_tail_ = tail;
  payload(s);
  const cudasim::graph_node out = s.capture_tail_;

  // Fault harvesting: a refused capture-time submission leaves a sticky
  // status on the capture stream and records nothing. If the capture tail
  // moved anyway, a prefix of the payload was recorded (partial).
  const cudasim::sim_status st = s.status();
  const bool moved =
      out.valid() != tail.valid() || (out.valid() && out.index != tail.index);
  if (st != cudasim::sim_status::success) {
    s.clear_status();
    if (rr != nullptr) {
      rr->status = st;
      rr->partial = moved;
    }
  } else if (rr != nullptr) {
    rr->status = cudasim::sim_status::success;
    rr->partial = false;
  }

  // A clean refusal recorded nothing, so the epoch topology is unchanged —
  // keep it out of the memoization summary too.
  if (st == cudasim::sim_status::success || moved) {
    summary_ = fnv_str(summary_, name);
    summary_ = fnv_mix(summary_, deps.size());
    summary_ = fnv_mix(summary_, static_cast<std::uint64_t>(device) + 3);
  }
  ++stats_.tasks;

  if (st != cudasim::sim_status::success && !moved) {
    // Clean refusal: nothing was recorded, but with dependencies present
    // `out` still points at the dep-join marker we created above. Returning
    // an event for it would hand the caller a handle to work that never
    // existed — a retry (or a checkpoint epoch in flight) would then chain
    // off a node that represents no submission. Report "nothing to wait
    // for" instead; the unreferenced join marker executes as a no-op.
    return {};
  }
  if (!out.valid()) {
    return {};  // nothing recorded, nothing to wait for
  }
  return event(out, next_serial_++);
}

void graph_backend::flush() {
  if (!open_) {
    return;
  }
  for (auto& s : capture_) {
    s->end_capture();
  }
  host_capture_->end_capture();
  open_ = false;
  if (graph_.node_count() == 0) {
    return;
  }

  // Approximate match by task summary, exact match by a successful update
  // (§III-B); failed updates are cheap.
  cudasim::graph_exec* exec = nullptr;
  auto& bucket = cache_[summary_];
  for (auto& candidate : bucket) {
    if (candidate->update(graph_)) {
      exec = candidate.get();
      ++stats_.graph_updates;
      break;
    }
  }
  if (exec == nullptr) {
    bucket.push_back(std::make_unique<cudasim::graph_exec>(graph_));
    exec = bucket.back().get();
    ++stats_.graph_instantiations;
  }
  // The exec owns the epoch's nodes now; empty the template for the next
  // epoch, which also returns its alloc nodes' pool reservations.
  graph_.clear();

  const int home = epoch_stream_->device();
  if (plat_->faults_armed() && plat_->device_failed(home)) [[unlikely]] {
    // A failed device refuses every launch on its streams: move the epoch
    // stream to the lowest healthy device, ordered after the last epoch.
    for (int d = 0; d < plat_->device_count(); ++d) {
      if (!plat_->device_failed(d)) {
        auto moved = std::make_unique<cudasim::stream>(*plat_, d);
        moved->wait_event(last_epoch_done_.sim());
        epoch_stream_ = std::move(moved);
        break;
      }
    }
  }
  for (const event& e : external_deps_) {
    epoch_stream_->wait_event(e.sim());
  }
  external_deps_.clear();
  // Host-side cost of instantiating/updating the executable delays the
  // launch (charged on the epoch stream through the host engine).
  if (exec->last_build_cost_seconds() > 0) {
    plat_->launch_host_func(*epoch_stream_, {}, exec->last_build_cost_seconds());
  }
  exec->launch(*epoch_stream_);
  if (epoch_stream_->status() != cudasim::sim_status::success) [[unlikely]] {
    launch_refused(*exec);
  }
  ++stats_.graph_launches;
  ++stats_.epochs;

  last_epoch_done_ = record_event(*epoch_stream_);
}

void graph_backend::launch_refused(cudasim::graph_exec& exec) {
  // A refused whole-epoch launch is fail-stop: none of the epoch's nodes
  // were enqueued, and the sticky status would silently refuse every later
  // epoch too — the pre-fix behavior dropped all remaining work while
  // finalize still reported success. Transient refusals (an injected
  // kernel fault hitting the launch itself) are safe to relaunch in place
  // precisely because nothing ran; permanent ones (a node targets a failed
  // device) must surface so fence/checkpoint/restart callers can escalate.
  // Relaunch count and spacing follow the context's retry policy
  // (ctx.set_retry_policy()): attempt 1 was the refused launch itself, so
  // up to max_attempts - 1 relaunches, each preceded by an exponential
  // virtual-time backoff on the epoch stream.
  double backoff = retry_.backoff_seconds;
  for (int attempt = 1; attempt < retry_.max_attempts; ++attempt) {
    const cudasim::sim_status st = epoch_stream_->status();
    if (st == cudasim::sim_status::success) {
      return;
    }
    if (st == cudasim::sim_status::error_device_lost) {
      break;
    }
    epoch_stream_->clear_status();
    ++stats_.graph_launch_retries;
    if (backoff > 0) {
      plat_->stream_delay(*epoch_stream_, backoff);
      backoff *= retry_.backoff_multiplier;
    }
    exec.launch(*epoch_stream_);
  }
  const cudasim::sim_status st = epoch_stream_->status();
  if (st == cudasim::sim_status::success) {
    return;
  }
  epoch_stream_->clear_status();
  if (st == cudasim::sim_status::error_device_lost) {
    int dead = -1;
    for (int d = 0; d < plat_->device_count(); ++d) {
      if (plat_->device_failed(d)) {
        dead = d;
        break;
      }
    }
    throw detail::device_lost_error(dead);
  }
  throw detail::transfer_error(st);
}

void graph_backend::fence() { flush(); }

void* graph_backend::alloc_device(int device, std::size_t bytes,
                                  event_list& out) {
  cudasim::stream& s = *alloc_.at(static_cast<std::size_t>(device));
  void* p = plat_->malloc_async(bytes, s);
  if (p == nullptr) {
    return nullptr;
  }
  out.add(record_event(s));
  return p;
}

graph_backend::graph_dep_scan graph_backend::scan_graph_deps(
    const event_list& deps) const {
  graph_dep_scan r;
  for (const event& e : deps) {
    if (e.type() == event::kind::graph) {
      r.any = true;
      if (open_ && e.serial() >= epoch_first_) {
        r.current = true;
        break;
      }
    }
  }
  return r;
}

void graph_backend::free_device(int device, void* p, const event_list& deps,
                                event_list& dangling) {
  const graph_dep_scan gd = scan_graph_deps(deps);
  if (gd.current) {
    flush();  // turn current-epoch graph deps into epoch-stream ordering
  }
  cudasim::stream& s = *alloc_.at(static_cast<std::size_t>(device));
  // Deps from flushed epochs are covered by the serialized epoch stream;
  // waiting on the last launch suffices, without ending the (possibly
  // empty) epoch under construction.
  if (gd.any) {
    s.wait_event(last_epoch_done_.sim());
  }
  for (const event& e : deps) {
    if (e.type() == event::kind::stream) {
      s.wait_event(e.sim());
    }
  }
  plat_->free_async(p, s);
  dangling.add(record_event(s));
}

void graph_backend::wait(const event_list& l) {
  const graph_dep_scan gd = scan_graph_deps(l);
  if (gd.current) {
    flush();
  }
  if (gd.any && last_epoch_done_) {
    last_epoch_done_.sim().synchronize();
  }
  for (const event& e : l) {
    if (e.type() == event::kind::stream) {
      e.sim().synchronize();
    }
  }
}

void graph_backend::wait_idle() {
  flush();
  plat_->synchronize();
}

}  // namespace cudastf
