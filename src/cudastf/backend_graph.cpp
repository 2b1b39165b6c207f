// Graph backend. Threading contract (DESIGN.md §11): stream capture funnels
// every op through one graph under construction, so there is one capturer
// at a time — every call arrives under the context lock, nothing here
// needs its own locking, and the plain stats_ counters stay data-race free.
#include <cstdint>
#include <stdexcept>

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

// The capture tail is stored in the stream as (index + 1), 0 meaning none —
// the same encoding the platform capture path uses.
cudasim::graph_node get_tail(cudasim::stream& s) {
  const auto v = reinterpret_cast<std::uintptr_t>(s.capture_tail_);
  if (v == 0) {
    return {};
  }
  return cudasim::graph_node{static_cast<std::uint32_t>(v - 1)};
}

void set_tail(cudasim::stream& s, cudasim::graph_node n) {
  s.capture_tail_ = n.valid()
      ? reinterpret_cast<void*>(static_cast<std::uintptr_t>(n.index) + 1)
      : nullptr;
}

}  // namespace

graph_backend::graph_backend(cudasim::platform& p) : plat_(&p) {
  epoch_stream_ = std::make_unique<cudasim::stream>(p, 0);
  host_capture_ = std::make_unique<cudasim::stream>(p, 0);
  for (int d = 0; d < p.device_count(); ++d) {
    capture_.push_back(std::make_unique<cudasim::stream>(p, d));
    alloc_.push_back(std::make_unique<cudasim::stream>(p, d));
  }
}

void graph_backend::ensure_epoch() {
  if (cur_) {
    return;
  }
  cur_ = std::make_unique<cudasim::graph>(*plat_);
  for (auto& s : capture_) {
    s->begin_capture(*cur_);
  }
  host_capture_->begin_capture(*cur_);
  summary_ = 1469598103934665603ull;
  external_deps_.clear();
}

event_ptr graph_backend::run(int device, channel ch, const event_list& deps,
                             const std::function<void(cudasim::stream&)>& payload,
                             std::string_view name, run_result* rr) {
  ensure_epoch();
  cudasim::stream& s =
      ch == channel::host ? *host_capture_
                          : *capture_.at(static_cast<std::size_t>(device));

  std::vector<cudasim::graph_node> dep_nodes;
  for (const event_ptr& e : deps) {
    if (auto* ge = as_graph_event(e)) {
      if (ge->epoch == epoch_) {
        dep_nodes.push_back(ge->node);
      }
      // Nodes of flushed epochs are ordered by the epoch stream: drop.
    } else if (as_stream_event(e) != nullptr) {
      // Real-stream work (e.g. allocations): the epoch launch will wait.
      external_deps_.add(e);
    } else {
      throw std::logic_error("cudastf: foreign event kind in graph backend");
    }
  }
  stats_.deps_wired += dep_nodes.size();

  cudasim::graph_node tail;
  if (dep_nodes.size() == 1) {
    tail = dep_nodes.front();
  } else if (dep_nodes.size() > 1) {
    tail = cur_->add_empty_node(dep_nodes);
  }
  set_tail(s, tail);
  payload(s);
  const cudasim::graph_node out = get_tail(s);

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
    return nullptr;
  }
  if (!out.valid()) {
    return nullptr;  // nothing recorded, nothing to wait for
  }
  auto ev = std::make_shared<graph_node_event>();
  ev->node = out;
  ev->epoch = epoch_;
  return ev;
}

void graph_backend::flush() {
  if (!cur_) {
    return;
  }
  for (auto& s : capture_) {
    s->end_capture();
  }
  host_capture_->end_capture();
  std::unique_ptr<cudasim::graph> g = std::move(cur_);
  ++epoch_;
  if (g->node_count() == 0) {
    return;
  }

  // Approximate match by task summary, exact match by a successful update
  // (§III-B); failed updates are cheap.
  cudasim::graph_exec* exec = nullptr;
  auto& bucket = cache_[summary_];
  for (auto& candidate : bucket) {
    if (candidate.exec->update(*g)) {
      exec = candidate.exec.get();
      candidate.last_use = ++lru_tick_;
      ++stats_.graph_updates;
      break;
    }
  }
  if (exec == nullptr) {
    bucket.push_back({std::make_unique<cudasim::graph_exec>(*g), ++lru_tick_});
    exec = bucket.back().exec.get();
    ++stats_.graph_instantiations;
    ++cache_size_;
    // The new entry carries the max tick, so with cap >= 1 it is never the
    // victim of its own insertion.
    while (cache_size_ > cache_cap_) {
      evict_lru();
    }
  }

  const int home = epoch_stream_->device();
  if (plat_->faults_armed() && plat_->device_failed(home)) [[unlikely]] {
    // A failed device refuses every launch on its streams: move the epoch
    // stream to the lowest healthy device, ordered after the last epoch.
    for (int d = 0; d < plat_->device_count(); ++d) {
      if (!plat_->device_failed(d)) {
        auto moved = std::make_unique<cudasim::stream>(*plat_, d);
        if (last_epoch_done_) {
          moved->wait_event(
              static_cast<stream_event*>(last_epoch_done_.get())->ev);
        }
        epoch_stream_ = std::move(moved);
        break;
      }
    }
  }
  for (const event_ptr& e : external_deps_) {
    if (auto* se = as_stream_event(e)) {
      epoch_stream_->wait_event(se->ev);
    }
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

  auto done = std::make_shared<stream_event>(*plat_);
  done->ev.record(*epoch_stream_);
  last_epoch_done_ = std::move(done);
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

void graph_backend::evict_lru() {
  // Global min-tick scan across buckets: the cache is small (it exists to
  // bound memory, not to be huge), so a linear scan beats maintaining an
  // intrusive LRU list that instantiation/update would have to splice.
  std::uint64_t best = ~0ull;
  std::vector<cached_exec>* victim_bucket = nullptr;
  std::size_t victim_idx = 0;
  std::uint64_t victim_key = 0;
  for (auto& [key, bucket] : cache_) {
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].last_use < best) {
        best = bucket[i].last_use;
        victim_bucket = &bucket;
        victim_idx = i;
        victim_key = key;
      }
    }
  }
  if (victim_bucket == nullptr) {
    return;
  }
  // Destroying the exec releases its pooled nodes back to the platform;
  // already-launched epochs are unaffected (launch copied the bodies).
  std::swap((*victim_bucket)[victim_idx], victim_bucket->back());
  victim_bucket->pop_back();
  if (victim_bucket->empty()) {
    cache_.erase(victim_key);
  }
  --cache_size_;
  ++stats_.graph_execs_evicted;
}

void graph_backend::set_exec_cache_capacity(std::size_t n) {
  cache_cap_ = n < 1 ? 1 : n;  // an uncacheable backend would re-instantiate
                               // every epoch; keep at least the live one
  while (cache_size_ > cache_cap_) {
    evict_lru();
  }
}

void graph_backend::fence() { flush(); }

void* graph_backend::alloc_device(int device, std::size_t bytes,
                                  event_list& out) {
  cudasim::stream& s = *alloc_.at(static_cast<std::size_t>(device));
  void* p = plat_->malloc_async(bytes, s);
  if (p == nullptr) {
    return nullptr;
  }
  auto ev = std::make_shared<stream_event>(*plat_);
  ev->ev.record(s);
  out.add(std::move(ev));
  return p;
}

graph_backend::graph_dep_scan graph_backend::scan_graph_deps(
    const event_list& deps) const {
  graph_dep_scan r;
  for (const event_ptr& e : deps) {
    if (auto* ge = as_graph_event(e)) {
      r.any = true;
      if (cur_ != nullptr && ge->epoch == epoch_) {
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
  if (gd.any && last_epoch_done_) {
    s.wait_event(static_cast<stream_event*>(last_epoch_done_.get())->ev);
  }
  for (const event_ptr& e : deps) {
    if (auto* se = as_stream_event(e)) {
      s.wait_event(se->ev);
    }
  }
  plat_->free_async(p, s);
  auto ev = std::make_shared<stream_event>(*plat_);
  ev->ev.record(s);
  dangling.add(std::move(ev));
}

void graph_backend::wait(const event_list& l) {
  const graph_dep_scan gd = scan_graph_deps(l);
  if (gd.current) {
    flush();
  }
  if (gd.any && last_epoch_done_) {
    static_cast<stream_event*>(last_epoch_done_.get())->ev.synchronize();
  }
  for (const event_ptr& e : l) {
    if (auto* se = as_stream_event(e)) {
      se->ev.synchronize();
    }
  }
}

void graph_backend::wait_idle() {
  flush();
  plat_->synchronize();
}

}  // namespace cudastf
