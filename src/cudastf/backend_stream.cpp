#include "cudastf/backend.hpp"

namespace cudastf {

stream_backend::stream_backend(cudasim::platform& p, stream_pool_mode mode,
                               int pool_size)
    : plat_(&p) {
  int n_compute = pool_size;
  int n_copy = 2;
  switch (mode) {
    case stream_pool_mode::pooled:
      break;
    case stream_pool_mode::two_streams:
      n_compute = 1;
      n_copy = 1;
      break;
    case stream_pool_mode::single:
      n_compute = 1;
      n_copy = 0;  // copies share the single compute stream
      break;
  }
  dev_.resize(static_cast<std::size_t>(p.device_count()));
  for (int d = 0; d < p.device_count(); ++d) {
    per_device& pd = dev_[static_cast<std::size_t>(d)];
    for (int i = 0; i < n_compute; ++i) {
      pd.compute.push_back(std::make_unique<cudasim::stream>(p, d));
    }
    for (int i = 0; i < n_copy; ++i) {
      pd.copy.push_back(std::make_unique<cudasim::stream>(p, d));
    }
    pd.alloc = std::make_unique<cudasim::stream>(p, d);
  }
  host_stream_ = std::make_unique<cudasim::stream>(p, 0);
}

cudasim::stream& stream_backend::pick(int device, channel ch) {
  if (ch == channel::host) {
    return *host_stream_;
  }
  per_device& pd = dev_.at(static_cast<std::size_t>(device));
  if (ch == channel::transfer && !pd.copy.empty()) {
    cudasim::stream& s = *pd.copy[pd.next_copy];
    pd.next_copy = (pd.next_copy + 1) % pd.copy.size();
    return s;
  }
  cudasim::stream& s = *pd.compute[pd.next_compute];
  pd.next_compute = (pd.next_compute + 1) % pd.compute.size();
  return s;
}

event stream_backend::run(int device, channel ch, const event_list& deps,
                          const std::function<void(cudasim::stream&)>& payload,
                          std::string_view /*name*/, run_result* rr) {
  cudasim::stream& s = pick(device, ch);
  // Wire all dependencies with one fused join instead of one marker per
  // event (pruned lists are tiny; 16 covers everything the STF layer emits).
  const cudasim::event* wait_buf[16];
  std::size_t nwait = 0;
  for (const event& e : deps) {
    wait_buf[nwait++] = &e.sim();
    if (nwait == sizeof(wait_buf) / sizeof(wait_buf[0])) {
      s.wait_events(wait_buf, nwait);
      nwait = 0;
    }
  }
  if (nwait != 0) {
    s.wait_events(wait_buf, nwait);
  }
  stats_.deps_wired += deps.size();
  // Snapshot the stream tail after dep wiring so a fault status set during
  // the payload can be classified: tail unchanged (or only a pure marker
  // such as the retry-backoff node, real_work == false) means the refusal
  // was clean and the submission can be retried; real work at the tail
  // (including a peer-copy join marker) means a prefix of the payload
  // executed and retry would double-run it. The id tells the snapshot
  // from a recycled node at the same address (a drain inside the payload
  // may recycle it).
  const cudasim::op_node* before = s.last();
  const std::uint64_t before_id =
      before != nullptr ? before->id.load(std::memory_order_relaxed) : 0;
  payload(s);
  const cudasim::sim_status st = s.status();
  if (st != cudasim::sim_status::success) {
    // Always clear: pooled streams are reused by unrelated tasks, and a
    // stale sticky status would silently refuse their submissions.
    s.clear_status();
    if (rr != nullptr) {
      const cudasim::op_node* after = s.last();
      rr->status = st;
      rr->partial =
          after != nullptr && after->real_work &&
          (after != before ||
           after->id.load(std::memory_order_relaxed) != before_id);
    }
  } else if (rr != nullptr) {
    rr->status = cudasim::sim_status::success;
    rr->partial = false;
  }
  ++stats_.tasks;
  return record_event(s);
}

void* stream_backend::alloc_device(int device, std::size_t bytes,
                                   event_list& out) {
  cudasim::stream& s = *dev_.at(static_cast<std::size_t>(device)).alloc;
  void* p = plat_->malloc_async(bytes, s);
  if (p == nullptr) {
    return nullptr;
  }
  out.add(record_event(s));
  return p;
}

void stream_backend::free_device(int device, void* p, const event_list& deps,
                                 event_list& dangling) {
  cudasim::stream& s = *dev_.at(static_cast<std::size_t>(device)).alloc;
  for (const event& e : deps) {
    s.wait_event(e.sim());
  }
  plat_->free_async(p, s);
  dangling.add(record_event(s));
}

void stream_backend::wait(const event_list& l) {
  for (const event& e : l) {
    e.sim().synchronize();
  }
}

void stream_backend::wait_idle() { plat_->synchronize(); }

}  // namespace cudastf
