#include "cudasim/platform.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "cudasim/graph.hpp"
#include "cudasim/stream.hpp"

namespace cudasim {

device_state::device_state(int index, device_desc desc)
    : index_(index), desc_(std::move(desc)) {}

double kernel_cost_seconds(const device_desc& d, const kernel_desc& k) {
  const double compute = k.flops > 0 ? k.flops / d.fp64_flops : 0.0;
  const double mem = k.bytes > 0 ? k.bytes / d.hbm_bw : 0.0;
  const double remote = k.remote_bytes > 0 ? k.remote_bytes / d.p2p_bw : 0.0;
  const double host = k.host_bytes > 0 ? k.host_bytes / d.host_link_bw : 0.0;
  // Compute overlaps with local memory traffic (roofline); link traffic is
  // additive since it serializes behind the interconnect.
  return std::max(compute, mem) + remote + host + k.fixed_seconds;
}

platform::platform(int num_devices, const device_desc& desc) {
  if (num_devices < 1) {
    throw std::invalid_argument("cudasim: platform needs at least one device");
  }
  devices_.reserve(static_cast<std::size_t>(num_devices));
  for (int i = 0; i < num_devices; ++i) {
    devices_.push_back(std::make_unique<device_state>(i, desc));
  }
}

platform::~platform() = default;

device_state& platform::device(int i) {
  return *devices_.at(static_cast<std::size_t>(i));
}

const device_state& platform::device(int i) const {
  return *devices_.at(static_cast<std::size_t>(i));
}

void platform::set_device(int i) {
  if (i < 0 || i >= device_count()) {
    throw std::out_of_range("cudasim: set_device out of range");
  }
  current_.store(i, std::memory_order_release);
}

int platform::current_device() const {
  return current_.load(std::memory_order_acquire);
}

void flip_payload_byte(void* p, std::size_t len, std::uint64_t seed) {
  if (p == nullptr || len == 0) {
    return;
  }
  auto* b = static_cast<unsigned char*>(p);
  b[seed % len] ^= static_cast<unsigned char>(1u << ((seed >> 8) % 8));
}

namespace {

/// Deterministic corruption victim among a device's live allocations:
/// ordered by allocation sequence so the pick never depends on hash-map
/// iteration order or pointer values.
bool pick_live_alloc(const std::unordered_map<void*, device_state::alloc_info>&
                         allocs,
                     std::uint64_t seed, void** out_p, std::size_t* out_len) {
  if (allocs.empty()) {
    return false;
  }
  std::vector<std::pair<std::uint64_t, std::pair<void*, std::size_t>>> order;
  order.reserve(allocs.size());
  for (const auto& [p, info] : allocs) {
    order.emplace_back(info.seq, std::make_pair(p, info.bytes));
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto& pick = order[seed % order.size()].second;
  if (pick.second == 0) {
    return false;
  }
  *out_p = pick.first;
  *out_len = pick.second;
  return true;
}

// Capture helper: while a stream captures, submissions are appended to the
// capture graph, chained behind the stream's capture tail (if any).
graph_deps capture_deps(const stream& s) {
  return {&s.capture_tail_, s.capture_tail_.valid() ? 1u : 0u};
}

}  // namespace

void platform::launch_kernel(stream& s, const kernel_desc& k,
                             std::function<void()> body, bool graph_launched) {
  std::lock_guard lock(mu_);
  if (faults_armed_) {
    const sim_status injected =
        poll_faults_locked(op_category::kernel, s.device());
    if (s.status() != sim_status::success) {
      return;  // sticky: refused until the caller clears the stream status
    }
    if (device(s.device()).failed()) {
      s.set_status(sim_status::error_device_lost);
      return;
    }
    if (injected != sim_status::success) {
      s.set_status(injected);
      return;
    }
    flip_request fr;
    if (take_pending_flip(&fr)) {
      // Silent output corruption: the kernel runs normally, then one bit of
      // a hinted output range (or, without hints, of a live allocation on
      // the device) flips. The one-shot guard keeps memoized graph
      // relaunches from re-flipping — two flips of the same bit cancel.
      void* tp = nullptr;
      std::size_t tlen = 0;
      if (!output_hints_.empty()) {
        const byte_span& sp = output_hints_[fr.seed % output_hints_.size()];
        tp = sp.ptr;
        tlen = sp.len;
      } else {
        pick_live_alloc(device(s.device()).live_allocs_, fr.seed, &tp, &tlen);
      }
      if (tp != nullptr && tlen > 0) {
        auto fired = std::make_shared<bool>(false);
        body = [inner = std::move(body), tp, tlen, seed = fr.seed, fired] {
          if (inner) {
            inner();
          }
          if (!*fired) {
            *fired = true;
            flip_payload_byte(tp, tlen, seed);
          }
        };
      }
    }
  } else if (s.status() != sim_status::success) {
    return;  // sticky even when set without an injector
  }
  if (s.capturing()) {
    graph* g = s.capture_graph();
    s.capture_tail_ =
        g->add_kernel_node(capture_deps(s), s.device(), k, std::move(body));
    return;
  }
  device_state& dev = device(s.device());
  const double latency =
      graph_launched ? dev.desc().graph_node_latency : dev.desc().launch_latency;
  const double dur = latency + kernel_cost_seconds(dev.desc(), k);
  op_node* n = tl_.make_node(k.name, s.device(), &dev.compute(), dur,
                             std::move(body));
  stall_request sr;
  if (take_pending_stall(&sr)) {
    apply_stall_locked(n, sr);
  }
  try {
    timeline::add_dep(s.last(), n);
  } catch (...) {
    tl_.abandon(n);
    throw;
  }
  s.set_last(n);
  tl_.submit(n);
  maybe_drain_locked();
}

platform::copy_plan platform::plan_copy(int devidx, std::size_t n,
                                        memcpy_kind kind) {
  device_state& dev = device(devidx);
  engine* eng = nullptr;
  double bw = 0.0;
  switch (kind) {
    case memcpy_kind::host_to_device:
      eng = &dev.copy_in();
      bw = dev.desc().host_link_bw;
      break;
    case memcpy_kind::device_to_host:
      eng = &dev.copy_out();
      bw = dev.desc().host_link_bw;
      break;
    case memcpy_kind::device_to_device:
      eng = &dev.copy_out();
      bw = dev.desc().p2p_bw;
      break;
    case memcpy_kind::host_to_host:
      eng = &host_engine_;
      bw = host_memcpy_bw();
      break;
  }
  return {eng, dev.desc().copy_latency + static_cast<double>(n) / bw};
}

void platform::memcpy_async(void* dst, const void* src, std::size_t n,
                            memcpy_kind kind, stream& s) {
  std::lock_guard lock(mu_);
  flip_request flip;
  bool have_flip = false;
  if (faults_armed_) {
    const sim_status injected =
        poll_faults_locked(op_category::copy, s.device());
    if (s.status() != sim_status::success) {
      return;
    }
    // Fail-stop at submission, with an evacuation grace: copies *out* of a
    // failed device toward the host stay possible (modelling graceful
    // decommissioning), so the runtime can rescue sole modified copies.
    if (device(s.device()).failed() && kind != memcpy_kind::device_to_host) {
      s.set_status(sim_status::error_device_lost);
      return;
    }
    if (injected != sim_status::success) {
      s.set_status(injected);
      return;
    }
    have_flip = take_pending_flip(&flip) && dst != nullptr && n > 0;
  } else if (s.status() != sim_status::success) {
    return;
  }
  if (s.capturing()) {
    graph* g = s.capture_graph();
    graph_node node =
        g->add_memcpy_node(capture_deps(s), dst, src, n, kind, s.device());
    if (have_flip) {
      // In-flight corruption during capture: a host node right behind the
      // memcpy node flips one destination bit (one-shot across relaunches).
      auto fired = std::make_shared<bool>(false);
      node = g->add_host_node({node}, [dst, n, seed = flip.seed, fired] {
        if (!*fired) {
          *fired = true;
          flip_payload_byte(dst, n, seed);
        }
      });
    }
    s.capture_tail_ = node;
    return;
  }
  const copy_plan plan = plan_copy(s.device(), n, kind);
  task_fn body;
  if (copy_payloads_) {
    if (have_flip) {
      // The copy delivers, then one destination bit silently flips.
      auto fired = std::make_shared<bool>(false);
      body = [dst, src, n, seed = flip.seed, fired] {
        if (src != nullptr) {
          std::memmove(dst, src, n);
        }
        if (!*fired) {
          *fired = true;
          flip_payload_byte(dst, n, seed);
        }
      };
    } else {
      body = [dst, src, n] {
        if (dst != nullptr && src != nullptr && n > 0) {
          std::memmove(dst, src, n);
        }
      };
    }
  }
  op_node* node =
      tl_.make_node("memcpy", s.device(), plan.eng, plan.seconds, std::move(body));
  stall_request sr;
  if (take_pending_stall(&sr)) {
    apply_stall_locked(node, sr);
  }
  try {
    timeline::add_dep(s.last(), node);
  } catch (...) {
    tl_.abandon(node);
    throw;
  }
  s.set_last(node);
  tl_.submit(node);
  maybe_drain_locked();
}

void platform::memcpy_peer_async(void* dst, int dst_device, const void* src,
                                 int src_device, std::size_t n, stream& s) {
  if (dst_device == src_device) {
    memcpy_async(dst, src, n, memcpy_kind::device_to_device, s);
    return;
  }
  if (dst_device < 0 || dst_device >= device_count() || src_device < 0 ||
      src_device >= device_count()) {
    throw std::out_of_range("cudasim: memcpy_peer_async device out of range");
  }
  std::lock_guard lock(mu_);
  flip_request flip;
  bool have_flip = false;
  if (faults_armed_) {
    const sim_status injected =
        poll_faults_locked(op_category::copy, s.device());
    if (s.status() != sim_status::success) {
      return;
    }
    // No evacuation grace on peer links: rescuing data off a failed device
    // goes through the host path (device_to_host), never through a peer.
    if (device(src_device).failed() || device(dst_device).failed()) {
      s.set_status(sim_status::error_device_lost);
      return;
    }
    if (injected != sim_status::success) {
      s.set_status(injected);
      return;
    }
    have_flip = take_pending_flip(&flip) && dst != nullptr && n > 0;
  } else if (s.status() != sim_status::success) {
    return;
  }
  if (s.capturing()) {
    graph* g = s.capture_graph();
    graph_node node = g->add_memcpy_peer_node(capture_deps(s), dst, dst_device,
                                              src, src_device, n);
    if (have_flip) {
      auto fired = std::make_shared<bool>(false);
      node = g->add_host_node({node}, [dst, n, seed = flip.seed, fired] {
        if (!*fired) {
          *fired = true;
          flip_payload_byte(dst, n, seed);
        }
      });
    }
    s.capture_tail_ = node;
    return;
  }
  device_state& sdev = device(src_device);
  device_state& ddev = device(dst_device);
  const double seconds =
      sdev.desc().copy_latency + static_cast<double>(n) / sdev.desc().p2p_bw;
  task_fn body;
  if (copy_payloads_) {
    if (have_flip) {
      auto fired = std::make_shared<bool>(false);
      body = [dst, src, n, seed = flip.seed, fired] {
        if (src != nullptr) {
          std::memmove(dst, src, n);
        }
        if (!*fired) {
          *fired = true;
          flip_payload_byte(dst, n, seed);
        }
      };
    } else {
      body = [dst, src, n] {
        if (dst != nullptr && src != nullptr && n > 0) {
          std::memmove(dst, src, n);
        }
      };
    }
  }
  op_node* out = tl_.make_node("memcpyPeerSrc", src_device, &sdev.copy_out(),
                               seconds, std::move(body));
  op_node* in = tl_.make_node("memcpyPeerDst", dst_device, &ddev.copy_in(),
                              seconds);
  op_node* join = tl_.make_node("memcpyPeer", src_device, nullptr, 0.0);
  join->real_work = true;  // accepted work, not a mere marker
  stall_request sr;
  if (take_pending_stall(&sr)) {
    apply_stall_locked(out, sr);  // the source half carries the hang
  }
  try {
    timeline::add_dep(s.last(), out);
    timeline::add_dep(s.last(), in);
  } catch (...) {
    tl_.abandon(out);
    tl_.abandon(in);
    tl_.abandon(join);
    throw;
  }
  tl_.submit(out);
  tl_.submit(in);
  try {
    // Wired after submit: edges *into* a node whose predecessors are live
    // always resolve, so abandoning `join` below can never strand it.
    timeline::add_dep(out, join);
    timeline::add_dep(in, join);
  } catch (...) {
    tl_.abandon(join);
    throw;
  }
  s.set_last(join);
  tl_.submit(join);
  maybe_drain_locked();
}

void* platform::malloc_async(std::size_t bytes, stream& s) {
  std::lock_guard lock(mu_);
  if (faults_armed_) {
    const sim_status injected =
        poll_faults_locked(op_category::alloc, s.device());
    if (s.status() != sim_status::success) {
      return nullptr;
    }
    if (device(s.device()).failed()) {
      // Like genuine exhaustion this is a plain refusal, not a sticky error;
      // the caller distinguishes via platform::device_failed().
      return nullptr;
    }
    if (injected == sim_status::error_out_of_memory) {
      // cudaMallocAsync OOM is returned, not sticky. Flag it so allocators
      // can tell the injected transient from genuine exhaustion and retry.
      alloc_fault_pending_ = true;
      return nullptr;
    }
  } else if (s.status() != sim_status::success) {
    return nullptr;
  }
  if (s.capturing()) {
    void* out = nullptr;
    graph* g = s.capture_graph();
    graph_node n = g->add_mem_alloc_node(capture_deps(s), s.device(), bytes, &out);
    if (n.valid()) {
      s.capture_tail_ = n;
    }
    return out;
  }
  device_state& dev = device(s.device());
  if (dev.pool_used_ + bytes > dev.pool_capacity()) {
    return nullptr;  // pool exhausted; caller reacts (eviction, etc.)
  }
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) {
    return nullptr;
  }
  dev.pool_used_ += bytes;
  dev.live_allocs_.emplace(p,
                           device_state::alloc_info{bytes, dev.alloc_seq_++});
  // The allocation itself is stream-ordered: later ops on the stream wait
  // for it, modelling cudaMallocAsync.
  op_node* node = tl_.make_node("mallocAsync", s.device(), &dev.compute(),
                                dev.desc().alloc_latency);
  timeline::add_dep(s.last(), node);
  s.set_last(node);
  tl_.submit(node);
  maybe_drain_locked();
  return p;
}

void platform::free_async(void* p, stream& s) {
  if (p == nullptr) {
    return;
  }
  if (s.capturing()) {
    graph* g = s.capture_graph();
    s.capture_tail_ = g->add_mem_free_node(capture_deps(s), s.device(), p);
    return;
  }
  std::lock_guard lock(mu_);
  device_state& dev = device(s.device());
  auto it = dev.live_allocs_.find(p);
  if (it == dev.live_allocs_.end()) {
    throw std::logic_error("cudasim: free_async of unknown pointer");
  }
  const std::size_t bytes = it->second.bytes;
  dev.live_allocs_.erase(it);
  // Pool space is returned in submission order (the pool can reuse the range
  // for future stream-ordered allocations); the host backing is released when
  // the free node completes.
  dev.pool_used_ -= bytes;
  op_node* node = tl_.make_node("freeAsync", s.device(), &dev.compute(),
                                dev.desc().alloc_latency, [p] { std::free(p); });
  timeline::add_dep(s.last(), node);
  s.set_last(node);
  tl_.submit(node);
  maybe_drain_locked();
}

void* platform::pool_reserve(int devidx, std::size_t bytes) {
  std::lock_guard lock(mu_);
  device_state& dev = device(devidx);
  if (dev.pool_used_ + bytes > dev.pool_capacity()) {
    return nullptr;
  }
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) {
    return nullptr;
  }
  dev.pool_used_ += bytes;
  dev.live_allocs_.emplace(p,
                           device_state::alloc_info{bytes, dev.alloc_seq_++});
  return p;
}

void platform::pool_unreserve(int devidx, void* p) {
  if (p == nullptr) {
    return;
  }
  std::lock_guard lock(mu_);
  device_state& dev = device(devidx);
  auto it = dev.live_allocs_.find(p);
  if (it == dev.live_allocs_.end()) {
    throw std::logic_error("cudasim: pool_unreserve of unknown pointer");
  }
  dev.pool_used_ -= it->second.bytes;
  dev.live_allocs_.erase(it);
  std::free(p);
}

bool platform::pool_charge(int devidx, std::size_t bytes) {
  std::lock_guard lock(mu_);
  device_state& dev = device(devidx);
  if (dev.pool_used_ + bytes > dev.pool_capacity()) {
    return false;
  }
  dev.pool_used_ += bytes;
  return true;
}

void platform::pool_discharge(int devidx, std::size_t bytes) {
  std::lock_guard lock(mu_);
  device_state& dev = device(devidx);
  if (dev.pool_used_ < bytes) {
    throw std::logic_error("cudasim: pool_discharge underflow");
  }
  dev.pool_used_ -= bytes;
}

void platform::launch_host_func(stream& s, std::function<void()> fn,
                                double cost) {
  if (s.capturing()) {
    graph* g = s.capture_graph();
    s.capture_tail_ = g->add_host_node(capture_deps(s), std::move(fn), cost);
    return;
  }
  std::lock_guard lock(mu_);
  op_node* node = tl_.make_node("hostFunc", -1, &host_engine_, cost, std::move(fn));
  timeline::add_dep(s.last(), node);
  s.set_last(node);
  tl_.submit(node);
  maybe_drain_locked();
}


void platform::set_fault_injector(std::shared_ptr<fault_injector> fi) {
  std::lock_guard lock(mu_);
  injector_ = std::move(fi);
  faults_armed_.store(injector_ != nullptr || any_device_failed_,
                      std::memory_order_release);
}

fault_injector& platform::ensure_fault_injector() {
  std::lock_guard lock(mu_);
  if (!injector_) {
    injector_ = std::make_shared<fault_injector>();
  }
  faults_armed_.store(true, std::memory_order_release);
  return *injector_;
}

sim_status platform::poll_faults_locked(op_category cat, int device) {
  if (!injector_) {
    return sim_status::success;
  }
  pending_flip_ = {};  // a flip armed on a refused earlier op is dropped
  const sim_status st = injector_->on_op(cat, device, tl_.now(), *this);
  flip_request fr;
  if (injector_->take_flip(&fr)) {
    if (!copy_payloads_) {
      // Timing-only runs carry no meaningful payload bytes to corrupt.
    } else if (fr.site == flip_site::resident) {
      apply_resident_flip_locked(fr);
    } else {
      pending_flip_ = fr;
    }
  }
  // Stalls stay pending until an engine op absorbs them (sticky across
  // polls, unlike flips): a stall armed during stream capture has no DES
  // node to land on and rides forward to the eventual graph launch.
  stall_request sr;
  if (injector_->take_stall(&sr)) {
    pending_stall_ = sr;
    stall_pending_ = true;
  }
  return st;
}

bool platform::take_pending_stall(stall_request* out) {
  if (!stall_pending_) {
    return false;
  }
  *out = pending_stall_;
  pending_stall_ = {};
  stall_pending_ = false;
  return true;
}

void platform::apply_stall_locked(op_node* n, const stall_request& sr) {
  if (n == nullptr) {
    return;
  }
  if (sr.permanent) {
    n->stall_permanent = true;
  } else {
    n->stalled = true;
    n->duration += sr.seconds;
  }
  stalled_ops_.push_back(n);
}

platform::stall_info platform::cancel_stalled_op(const op_node* prefer) {
  std::lock_guard lock(mu_);
  std::erase_if(stalled_ops_, [](op_node* n) {
    return n->done.load(std::memory_order_relaxed);
  });
  stall_info info;
  const auto try_cancel = [&](op_node* n) {
    if (!tl_.cancel(n)) {
      return false;  // e.g. still waiting on predecessors
    }
    info.found = true;
    info.id = n->id.load(std::memory_order_relaxed);
    info.name = n->name;
    info.device = n->device;
    return true;
  };
  if (prefer != nullptr) {
    for (op_node* n : stalled_ops_) {
      if (n == prefer && try_cancel(n)) {
        return info;
      }
    }
  }
  for (op_node* n : stalled_ops_) {
    if (try_cancel(n)) {
      return info;
    }
  }
  return info;
}

std::size_t platform::drain_window(timepoint t_limit) {
  std::lock_guard lock(mu_);
  return tl_.drain_until_time(t_limit);
}

bool platform::drain_one() {
  std::lock_guard lock(mu_);
  return tl_.drain_one();
}

void platform::advance_clock(timepoint t) {
  std::lock_guard lock(mu_);
  tl_.advance_now(t);
}

std::uint64_t platform::live_ops() const {
  std::lock_guard lock(mu_);
  return tl_.live_count();
}

std::string platform::stuck_report() const {
  std::lock_guard lock(mu_);
  return tl_.stuck_report();
}

void platform::apply_resident_flip_locked(const flip_request& fr) {
  if (fr.device < 0 || fr.device >= device_count()) {
    return;
  }
  device_state& dev = device(fr.device);
  void* p = nullptr;
  std::size_t len = 0;
  // Applied immediately: at-rest aging needs no stream ordering, and a
  // pointer still present in live_allocs_ has not had free_async submitted,
  // so its backing is alive. Deferring to a DES node would race the
  // deferred std::free bodies.
  if (pick_live_alloc(dev.live_allocs_, fr.seed, &p, &len)) {
    flip_payload_byte(p, len, fr.seed);
  }
}

bool platform::take_pending_flip(flip_request* out) {
  if (pending_flip_.site == flip_site::none) {
    return false;
  }
  *out = pending_flip_;
  pending_flip_ = {};
  return true;
}

void platform::set_output_hints(std::vector<byte_span> spans) {
  std::lock_guard lock(mu_);
  output_hints_ = std::move(spans);
}

void platform::clear_output_hints() {
  std::lock_guard lock(mu_);
  output_hints_.clear();
}

void platform::fail_device(int dev) {
  std::lock_guard lock(mu_);
  device(dev).failed_ = true;
  any_device_failed_ = true;
  faults_armed_.store(true, std::memory_order_release);
}

bool platform::device_failed(int dev) const {
  std::lock_guard lock(mu_);
  return device(dev).failed_;
}

bool platform::consume_injected_alloc_failure() {
  std::lock_guard lock(mu_);
  const bool was = alloc_fault_pending_;
  alloc_fault_pending_ = false;
  return was;
}

void platform::stream_delay(stream& s, double seconds) {
  if (seconds <= 0.0) {
    return;
  }
  if (s.capturing()) {
    // No-op during capture: a backoff node would change the captured graph
    // topology (breaking exec-graph memoization) and confuse the backends'
    // partial-submission detection, which compares capture tails.
    return;
  }
  std::lock_guard lock(mu_);
  op_node* node = tl_.make_node("retryBackoff", s.device(), nullptr, seconds);
  timeline::add_dep(s.last(), node);
  s.set_last(node);
  tl_.submit(node);
}

void platform::maybe_drain_locked() {
  if (tl_.live_count() > 100000) {
    tl_.drain();
    collect_handles();
    tl_.gc();
  }
}

void platform::stream_synchronize(stream& s) {
  std::lock_guard lock(mu_);
  op_node* last = s.last();
  if (last == nullptr) {
    return;
  }
  if (!last->done.load(std::memory_order_relaxed)) {
    tl_.drain_until(last);
  }
  collect_handles();
  tl_.gc();
}

void platform::synchronize() {
  std::lock_guard lock(mu_);
  tl_.drain();
  collect_handles();
  tl_.gc();
}

void platform::collect_handles() {
  for (stream* s : streams_) {
    s->drop_completed();
  }
  // Stalled-op tracking must drop done nodes before gc() can recycle them:
  // a recycled node's pointer would alias an unrelated live op and
  // cancel_stalled_op() could cancel an innocent victim.
  std::erase_if(stalled_ops_, [](op_node* n) {
    return n->done.load(std::memory_order_relaxed);
  });
}

namespace {
std::shared_ptr<platform>& default_slot() {
  static std::shared_ptr<platform> p;
  return p;
}
}  // namespace

platform& default_platform() {
  auto& slot = default_slot();
  if (!slot) {
    slot = std::make_shared<platform>(1, a100_desc());
  }
  return *slot;
}

std::shared_ptr<platform> set_default_platform(std::shared_ptr<platform> p) {
  auto& slot = default_slot();
  std::shared_ptr<platform> prev = slot;
  slot = std::move(p);
  return prev;
}

scoped_platform::scoped_platform(int num_devices, const device_desc& desc)
    : mine_(std::make_shared<platform>(num_devices, desc)) {
  previous_ = set_default_platform(mine_);
}

scoped_platform::~scoped_platform() {
  try {
    mine_->synchronize();
  } catch (...) {
    // A throwing kernel body can leave the timeline unfinishable; the
    // platform is being torn down anyway, so absorb the failure rather
    // than terminating during unwinding.
  }
  set_default_platform(previous_);
}

}  // namespace cudasim
