#include "cudasim/graph.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "cudasim/stream.hpp"

namespace cudasim {

namespace {
constexpr double instantiate_cost_per_node = 5.0e-6;  // seconds of host time
constexpr double update_cost_per_node = 0.5e-6;       // ~10x cheaper (paper §III-B)
}  // namespace

void graph::check(graph_deps deps) const {
  for (graph_node d : deps) {
    if (!d.valid()) {
      throw std::invalid_argument("cudasim: invalid graph node handle");
    }
    if (d.index >= nodes_.size()) {
      throw std::out_of_range("cudasim: graph dependency on unknown node");
    }
  }
}

graph_node graph::push(node&& n, graph_deps deps) {
  check(deps);
  n.dep_begin = static_cast<std::uint32_t>(edges_.size());
  n.dep_count = static_cast<std::uint32_t>(deps.size);
  for (graph_node d : deps) {
    edges_.push_back(d.index);
  }
  nodes_.push_back(std::move(n));
  return graph_node{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

graph_node graph::add_empty_node(graph_deps deps) {
  node n;
  n.kind = graph_node_kind::empty;
  return push(std::move(n), deps);
}

graph_node graph::add_kernel_node(graph_deps deps, int device, kernel_desc k,
                                  std::function<void()> body) {
  node n;
  n.kind = graph_node_kind::kernel;
  n.device = device;
  n.kdesc = std::move(k);
  n.body = std::move(body);
  return push(std::move(n), deps);
}

graph_node graph::add_memcpy_node(graph_deps deps, void* dst, const void* src,
                                  std::size_t bytes, memcpy_kind kind,
                                  int device) {
  node n;
  n.kind = graph_node_kind::memcpy;
  n.device = device;
  n.dst = dst;
  n.src = src;
  n.bytes = bytes;
  n.ckind = kind;
  return push(std::move(n), deps);
}

graph_node graph::add_memcpy_peer_node(graph_deps deps, void* dst,
                                       int dst_device, const void* src,
                                       int src_device, std::size_t bytes) {
  if (dst_device == src_device) {
    return add_memcpy_node(deps, dst, src, bytes,
                           memcpy_kind::device_to_device, src_device);
  }
  node n;
  n.kind = graph_node_kind::memcpy;
  n.device = src_device;
  n.peer = dst_device;
  n.dst = dst;
  n.src = src;
  n.bytes = bytes;
  n.ckind = memcpy_kind::device_to_device;
  return push(std::move(n), deps);
}

graph_node graph::add_mem_alloc_node(graph_deps deps, int device,
                                     std::size_t bytes, void** out_ptr) {
  check(deps);  // a bad handle must not leave a reservation behind
  void* p = plat_->pool_reserve(device, bytes);
  *out_ptr = p;
  if (p == nullptr) {
    return graph_node{};  // pool exhausted
  }
  owned_allocs_.emplace_back(device, p);
  node n;
  n.kind = graph_node_kind::mem_alloc;
  n.device = device;
  n.dst = p;
  n.bytes = bytes;
  return push(std::move(n), deps);
}

graph_node graph::add_mem_free_node(graph_deps deps, int device,
                                    void* ptr) {
  const bool owned =
      std::any_of(owned_allocs_.begin(), owned_allocs_.end(),
                  [&](const auto& a) { return a.second == ptr; });
  if (!owned) {
    throw std::logic_error(
        "cudasim: graph mem-free node must target a graph-allocated buffer");
  }
  node n;
  n.kind = graph_node_kind::mem_free;
  n.device = device;
  n.dst = ptr;
  return push(std::move(n), deps);
}

graph_node graph::add_host_node(graph_deps deps, std::function<void()> fn,
                                double cost) {
  node n;
  n.kind = graph_node_kind::host;
  n.body = std::move(fn);
  n.host_cost = cost;
  return push(std::move(n), deps);
}

void graph::release_resources() {
  for (auto& [dev, ptr] : owned_allocs_) {
    plat_->pool_unreserve(dev, ptr);
  }
  owned_allocs_.clear();
}

void graph::clear() {
  release_resources();
  nodes_.clear();
  edges_.clear();
}

graph_exec::graph_exec(const graph& g)
    : plat_(&g.owner()), nodes_(g.nodes_), edges_(g.edges_) {
  last_build_cost_ = instantiate_cost_per_node * static_cast<double>(nodes_.size());
}

bool graph_exec::update(graph& g) {
  if (&g.owner() != plat_ || g.nodes_.size() != nodes_.size() ||
      g.edges_ != edges_) {
    return false;
  }
  // Equal edge arrays plus equal per-node dep counts mean equal dep lists.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const graph::node& a = nodes_[i];
    const graph::node& b = g.nodes_[i];
    if (a.kind != b.kind || a.device != b.device || a.peer != b.peer ||
        a.dep_count != b.dep_count) {
      return false;
    }
  }
  // Parameter swap (kernel args, copy endpoints, bodies): take the
  // template's nodes and hand it ours, whose storage it reuses once cleared.
  nodes_.swap(g.nodes_);
  last_build_cost_ = update_cost_per_node * static_cast<double>(nodes_.size());
  return true;
}

void graph_exec::launch(stream& s) {
  if (s.capturing()) {
    throw std::logic_error("cudasim: launching an exec graph during capture");
  }
  std::lock_guard lock(plat_->mutex());
  if (plat_->faults_armed()) {
    // One whole-graph launch counts as a single kernel-category submission
    // for the fault injector; a refused launch enqueues none of the nodes.
    const sim_status injected =
        plat_->poll_faults_locked(op_category::kernel, s.device());
    if (s.status() != sim_status::success) {
      return;
    }
    bool dead = plat_->device(s.device()).failed();
    for (const graph::node& n : nodes_) {
      dead = dead || (n.device >= 0 && plat_->device(n.device).failed()) ||
             (n.peer >= 0 && plat_->device(n.peer).failed());
    }
    if (dead) {
      s.set_status(sim_status::error_device_lost);
      return;
    }
    if (injected != sim_status::success) {
      s.set_status(injected);
      return;
    }
  } else if (s.status() != sim_status::success) {
    return;
  }
  timeline& tl = plat_->tl();
  created_.assign(nodes_.size(), nullptr);
  has_succ_.assign(nodes_.size(), 0);
  // Orders `op` behind node n's deps, or behind the stream when it has none.
  const auto wire = [&](const graph::node& n, op_node* op) {
    if (n.dep_count == 0) {
      timeline::add_dep(s.last(), op);
    }
    for (std::uint32_t e = n.dep_begin; e < n.dep_begin + n.dep_count; ++e) {
      timeline::add_dep(created_[edges_[e]], op);
      has_succ_[edges_[e]] = 1;
    }
  };

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const graph::node& n = nodes_[i];
    const int dev = n.device >= 0 ? n.device : s.device();
    op_node* op = nullptr;
    bool wired = false;  // set by multi-engine nodes that wire deps themselves
    switch (n.kind) {
      case graph_node_kind::empty:
        op = tl.make_node("graph.empty", dev, nullptr, 0.0);
        break;
      case graph_node_kind::kernel: {
        const device_desc& d = plat_->device(dev).desc();
        const double dur = d.graph_node_latency + kernel_cost_seconds(d, n.kdesc);
        op = tl.make_node(n.kdesc.name, dev, &plat_->device(dev).compute(), dur,
                          n.body);
        // A stall armed by the launch poll (or left pending from capture
        // time) lands on the first kernel node lowered.
        stall_request sr;
        if (plat_->take_pending_stall(&sr)) {
          plat_->apply_stall_locked(op, sr);
        }
        break;
      }
      case graph_node_kind::memcpy: {
        task_fn body;
        if (plat_->copy_payloads()) {
          void* dst = n.dst;
          const void* src = n.src;
          const std::size_t bytes = n.bytes;
          body = [dst, src, bytes] {
            if (dst != nullptr && src != nullptr && bytes > 0) {
              std::memmove(dst, src, bytes);
            }
          };
        }
        if (n.peer >= 0) {
          // Dual-engine peer copy: copy_out on src device and copy_in on the
          // peer run in parallel; the recorded node is their join (mirrors
          // platform::memcpy_peer_async).
          const device_desc& sd = plat_->device(dev).desc();
          const double dur = sd.copy_latency +
                             static_cast<double>(n.bytes) / sd.p2p_bw;
          op_node* out = tl.make_node("graph.memcpyPeerSrc", dev,
                                      &plat_->device(dev).copy_out(), dur,
                                      std::move(body));
          op_node* in = tl.make_node("graph.memcpyPeerDst", n.peer,
                                     &plat_->device(n.peer).copy_in(), dur);
          wire(n, out);
          wire(n, in);
          tl.submit(out);
          tl.submit(in);
          op = tl.make_node("graph.memcpyPeer", dev, nullptr, 0.0);
          op->real_work = true;
          timeline::add_dep(out, op);
          timeline::add_dep(in, op);
          wired = true;
          break;
        }
        const platform::copy_plan plan = plat_->plan_copy(dev, n.bytes, n.ckind);
        op = tl.make_node("graph.memcpy", dev, plan.eng, plan.seconds,
                          std::move(body));
        break;
      }
      case graph_node_kind::mem_alloc:
      case graph_node_kind::mem_free:
        // Buffers are owned by the template; alloc/free nodes only cost time.
        op = tl.make_node("graph.mem", dev, &plat_->device(dev).compute(),
                          plat_->device(dev).desc().alloc_latency);
        break;
      case graph_node_kind::host:
        op = tl.make_node("graph.host", -1, &plat_->host_engine(), n.host_cost,
                          n.body);
        break;
    }
    if (!wired) {
      wire(n, op);
    }
    created_[i] = op;
    tl.submit(op);
  }

  // Join all sink nodes so stream order continues after the whole graph.
  op_node* join = tl.make_node("graph.join", s.device(), nullptr, 0.0);
  timeline::add_dep(s.last(), join);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (has_succ_[i] == 0) {
      timeline::add_dep(created_[i], join);
    }
  }
  s.set_last(join);
  tl.submit(join);
  ++launches_;
}

}  // namespace cudasim
