// Simulated CUDA Graphs: build a template of asynchronous operations once,
// instantiate it into an executable graph, update it in place when only
// parameters changed, and launch it many times at a reduced per-node cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

#include "cudasim/platform.hpp"
#include "cudasim/stream.hpp"

namespace cudasim {

/// Kinds of graph template nodes.
enum class graph_node_kind : std::uint8_t {
  empty,
  kernel,
  memcpy,
  mem_alloc,
  mem_free,
  host,
};

/// The dependencies of a new graph node, borrowed for one add_*_node call
/// (like std::span, it must not outlive the argument it views): a vector,
/// a braced list of handles or a pointer and a count.
struct graph_deps {
  const graph_node* data = nullptr;
  std::size_t size = 0;

  graph_deps() = default;
  graph_deps(const graph_node* d, std::size_t n) : data(d), size(n) {}
  graph_deps(const std::vector<graph_node>& v) : data(v.data()), size(v.size()) {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
// A braced argument's array lives to the end of the call's full expression.
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
#endif
  graph_deps(std::initializer_list<graph_node> l)
      : data(l.begin()), size(l.size()) {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  const graph_node* begin() const { return data; }
  const graph_node* end() const { return data + size; }
};

/// A graph template (cudaGraph_t). Cheap to build; cannot execute directly.
class graph {
 public:
  explicit graph(platform& p) : plat_(&p) {}

  graph_node add_empty_node(graph_deps deps);
  graph_node add_kernel_node(graph_deps deps, int device, kernel_desc k,
                             std::function<void()> body);
  graph_node add_memcpy_node(graph_deps deps, void* dst, const void* src,
                             std::size_t bytes, memcpy_kind kind, int device);
  /// Cross-device peer copy node (cudaGraphAddMemcpyNode with distinct
  /// endpoints): occupies copy_out on `src_device` and copy_in on
  /// `dst_device` in parallel when launched, mirroring
  /// platform::memcpy_peer_async. Same-device calls degrade to a plain
  /// device_to_device memcpy node.
  graph_node add_memcpy_peer_node(graph_deps deps, void* dst, int dst_device,
                                  const void* src, int src_device,
                                  std::size_t bytes);
  /// Graph-ordered allocation (cudaGraphAddMemAllocNode). The buffer is
  /// carved from the device pool when the node is added and returned
  /// immediately, mirroring CUDA's eager virtual-address assignment.
  /// Returns nullptr if the pool capacity would be exceeded.
  graph_node add_mem_alloc_node(graph_deps deps, int device,
                                std::size_t bytes, void** out_ptr);
  graph_node add_mem_free_node(graph_deps deps, int device, void* ptr);
  graph_node add_host_node(graph_deps deps, std::function<void()> fn,
                           double cost = 0.0);

  std::size_t node_count() const { return nodes_.size(); }
  platform& owner() const { return *plat_; }

  /// Releases pool space still held by alloc nodes without matching free
  /// nodes. Called by the owner when the graph is abandoned un-launched.
  void release_resources();
  /// Empties the template for the next build: release_resources() plus
  /// dropping every node and edge, keeping the storage's capacity.
  void clear();

 private:
  friend class graph_exec;
  struct node {
    graph_node_kind kind = graph_node_kind::empty;
    std::uint32_t dep_begin = 0;  // first of this node's deps in edges_
    std::uint32_t dep_count = 0;
    int device = -1;
    kernel_desc kdesc;
    std::function<void()> body;   // kernel or host payload
    void* dst = nullptr;          // memcpy / free target
    const void* src = nullptr;    // memcpy source
    std::size_t bytes = 0;        // memcpy / alloc size
    memcpy_kind ckind = memcpy_kind::device_to_device;
    int peer = -1;                // dst device of a peer memcpy, else -1
    double host_cost = 0.0;
  };

  /// Throws on an invalid or unknown handle in `deps`.
  void check(graph_deps deps) const;
  /// Appends `n` behind `deps`; on a bad handle throws with nothing added.
  graph_node push(node&& n, graph_deps deps);

  platform* plat_;
  std::vector<node> nodes_;
  /// Every node's dependency indices, one node's run after another.
  std::vector<std::uint32_t> edges_;
  /// Buffers carved out by add_mem_alloc_node, owned by this template until
  /// release_resources() (or destruction) returns them to the pool.
  std::vector<std::pair<int, void*>> owned_allocs_;

 public:
  ~graph() { release_resources(); }
  graph(graph&& other) noexcept
      : plat_(other.plat_),
        nodes_(std::move(other.nodes_)),
        edges_(std::move(other.edges_)),
        owned_allocs_(std::move(other.owned_allocs_)) {
    other.owned_allocs_.clear();
  }
  graph(const graph&) = delete;
  graph& operator=(const graph&) = delete;
  graph& operator=(graph&&) = delete;
};

/// An executable graph (cudaGraphExec_t).
class graph_exec {
 public:
  /// Instantiates `g` (cudaGraphInstantiate). Relatively expensive; prefer
  /// update() when a structurally identical graph is re-issued.
  explicit graph_exec(const graph& g);

  /// Attempts cudaGraphExecUpdate semantics: if `g` has the same topology
  /// (node count, kinds, devices, dependency structure), swaps node storage
  /// with `g` and returns true; `g` then holds this exec's old nodes, to be
  /// cleared. Otherwise leaves both untouched and returns false. Roughly an
  /// order of magnitude cheaper than instantiation.
  bool update(graph& g);

  /// Enqueues one execution of the graph behind prior work on `s`.
  /// Per-node launch overhead uses the device's graph_node_latency.
  void launch(stream& s);

  std::size_t node_count() const { return nodes_.size(); }

  /// Modelled host-side cost of the last instantiate/update, charged by
  /// callers that account for host overhead on the submission path.
  double last_build_cost_seconds() const { return last_build_cost_; }
  std::uint64_t launches() const { return launches_; }

 private:
  platform* plat_;
  std::vector<graph::node> nodes_;
  std::vector<std::uint32_t> edges_;
  // Launch scratch, reused across launches (launch holds the platform lock).
  std::vector<op_node*> created_;
  std::vector<std::uint8_t> has_succ_;
  double last_build_cost_ = 0.0;
  std::uint64_t launches_ = 0;
};

}  // namespace cudasim
