// ctx.launch(spec, where, deps...)->*body (§V): dispatches a lambda for
// collective execution by a structured thread hierarchy, possibly spanning
// several devices (Fig. 6). The body receives a thread_hierarchy handle and
// one typed view per dependency.
//
// Like the other builders, this one only lowers: op_desc + hooks into the
// staged pipeline (submit.{hpp,cpp}, DESIGN.md §13). The construct-specific
// parts kept here are the hierarchy dispatch and the launch cost model.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <tuple>

#include "cudastf/hierarchy.hpp"
#include "cudastf/parallel_for.hpp"
#include "cudastf/task.hpp"

namespace cudastf {

template <class... Deps>
class [[nodiscard]] launch_builder {
 public:
  launch_builder(std::shared_ptr<context_state> st, hierarchy_spec spec,
                 exec_place where, Deps... deps)
      : st_(std::move(st)), spec_(spec), where_(std::move(where)),
        deps_(std::move(deps)...) {}

  launch_builder&& set_symbol(std::string s) && {
    symbol_ = std::move(s);
    return std::move(*this);
  }
  /// Cost model override: total FLOPs across the whole launch.
  launch_builder&& set_flops(double f) && {
    flops_ = f;
    return std::move(*this);
  }
  /// Arms a virtual-time deadline (seconds) for this submission: if it is
  /// still incomplete past the deadline the wedged op is cancelled and the
  /// hang escalated (DESIGN.md §12).
  launch_builder&& deadline(double seconds) && {
    deadline_ = seconds;
    return std::move(*this);
  }

  template <class Fn>
  void operator->*(Fn&& fn) && {
    std::lock_guard lock(st_->mu);
    const auto untyped = detail::untyped_deps(deps_);
    op_desc op;
    op.kind = op_kind::launch;
    op.symbol = &symbol_;
    op.deps = untyped.data();
    op.n_deps = untyped.size();
    op.deadline = deadline_;
    detail::submit_pipeline pipe(*st_, op);
    // The requeue closure copies the builder before plan/bind mutate the
    // requested places, so a replay/retry re-enters verbatim.
    pipe.stage_admission(pipe.needs_requeue()
                             ? detail::make_requeue(*this, fn)
                             : std::function<void()>{});
    hooks_t<std::remove_reference_t<Fn>> h(*this, pipe, fn);
    pipe.execute(h);
  }

 private:
  /// Pipeline hooks: the shared grid plan/bind and typed acquire/release
  /// plus one sub-launch per shard.
  template <class Fn>
  struct hooks_t final : detail::grid_hooks<Deps...> {
    launch_builder& b;
    Fn* fn;

    hooks_t(launch_builder& b_, detail::submit_pipeline& pipe_, Fn& fn_)
        : detail::grid_hooks<Deps...>(pipe_, *b_.st_, b_.deps_, b_.where_),
          b(b_), fn(&fn_) {}

    void run(int device, std::size_t shard, std::size_t n_shards,
             const event_list& ready, event_list& done) override {
      auto views = this->views();
      b.run_device_shard(this->pipe, *fn, views, this->res, device, shard,
                         n_shards, ready, done);
    }
  };

  /// Builds and submits the sub-launch of shard `i` of `n_devices` on
  /// `device`, then hands it to the pipeline's run stage.
  template <class Fn, class Views>
  void run_device_shard(detail::submit_pipeline& pipe, Fn& fn, Views& views,
                        const std::array<data_place, sizeof...(Deps)>& resolved,
                        int device, std::size_t i, std::size_t n_devices,
                        const event_list& ready, event_list& done) {
    constexpr auto seq = std::index_sequence_for<Deps...>{};
    const auto ndev = static_cast<int>(n_devices);
    cudasim::kernel_desc k;
    k.name = symbol_;
    k.flops = flops_ / efficiency_ / ndev;
    // Traffic model: each device touches the blocked 1/ndev share of each
    // dependency — consistent with the default partitioning strategy the
    // hierarchy applies (§V-3) and the composite page mapping (§VI-B).
    const double f0 = static_cast<double>(i) / ndev;
    const double f1 = static_cast<double>(i + 1) / ndev;
    detail::add_all_traffic(k, resolved, deps_, f0, f1, device, seq);
    k.bytes /= efficiency_;
    std::function<void()> body;
    if (st_->compute_payloads) {
      auto spec = spec_;
      const int rank = static_cast<int>(i);
      // By value: the body runs at drain time, after this frame is gone.
      body = [fn, views, spec, rank, ndev]() mutable {
        run_hierarchy(spec, rank, ndev, [&](thread_hierarchy& th) {
          std::apply([&](auto&... v) { fn(th, v...); }, views);
        });
      };
    }
    cudasim::platform* plat = st_->plat;
    auto payload = [plat, k, body](cudasim::stream& s) {
      plat->launch_kernel(s, k, body);
    };
    pipe.run_shard(device, ready, payload, done);
  }

  std::shared_ptr<context_state> st_;
  hierarchy_spec spec_;
  exec_place where_;
  std::tuple<Deps...> deps_;
  std::string symbol_ = "launch";
  double deadline_ = 0.0;
  double flops_ = 0.0;
  double efficiency_ = 0.90;
};

/// Device-side atomic add usable from launch bodies running on concurrent
/// host threads (the port of CUDA's atomicAdd in Fig. 6).
template <class T>
T atomic_add(T* addr, T value) {
  std::atomic_ref<T> ref(*addr);
  return ref.fetch_add(value, std::memory_order_relaxed);
}

}  // namespace cudastf
