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
    const auto untyped = make_untyped();
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
    std::array<data_place, sizeof...(Deps)> resolved;
    hooks_t<std::remove_reference_t<Fn>> h(*this, pipe, resolved, fn);
    pipe.execute_grid(h);
  }

 private:
  /// Pipeline hooks closing over this builder's typed dependency tuple.
  template <class Fn>
  struct hooks_t final : detail::op_hooks {
    launch_builder& b;
    detail::submit_pipeline& pipe;
    std::array<data_place, sizeof...(Deps)>& res;
    std::array<data_place, sizeof...(Deps)> orig{};
    Fn* fn;

    hooks_t(launch_builder& b_, detail::submit_pipeline& pipe_,
            std::array<data_place, sizeof...(Deps)>& res_, Fn& fn_)
        : b(b_), pipe(pipe_), res(res_), fn(&fn_) {
      resolved = res.data();
      b.save_places(orig);
    }

    std::vector<int> plan() override {
      // Restore the originally-requested places first: a retry after a
      // device loss re-binds against the current survivors.
      b.restore_places(orig);
      return detail::resolve_devices(b.where_, *b.st_->plat);
    }

    void bind(const std::vector<int>& devices) override {
      if (devices.size() > 1) {
        detail::gridify_places(b.deps_, detail::default_composite(devices),
                               std::index_sequence_for<Deps...>{});
      }
    }

    event_list acquire(int lead_device) override {
      return detail::acquire_all(*b.st_, lead_device, res, b.deps_,
                                 std::index_sequence_for<Deps...>{});
    }

    void run(const int* devices, std::size_t ndev, const event_list& ready,
             event_list& done, detail::resilient_result* rr,
             int* bad_device) override {
      auto views = detail::make_views(res, b.deps_,
                                      std::index_sequence_for<Deps...>{});
      for (std::size_t i = 0; i < ndev; ++i) {
        detail::resilient_result r;
        b.run_device_shard(pipe, *fn, views, res, devices, ndev, i, ready,
                           done, rr != nullptr ? &r : nullptr);
        if (rr != nullptr && r.status != cudasim::sim_status::success) {
          *rr = r;
          *bad_device = devices[i];
          return;
        }
      }
    }

    void release(const event_list& done) override {
      detail::release_all(*b.st_, res, b.deps_, done,
                          std::index_sequence_for<Deps...>{});
    }
  };

  void save_places(std::array<data_place, sizeof...(Deps)>& out) const {
    std::size_t idx = 0;
    std::apply([&](const auto&... d) { ((out[idx++] = d.untyped.place), ...); },
               deps_);
  }

  void restore_places(const std::array<data_place, sizeof...(Deps)>& in) {
    std::size_t idx = 0;
    std::apply([&](auto&... d) { ((d.untyped.place = in[idx++]), ...); },
               deps_);
  }

  std::array<const task_dep_untyped*, sizeof...(Deps)> make_untyped() const {
    std::array<const task_dep_untyped*, sizeof...(Deps)> untyped{};
    std::size_t idx = 0;
    std::apply([&](const auto&... d) { ((untyped[idx++] = &d.untyped), ...); },
               deps_);
    return untyped;
  }

  /// Builds and submits the sub-launch of device shard `i`, then hands it
  /// to the pipeline's run stage.
  template <class Fn, class Views>
  void run_device_shard(detail::submit_pipeline& pipe, Fn& fn, Views& views,
                        const std::array<data_place, sizeof...(Deps)>& resolved,
                        const int* devices, std::size_t n_devices,
                        std::size_t i, const event_list& ready,
                        event_list& done, detail::resilient_result* rr) {
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
    detail::add_all_traffic(k, resolved, deps_, f0, f1, devices[i], seq);
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
    pipe.run_shard(devices[i], ready, payload, done, rr);
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
