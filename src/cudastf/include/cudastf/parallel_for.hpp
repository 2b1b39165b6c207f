// ctx.parallel_for(shape, deps...)->*body (§V, Fig. 4): executes the body
// once per shape coordinate as a generated kernel. On a grid execution
// place the shape is split across devices with a blocked partition and
// affine data moves to a composite data place (§VI), so the same body runs
// unchanged on one or many devices.
//
// Like task.hpp, this builder only lowers: op_desc + hooks into the staged
// pipeline (submit.{hpp,cpp}, DESIGN.md §13). The construct-specific parts
// kept here are the shape partitioning, the kernel cost model and the
// generated kernel bodies.
#pragma once

#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "cudastf/context_state.hpp"
#include "cudastf/logical_data.hpp"
#include "cudastf/partition.hpp"
#include "cudastf/task.hpp"

namespace cudastf::detail {

/// The context-wide blocked partitioner used for default composite places
/// (shared so equal composite places compare equal across tasks, §VI-C).
std::shared_ptr<const partitioner> default_partitioner();

/// Adds the traffic of one dependency's byte range [b0, b1) (fractions of
/// the instance) to a kernel descriptor as local/remote/host bytes from the
/// perspective of `device`.
void add_dep_traffic(cudasim::kernel_desc& k, const task_dep_untyped& dep,
                     const data_place& resolved, double frac0, double frac1,
                     int device);

template <class... Deps, std::size_t... I>
void add_all_traffic(cudasim::kernel_desc& k,
                     const std::array<data_place, sizeof...(Deps)>& resolved,
                     const std::tuple<Deps...>& deps, double f0, double f1,
                     int device, std::index_sequence<I...>) {
  (add_dep_traffic(k, std::get<I>(deps).untyped, resolved[I], f0, f1, device),
   ...);
}

template <int R, class Fn, class Views, std::size_t... CI, std::size_t... VI>
void invoke_elem(Fn& fn, const std::array<std::size_t, R>& c, Views& views,
                 std::index_sequence<CI...>, std::index_sequence<VI...>) {
  fn(c[CI]..., std::get<VI>(views)...);
}

}  // namespace cudastf::detail

namespace cudastf {

template <int R, class... Deps>
class [[nodiscard]] parallel_for_builder {
 public:
  parallel_for_builder(std::shared_ptr<context_state> st, exec_place where,
                       box<R> shape, Deps... deps)
      : st_(std::move(st)), where_(std::move(where)), shape_(shape),
        deps_(std::move(deps)...) {}

  parallel_for_builder&& set_symbol(std::string s) && {
    symbol_ = std::move(s);
    return std::move(*this);
  }
  /// Overrides the cost model: FLOPs charged per shape element.
  parallel_for_builder&& set_flops_per_element(double f) && {
    flops_per_elem_ = f;
    return std::move(*this);
  }
  /// Overrides the cost model: bytes charged per shape element
  /// (default: the sum of dependency element sizes).
  parallel_for_builder&& set_bytes_per_element(double b) && {
    bytes_per_elem_ = b;
    return std::move(*this);
  }
  /// Arms a virtual-time deadline (seconds) for this submission: if it is
  /// still incomplete past the deadline the wedged op is cancelled and the
  /// hang escalated (DESIGN.md §12).
  parallel_for_builder&& deadline(double seconds) && {
    deadline_ = seconds;
    return std::move(*this);
  }

  template <class Fn>
  void operator->*(Fn&& fn) && {
    std::lock_guard lock(st_->mu);
    const auto untyped = detail::untyped_deps(deps_);
    op_desc op;
    op.kind = op_kind::parallel_for;
    op.symbol = &symbol_;
    op.deps = untyped.data();
    op.n_deps = untyped.size();
    op.deadline = deadline_;
    if (where_.is_host()) {
      op.channel = backend_iface::channel::host;
    }
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
  /// plus one generated kernel (or the host callback) per shard.
  template <class Fn>
  struct hooks_t final : detail::grid_hooks<Deps...> {
    parallel_for_builder& b;
    Fn* fn;

    hooks_t(parallel_for_builder& b_, detail::submit_pipeline& pipe_, Fn& fn_)
        : detail::grid_hooks<Deps...>(pipe_, *b_.st_, b_.deps_, b_.where_),
          b(b_), fn(&fn_) {}

    void run(int device, std::size_t shard, std::size_t n_shards,
             const event_list& ready, event_list& done) override {
      auto views = this->views();
      if (b.where_.is_host()) {
        b.run_host(this->pipe, *fn, views, ready, done);
        return;
      }
      b.run_device_shard(this->pipe, *fn, views, this->res, device, shard,
                         n_shards, ready, done);
    }
  };

  /// Builds and submits the generated kernel of shard `i` of `ndev` on
  /// `device` (blocked partition of the shape, §V-3), then hands it to the
  /// pipeline's run stage.
  template <class Fn, class Views>
  void run_device_shard(detail::submit_pipeline& pipe, Fn& fn, Views& views,
                        const std::array<data_place, sizeof...(Deps)>& resolved,
                        int device, std::size_t i, std::size_t ndev,
                        const event_list& ready, event_list& done) {
    constexpr auto seq = std::index_sequence_for<Deps...>{};
    const std::size_t total = shape_.size();
    const blocked_partitioner blocked;
    const auto span = blocked.assign(total, i, ndev);
    const std::size_t elems = span.end - span.begin;
    if (elems == 0 && ndev > 1) {
      return;  // empty shard of a grid split: nothing to submit
    }
    cudasim::kernel_desc k;
    k.name = symbol_;
    k.flops = static_cast<double>(elems) * flops_per_elem_ / efficiency_;
    if (bytes_per_elem_ >= 0) {
      k.bytes = static_cast<double>(elems) * bytes_per_elem_ / efficiency_;
    } else if (total > 0) {
      const double f0 =
          static_cast<double>(span.begin) / static_cast<double>(total);
      const double f1 =
          static_cast<double>(span.end) / static_cast<double>(total);
      detail::add_all_traffic(k, resolved, deps_, f0, f1, device, seq);
      k.bytes /= efficiency_;
    }
    std::function<void()> body;
    if (st_->compute_payloads) {
      auto shape = shape_;
      // By value: the body runs at drain time, after this frame is gone.
      body = [fn, views, shape, span]() mutable {
        for (std::size_t lin = span.begin; lin < span.end; lin += span.stride) {
          detail::invoke_elem<R>(fn, shape.index_to_coords(lin), views,
                                 std::make_index_sequence<R>{},
                                 std::index_sequence_for<Deps...>{});
        }
      };
    }
    cudasim::platform* plat = st_->plat;
    auto payload = [plat, k, body](cudasim::stream& s) {
      plat->launch_kernel(s, k, body);
    };
    pipe.run_shard(device, ready, payload, done);
  }

  /// Host execution (where_.is_host()): the whole shape runs as one host
  /// callback at drain time.
  template <class Fn, class Views>
  void run_host(detail::submit_pipeline& pipe, Fn& fn, Views& views,
                const event_list& ready, event_list& done) {
    cudasim::platform* plat = st_->plat;
    auto shape = shape_;
    // By value: the callback runs at drain time, after this frame is gone.
    auto payload = [plat, fn, views, shape](cudasim::stream& s) mutable {
      plat->launch_host_func(s, [fn, views, shape]() mutable {
        for (std::size_t lin = 0; lin < shape.size(); ++lin) {
          detail::invoke_elem<R>(fn, shape.index_to_coords(lin), views,
                                 std::make_index_sequence<R>{},
                                 std::index_sequence_for<Deps...>{});
        }
      });
    };
    pipe.run_shard(0, ready, payload, done);
  }

  std::shared_ptr<context_state> st_;
  exec_place where_;
  box<R> shape_;
  std::tuple<Deps...> deps_;
  std::string symbol_ = "parallel_for";
  double deadline_ = 0.0;
  double flops_per_elem_ = 2.0;
  double bytes_per_elem_ = -1.0;
  double efficiency_ = 0.90;  ///< generated kernels vs hand-tuned libraries
};

}  // namespace cudastf
