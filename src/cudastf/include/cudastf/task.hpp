// Task construction (§II-B): ctx.task(deps...)->*body submits one unit of
// asynchronous work whose ordering is inferred from the logical data it
// accesses. The body receives a stream to enqueue work on plus one typed
// view per dependency.
//
// Builders only *lower*: they reduce the typed dependency tuple to an
// op_desc plus a hooks struct (acquire / run / release over the typed
// views) and drive the shared staged pipeline in submit.{hpp,cpp}
// (DESIGN.md §13). Engine logic — checkpoint logging, overload admission,
// poison-cancel, retry/re-route, integrity verification, deadline
// tracking — lives in the pipeline, not here.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "cudastf/context_state.hpp"
#include "cudastf/logical_data.hpp"
#include "cudastf/places.hpp"
#include "cudastf/submit.hpp"

namespace cudastf::detail {

/// Acquires every dependency, returning the merged readiness list and the
/// resolved per-dependency places (Algorithm 2 applied per dependency).
template <class... Deps, std::size_t... I>
event_list acquire_all(context_state& st, int exec_device,
                       std::array<data_place, sizeof...(Deps)>& resolved,
                       const std::tuple<Deps...>& deps,
                       std::index_sequence<I...>) {
  event_list ready;
  ((resolved[I] = resolve_place(std::get<I>(deps).untyped.place, exec_device),
    st.events_pruned +=
    ready.merge(acquire_dep(st, std::get<I>(deps).untyped, resolved[I]))),
   ...);
  return ready;
}

template <class... Deps, std::size_t... I>
void release_all(context_state& st,
                 const std::array<data_place, sizeof...(Deps)>& resolved,
                 const std::tuple<Deps...>& deps, const event_list& done,
                 std::index_sequence<I...>) {
  (release_dep(st, std::get<I>(deps).untyped, resolved[I], done), ...);
}

/// Builds the tuple of typed views over the acquired instances.
template <class... Deps, std::size_t... I>
auto make_views(const std::array<data_place, sizeof...(Deps)>& resolved,
                const std::tuple<Deps...>& deps, std::index_sequence<I...>) {
  return std::make_tuple(std::get<I>(deps).make_view(
      std::get<I>(deps).untyped.data->find_instance(resolved[I])->ptr)...);
}

}  // namespace cudastf::detail

namespace cudastf {

/// Builder returned by ctx.task(...). The task body is attached with the
/// ->* operator and submitted immediately (asynchronously).
template <class... Deps>
class [[nodiscard]] task_builder {
 public:
  task_builder(std::shared_ptr<context_state> st, exec_place where,
               Deps... deps)
      : st_(std::move(st)), where_(std::move(where)),
        deps_(std::move(deps)...) {}

  /// Names the task (shown in summaries; feeds graph memoization).
  task_builder&& set_symbol(std::string s) && {
    symbol_ = std::move(s);
    return std::move(*this);
  }

  /// Marks the task for dual-execution verification (integrity engine,
  /// DESIGN.md §10): the body runs twice from the same pre-state and the
  /// result is accepted only when both executions agree on every written
  /// dependency's bytes — a third run votes on disagreement, and no
  /// majority escalates as data corruption. Requires an armed integrity
  /// engine (ctx.integrity_options()); a no-op otherwise.
  task_builder&& verified() && {
    verified_ = true;
    return std::move(*this);
  }

  /// Arms a per-task deadline in virtual seconds (hang recovery,
  /// DESIGN.md §12): if the task has not completed this long after
  /// submission, the monitor cancels the wedged operation and escalates
  /// (retry in place -> quarantine -> epoch restart -> poison-cancel).
  /// Creates the context's deadline monitor on first use.
  task_builder&& deadline(double seconds) && {
    deadline_ = seconds;
    return std::move(*this);
  }

  /// Shed instead of block at a full admission window (ctx.try_task()):
  /// the submission throws overload_error without acquiring anything.
  task_builder&& shed_on_overload() && {
    shed_ = true;
    return std::move(*this);
  }

  /// Submits the task. `fn` receives (stream&, views...).
  template <class Fn>
  void operator->*(Fn&& fn) && {
    if (where_.is_grid()) {
      throw std::logic_error(
          "cudastf: plain task() does not span device grids; use "
          "parallel_for or launch");
    }
    if (where_.is_host()) {
      throw std::logic_error(
          "cudastf: use ctx.host_launch() for host-side tasks");
    }
    // Every submission, from any thread, runs the one pipeline path under
    // the context mutex (DESIGN.md §11).
    std::lock_guard lock(st_->mu);
    const auto untyped = make_untyped();
    op_desc op;
    op.kind = op_kind::task;
    op.symbol = &symbol_;
    op.deps = untyped.data();
    op.n_deps = untyped.size();
    op.deadline = deadline_;
    op.verified = verified_;
    op.shed = shed_;
    detail::submit_pipeline pipe(*st_, op);
    pipe.stage_admission(pipe.needs_requeue()
                             ? detail::make_requeue(*this, fn)
                             : std::function<void()>{});
    const int device = pipe.choose_device(where_);
    std::array<data_place, sizeof...(Deps)> resolved;
    hooks_t<std::remove_reference_t<Fn>> h(*this, pipe, resolved, fn);
    pipe.execute_task(h, device);
  }

 private:
  /// Pipeline hooks closing over this builder's typed dependency tuple.
  template <class Fn>
  struct hooks_t final : detail::op_hooks {
    task_builder& b;
    detail::submit_pipeline& pipe;
    std::array<data_place, sizeof...(Deps)>& res;
    Fn* fn;

    hooks_t(task_builder& b_, detail::submit_pipeline& pipe_,
            std::array<data_place, sizeof...(Deps)>& res_, Fn& fn_)
        : b(b_), pipe(pipe_), res(res_), fn(&fn_) {
      resolved = res.data();
    }

    event_list acquire(int lead_device) override {
      return detail::acquire_all(*b.st_, lead_device, res, b.deps_,
                                 std::index_sequence_for<Deps...>{});
    }

    void run(const int* devices, std::size_t, const event_list& ready,
             event_list& done, detail::resilient_result* rr, int*) override {
      auto views = detail::make_views(res, b.deps_,
                                      std::index_sequence_for<Deps...>{});
      // The body runs synchronously inside the backend submission, so the
      // payload may reference the builder-frame callable by pointer.
      auto payload = [f = fn, views](cudasim::stream& s) mutable {
        std::apply([&](auto&... v) { (*f)(s, v...); }, views);
      };
      pipe.run_shard(devices[0], ready, payload, done, rr);
    }

    void release(const event_list& done) override {
      detail::release_all(*b.st_, res, b.deps_, done,
                          std::index_sequence_for<Deps...>{});
    }
  };

  std::array<const task_dep_untyped*, sizeof...(Deps)> make_untyped() const {
    std::array<const task_dep_untyped*, sizeof...(Deps)> untyped{};
    std::size_t idx = 0;
    std::apply([&](const auto&... d) { ((untyped[idx++] = &d.untyped), ...); },
               deps_);
    return untyped;
  }

  std::shared_ptr<context_state> st_;
  exec_place where_;
  std::tuple<Deps...> deps_;
  std::string symbol_ = "task";
  bool verified_ = false;  ///< dual-execution voting requested (.verified())
  double deadline_ = 0.0;  ///< per-task deadline, virtual seconds (0 = none)
  bool shed_ = false;      ///< shed instead of block at a full window
};

/// Builder for host tasks (CPU-bound work integrated in the DAG, e.g. the
/// miniWeather NetCDF output task). The body receives the typed views only;
/// it runs on the host once its dependencies are satisfied.
template <class... Deps>
class [[nodiscard]] host_launch_builder {
 public:
  host_launch_builder(std::shared_ptr<context_state> st, Deps... deps)
      : st_(std::move(st)), deps_(std::move(deps)...) {}

  host_launch_builder&& set_symbol(std::string s) && {
    symbol_ = std::move(s);
    return std::move(*this);
  }

  /// Modelled host execution time (the simulated cost of the callback).
  host_launch_builder&& set_host_cost(double seconds) && {
    cost_ = seconds;
    return std::move(*this);
  }

  template <class Fn>
  void operator->*(Fn&& fn) && {
    std::lock_guard lock(st_->mu);
    const auto untyped = make_untyped();
    op_desc op;
    op.kind = op_kind::host;
    op.symbol = &symbol_;
    op.deps = untyped.data();
    op.n_deps = untyped.size();
    op.channel = backend_iface::channel::host;
    detail::submit_pipeline pipe(*st_, op);
    pipe.stage_admission(pipe.needs_requeue()
                             ? detail::make_requeue(*this, fn)
                             : std::function<void()>{});
    std::array<data_place, sizeof...(Deps)> resolved;
    hooks_t<std::remove_reference_t<Fn>> h(*this, pipe, resolved, fn);
    pipe.execute_host_task(h);
  }

 private:
  template <class Fn>
  struct hooks_t final : detail::op_hooks {
    host_launch_builder& b;
    detail::submit_pipeline& pipe;
    std::array<data_place, sizeof...(Deps)>& res;
    Fn* fn;

    hooks_t(host_launch_builder& b_, detail::submit_pipeline& pipe_,
            std::array<data_place, sizeof...(Deps)>& res_, Fn& fn_)
        : b(b_), pipe(pipe_), res(res_), fn(&fn_) {
      resolved = res.data();
    }

    event_list acquire(int) override {
      // Host tasks gather their inputs to the host; device-to-host copies
      // remain allowed even from a failed device (evacuation grace), so a
      // device loss rarely reaches this acquire.
      return detail::acquire_all(*b.st_, -1, res, b.deps_,
                                 std::index_sequence_for<Deps...>{});
    }

    void run(const int*, std::size_t, const event_list& ready,
             event_list& done, detail::resilient_result* rr, int*) override {
      auto views = detail::make_views(res, b.deps_,
                                      std::index_sequence_for<Deps...>{});
      cudasim::platform* plat = b.st_->plat;
      const double cost = b.cost_;
      // The host callback fires at DES drain time, long after the builder
      // frame is gone: it must own a copy of the callable.
      auto payload = [g = *fn, views, plat, cost](cudasim::stream& s) mutable {
        plat->launch_host_func(
            s,
            [g, views]() mutable {
              std::apply([&](auto&... v) { g(v...); }, views);
            },
            cost);
      };
      pipe.run_shard(0, ready, payload, done, rr);
    }

    void release(const event_list& done) override {
      detail::release_all(*b.st_, res, b.deps_, done,
                          std::index_sequence_for<Deps...>{});
    }
  };

  std::array<const task_dep_untyped*, sizeof...(Deps)> make_untyped() const {
    std::array<const task_dep_untyped*, sizeof...(Deps)> untyped{};
    std::size_t idx = 0;
    std::apply([&](const auto&... d) { ((untyped[idx++] = &d.untyped), ...); },
               deps_);
    return untyped;
  }

  std::shared_ptr<context_state> st_;
  std::tuple<Deps...> deps_;
  std::string symbol_ = "host";
  double cost_ = 0.0;
};

}  // namespace cudastf
