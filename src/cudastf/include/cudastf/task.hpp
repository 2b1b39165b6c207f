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
    // the context lock (DESIGN.md §11).
    std::lock_guard lock(st_->mu);
    const auto untyped = detail::untyped_deps(deps_);
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
    pipe.place(where_);
    hooks_t<std::remove_reference_t<Fn>> h(pipe, *st_, deps_, fn);
    pipe.execute(h);
  }

 private:
  /// Pipeline hooks: the shared typed acquire/release plus the task body.
  template <class Fn>
  struct hooks_t final : detail::typed_hooks<Deps...> {
    Fn* fn;

    hooks_t(detail::submit_pipeline& pipe_, context_state& st_,
            std::tuple<Deps...>& deps_, Fn& fn_)
        : detail::typed_hooks<Deps...>(pipe_, st_, deps_), fn(&fn_) {}

    void run(int device, std::size_t, std::size_t, const event_list& ready,
             event_list& done) override {
      // The body runs synchronously inside the backend submission, so the
      // payload may reference the builder-frame callable by pointer.
      auto payload = [f = fn,
                      views = this->views()](cudasim::stream& s) mutable {
        std::apply([&](auto&... v) { (*f)(s, v...); }, views);
      };
      this->pipe.run_shard(device, ready, payload, done);
    }
  };

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
    const auto untyped = detail::untyped_deps(deps_);
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
    hooks_t<std::remove_reference_t<Fn>> h(pipe, *st_, deps_, fn, cost_);
    pipe.execute(h);
  }

 private:
  /// Pipeline hooks: the shared typed acquire/release plus the host
  /// callback. Host tasks gather their inputs to the host (the grid {-1});
  /// device-to-host copies remain allowed even from a failed device
  /// (evacuation grace), so a device loss rarely reaches their acquire.
  template <class Fn>
  struct hooks_t final : detail::typed_hooks<Deps...> {
    Fn* fn;
    double cost;

    hooks_t(detail::submit_pipeline& pipe_, context_state& st_,
            std::tuple<Deps...>& deps_, Fn& fn_, double cost_)
        : detail::typed_hooks<Deps...>(pipe_, st_, deps_), fn(&fn_),
          cost(cost_) {}

    void run(int, std::size_t, std::size_t, const event_list& ready,
             event_list& done) override {
      cudasim::platform* plat = this->st.plat;
      // The host callback fires at DES drain time, long after the builder
      // frame is gone: it must own a copy of the callable.
      auto payload = [g = *fn, views = this->views(), plat,
                      c = cost](cudasim::stream& s) mutable {
        plat->launch_host_func(
            s,
            [g, views]() mutable {
              std::apply([&](auto&... v) { g(v...); }, views);
            },
            c);
      };
      this->pipe.run_shard(0, ready, payload, done);
    }
  };

  std::shared_ptr<context_state> st_;
  std::tuple<Deps...> deps_;
  std::string symbol_ = "host";
  double cost_ = 0.0;
};

}  // namespace cudastf
