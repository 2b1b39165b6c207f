// The staged submission pipeline (DESIGN.md §13): shared drivers behind
// every construct. The bodies below are the former per-builder lowering of
// task.hpp / parallel_for.hpp / launch.hpp, unified — each engine attaches
// at exactly one stage here instead of being re-inlined per builder.
#include <cstdlib>
#include <exception>
#include <fstream>
#include <new>
#include <optional>
#include <sstream>

#include "cudastf/checkpoint.hpp"
#include "cudastf/deadline.hpp"
#include "cudastf/integrity.hpp"
#include "cudastf/submit.hpp"

namespace cudastf {

std::string_view op_kind_name(op_kind k) {
  switch (k) {
    case op_kind::task:
      return "task";
    case op_kind::parallel_for:
      return "parallel_for";
    case op_kind::launch:
      return "launch";
    case op_kind::host:
      return "host";
  }
  return "?";
}

namespace {

std::string place_str(const data_place& p) {
  switch (p.type()) {
    case data_place::kind::affine:
      return "affine";
    case data_place::kind::host:
      return "host";
    case data_place::kind::device:
      return "dev" + std::to_string(p.device_index());
    case data_place::kind::composite: {
      std::string s = "composite{";
      const auto& devs = p.composite_info().devices;
      for (std::size_t i = 0; i < devs.size(); ++i) {
        if (i > 0) {
          s += ',';
        }
        s += std::to_string(devs[i]);
      }
      s += '}';
      return s;
    }
  }
  return "?";
}

std::string_view mode_str(access_mode m) {
  switch (m) {
    case access_mode::read:
      return "r";
    case access_mode::write:
      return "w";
    case access_mode::rw:
      return "rw";
  }
  return "?";
}

/// Escapes a string for use inside a double-quoted DOT attribute.
std::string dot_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

// --- dot_exporter ---

void dot_exporter::add_edge(std::uint64_t from, std::uint64_t to,
                            std::string label, bool poison) {
  if (from == to) {
    return;
  }
  const std::uint64_t key =
      (from << 32) | (to & 0xffffffffull) | (poison ? 1ull << 63 : 0);
  if (!edge_seen_.insert(key).second) {
    return;
  }
  edges_.push_back({from, to, std::move(label), poison});
}

void dot_exporter::on_op(const op_record& rec) {
  // Data-dependency edges against the last writer / readers-since-write of
  // each dependency (RAW and WAR; WAW folds into RAW via the writer map).
  for (const op_dep_record& d : rec.deps) {
    if (d.data_id == 0) {
      continue;
    }
    if (mode_reads(d.mode)) {
      auto w = writer_.find(d.data_id);
      if (w != writer_.end()) {
        add_edge(w->second, rec.id, d.data, false);
      }
    }
    if (mode_writes(d.mode)) {
      auto w = writer_.find(d.data_id);
      if (w != writer_.end()) {
        add_edge(w->second, rec.id, d.data, false);
      }
      auto r = readers_.find(d.data_id);
      if (r != readers_.end()) {
        for (std::uint64_t reader : r->second) {
          add_edge(reader, rec.id, d.data, false);
        }
      }
    }
  }
  // Cause-chain poison edges: the op whose recorded failure poisoned an
  // input of this (cancelled) op.
  for (std::uint64_t cause : rec.cause_ids) {
    auto it = failure_op_.find(cause);
    if (it != failure_op_.end()) {
      add_edge(it->second, rec.id, "poison", true);
    }
  }
  // State updates after edge generation, so an rw dep orders against the
  // previous writer, not itself.
  for (const op_dep_record& d : rec.deps) {
    if (d.data_id == 0) {
      continue;
    }
    if (mode_writes(d.mode)) {
      writer_[d.data_id] = rec.id;
      readers_[d.data_id].clear();
    }
    if (mode_reads(d.mode) && !mode_writes(d.mode)) {
      readers_[d.data_id].push_back(rec.id);
    }
  }
  if (rec.failure_id != 0) {
    failure_op_[rec.failure_id] = rec.id;
  }
  ops_.push_back(rec);
}

std::string dot_exporter::render() const {
  std::ostringstream out;
  out << "digraph cudastf {\n";
  out << "  rankdir=LR;\n";
  out << "  node [shape=box, style=\"rounded,filled\", fillcolor=white, "
         "fontname=\"Helvetica\"];\n";
  for (const op_record& op : ops_) {
    std::string label(op_kind_name(op.kind));
    label += ": " + op.symbol;
    if (!op.devices.empty()) {
      label += "\n@";
      for (std::size_t i = 0; i < op.devices.size(); ++i) {
        if (i > 0) {
          label += ',';
        }
        label += op.devices[i] < 0 ? std::string("host")
                                   : "dev" + std::to_string(op.devices[i]);
      }
    }
    for (const op_dep_record& d : op.deps) {
      label += "\n" + d.data + "(" + std::string(mode_str(d.mode)) + "@" +
               place_str(d.place) + ")";
    }
    if (op.status == op_status::failed) {
      label += "\nFAILED: ";
      label += failure_kind_name(op.fail);
    } else if (op.status == op_status::cancelled) {
      label += "\ncancelled";
    }
    out << "  op" << op.id << " [label=\"" << dot_escape(label) << "\"";
    if (op.status == op_status::failed) {
      out << ", fillcolor=lightcoral";
    } else if (op.status == op_status::cancelled) {
      out << ", fillcolor=lightgray";
    }
    out << "];\n";
  }
  for (const edge& e : edges_) {
    out << "  op" << e.from << " -> op" << e.to << " [label=\""
        << dot_escape(e.label) << "\"";
    if (e.poison) {
      out << ", color=red, style=dashed";
    }
    out << "];\n";
  }
  out << "}\n";
  return out.str();
}

bool dot_exporter::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  f << render();
  return static_cast<bool>(f);
}

namespace detail {

// --- pipeline construction / observation ---

submit_pipeline::submit_pipeline(context_state& st, const op_desc& op)
    : st_(st), op_(op) {
  if (!st.observers.empty()) [[unlikely]] {
    begin_record();
  }
}

submit_pipeline::~submit_pipeline() = default;

void submit_pipeline::begin_record() {
  rec_ = std::make_unique<op_record>();
  rec_->id = st_.next_op_id++;
  rec_->kind = op_.kind;
  rec_->symbol = *op_.symbol;
  rec_->deps.reserve(op_.n_deps);
  for (std::size_t i = 0; i < op_.n_deps; ++i) {
    const task_dep_untyped& d = *op_.deps[i];
    op_dep_record r;
    if (d.data != nullptr) {
      r.data = d.data->name();
      r.data_id = reinterpret_cast<std::uint64_t>(d.data.get());
    }
    r.mode = d.mode;
    r.place = d.place;
    rec_->deps.push_back(std::move(r));
  }
}

void submit_pipeline::emit(op_status status, failure_kind fk,
                           std::uint64_t fail_id, const int* devices,
                           std::size_t ndev,
                           std::vector<std::uint64_t> causes) {
  if (rec_ == nullptr) {
    return;
  }
  rec_->status = status;
  rec_->fail = fk;
  rec_->failure_id = fail_id;
  rec_->cause_ids = std::move(causes);
  if (devices != nullptr && ndev > 0) {
    rec_->devices.assign(devices, devices + ndev);
  }
  if (status == op_status::ok && resolved_ != nullptr) {
    for (std::size_t i = 0; i < rec_->deps.size(); ++i) {
      rec_->deps[i].place = resolved_[i];
    }
  }
  const std::unique_ptr<op_record> rec = std::move(rec_);  // emit once
  for (submit_observer* o : st_.observers) {
    o->on_op(*rec);
  }
}

// --- admission stage ---

void submit_pipeline::stage_admission(std::function<void()> requeue) {
  if (op_.deadline > 0.0) [[unlikely]] {
    st_.ensure_dl();  // op-armed deadline on a so-far-disarmed context
  }
  if (st_.dl != nullptr) [[unlikely]] {
    // Backpressure gate first — before anything is acquired or logged —
    // then keep the requeue closure for the deadline retry rung.
    detail::admit(st_, op_.deps, op_.n_deps, op_.shed);
    requeue_ = requeue;
  }
  if (st_.ckpt != nullptr) [[unlikely]] {
    record_to_log(std::move(requeue));
  }
}

void submit_pipeline::record_to_log(std::function<void()> requeue) {
  // Null requeue: a move-only body that cannot be replayed — it falls back
  // to poison-and-cancel on permanent failure, like before.
  if (!requeue || st_.ckpt->replaying()) {
    return;
  }
  st_.ckpt->record(std::move(requeue));
}

// --- per-construct policy ---

/// What differs per construct in the round loop — an internal table, not a
/// user option. One row per op_kind, plus one for parallel_for on the host
/// place, which shares its kind (and its op_record) with the device one.
struct op_policy {
  bool grid;       ///< plans a device grid each round (plan/bind); else the
                   ///< op runs on the placement device (-1: the host)
  bool reroutes;   ///< a lost device re-routes the op onto the survivors
  bool ordered;    ///< the declared-ordering wait/record applies
  bool records;    ///< a failure that is not escalated records + poisons;
                   ///< else the op only unpins and emits before rethrowing
  bool escalates;  ///< on the fault-aware path a typed failure re-routes or
                   ///< escalates (restart/poison) instead of rethrowing
  bool resubmits;  ///< the deadline retry rung may resubmit the op
};

namespace {

constexpr op_policy kPolicy[] = {
    /* task */
    {.grid = false, .reroutes = true, .ordered = true, .records = true,
     .escalates = true, .resubmits = true},
    /* parallel_for */
    {.grid = true, .reroutes = true, .ordered = false, .records = false,
     .escalates = true, .resubmits = true},
    /* launch */
    {.grid = true, .reroutes = true, .ordered = false, .records = false,
     .escalates = true, .resubmits = true},
    /* host (host_launch) */
    {.grid = false, .reroutes = false, .ordered = true, .records = true,
     .escalates = true, .resubmits = false},
    /* parallel_for on the host place */
    {.grid = false, .reroutes = false, .ordered = false, .records = false,
     .escalates = false, .resubmits = false},
};

const op_policy& policy_of(const op_desc& op) {
  if (op.kind == op_kind::parallel_for &&
      op.channel == backend_iface::channel::host) {
    return kPolicy[4];
  }
  return kPolicy[static_cast<std::size_t>(op.kind)];
}

}  // namespace

// --- placement stage ---

void submit_pipeline::place(const exec_place& where) {
  switch (where.type()) {
    case exec_place::kind::device:
      device_ = where.device_index();
      return;
    case exec_place::kind::automatic:
      device_ = pick_heft_device(st_, op_.deps, op_.n_deps);
      return;
    default:
      device_ = st_.plat->current_device();
      return;
  }
}

// --- shared stage helpers ---

bool submit_pipeline::wants_verified() const {
  // Dual-execution verification applies to plain tasks only; structured
  // constructs and host tasks never re-execute.
  return op_.kind == op_kind::task && st_.integ != nullptr &&
         (op_.verified || st_.integ->cfg.verify_all_tasks);
}

void submit_pipeline::merge_order(event_list& ready) {
  if (!st_.order_edges.empty()) [[unlikely]] {
    st_.events_pruned += ready.merge(st_.order_wait(*op_.symbol));
  }
}

bool submit_pipeline::cancelled() {
  std::vector<std::uint64_t> causes;
  if (rec_ != nullptr) [[unlikely]] {
    // Collect the upstream failure ids before the cancel consumes them
    // into the error report's cause chain.
    for (std::size_t i = 0; i < op_.n_deps; ++i) {
      const auto& d = op_.deps[i]->data;
      if (d == nullptr || d->poisoned_by == 0) {
        continue;
      }
      bool seen = false;
      for (std::uint64_t c : causes) {
        seen = seen || c == d->poisoned_by;
      }
      if (!seen) {
        causes.push_back(d->poisoned_by);
      }
    }
  }
  if (!detail::cancel_if_poisoned(st_, op_.deps, op_.n_deps, *op_.symbol)) {
    return false;
  }
  emit(op_status::cancelled, failure_kind::cancelled, 0, nullptr, 0,
       std::move(causes));
  return true;
}

void submit_pipeline::finish(op_hooks& h, const op_policy& pol,
                             const event_list& done, const int* devices,
                             std::size_t ndev) {
  h.release(done);
  if (pol.ordered && !st_.order_edges.empty()) [[unlikely]] {
    st_.order_record(*op_.symbol, done);
  }
  if (st_.dl != nullptr) [[unlikely]] {
    // Host ops skip the retry rung (resubmit = null), escalating straight
    // to restart/poison like a move-only body.
    detail::track_submission(st_, done, *op_.symbol, devices[0], op_.deadline,
                             op_.deps, op_.n_deps,
                             pol.resubmits ? std::move(requeue_)
                                           : std::function<void()>{});
  }
  emit(op_status::ok, failure_kind::submission_exception, 0, devices, ndev,
       {});
}

// --- failure recording ---

void submit_pipeline::hard_failure(failure_kind kind, int device, int attempts,
                                   const char* what) {
  const std::uint64_t id = detail::fail_task(
      st_, op_.deps, op_.n_deps, *op_.symbol, kind, device, attempts, what);
  emit(op_status::failed, kind, id, &device, 1, {});
}

void submit_pipeline::escalate(failure_kind kind, int device, int attempts,
                               const char* what) {
  const std::uint64_t id = detail::fail_task_or_restart(
      st_, op_.deps, op_.n_deps, *op_.symbol, kind, device, attempts, what);
  emit(op_status::failed, kind, id, &device, 1, {});
}

// --- run stage ---

void submit_pipeline::run_shard(int device, const event_list& ready,
                                const std::function<void(cudasim::stream&)>&
                                    payload,
                                event_list& done) {
  if (wants_verified()) [[unlikely]] {
    done.merge(detail::run_verified(st_, device, ready, payload, *op_.symbol,
                                    op_.deps, op_.n_deps, resolved_));
    return;
  }
  if (!aware_) {
    done.add(st_.backend->run(device, op_.channel, ready, payload,
                              *op_.symbol));
    return;
  }
  shard_ = detail::run_resilient(st_, device, op_.channel, ready, payload,
                                 *op_.symbol);
  if (shard_.status == cudasim::sim_status::success) {
    done.add(shard_.ev);
  }
}

// --- the round loop ---

void submit_pipeline::execute(op_hooks& h) {
  const op_policy& pol = policy_of(op_);
  aware_ = st_.fault_aware();
  resolved_ = h.resolved;
  if (aware_ && cancelled()) {
    return;
  }
  std::vector<int> grid;
  int single = device_;  // the one-device grid of a task or host op
  for (int round = 0;; ++round) {
    if (pol.grid) {
      grid = h.plan();
    }
    int* devs = pol.grid ? grid.data() : &single;
    std::size_t n = pol.grid ? grid.size() : 1;
    if (aware_) {
      try {
        if (filter_blacklisted(st_, devs, n)) {
          ++st_.report.tasks_rerouted;
        }
      } catch (const device_lost_error& e) {
        escalate(failure_kind::device_lost, e.device, round + 1,
                 "no surviving device to re-route to");
        return;
      }
    }
    if (pol.grid) {
      grid.resize(n);
      h.bind(grid);
    }
    msi_snapshot snap;
    if (aware_) {
      snap.capture(op_.deps, op_.n_deps);
    }
    event_list done;
    std::size_t shard = 0;
    try {
      event_list ready = h.acquire(devs[0]);
      if (pol.ordered) {
        merge_order(ready);
      }
      // Declare the written byte ranges while the shards are in flight so
      // an armed kernel_output flip corrupts genuine output (§10).
      std::optional<output_hint_guard> hints;
      if (aware_) {
        hints.emplace(st_, op_.deps, op_.n_deps, resolved_);
      }
      for (; shard < n; ++shard) {
        shard_.status = cudasim::sim_status::success;
        h.run(devs[shard], shard, n, ready, done);
        if (shard_.status != cudasim::sim_status::success) [[unlikely]] {
          break;
        }
      }
    } catch (...) {
      if (fail_round(pol, round, std::current_exception(), devs[0], snap,
                     done, devs, n)) {
        continue;
      }
      return;
    }
    if (shard < n) [[unlikely]] {
      if (fail_round(pol, round, nullptr, devs[shard], snap, done, devs, n)) {
        continue;
      }
      return;
    }
    finish(h, pol, done, devs, n);
    // The disarmed fast path (ctx.fast_path_submits()): a task with no
    // engine armed and no observer attached.
    if (!aware_ && op_.kind == op_kind::task && st_.ckpt == nullptr &&
        st_.integ == nullptr && st_.dl == nullptr &&
        st_.order_edges.empty() && st_.observers.empty()) {
      ++st_.fast_submits;
    }
    return;
  }
}

bool submit_pipeline::fail_round(const op_policy& pol, int round,
                                 std::exception_ptr ex, int device,
                                 const msi_snapshot& snap, event_list& done,
                                 const int* devs, std::size_t n) {
  // Classify: a failed shard status (fault-aware path only) or the
  // exception a stage threw. Typed failures are the ones the fault-aware
  // path absorbs by re-routing or escalating.
  failure_kind kind = failure_kind::submission_exception;
  int attempts = round + 1;
  std::string what;
  bool typed = true;
  bool partial = false;
  if (ex == nullptr) {
    kind = kind_of(shard_.status);
    attempts = shard_.attempts + round;
    what = cudasim::status_name(shard_.status);
    partial = shard_.partial;
  } else {
    try {
      std::rethrow_exception(ex);
    } catch (const device_lost_error& e) {
      kind = failure_kind::device_lost;
      device = e.device;
      what = "device lost during data acquire";
    } catch (const transfer_error& e) {
      kind = failure_kind::link_error;
      what = e.what();
    } catch (const corruption_error& e) {
      // Checksum mismatch with no valid replica (integrity engine, §10).
      kind = failure_kind::data_corrupted;
      device = e.device;
      what = e.what();
    } catch (const std::bad_alloc& e) {
      kind = failure_kind::out_of_memory;
      what = e.what();
    } catch (const std::exception& e) {
      typed = false;
      what = e.what();
    } catch (...) {
      typed = false;
      what = "non-standard exception";
    }
  }
  // Work already submitted (earlier shards, a partial prefix) still
  // references the instances: its events gate their deferred destruction
  // and order any retry's copies after it.
  if (partial) {
    done.add(std::move(shard_.ev));
  }
  if (!done.empty()) {
    guard_partial(op_.deps, op_.n_deps, resolved_, done);
  }
  // Restore *before* quarantining so evacuation sees the true pre-acquire
  // coherency states; a failed submission never reaches release, which
  // normally unpins.
  snap.restore();
  unpin_deps(op_.deps, op_.n_deps);
  const bool lost = kind == failure_kind::device_lost;
  if (lost) {
    st_.blacklist_device(device);
  }
  // A failed shard status has nothing to rethrow: it always recovers.
  if (ex == nullptr || (aware_ && typed && pol.escalates)) {
    if (lost && !partial && pol.reroutes &&
        round < st_.plat->device_count()) {
      return true;  // re-routed at the top of the next round
    }
    escalate(kind, device, attempts, what.c_str());
    return false;
  }
  if (pol.records) {
    hard_failure(kind, device, attempts, what.c_str());
  } else {
    emit(op_status::failed, kind, 0, devs, n, {});
  }
  std::rethrow_exception(ex);
}

// --- CUDASTF_DOT_FILE ---

void arm_env_dot(context_state& st) {
  const char* path = std::getenv("CUDASTF_DOT_FILE");
  if (path == nullptr || *path == '\0') {
    return;
  }
  st.dot = std::make_unique<dot_exporter>();
  st.dot->set_auto_path(path);
  st.observers.push_back(st.dot.get());
}

void flush_env_dot(context_state& st) {
  if (st.dot != nullptr && !st.dot->auto_path().empty()) {
    st.dot->write(st.dot->auto_path());
  }
}

}  // namespace detail

}  // namespace cudastf
