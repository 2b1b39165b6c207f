// Topology-aware transfer engine (DESIGN.md §6).
//
// Owns every copy the coherence protocol issues: routes each fill to the
// min-cost valid source (link bandwidth x copy-engine occupancy x broadcast
// depth), admits still-filling peers as sources so wide reads fan out as a
// tree, splits large transfers into pipelined chunks, joins duplicate
// requests onto in-flight fills, and stages evictions to peers with pool
// headroom instead of the host round-trip. The protocol in data.cpp decides
// *that* data moves; this file decides *how*.
#include "cudastf/transfer.hpp"

#include <limits>

#include "cudastf/context_state.hpp"
#include "cudastf/data.hpp"
#include "cudastf/error.hpp"
#include "cudastf/recover.hpp"

namespace cudastf {

namespace {

int place_device(const data_place& p) {
  switch (p.type()) {
    case data_place::kind::device:
      return p.device_index();
    case data_place::kind::composite:
      return p.composite_info().devices.front();
    default:
      return -1;  // host
  }
}

/// A copy is lowered as a dual-engine peer copy only between two plain
/// device places on distinct devices; composite (VMM page-mapped) backing
/// keeps the legacy single-engine device_to_device lowering.
bool is_peer_route(const data_instance& src, const data_instance& dst) {
  return src.place.type() == data_place::kind::device &&
         dst.place.type() == data_place::kind::device &&
         src.place.device_index() != dst.place.device_index();
}

struct copy_route {
  cudasim::memcpy_kind kind;
  int run_device;  ///< device whose copy engine leads the transfer
};

copy_route route_copy(const data_place& src, const data_place& dst) {
  const int s = place_device(src);
  const int d = place_device(dst);
  if (s < 0 && d < 0) {
    return {cudasim::memcpy_kind::host_to_host, 0};
  }
  if (s < 0) {
    return {cudasim::memcpy_kind::host_to_device, d};
  }
  if (d < 0) {
    return {cudasim::memcpy_kind::device_to_host, s};
  }
  return {cudasim::memcpy_kind::device_to_device, s};
}

/// True while `inst`'s recorded fill still delivers the current contents
/// and at least one of its segments has not retired in the simulator.
bool fill_in_flight(const logical_data_impl& d, const data_instance& inst) {
  if (!inst.fill_pending || inst.fill_version != d.write_version) {
    return false;
  }
  for (const event& e : inst.fill_chunks) {
    if (e && !e.completed()) {
      return true;
    }
  }
  return false;
}

/// Copy-engine occupancy estimate: planner-issued outbound copies from
/// `device` (-1 = host) not yet observed complete.
///
/// An event only turns complete inside timeline::complete() (cancellation
/// included), which then bumps ops_completed(); so while that counter is
/// unchanged since a bucket's last prune, no entry in it can have retired
/// and its size is exact. Completion is monotonic, so pruning one bucket at
/// a time yields the same count a scan of every outbound copy would. The
/// counter is published after each `done` flag and read with acquire, so
/// the read takes no lock; the caller holds the context lock, and every
/// drain an STF call triggers runs under it too (DESIGN.md §11).
std::size_t outstanding_from(context_state& st, int device) {
  const std::size_t slot = static_cast<std::size_t>(device + 1);
  if (slot >= st.xfer_outbound.size()) {
    return 0;
  }
  context_state::outbound_bucket& b = st.xfer_outbound[slot];
  const std::uint64_t completed = st.plat->ops_completed();
  if (b.pruned_at != completed) {
    std::erase_if(b.copies, [](const event& e) { return e.completed(); });
    b.pruned_at = completed;
  }
  return b.copies.size();
}

/// Modelled seconds for one hop src -> dst at instance granularity.
double link_seconds(context_state& st, int src_dev, int dst_dev,
                    std::size_t bytes) {
  const int model_dev = src_dev >= 0 ? src_dev : (dst_dev >= 0 ? dst_dev : 0);
  const cudasim::device_desc& desc = st.plat->device(model_dev).desc();
  double bw = desc.host_link_bw;
  if (src_dev >= 0 && dst_dev >= 0) {
    bw = src_dev == dst_dev ? desc.hbm_bw : desc.p2p_bw;
  }
  return desc.copy_latency + static_cast<double>(bytes) / bw;
}

/// Number of segments a transfer of `bytes` splits into under `cfg`.
std::size_t plan_chunks(const transfer_config& cfg, std::size_t bytes) {
  if (cfg.chunk_bytes == 0 || bytes <= cfg.chunk_bytes || cfg.max_chunks < 2) {
    return 1;
  }
  const std::size_t want = (bytes + cfg.chunk_bytes - 1) / cfg.chunk_bytes;
  return want < cfg.max_chunks ? want : cfg.max_chunks;
}

/// Submits one copy segment on the transfer channel, absorbing transient
/// faults under the context retry policy. Mirrors run_resilient but throws
/// like the historical issue_copy: device_lost_error for a dead endpoint,
/// transfer_error when retries are exhausted, the status is not transient,
/// or the submission was partial (backend.hpp: a partially-executed payload
/// must never be retried — the prefix would run twice).
event run_transfer_op(context_state& st, int run_dev, const event_list& deps,
                      std::function<void(cudasim::stream&)> payload) {
  if (!st.fault_aware()) {
    return st.backend->run(run_dev, backend_iface::channel::transfer, deps,
                           payload, "transfer");
  }
  run_result rr;
  double backoff = st.retry.backoff_seconds;
  for (int attempt = 1;; ++attempt) {
    event ev = st.backend->run(run_dev, backend_iface::channel::transfer,
                               deps, payload, "transfer", &rr);
    if (rr.status == cudasim::sim_status::success) {
      return ev;
    }
    if (rr.status == cudasim::sim_status::error_device_lost) {
      throw detail::device_lost_error(run_dev);
    }
    if (rr.partial || !cudasim::status_transient(rr.status) ||
        attempt >= st.retry.max_attempts) {
      throw detail::transfer_error(rr.status);
    }
    ++st.report.tasks_retried;
    const double b = backoff;
    backoff *= st.retry.backoff_multiplier;
    cudasim::platform* plat = st.plat;
    std::function<void(cudasim::stream&)> prev = std::move(payload);
    payload = [plat, b, prev = std::move(prev)](cudasim::stream& s) {
      plat->stream_delay(s, b);
      prev(s);
    };
  }
}

}  // namespace

void reset_fill_tracking(data_instance& inst) {
  inst.fill_pending = false;
  inst.fill_version = 0;
  inst.fill_src_device = -2;
  inst.fill_depth = 0;
  inst.fill_ready_cost = 0.0;
  inst.fill_chunks.clear();
}

data_instance* pick_transfer_source(context_state& st, logical_data_impl& d,
                                    const data_instance& dst) {
  const transfer_config& cfg = st.xfer;
  if (!cfg.route_by_cost) {
    return pick_valid_source(d, &dst);
  }
  const int dst_dev = place_device(dst.place);
  const std::size_t bytes = d.bytes();
  data_instance* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& inst : d.instances()) {
    if (inst.get() == &dst || inst->state == msi_state::invalid ||
        !inst->allocated) {
      continue;
    }
    const int src_dev = place_device(inst->place);
    if (src_dev >= 0 && dst_dev >= 0 &&
        (st.device_blacklisted(src_dev) || st.plat->device_failed(src_dev))) {
      continue;  // d2h evacuation off a failed device stays allowed
    }
    const bool chained = fill_in_flight(d, *inst);
    if (chained && !cfg.broadcast_tree) {
      continue;  // trees disabled: only settled copies are admissible
    }
    const double hop = link_seconds(st, src_dev, dst_dev, bytes);
    const double cost =
        hop * (1.0 + static_cast<double>(outstanding_from(st, src_dev))) +
        (chained ? inst->fill_ready_cost : 0.0);
    if (cost < best_cost) {
      best = inst.get();
      best_cost = cost;
    }
  }
  // No scored candidate survived (e.g. every valid copy is a still-filling
  // peer with trees disabled): fall back to the protocol's order so the
  // fill still happens.
  return best != nullptr ? best : pick_valid_source(d, &dst);
}

event_list issue_copy(context_state& st, logical_data_impl& d,
                      data_instance& src, data_instance& dst) {
  const transfer_config& cfg = st.xfer;
  backend_stats& bs = st.backend->mutable_stats();
  const std::size_t bytes = d.bytes();
  const int src_dev = place_device(src.place);
  const int dst_dev = place_device(dst.place);
  const bool peer = is_peer_route(src, dst);
  const copy_route route = route_copy(src.place, dst.place);
  const int run_dev = route.run_device < 0 ? 0 : route.run_device;
  cudasim::platform* plat = st.plat;

  const std::size_t nchunks = plan_chunks(cfg, bytes);
  // Pipelined tree forwarding: when the source's own fill is in flight and
  // split the same way, segment i only waits for the source's segment i —
  // a chain of depth k finishes in T + k*T/nchunks instead of (k+1)*T.
  const bool chainable = fill_in_flight(d, src) &&
                         src.fill_chunks.size() == nchunks && nchunks > 1;
  const bool chained = fill_in_flight(d, src);
  const double ready_cost =
      link_seconds(st, src_dev, dst_dev, bytes) *
          (1.0 + static_cast<double>(outstanding_from(st, src_dev))) +
      (chained ? src.fill_ready_cost : 0.0);

  event_list base_deps;
  base_deps.merge(dst.writer);   // includes dst's allocation event
  base_deps.merge(dst.readers);  // nobody may still read what we overwrite
  if (!chainable) {
    base_deps.merge(src.writer);  // the data must have been produced
  }

  event_list evs;
  std::vector<event> chunk_evs;
  chunk_evs.reserve(nchunks);
  try {
    for (std::size_t i = 0; i < nchunks; ++i) {
      const std::size_t lo = bytes * i / nchunks;
      const std::size_t hi = bytes * (i + 1) / nchunks;
      const std::size_t seg = hi - lo;
      void* to = static_cast<char*>(dst.ptr) + lo;
      const void* from = static_cast<const char*>(src.ptr) + lo;
      event_list deps = base_deps;
      if (chainable) {
        deps.add(src.fill_chunks[i]);
      }
      std::function<void(cudasim::stream&)> payload;
      if (peer) {
        payload = [plat, to, dst_dev, from, src_dev, seg](cudasim::stream& s) {
          plat->memcpy_peer_async(to, dst_dev, from, src_dev, seg, s);
        };
      } else {
        const cudasim::memcpy_kind kind = route.kind;
        payload = [plat, to, from, seg, kind](cudasim::stream& s) {
          plat->memcpy_async(to, from, seg, kind, s);
        };
      }
      const event ev = run_transfer_op(st, run_dev, deps, std::move(payload));
      chunk_evs.push_back(ev);
      evs.add(ev);
    }
  } catch (...) {
    // Accepted segments keep running; they must guard the source buffer
    // and the (still-invalid) destination buffer until they retire.
    st.events_pruned += src.readers.merge(evs);
    st.events_pruned += dst.writer.merge(evs);
    reset_fill_tracking(dst);
    throw;
  }

  src.readers.merge(evs);
  dst.writer = evs;
  dst.readers.clear();
  if (src.state == msi_state::modified) {
    src.state = msi_state::shared;
  }
  dst.state = msi_state::shared;

  // Planner bookkeeping: the new copy is itself an admissible tree source.
  dst.fill_pending = true;
  dst.fill_version = d.write_version;
  dst.fill_src_device = src_dev;
  dst.fill_depth = chained ? src.fill_depth + 1 : 0;
  dst.fill_ready_cost = ready_cost;
  dst.fill_chunks = std::move(chunk_evs);
  // A copy that already retired occupies no engine. Leaving it out keeps
  // an unchanged completion counter meaning "bucket still exact".
  const event last =
      dst.fill_chunks.empty() ? event() : dst.fill_chunks.back();
  if (last && !last.completed()) {
    if (st.xfer_outbound.empty()) {
      st.xfer_outbound.resize(
          static_cast<std::size_t>(plat->device_count()) + 1);
    }
    st.xfer_outbound[static_cast<std::size_t>(src_dev + 1)].copies.push_back(
        last);
  }

  if (src_dev >= 0 && dst_dev >= 0) {
    if (src_dev != dst_dev) {
      bs.p2p_bytes += bytes;
    }
  } else if (src_dev >= 0 || dst_dev >= 0) {
    bs.host_link_bytes += bytes;
  }
  if (nchunks > 1) {
    bs.chunks_issued += nchunks;
  }
  // Count only edges the tree mechanism admitted: the legacy source order
  // can also land on a still-filling instance, but that is chaining by
  // accident, not a planned tree edge.
  if (chained && cfg.broadcast_tree) {
    ++bs.broadcast_fanout;
  }
  if (cfg.trace) {
    st.xfer_trace.push_back({src_dev, dst_dev, bytes, nchunks, false});
  }
  return evs;
}

bool request_transfer(context_state& st, logical_data_impl& d,
                      data_instance& dst) {
  const transfer_config& cfg = st.xfer;
  // (d) Coalescing: a fill into this very buffer that still delivers the
  // current contents is already on its way (typically after a fault-path
  // MSI rollback re-invalidated the instance) — join it instead of paying
  // the copy twice. The recorded fill events already sit in dst.writer.
  if (cfg.coalesce && dst.allocated && dst.fill_pending &&
      dst.fill_version == d.write_version) {
    dst.state = msi_state::shared;
    ++st.backend->mutable_stats().copies_coalesced;
    if (cfg.trace) {
      st.xfer_trace.push_back({-2, place_device(dst.place), d.bytes(), 0, true});
    }
    return true;
  }
  data_instance* src = pick_transfer_source(st, d, dst);
  // Trust boundary (integrity engine, DESIGN.md §10): never propagate a
  // corrupt replica. The picked source is verified; a corrupt one is
  // invalidated (repair vets the survivors) and the pick re-runs over
  // what remains. Exhausting every source escalates.
  if (st.integ != nullptr && src != nullptr) [[unlikely]] {
    while (src != nullptr &&
           !st.integ->verify_instance(st, d, *src, "transfer_source")) {
      if (!st.integ->handle_corruption(st, d, *src, "transfer_source")) {
        detail::throw_corruption(st, d, place_device(src->place),
                                 "transfer_source");
      }
      src = pick_transfer_source(st, d, dst);
    }
  }
  if (src == nullptr) {
    return false;
  }
  issue_copy(st, d, *src, dst);
  return true;
}

data_instance* pick_snapshot_source(context_state& st, logical_data_impl& d) {
  const std::size_t bytes = d.bytes();
  data_instance* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& inst : d.instances()) {
    if (inst->state == msi_state::invalid || !inst->allocated) {
      continue;
    }
    const int src_dev = place_device(inst->place);
    // Snapshots go to the host, so even a failed device qualifies (the
    // fail-stop d2h evacuation grace, DESIGN.md §5) — no blacklist filter.
    if (!st.xfer.route_by_cost) {
      return inst.get();
    }
    const bool chained = fill_in_flight(d, *inst);
    const double cost =
        link_seconds(st, src_dev, -1, bytes) *
            (1.0 + static_cast<double>(outstanding_from(st, src_dev))) +
        (chained ? inst->fill_ready_cost : 0.0);
    if (cost < best_cost) {
      best = inst.get();
      best_cost = cost;
    }
  }
  return best;
}

event_list issue_snapshot_copy(context_state& st, logical_data_impl& d,
                               data_instance& src, void* dst_host_buf) {
  const transfer_config& cfg = st.xfer;
  backend_stats& bs = st.backend->mutable_stats();
  const std::size_t bytes = d.bytes();
  const int src_dev = place_device(src.place);
  const cudasim::memcpy_kind kind = src_dev < 0
                                        ? cudasim::memcpy_kind::host_to_host
                                        : cudasim::memcpy_kind::device_to_host;
  const int run_dev = src_dev < 0 ? 0 : src_dev;
  cudasim::platform* plat = st.plat;

  // The snapshot must observe every released write (epoch consistency) and
  // the source's own fill — but not in-flight readers: reads don't change
  // the bytes being staged.
  event_list deps;
  deps.merge(d.last_writer);
  deps.merge(src.writer);

  const std::size_t nchunks = plan_chunks(cfg, bytes);
  event_list evs;
  try {
    for (std::size_t i = 0; i < nchunks; ++i) {
      const std::size_t lo = bytes * i / nchunks;
      const std::size_t hi = bytes * (i + 1) / nchunks;
      const std::size_t seg = hi - lo;
      void* to = static_cast<char*>(dst_host_buf) + lo;
      const void* from = static_cast<const char*>(src.ptr) + lo;
      std::function<void(cudasim::stream&)> payload =
          [plat, to, from, seg, kind](cudasim::stream& s) {
            plat->memcpy_async(to, from, seg, kind, s);
          };
      evs.add(run_transfer_op(st, run_dev, deps, std::move(payload)));
    }
  } catch (...) {
    // Accepted segments still read the source buffer; they must gate later
    // writers even though the checkpoint as a whole is being aborted.
    st.events_pruned += src.readers.merge(evs);
    st.events_pruned += d.readers_since_write.merge(evs);
    throw;
  }

  st.events_pruned += src.readers.merge(evs);
  st.events_pruned += d.readers_since_write.merge(evs);
  if (src_dev >= 0) {
    bs.host_link_bytes += bytes;
  }
  if (nchunks > 1) {
    bs.chunks_issued += nchunks;
  }
  if (cfg.trace) {
    st.xfer_trace.push_back({src_dev, -1, bytes, nchunks, false});
  }
  return evs;
}

bool stage_eviction_to_peer(context_state& st, logical_data_impl& d,
                            data_instance& victim, int from_device) {
  if (!st.xfer.peer_eviction) {
    return false;
  }
  cudasim::platform& plat = *st.plat;
  const std::size_t bytes = d.bytes();
  int best = -1;
  std::size_t best_out = 0;
  for (int p = 0; p < plat.device_count(); ++p) {
    if (p == from_device || st.device_blacklisted(p) || plat.device_failed(p)) {
      continue;
    }
    const cudasim::device_state& dev = plat.device(p);
    // Cached freed blocks still count as pool usage but are available to
    // this allocation (recycled or trimmed), so they count as headroom.
    if (dev.pool_capacity() - dev.pool_used() + st.mem.cached_bytes(p) <
        bytes) {
      continue;  // no headroom: parking there would evict in turn
    }
    const std::size_t out = outstanding_from(st, p);
    if (best < 0 || out < best_out) {
      best = p;
      best_out = out;
    }
  }
  if (best < 0) {
    return false;
  }
  data_instance& peer = d.instance_at(data_place::device(best));
  const bool fresh = !peer.allocated;
  if (fresh) {
    event_list alloc_events;
    void* ptr = st.mem.take_cached(st, best, bytes, alloc_events);
    if (ptr == nullptr) {
      if (st.mem.cached_bytes(best) > 0) {
        st.mem.trim_device(st, best, bytes);  // free mismatched classes
      }
      ptr = st.backend->alloc_device(best, bytes, alloc_events);
    }
    if (ptr == nullptr) {
      return false;  // pool raced shut: fall back to the host round-trip
    }
    peer.ptr = ptr;
    peer.allocated = true;
    peer.writer.merge(alloc_events);
    reset_fill_tracking(peer);
    st.mem.on_resident(best, d, peer);
  }
  try {
    issue_copy(st, d, victim, peer);
  } catch (...) {
    // Staging failed; accepted segments already guard the buffers. Release
    // a buffer we created and let the caller take the host path.
    if (fresh) {
      release_device_instance(st, d, peer, /*recycle=*/true);
    }
    return false;
  }
  peer.state = msi_state::modified;  // the victim copy is about to vanish
  // Keep the data's age and reuse interval, not refresh them: each device
  // has its own use clock, so both move over as distances from the clock.
  const std::uint64_t age = st.mem.clock(from_device) - victim.last_use;
  const std::uint64_t gap = victim.last_use - victim.prev_use;
  const std::uint64_t now = st.mem.clock(best);
  peer.last_use = now > age ? now - age : 0;
  peer.prev_use = peer.last_use > gap ? peer.last_use - gap : 0;
  st.mem.on_use(peer);
  return true;
}

}  // namespace cudastf
