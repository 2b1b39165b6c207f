// Topology-aware transfer engine (DESIGN.md §6).
//
// The MSI protocol decides *that* data must move; this layer decides *how*:
// which valid replica to copy from (min-cost routing over link bandwidth,
// copy-engine occupancy and broadcast depth), whether a multi-consumer read
// fans out as a tree instead of serializing on one source, whether a large
// transfer is split into pipelined chunks, and whether a duplicate request
// can join a fill that is already in flight. Every mechanism is
// independently toggleable for ablation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cudastf/events.hpp"

namespace cudastf {

struct context_state;
class logical_data_impl;
struct data_instance;

/// Planner configuration, per context (ctx.transfer_options()).
struct transfer_config {
  /// (a) Min-cost source selection: score every valid instance by link
  /// bandwidth, outbound-copy occupancy and broadcast depth instead of
  /// taking the protocol's first hit.
  bool route_by_cost = true;
  /// (b) Broadcast trees: instances whose own fill is still in flight are
  /// admissible sources, so a wide read fans out across several links.
  bool broadcast_tree = true;
  /// (d) A second request for the same (data, place, contents version)
  /// joins the pending fill instead of issuing a duplicate copy.
  bool coalesce = true;
  /// Eviction staging may target a peer device with pool headroom instead
  /// of the host round-trip.
  bool peer_eviction = true;
  /// (c) Copies larger than this split into pipelined chunks; 0 disables
  /// chunking.
  std::size_t chunk_bytes = 64ull << 20;
  /// Upper bound on the chunks of one transfer (keeps event lists small).
  std::size_t max_chunks = 8;
  /// Appends a transfer_record per planned transfer to
  /// context_state::xfer_trace (tests / debugging).
  bool trace = false;
};

/// One planned transfer, recorded when transfer_config::trace is set.
struct transfer_record {
  int src_device = -2;  ///< source device; -1 = host, -2 = coalesced (none)
  int dst_device = -1;  ///< destination device; -1 = host
  std::size_t bytes = 0;
  std::size_t chunks = 1;  ///< 0 for a coalesced hit
  bool coalesced = false;
  bool operator==(const transfer_record&) const = default;
};

/// Makes `dst` a valid copy of the logical data: coalesces onto an
/// in-flight fill when possible, otherwise picks the min-cost source and
/// issues the (possibly chunked) copy. Returns false when no valid source
/// exists (never-written data). Throws like issue_copy on permanent
/// transfer failure.
bool request_transfer(context_state& st, logical_data_impl& d,
                      data_instance& dst);

/// The planner's source choice for filling `dst`: the cheapest valid
/// instance under the routing score, or pick_valid_source() order when
/// routing is disabled / no scored candidate survives. nullptr when no
/// valid copy exists at all.
data_instance* pick_transfer_source(context_state& st, logical_data_impl& d,
                                    const data_instance& dst);

/// Eviction staging (DESIGN.md §6): tries to park the sole copy on a
/// healthy peer device with pool headroom — one p2p hop instead of the
/// host round-trip. The peer copy keeps the victim's age and reuse interval,
/// translated to the peer's use clock. Returns false (caller stages to
/// host) when no peer qualifies or the peer copy cannot be issued.
bool stage_eviction_to_peer(context_state& st, logical_data_impl& d,
                            data_instance& victim, int from_device);

/// Clears planner bookkeeping when an instance's backing is freed
/// (eviction, blacklist evacuation): a later refill into a new buffer must
/// never coalesce onto the dead buffer's fill events.
void reset_fill_tracking(data_instance& inst);

/// Checkpoint routing (DESIGN.md §7): the cheapest valid instance to
/// snapshot to a host staging buffer, scored like a coherence fill with a
/// host destination. nullptr when no valid copy exists (never-written
/// data — nothing to snapshot).
data_instance* pick_snapshot_source(context_state& st, logical_data_impl& d);

/// Copies the current contents of `src` into the raw host staging buffer
/// `dst_host_buf` as an asynchronous routed/chunked transfer on the same
/// machinery as coherence copies, overlapping compute. Orders after the
/// data's released writes and the source's own fill; completion events are
/// merged into src.readers and d.readers_since_write so any later write
/// waits for the snapshot. No MSI state changes: the staging buffer is not
/// a data_instance. Throws like issue_copy on permanent transfer failure.
event_list issue_snapshot_copy(context_state& st, logical_data_impl& d,
                               data_instance& src, void* dst_host_buf);

}  // namespace cudastf
