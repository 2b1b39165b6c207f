#include "harness.hpp"

namespace perfbench {

void finish_rep(cudastf::context& ctx, const rep_timer& timer, rep_result& r) {
  {
    trace::scope s(trace::layer::cudasim_drain);
    ctx.platform().synchronize();
  }
  cudastf::error_report report;
  {
    trace::scope s(trace::layer::cudastf_finalize);
    report = ctx.finalize();
  }
  r.run_s = seconds_since(timer.submitted());
  r.failed = report.failures_total;
  const cudasim::platform& plat = ctx.platform();
  r.sim_time_s = plat.now();

  const cudastf::backend_stats& st = ctx.stats();
  auto put = [&r](const char* name, std::uint64_t v) {
    r.counters.emplace_back(name, static_cast<double>(v));
  };
  put("cudasim.ops", plat.ops_completed());
  put("cudasim.nodes_pooled", plat.nodes_pooled());
  put("cudastf.deps_wired", st.deps_wired);
  put("cudastf.events_pruned", ctx.events_pruned());
  put("cudastf.fast_path_submits", ctx.fast_path_submits());
  put("mem.evictions", st.evictions);
  put("mem.alloc_cache_hits", st.alloc_cache_hits);
  put("mem.clean_drops", st.clean_drops);
  put("mem.writebacks_avoided", st.writebacks_avoided);
  put("mem.prefetch_refills", st.prefetch_refills);
  put("mem.host_staging_bytes", st.host_staging_bytes);
  put("xfer.p2p_bytes", st.p2p_bytes);
  put("xfer.host_link_bytes", st.host_link_bytes);
  put("xfer.copies_coalesced", st.copies_coalesced);
  put("xfer.broadcast_fanout", st.broadcast_fanout);
  put("xfer.chunks_issued", st.chunks_issued);
  put("graph.instantiations", st.graph_instantiations);
  put("graph.updates", st.graph_updates);
  put("graph.launches", st.graph_launches);
}

}  // namespace perfbench
