// Tiled Cholesky decomposition over CUDASTF (§VII-C): one logical data per
// tile, cuBLAS/cuSOLVER-style kernels inside tasks, all coordination,
// memory management and synchronization left to the library. Look-ahead
// emerges automatically from the inferred dependency DAG.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cudastf/cudastf.hpp"

namespace blaslib {

/// Tile-major storage of the lower triangle of an SPD matrix: tile (i, j),
/// i >= j, is a contiguous block-size x block-size buffer. This is the
/// host-side original location the runtime writes back to. All tiles share
/// one anonymous mapping, which reads as zeros and is only backed by
/// memory where it is written, so tens of GB of timing-only backing cost
/// one system call and stay unfaulted.
class tile_matrix {
 public:
  /// `zero_init` prepares the tiles for the numerical bodies: the padded
  /// part of the last diagonal tile gets its identity block. Timing-only
  /// runs pass false and never touch the backing.
  tile_matrix(std::size_t n, std::size_t block, bool zero_init = true);

  std::size_t n() const { return n_; }
  std::size_t block() const { return block_; }
  std::size_t tiles() const { return tiles_; }
  /// Extent (rows == cols) of tile (i, j) — edge tiles may be smaller.
  std::size_t tile_extent(std::size_t i) const;
  double* tile_ptr(std::size_t i, std::size_t j);

  /// Imports the lower triangle of a dense row-major n x n matrix.
  void import_dense(const double* a);
  /// Exports the lower triangle back (upper left untouched).
  void export_dense(double* a) const;

 private:
  struct unmapper {
    std::size_t bytes;
    void operator()(double* p) const;
  };
  std::size_t index(std::size_t i, std::size_t j) const;
  std::size_t n_;
  std::size_t block_;
  std::size_t tiles_;
  std::unique_ptr<double, unmapper> store_;
};

struct cholesky_options {
  /// Tile size; the paper uses 1960 on A100 and 3072 on H100.
  std::size_t block = 1960;
  /// Run the numerical bodies (small problems / tests) or timing only.
  bool compute = true;
  /// Devices to spread tiles over (round-robin by tile row). Empty = all.
  std::vector<int> devices;
};

/// Factors the tiles in place (lower Cholesky) by submitting the classic
/// right-looking tiled algorithm through `ctx`. Returns the number of tasks
/// submitted. Does not synchronize; call ctx.finalize() (or fence per epoch)
/// to retrieve results.
std::size_t tiled_cholesky_stf(cudastf::context& ctx, tile_matrix& a,
                               const cholesky_options& opts = {});

/// FLOP count of a full Cholesky factorization (n^3/3), for GFLOP/s plots.
double cholesky_flops(std::size_t n);

}  // namespace blaslib
