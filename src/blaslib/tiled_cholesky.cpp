#include "blaslib/tiled_cholesky.hpp"

#include <sys/mman.h>

#include <new>
#include <stdexcept>

#include "blaslib/blas_sim.hpp"

namespace blaslib {

tile_matrix::tile_matrix(std::size_t n, std::size_t block, bool zero_init)
    : n_(n), block_(block), tiles_((n + block - 1) / block) {
  if (block == 0 || n == 0) {
    throw std::invalid_argument("blaslib: empty tile matrix");
  }
  // All tiles are full block-size buffers. Edge tiles are padded: the
  // padded diagonal carries an identity block so the factorization of a
  // padded tile equals the factorization of the useful region — kernels
  // always run at full block extents. MAP_NORESERVE lets a paper-scale
  // timing-only matrix exceed physical memory under heuristic overcommit.
  const std::size_t bytes =
      tiles_ * (tiles_ + 1) / 2 * block_ * block_ * sizeof(double);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  store_ = {static_cast<double*>(p), unmapper{bytes}};
  if (zero_init) {
    const std::size_t last = tiles_ - 1;
    double* t = tile_ptr(last, last);
    for (std::size_t r = tile_extent(last); r < block_; ++r) {
      t[r * block_ + r] = 1.0;
    }
  }
}

void tile_matrix::unmapper::operator()(double* p) const { munmap(p, bytes); }

std::size_t tile_matrix::index(std::size_t i, std::size_t j) const {
  if (j > i || i >= tiles_) {
    throw std::out_of_range("blaslib: tile index outside lower triangle");
  }
  return i * (i + 1) / 2 + j;
}

std::size_t tile_matrix::tile_extent(std::size_t i) const {
  const std::size_t start = i * block_;
  return std::min(block_, n_ - start);
}

double* tile_matrix::tile_ptr(std::size_t i, std::size_t j) {
  return store_.get() + index(i, j) * block_ * block_;
}

void tile_matrix::import_dense(const double* a) {
  for (std::size_t ti = 0; ti < tiles_; ++ti) {
    for (std::size_t tj = 0; tj <= ti; ++tj) {
      double* t = tile_ptr(ti, tj);
      const std::size_t rows = tile_extent(ti);
      const std::size_t cols = tile_extent(tj);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          t[r * block_ + c] = a[(ti * block_ + r) * n_ + tj * block_ + c];
        }
      }
    }
  }
}

void tile_matrix::export_dense(double* a) const {
  for (std::size_t ti = 0; ti < tiles_; ++ti) {
    for (std::size_t tj = 0; tj <= ti; ++tj) {
      const double* t = store_.get() + index(ti, tj) * block_ * block_;
      const std::size_t rows = tile_extent(ti);
      const std::size_t cols = tile_extent(tj);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          a[(ti * block_ + r) * n_ + tj * block_ + c] = t[r * block_ + c];
        }
      }
    }
  }
}

double cholesky_flops(std::size_t n) {
  const double dn = static_cast<double>(n);
  return dn * dn * dn / 3.0;
}

std::size_t tiled_cholesky_stf(cudastf::context& ctx, tile_matrix& a,
                               const cholesky_options& opts) {
  using namespace cudastf;
  cudasim::platform& plat = ctx.platform();
  std::vector<int> devs = opts.devices;
  if (devs.empty()) {
    for (int d = 0; d < plat.device_count(); ++d) {
      devs.push_back(d);
    }
  }
  const std::size_t T = a.tiles();
  const std::size_t bs = a.block();
  const bool compute = opts.compute;

  // One logical data per (lower-triangle) tile; the runtime tracks
  // coherency, allocation and transfers per tile.
  std::vector<logical_data<slice<double, 2>>> tiles(T * T);
  auto lt = [&](std::size_t i, std::size_t j) -> logical_data<slice<double, 2>>& {
    return tiles[i * T + j];
  };
  for (std::size_t i = 0; i < T; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      lt(i, j) = ctx.logical_data(a.tile_ptr(i, j), bs, bs, "tile");
    }
  }
  // Tile-row round robin over devices: the trailing update spreads across
  // the machine while the next panel factors (automatic look-ahead).
  auto owner = [&](std::size_t i) { return devs[i % devs.size()]; };

  std::size_t tasks = 0;
  for (std::size_t k = 0; k < T; ++k) {
    ctx.task(exec_place::device(owner(k)), lt(k, k).rw()).set_symbol("potrf")
            ->*[&plat, compute](cudasim::stream& s, slice<double, 2> akk) {
      dpotrf(plat, s, akk, compute);
    };
    ++tasks;
    for (std::size_t i = k + 1; i < T; ++i) {
      ctx.task(exec_place::device(owner(i)), lt(k, k).read(), lt(i, k).rw())
              .set_symbol("trsm")
              ->*[&plat, compute](cudasim::stream& s,
                                  slice<const double, 2> akk,
                                  slice<double, 2> aik) {
        dtrsm(plat, s, akk, aik, compute);
      };
      ++tasks;
    }
    for (std::size_t i = k + 1; i < T; ++i) {
      ctx.task(exec_place::device(owner(i)), lt(i, k).read(), lt(i, i).rw())
              .set_symbol("syrk")
              ->*[&plat, compute](cudasim::stream& s,
                                  slice<const double, 2> aik,
                                  slice<double, 2> aii) {
        dsyrk(plat, s, -1.0, aik, 1.0, aii, compute);
      };
      ++tasks;
      for (std::size_t j = k + 1; j < i; ++j) {
        ctx.task(exec_place::device(owner(i)), lt(i, k).read(), lt(j, k).read(),
                 lt(i, j).rw())
                .set_symbol("gemm")
                ->*[&plat, compute](cudasim::stream& s,
                                    slice<const double, 2> aik,
                                    slice<const double, 2> ajk,
                                    slice<double, 2> aij) {
          dgemm(plat, s, false, true, -1.0, aik, ajk, 1.0, aij, compute);
        };
        ++tasks;
      }
    }
  }
  return tasks;
}

}  // namespace blaslib
