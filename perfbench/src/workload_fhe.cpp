// Workload `fhe-dot`: fhe::stf_evaluator::dot_product with compute=false,
// CKKS (8K, 8 moduli) over 2 A100 models, ~28.7k tasks. The only workload
// that creates and destroys shape-only temporaries per element (cudastf
// temporary data, dangling-event teardown) and whose host time is mostly
// the evaluator's kernel bodies, which run even in timing-only mode — so
// a payload switch in cudasim moves tasks_per_s here first. The seed
// derives the CKKS keys and adds up to 7 elements to the 512-element
// vector.
#include <optional>

#include "fhe/stf_evaluator.hpp"
#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using trace::layer;

constexpr int devices = 2;
constexpr std::size_t degree = 8192;
constexpr std::size_t limbs = 8;

rep_result fhe_rep(std::uint64_t seed) {
  rep_result r;
  const std::size_t elements = 512 + mix_seed(seed) % 8;
  rep_timer timer;
  // Keys are made as a caller would, although synthetic inputs never use
  // them: their cost belongs to setup_s.
  fhe::ckks_context host(fhe::ckks_params::make(degree, limbs, 50, 40), seed);
  const fhe::secret_key sk = host.make_secret_key();
  const fhe::public_key pk = host.make_public_key(sk);
  cudasim::platform plat(devices, cudasim::a100_desc());
  plat.set_copy_payloads(false);
  cudastf::context ctx(plat);
  fhe::stf_evaluator eval(ctx, host, /*compute=*/false);
  std::vector<fhe::ciphertext> none;
  timer.submit_starts(r);
  std::optional<fhe::gpu_ciphertext> acc;
  {
    trace::scope s_app(layer::app);
    acc = eval.dot_product(none, none, elements, limbs);
  }
  r.tasks = eval.tasks_submitted();
  finish_rep(ctx, timer, r);
  return r;
}

/// The same evaluator with compute on, at (1K, 3 moduli): the downloaded
/// ciphertext must equal the host ckks_context evaluation bit for bit and
/// decrypt to the plaintext dot product.
std::string fhe_check(std::uint64_t seed) {
  constexpr std::size_t level = 3;
  constexpr std::size_t elements = 4;
  fhe::ckks_context host(fhe::ckks_params::make(1024, level, 50, 40), seed);
  const fhe::secret_key sk = host.make_secret_key();
  fhe::public_key pk = host.make_public_key(sk);

  std::vector<fhe::ciphertext> xs, ys;
  double expected = 0.0;
  fhe::ciphertext ref;
  for (std::size_t i = 0; i < elements; ++i) {
    const double x = static_cast<double>(mix_seed(seed + 2 * i) % 400) / 100.0 - 2.0;
    const double y = static_cast<double>(mix_seed(seed + 2 * i + 1) % 400) / 100.0 - 2.0;
    expected += x * y;
    xs.push_back(host.encrypt(host.encode_scalar(x, level), pk));
    ys.push_back(host.encrypt(host.encode_scalar(y, level), pk));
    const fhe::ciphertext prod = host.multiply(xs.back(), ys.back());
    ref = i == 0 ? prod : host.add(ref, prod);
  }
  host.rescale_inplace(ref);

  cudasim::platform plat(devices, cudasim::a100_desc());
  fhe::ciphertext got;
  cudastf::error_report report;
  {
    cudastf::context ctx(plat);
    fhe::stf_evaluator eval(ctx, host, /*compute=*/true);
    fhe::gpu_ciphertext acc = eval.dot_product(xs, ys, elements, level);
    eval.download(acc, got);
    report = ctx.finalize();
  }
  if (!report.ok()) {
    return "compute-on instance failed: " + report.to_string();
  }
  if (got.size() != ref.size()) {
    return "result has the wrong number of components";
  }
  for (std::size_t c = 0; c < ref.size(); ++c) {
    if (got.c[c].v != ref.c[c].v) {
      return "ciphertext component " + std::to_string(c) +
             " differs from the host evaluator";
    }
  }
  const double dec = host.decrypt_decode(got, sk)[0].real();
  if (!(std::abs(dec - expected) < 5e-2)) {
    return "decrypted dot product " + std::to_string(dec) + " != " +
           std::to_string(expected);
  }
  return "";
}

}  // namespace

workload fhe_dot_workload() {
  return {"fhe-dot", true, fhe_check, fhe_rep};
}

}  // namespace perfbench
