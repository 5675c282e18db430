// Raw-speed sweep on the native backend: preprocessing order (natural vs
// degree-sorted/RCM relabeling) x schedule (vertex-count vs edge-balanced
// chunks) x hub cooperation (on/off), on a power-law graph (RMAT) against
// a uniform-degree control (Erdős–Rényi G(n,m) with matched vertex/edge
// counts). Reports coloring wall time, reorder overhead, per-worker
// busy-time skew (max/mean and CV), and the wall-clock ratio against the
// natural-order/vertex-chunked/hub-off baseline (win_vs_base > 1 means
// the configuration colors faster). jpl ignores schedule and hub, so it
// sweeps order alone against its natural-order run.
//
//   bench_par_imbalance [--scale S] [--seed N] [--threads N] [--repeats 3]
//                       [--orders natural,degree-desc,rcm]
//                       [--out BENCH_par.json]
//
// Emits a machine-readable JSON document (BENCH_par.json) so CI can diff
// runs, plus the usual ASCII table. The uniform control is the null
// experiment for the scheduling axis: with no skew to fix, every schedule
// should tie, while on RMAT the edge-balanced + hub rows should cut the
// skew. The order axis can win on both graphs (locality does not need
// skew).
#include <cmath>
#include <span>
#include <sstream>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "check/check.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/random.hpp"
#include "graph/reorder.hpp"
#include "par/pool.hpp"
#include "par/runner.hpp"
#include "util/expect.hpp"

namespace {

struct Config {
  gcg::par::Schedule schedule;
  std::uint32_t hub_threshold;  // 0 = auto, UINT32_MAX = off
  const char* hub_name;
};

constexpr std::uint32_t kHubOff = 0xFFFFFFFFu;

std::vector<gcg::Order> parse_orders(const std::string& csv) {
  std::vector<gcg::Order> out;
  std::istringstream is(csv);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (!tok.empty()) out.push_back(gcg::order_from_name(tok));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcg;
  using namespace gcg::bench;
  const BenchEnv env = parse_env(argc, argv, "par_imbalance",
                                 {"threads", "repeats", "orders", "out"});
  const Cli cli(argc, argv);
  const unsigned threads = static_cast<unsigned>(
      cli.get_int("threads",
                  static_cast<std::int64_t>(par::ThreadPool::default_threads())));
  const int repeats = static_cast<int>(cli.get_int("repeats", 3));
  const std::vector<Order> orders =
      parse_orders(cli.get("orders", "natural,degree-desc,rcm"));
  const std::string out_path = cli.get("out", "BENCH_par.json");

  // Power-law graph and a uniform-degree control of matched size.
  const double s = env.suite.scale;
  const unsigned lg = static_cast<unsigned>(std::clamp(
      std::lround(std::log2(std::max(60'000.0 * s, 256.0))), 8l, 20l));
  const Csr rmat = make_rmat(lg, 16, {}, env.seed);
  const Csr gnm = make_erdos_renyi_gnm(rmat.num_vertices(),
                                       rmat.num_arcs() / 2, env.seed);
  const struct {
    const char* name;
    const Csr& graph;
  } graphs[] = {{"rmat", rmat}, {"uniform", gnm}};

  const Config configs[] = {
      {par::Schedule::kVertexChunks, kHubOff, "off"},  // baseline first
      {par::Schedule::kVertexChunks, 0, "auto"},
      {par::Schedule::kEdgeBalanced, kHubOff, "off"},
      {par::Schedule::kEdgeBalanced, 0, "auto"},
  };

  std::cout << "# threads: " << threads << ", repeats: " << repeats
            << ", rmat: 2^" << lg << " vertices, " << rmat.num_arcs() / 2
            << " edges\n";

  Table table({"graph", "algorithm", "order", "schedule", "hub", "wall_ms",
               "reorder_ms", "busy_max_over_mean", "busy_cv", "colors",
               "win_vs_base"});
  table.title("order x schedule x hub vs the natural/vertex/hub-off baseline");

  svc::JsonArray records;
  par::ThreadPool pool(threads);
  for (const auto& g : graphs) {
    // Generator bugs must not masquerade as scheduling wins.
    if (const auto issue = check::validate_csr(g.graph)) {
      std::cerr << "malformed " << g.name << " graph: " << issue->to_string()
                << '\n';
      return 1;
    }
    for (par::ParAlgorithm algo :
         {par::ParAlgorithm::kSpeculative, par::ParAlgorithm::kJpl}) {
      // jpl ignores schedule and hub, so it sweeps order alone; its rows
      // name those axes "n/a".
      const bool swept = algo == par::ParAlgorithm::kSpeculative;
      const std::span<const Config> algo_configs(
          configs, swept ? std::size(configs) : std::size_t{1});
      double base_ms = 0.0;
      for (const Order order : orders) {
        for (const Config& cfg : algo_configs) {
          par::ParOptions opts;
          opts.seed = env.seed;
          opts.order = order;
          opts.schedule = cfg.schedule;
          opts.hub_degree_threshold = cfg.hub_threshold;

          par::ParRun run;
          for (int r = 0; r < repeats; ++r) {
            par::ParRun attempt =
                par::run_par_coloring(pool, g.graph, algo, opts);
            if (r == 0 || attempt.wall_ms < run.wall_ms) {
              run = std::move(attempt);
            }
          }
          GCG_EXPECT(check::is_valid_coloring(g.graph, run.colors));
          if (order == Order::kNatural && &cfg == &configs[0]) {
            base_ms = run.wall_ms;
          }
          const double win = run.wall_ms > 0.0 ? base_ms / run.wall_ms : 1.0;
          const char* schedule =
              swept ? par::schedule_name(cfg.schedule) : "n/a";
          const char* hub = swept ? cfg.hub_name : "n/a";

          table.add_row({g.name, par_algorithm_name(algo), order_name(order),
                         schedule, hub, run.wall_ms, run.reorder_ms,
                         run.imbalance.cu_max_over_mean, run.imbalance.cu_cv,
                         static_cast<std::int64_t>(run.num_colors), win});
          records.push_back(svc::JsonObject{
              {"graph", g.name},
              {"algorithm", par_algorithm_name(algo)},
              {"order", order_name(order)},
              {"schedule", schedule},
              {"hub", hub},
              {"threads", threads},
              {"wall_ms", run.wall_ms},
              {"reorder_ms", run.reorder_ms},
              {"busy_max_over_mean", run.imbalance.cu_max_over_mean},
              {"busy_cv", run.imbalance.cu_cv},
              {"colors", run.num_colors},
              {"win_vs_base", win}});
        }
      }
    }
  }
  table.print(std::cout);

  const svc::JsonObject doc{{"experiment", "par_imbalance"},
                            {"scale", s},
                            {"seed", env.seed},
                            {"threads", threads},
                            {"repeats", repeats},
                            {"records", std::move(records)}};
  return write_json_doc(doc, out_path) ? 0 : 1;
}
