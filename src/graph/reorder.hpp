// Vertex reordering. Vertex-to-lane mapping determines which vertices share
// a wavefront, so ordering directly controls intra-wavefront divergence —
// one of the "important factors affecting performance" the paper analyzes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace gcg {

enum class Order {
  kNatural,           ///< identity (generator order)
  kRandom,            ///< uniform shuffle
  kDegreeDescending,  ///< hubs first — groups similar degrees per wavefront
  kDegreeAscending,
  kBfs,               ///< breadth-first from vertex 0 (locality)
  kRcm,               ///< reverse Cuthill–McKee (bandwidth reduction)
};

const char* order_name(Order o);
/// Parses the names produced by order_name; throws on unknown input.
Order order_from_name(const std::string& name);

/// Returns perm where perm[old_id] = new_id. The degree orders are a
/// stable counting sort, O(n + max_degree): equal degrees keep ascending
/// old id.
std::vector<vid_t> make_order(const Csr& g, Order o, std::uint64_t seed = 1);

/// Relabels vertices: new graph has vertex perm[v] for old v, with every
/// row sorted ascending. perm must be a permutation of [0, n). O(n + m),
/// no sort, on the calling thread.
///
/// The rows are built by scattering each arc u->v into row perm[v], so
/// the result is the relabeled TRANSPOSE. For the symmetric graphs the
/// Csr contract describes that is the relabeled graph itself. An
/// asymmetric input (reachable unvalidated, e.g. a raw .gbin) still
/// yields a structurally valid CSR: row sizes are in-degrees.
Csr apply_order(const Csr& g, const std::vector<vid_t>& perm);

/// Convenience: make_order + apply_order.
Csr reorder(const Csr& g, Order o, std::uint64_t seed = 1);

/// True if perm is a permutation of [0, n).
bool is_permutation(const std::vector<vid_t>& perm, vid_t n);

}  // namespace gcg
