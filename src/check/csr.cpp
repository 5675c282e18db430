#include "check/csr.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/narrow.hpp"

namespace gcg::check {

namespace {

/// O(n + m) symmetry accept test for ascending rows that already passed
/// the range checks. Walking u upward, the arcs into v arrive in
/// ascending u, so each must be the next unmatched entry of row v;
/// cursor[v] marks that entry. A pass proves every arc u->v has a mate
/// in row v. (The m arcs then consumed all m entries, so every cursor
/// ends at its row end without a final sweep.) A fail proves nothing (a
/// duplicate arc can fail the walk yet still have a mate), so the caller
/// then runs the per-arc search, which alone decides and reports.
bool symmetric_by_cursor_walk(std::span<const eid_t> rows,
                              std::span<const vid_t> cols, vid_t n) {
  std::vector<eid_t> cursor(rows.begin(), rows.end() - 1);
  for (vid_t u = 0; u < n; ++u) {
    for (eid_t k = rows[u]; k < rows[u + 1]; ++k) {
      const vid_t v = cols[k];
      if (cursor[v] == rows[v + 1] || cols[cursor[v]] != u) return false;
      ++cursor[v];
    }
  }
  return true;
}

}  // namespace

const char* csr_defect_name(CsrDefect d) {
  switch (d) {
    case CsrDefect::kEmptyOffsets: return "empty_offsets";
    case CsrDefect::kBadFirstOffset: return "bad_first_offset";
    case CsrDefect::kNonMonotoneOffsets: return "non_monotone_offsets";
    case CsrDefect::kArcCountMismatch: return "arc_count_mismatch";
    case CsrDefect::kColumnOutOfRange: return "column_out_of_range";
    case CsrDefect::kUnsortedNeighbors: return "unsorted_neighbors";
    case CsrDefect::kDuplicateNeighbor: return "duplicate_neighbor";
    case CsrDefect::kSelfLoop: return "self_loop";
    case CsrDefect::kAsymmetricEdge: return "asymmetric_edge";
  }
  return "unknown";
}

std::string CsrIssue::to_string() const {
  std::ostringstream os;
  os << csr_defect_name(defect);
  switch (defect) {
    case CsrDefect::kEmptyOffsets:
      os << ": row-offset array is empty";
      break;
    case CsrDefect::kBadFirstOffset:
      os << ": rows[0] = " << value << ", expected 0";
      break;
    case CsrDefect::kNonMonotoneOffsets:
      os << ": rows[" << index << "] = " << value << " is below rows["
         << (index - 1) << "]";
      break;
    case CsrDefect::kArcCountMismatch:
      os << ": rows[n] = " << value << " but |cols| = " << index;
      break;
    case CsrDefect::kColumnOutOfRange:
      os << ": cols[" << index << "] = " << value << " out of range in row "
         << row;
      break;
    case CsrDefect::kUnsortedNeighbors:
      os << ": row " << row << " not ascending at cols[" << index << "] = "
         << value;
      break;
    case CsrDefect::kDuplicateNeighbor:
      os << ": row " << row << " repeats neighbour " << value;
      break;
    case CsrDefect::kSelfLoop:
      os << ": vertex " << row << " lists itself";
      break;
    case CsrDefect::kAsymmetricEdge:
      os << ": arc " << row << "->" << value << " has no reverse arc";
      break;
  }
  return os.str();
}

std::optional<CsrIssue> validate_csr(std::span<const eid_t> rows,
                                     std::span<const vid_t> cols,
                                     const CsrCheckOptions& opts) {
  if (rows.empty()) {
    return CsrIssue{CsrDefect::kEmptyOffsets, 0, 0, 0};
  }
  if (rows.front() != 0) {
    return CsrIssue{CsrDefect::kBadFirstOffset, 0, rows.front(), 0};
  }
  const vid_t n = narrow<vid_t>(rows.size() - 1);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] < rows[i - 1]) {
      return CsrIssue{CsrDefect::kNonMonotoneOffsets,
                      narrow<vid_t>(i - 1), rows[i], i};
    }
  }
  if (rows.back() != cols.size()) {
    return CsrIssue{CsrDefect::kArcCountMismatch, n, rows.back(), cols.size()};
  }

  for (vid_t u = 0; u < n; ++u) {
    for (eid_t k = rows[u]; k < rows[u + 1]; ++k) {
      const vid_t v = cols[k];
      if (v >= n) {
        return CsrIssue{CsrDefect::kColumnOutOfRange, u, v,
                        narrow<std::size_t>(k)};
      }
      if (v == u && !opts.allow_self_loops) {
        return CsrIssue{CsrDefect::kSelfLoop, u, v,
                        narrow<std::size_t>(k)};
      }
      if (k > rows[u]) {
        const vid_t prev = cols[k - 1];
        if (opts.require_unique && v == prev) {
          return CsrIssue{CsrDefect::kDuplicateNeighbor, u, v,
                          narrow<std::size_t>(k)};
        }
        if (opts.require_sorted && v < prev) {
          return CsrIssue{CsrDefect::kUnsortedNeighbors, u, v,
                          narrow<std::size_t>(k)};
        }
      }
    }
  }

  if (opts.require_symmetric &&
      !(opts.require_sorted && symmetric_by_cursor_walk(rows, cols, n))) {
    for (vid_t u = 0; u < n; ++u) {
      for (eid_t k = rows[u]; k < rows[u + 1]; ++k) {
        const vid_t v = cols[k];
        if (v == u) continue;  // self loop (only reachable when allowed)
        const vid_t* first = cols.data() + rows[v];
        const vid_t* last = cols.data() + rows[v + 1];
        const bool found = opts.require_sorted
                               ? std::binary_search(first, last, u)
                               : std::find(first, last, u) != last;
        if (!found) {
          return CsrIssue{CsrDefect::kAsymmetricEdge, u, v,
                          narrow<std::size_t>(k)};
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<CsrIssue> validate_csr(const Csr& g, const CsrCheckOptions& opts) {
  return validate_csr(g.row_offsets(), g.col_indices(), opts);
}

}  // namespace gcg::check
