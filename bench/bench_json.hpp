// The one JSON writer of the benches that emit a machine-readable document
// (--out): each builds an svc::Json object and hands it here. Output puts
// one top-level key per line and one array element per line, so committed
// BENCH_*.json files diff record by record; tools/check_bench_json.py
// validates the schema.
#pragma once

#include <fstream>
#include <iostream>
#include <string>

#include "svc/json.hpp"

namespace gcg::bench {

/// Keys come out sorted (svc::Json objects are canonical); arrays are
/// split one element per line, every other value is compact.
inline std::string render_json_doc(const svc::Json& doc) {
  std::string out = "{";
  const char* sep = "\n";
  for (const auto& [key, value] : doc.as_object()) {
    out += sep;
    sep = ",\n";
    out += "  " + svc::Json(key).dump() + ": ";
    if (!value.is_array()) {
      out += value.dump();
      continue;
    }
    out += "[";
    const char* item_sep = "\n";
    for (const svc::Json& item : value.as_array()) {
      out += item_sep + ("    " + item.dump());
      item_sep = ",\n";
    }
    out += "\n  ]";
  }
  return out + "\n}\n";
}

/// Writes the document to `path` (stdout when empty). False on a failed
/// write, so a bench can exit non-zero instead of leaving a truncated file.
inline bool write_json_doc(const svc::Json& doc, const std::string& path) {
  const std::string text = render_json_doc(doc);
  if (path.empty()) {
    std::cout << text;
    return true;
  }
  std::ofstream out(path);
  out << text;
  if (!out) {
    std::cerr << "error: could not write " << path << '\n';
    return false;
  }
  std::cerr << "wrote " << path << '\n';
  return true;
}

}  // namespace gcg::bench
