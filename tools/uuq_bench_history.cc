// Cumulative perf-trajectory merger for CI.
//
// Reads the committed per-PR measurement files (bench/history/BENCH_PR<N>.json,
// each a bench_out.json-format row array) plus the current run's
// bench_out.json and splices them into ONE artifact:
//
//   [
//     {"source": "BENCH_PR4", "rows": [ ...bench rows... ]},
//     {"source": "BENCH_PR5", "rows": [ ... ]},
//     {"source": "run",       "rows": [ ... ]}
//   ]
//
// CI uploads the result as the bench_history.json artifact, so a regression
// is visible against the WHOLE trajectory of committed measurements, not
// just the single committed baseline file the ratio gates use.
//
//   uuq_bench_history --out build/bench_history.json
//       [--run build/bench_out.json] bench/history/*.json
//
// Inputs are embedded at the string level via the SAME splice helpers
// AppendBenchJson uses (bench/bench_json_splice.h, including the
// truncated-file guard — one shared copy, so the merger and the artifact
// writer can never drift apart), and the tool cannot reinterpret the rows
// it carries. No other dependencies.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json_splice.h"

namespace {

using uuq::bench::ExtractJsonArrayBody;
using uuq::bench::ReadFileInto;

std::string SourceLabel(const std::string& path) {
  const size_t slash = path.find_last_of("/\\");
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = base.rfind('.');
  if (dot != std::string::npos) base = base.substr(0, dot);
  std::string escaped;
  for (char ch : base) {
    if (ch == '"' || ch == '\\') escaped.push_back('\\');
    escaped.push_back(ch);
  }
  return escaped;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string run_path;
  std::vector<std::string> history_paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--run") == 0 && i + 1 < argc) {
      run_path = argv[++i];
    } else {
      history_paths.push_back(argv[i]);
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "usage: uuq_bench_history --out <path> [--run "
                 "<bench_out.json>] <history.json>...\n");
    return 2;
  }

  struct Entry {
    std::string source;
    std::string body;
  };
  std::vector<Entry> entries;
  for (const std::string& path : history_paths) {
    std::string content;
    std::string body;
    if (!ReadFileInto(path, &content) ||
        !ExtractJsonArrayBody(content, &body)) {
      std::fprintf(stderr, "ERROR: cannot read history file %s\n",
                   path.c_str());
      return 1;
    }
    entries.push_back({SourceLabel(path), body});
  }
  if (!run_path.empty()) {
    std::string content;
    std::string body;
    if (!ReadFileInto(run_path, &content) ||
        !ExtractJsonArrayBody(content, &body)) {
      std::fprintf(stderr, "ERROR: cannot read run file %s\n",
                   run_path.c_str());
      return 1;
    }
    entries.push_back({"run", body});
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "ERROR: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs("[\n", out);
  for (size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(out, "{\"source\": \"%s\", \"rows\": [%s\n]}%s\n",
                 entries[i].source.c_str(), entries[i].body.c_str(),
                 i + 1 < entries.size() ? "," : "");
  }
  std::fputs("]\n", out);
  std::fclose(out);
  std::printf("wrote %zu sources to %s\n", entries.size(), out_path.c_str());
  return 0;
}
