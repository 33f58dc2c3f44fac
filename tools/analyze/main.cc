// renonfs-analyze: interprocedural await-safety checker for the renonfs tree.
//
//   analyze [flags] <file.cc|file.h>...   tree mode: print findings, exit 1
//                                         if any survive allows
//   analyze --self-test <fixture>...      golden mode: every analyze:expect()
//                                         line must be reported and nothing
//                                         else may be; exit 0 iff both hold
//
// Both modes run the same three passes on every invocation (DESIGN §16):
// (1) lex every file and distill a FileSummary; (2) build the whole-tree
// AnalysisContext (call graph, may-suspend fixpoint, status enforcement);
// (3) run the checks on every file. Nothing is carried between runs, so the
// verdict always comes from the analyzer binary that printed it.
//
// Flags:
//   --verbose             also print allow-suppressed findings
//   --stats               print one machine-readable stats line
//   --allowlist FILE      discarded-status allowlist
//                         (default tools/analyze/status_allowlist.txt)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze/callgraph.h"
#include "tools/analyze/checks.h"
#include "tools/analyze/lexer.h"
#include "tools/analyze/symtab.h"

namespace renonfs::analyze {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: analyze [--verbose] [--stats] [--allowlist F] file...\n"
               "       analyze --self-test fixture...\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::set<std::string> LoadAllowlist(const std::string& path) {
  std::set<std::string> names;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ls(line);
    std::string name;
    if (ls >> name) {
      names.insert(name);
    }
  }
  return names;
}

struct Options {
  bool self_test = false;
  bool verbose = false;
  bool stats = false;
  std::string allowlist = "tools/analyze/status_allowlist.txt";
  std::vector<std::string> paths;
};

// Passes 1 and 2, shared by tree mode and --self-test: lex and summarize every
// file, then build the whole-tree context over all of them. Returns false
// (after printing why) when a file cannot be read.
bool LoadTree(const Options& opt, std::vector<LexedFile>* lexed,
              AnalysisContext* ctx) {
  lexed->reserve(opt.paths.size());
  for (const std::string& path : opt.paths) {
    std::string contents;
    if (!ReadFile(path, &contents)) {
      std::fprintf(stderr, "analyze: cannot read %s\n", path.c_str());
      return false;
    }
    lexed->push_back(LexFile(path, contents));
  }
  std::vector<FileSummary> summaries;
  summaries.reserve(lexed->size());
  for (const LexedFile& f : *lexed) {
    summaries.push_back(ExtractSummary(f));
  }
  *ctx = BuildContext(summaries, LoadAllowlist(opt.allowlist));
  return true;
}

int RunTree(const Options& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<LexedFile> lexed;
  AnalysisContext ctx;
  if (!LoadTree(opt, &lexed, &ctx)) {
    return 2;
  }

  // Pass 3: checks, then the report.
  size_t finding_count = 0, note_count = 0, suppressed_count = 0;
  for (const LexedFile& file : lexed) {
    std::vector<Finding> suppressed;
    for (const Finding& f : AnalyzeFile(file, ctx, &suppressed)) {
      if (f.note) {
        // Advisory only: visible in the log, never fails the run.
        std::printf("%s:%d: [note:%s] %s\n", f.path.c_str(), f.line,
                    f.check.c_str(), f.message.c_str());
        ++note_count;
        continue;
      }
      std::printf("%s:%d: [%s] %s\n", f.path.c_str(), f.line, f.check.c_str(),
                  f.message.c_str());
      ++finding_count;
    }
    if (opt.verbose) {
      for (const Finding& f : suppressed) {
        std::printf("%s:%d: [%s] suppressed by analyze:allow: %s\n",
                    f.path.c_str(), f.line, f.check.c_str(), f.message.c_str());
      }
    }
    suppressed_count += suppressed.size();
  }
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  if (opt.stats) {
    std::printf("analyze: stats files=%zu may_suspend=%zu wall_ms=%lld\n",
                lexed.size(), ctx.may_suspend.size(),
                static_cast<long long>(wall_ms));
  }
  if (finding_count == 0) {
    std::printf(
        "analyze: clean — %zu file(s), %zu allow-suppressed, %zu note(s)\n",
        lexed.size(), suppressed_count, note_count);
    return 0;
  }
  std::printf("analyze: %zu finding(s), %zu note(s)\n", finding_count, note_count);
  return 1;
}

// Golden mode: a finding at line L satisfies an analyze:expect at L or L-1
// (annotation on the flagged line or the line above). Allows still apply
// first, so fixtures can also exercise suppression. The context is built
// over all fixtures passed together, so interprocedural shapes (helper in
// one function, stale use in its caller) resolve exactly as in tree mode.
int RunSelfTest(const Options& opt) {
  std::vector<LexedFile> lexed;
  AnalysisContext ctx;
  if (!LoadTree(opt, &lexed, &ctx)) {
    return 2;
  }

  size_t matched = 0;
  size_t failures = 0;
  for (const LexedFile& file : lexed) {
    const std::vector<Finding> findings = AnalyzeFile(file, ctx, nullptr);
    // (line, check) pairs that findings satisfied.
    std::set<std::pair<int, std::string>> satisfied;
    for (const Finding& f : findings) {
      bool expected = false;
      for (int line : {f.line, f.line - 1}) {
        auto [lo, hi] = file.expects.equal_range(line);
        for (auto it = lo; it != hi; ++it) {
          if (it->second == f.check) {
            satisfied.emplace(line, f.check);
            expected = true;
          }
        }
      }
      if (expected) {
        ++matched;
      } else {
        std::printf("%s:%d: UNEXPECTED [%s] %s\n", f.path.c_str(), f.line,
                    f.check.c_str(), f.message.c_str());
        ++failures;
      }
    }
    for (const auto& [line, check] : file.expects) {
      if (!satisfied.contains({line, check})) {
        std::printf("%s:%d: MISSED expected [%s] finding\n", file.path.c_str(),
                    line, check.c_str());
        ++failures;
      }
    }
  }
  if (failures == 0) {
    std::printf("analyze --self-test: ok — %zu expected finding(s) all reported\n",
                matched);
    return 0;
  }
  std::printf("analyze --self-test: %zu failure(s)\n", failures);
  return 1;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      opt.self_test = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--stats") {
      opt.stats = true;
    } else if (arg == "--allowlist" && i + 1 < argc) {
      opt.allowlist = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      opt.paths.push_back(arg);
    }
  }
  if (opt.paths.empty()) {
    return Usage();
  }
  return opt.self_test ? RunSelfTest(opt) : RunTree(opt);
}

}  // namespace
}  // namespace renonfs::analyze

int main(int argc, char** argv) { return renonfs::analyze::Main(argc, argv); }
