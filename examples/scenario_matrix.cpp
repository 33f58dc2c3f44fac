// Scenario-matrix browser: names and prints the cells bench_scenarios runs.
//
//   ./build/examples/scenario_matrix list [--full]   # print cell names
//   ./build/examples/scenario_matrix show <cell>     # print a cell's DSL
//
// `show` emits the cell as a scenario file — pipe it to a file, edit it, and
// run it with `chaos_demo scenario <file>`. Running the matrix itself, with
// its gates, replays and failure artifacts, is `bench_scenarios`.
#include <cstdio>
#include <cstring>
#include <string>

#include "src/scenario/runner.h"

using namespace renonfs;

int main(int argc, char** argv) {
  bool full = false;
  std::string command;
  std::string operand;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (command.empty()) {
      command = argv[i];
    } else {
      operand = argv[i];
    }
  }

  if (command == "list") {
    for (const Scenario& cell : DefaultScenarioMatrix(!full)) {
      std::printf("%s\n", cell.name.c_str());
    }
    return 0;
  }
  if (command == "show") {
    for (bool quick : {true, false}) {
      for (const Scenario& cell : DefaultScenarioMatrix(quick)) {
        if (cell.name == operand) {
          std::printf("%s", cell.Serialize().c_str());
          return 0;
        }
      }
    }
    std::fprintf(stderr, "scenario_matrix: no cell named '%s' (try list)\n",
                 operand.c_str());
    return 2;
  }
  std::fprintf(stderr, "usage: %s list [--full] | show <cell>\n", argv[0]);
  return 2;
}
