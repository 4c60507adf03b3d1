// Shared helpers for the figure/table reproduction binaries.
//
// Every binary prints the same rows/series the paper's figure plots, plus a
// "paper" column where the paper reports a number, so EXPERIMENTS.md can be
// regenerated by running build/bench/*. Flags: --csv emits CSV instead of
// the aligned table; --json emits one JSON array of row objects per table
// (machine-readable, for the BENCH trajectory); --quick shortens simulated
// durations. They are read by the shared strict parser
// (src/platform/flags.hpp): a binary with flags of its own registers them on
// the same FlagParser, and anything unknown prints usage and exits 2.
#ifndef BENCH_BENCH_COMMON_HPP_
#define BENCH_BENCH_COMMON_HPP_

#include <iostream>
#include <string>

#include "src/platform/flags.hpp"
#include "src/stats/table.hpp"

namespace lockin {

struct BenchOptions {
  bool csv = false;
  bool json = false;
  bool quick = false;

  void Register(FlagParser& flags) {
    flags.Bool("--csv", &csv, "emit CSV instead of the aligned table");
    flags.Bool("--json", &json, "emit one JSON array of row objects per table");
    flags.Bool("--quick", &quick, "shorter durations");
  }

  static BenchOptions Parse(int argc, char** argv) {
    BenchOptions options;
    FlagParser flags;
    options.Register(flags);
    flags.Parse(argc, argv);
    return options;
  }
};

inline void EmitTable(const TextTable& table, const BenchOptions& options,
                      const std::string& title) {
  if (options.json) {
    table.PrintJson(std::cout);
  } else if (options.csv) {
    table.PrintCsv(std::cout);
  } else {
    std::cout << "=== " << title << " ===\n";
    table.Print(std::cout);
    std::cout << "\n";
  }
}

}  // namespace lockin

#endif  // BENCH_BENCH_COMMON_HPP_
