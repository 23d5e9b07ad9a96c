//===- perfbench/driver/Main.cpp - Benchmark driver entry point ------------===//
//
// Part of the chute project.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload through the public API and writes the raw result
// document (per-request records, set-up timings, daemon stats, trace
// file paths) that run.py turns into metrics:
//
//   perfbench_driver --workload fig7|service --seed N --seconds S
//                    --mode timed|traced --run-dir DIR --out FILE
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

extern char **environ;

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload fig7|service --seed N "
               "--seconds S --mode timed|traced --run-dir DIR --out FILE\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
    else if (K == "--mode" && (V == "timed" || V == "traced"))
      A.M = V == "timed" ? Mode::Timed : Mode::Traced;
    else if (K == "--run-dir")
      A.RunDir = V;
    else if (K == "--out")
      A.Out = V;
    else
      return usage();
  }
  if (A.RunDir.empty() || A.Out.empty() || A.Seconds == 0)
    return usage();

  // An inherited CHUTE_* knob would silently change the measured
  // program (resolveEnvOverrides, TaskPool::defaultJobs, the tracer
  // and the fault injector all read them).
  for (char **E = environ; *E != nullptr; ++E)
    if (std::strncmp(*E, "CHUTE_", 6) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *E);
      return 2;
    }

  std::string Doc;
  if (A.Workload == "fig7")
    Doc = runFig7(A);
  else if (A.Workload == "service")
    Doc = runService(A);
  else
    return usage();
  if (Doc.empty())
    return 1;

  std::ofstream Out(A.Out);
  Out << Doc << "\n";
  return Out.good() ? 0 : 1;
}
