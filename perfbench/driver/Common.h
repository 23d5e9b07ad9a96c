//===- perfbench/driver/Common.h - Shared benchmark plumbing ----*- C++ -*-===//
//
// Part of the chute project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What both workloads share: the command line, the pinned engine
/// options, a small JSON writer for the raw result document that
/// run.py turns into metrics, and clock/rusage helpers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "chute/chute.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Which run of a workload: Timed measures the end-to-end metrics
/// with tracing off; Traced adds the untraced reference run, the
/// Full-traced run with Chrome export, and the exact-count repeat.
enum class Mode { Timed, Traced };

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  unsigned Seconds = 10;
  Mode M = Mode::Timed;
  std::string RunDir; ///< scratch directory (relative to the cwd)
  std::string Out;    ///< raw result document path
};

/// The options every request runs with. Every field a workload
/// depends on is set explicitly, so resolveEnvOverrides has nothing
/// left to fill; Main refuses to start when any CHUTE_* variable is
/// set, which also covers the knobs read outside VerifierOptions.
chute::VerifierOptions pinnedOptions(chute::obs::TraceLevel Trace,
                                     unsigned BudgetMs,
                                     const std::string &CacheDir);

/// The options after resolveEnvOverrides, as a JSON object.
std::string optionsJson(const chute::VerifierOptions &Pinned);

/// Every obs counter and per-category inclusive time of \p S, as a
/// JSON object keyed by the counters' own names ("smt_queries",
/// "us_smt", ...).
std::string traceJson(const chute::obs::TraceSummary &S);

/// Builds one flat JSON object.
class JsonObj {
public:
  JsonObj &num(const char *Key, double V);
  JsonObj &num(const char *Key, std::uint64_t V);
  JsonObj &num(const char *Key, unsigned V) {
    return num(Key, static_cast<std::uint64_t>(V));
  }
  JsonObj &boolean(const char *Key, bool V);
  JsonObj &str(const char *Key, const std::string &V);
  /// \p Json is inserted verbatim (an object, array or literal).
  JsonObj &raw(const char *Key, const std::string &Json);
  std::string str() const { return Body + "}"; }

private:
  void key(const char *Key);
  std::string Body = "{";
};

/// A number as JSON (every digit of the double; null when not finite).
std::string jsonNumber(double V);

/// Joins already-rendered JSON values into an array.
std::string jsonArray(const std::vector<std::string> &Items);

/// Seconds on the monotonic clock.
double nowSeconds();

/// User plus system CPU seconds of \p Who (a getrusage target).
double cpuSeconds(int Who);

/// A seeded permutation of 0..N-1 (splitmix64 Fisher-Yates, the
/// same on every platform).
std::vector<unsigned> permutation(unsigned N, std::uint64_t Seed);

/// A small program and property (about 0.8 s of SMT, ranking and path
/// search): loads Z3 and runs the proof layers once before anything is
/// timed.
extern const char *const WarmupProgram;
extern const char *const WarmupProperty;

std::string runFig7(const Args &A);
std::string runService(const Args &A);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
