//===- perfbench/driver/Common.cpp - Shared benchmark plumbing -------------===//

#include "Common.h"

#include "gen/Rng.h"
#include "obs/ChromeTrace.h"

#include <chrono>
#include <cmath>
#include <sys/resource.h>

using namespace chute;

namespace perfbench {

const char *const WarmupProgram = "init(x == 0);\n"
                                  "while (x < 3) { x = x + 1; }\n";
const char *const WarmupProperty = "AF(x >= 3)";

VerifierOptions pinnedOptions(obs::TraceLevel Trace, unsigned BudgetMs,
                              const std::string &CacheDir) {
  VerifierOptions O;
  O.Jobs = 1;
  O.Backend = BackendKind::Chute;
  O.Refiner.Speculation = 1;
  O.Incremental = true;
  O.SmtTimeoutMs = VerifierOptions().SmtTimeoutMs;
  O.TryNegation = true;
  O.BudgetMs = BudgetMs;
  O.CacheDir = CacheDir;
  O.Trace = Trace;
  return O;
}

std::string optionsJson(const VerifierOptions &Pinned) {
  VerifierOptions R = resolveEnvOverrides(Pinned);
  return JsonObj()
      .num("jobs", R.Jobs)
      .str("backend", toString(R.Backend.value_or(BackendKind::Chute)))
      .num("speculation", R.Refiner.Speculation)
      .num("max_rounds", R.Refiner.MaxRounds)
      .boolean("incremental", R.Incremental.value_or(true))
      .num("smt_timeout_ms", R.SmtTimeoutMs)
      .boolean("try_negation", R.TryNegation)
      .num("budget_ms", R.BudgetMs)
      .num("primary_share", R.PrimaryShare)
      .num("retry_max", R.Retry.MaxRetries)
      .str("cache_dir", R.CacheDir.value_or(""))
      .num("trace_level",
           static_cast<unsigned>(R.Trace.value_or(obs::TraceLevel::Off)))
      .str();
}

std::string traceJson(const obs::TraceSummary &S) {
  JsonObj J;
  for (unsigned I = 0; I < obs::NumCounters; ++I)
    J.num(obs::toString(static_cast<obs::Counter>(I)), S.Counters[I]);
  for (unsigned I = 0; I < obs::NumCategories; ++I) {
    std::string Key =
        std::string("us_") + obs::toString(static_cast<obs::Category>(I));
    J.num(Key.c_str(), S.Categories[I].Micros);
  }
  return J.str();
}

void JsonObj::key(const char *Key) {
  if (Body.size() > 1)
    Body += ',';
  Body += '"';
  Body += obs::jsonEscape(Key);
  Body += "\":";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

JsonObj &JsonObj::num(const char *Key, double V) {
  key(Key);
  Body += jsonNumber(V);
  return *this;
}

JsonObj &JsonObj::num(const char *Key, std::uint64_t V) {
  key(Key);
  Body += std::to_string(V);
  return *this;
}

JsonObj &JsonObj::boolean(const char *Key, bool V) {
  key(Key);
  Body += V ? "true" : "false";
  return *this;
}

JsonObj &JsonObj::str(const char *Key, const std::string &V) {
  key(Key);
  Body += '"';
  Body += obs::jsonEscape(V);
  Body += '"';
  return *this;
}

JsonObj &JsonObj::raw(const char *Key, const std::string &Json) {
  key(Key);
  Body += Json;
  return *this;
}

std::string jsonArray(const std::vector<std::string> &Items) {
  std::string Out = "[";
  for (std::size_t I = 0; I < Items.size(); ++I) {
    if (I != 0)
      Out += ",\n";
    Out += Items[I];
  }
  return Out + "]";
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return U.ru_utime.tv_sec + U.ru_stime.tv_sec +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

std::vector<unsigned> permutation(unsigned N, std::uint64_t Seed) {
  std::vector<unsigned> P(N);
  for (unsigned I = 0; I < N; ++I)
    P[I] = I;
  gen::Rng R(Seed);
  for (unsigned I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.below(I)]);
  return P;
}

} // namespace perfbench
