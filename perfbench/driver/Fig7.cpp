//===- perfbench/driver/Fig7.cpp - The fig7 workload -----------------------===//
//
// Part of the chute project.
//
//===----------------------------------------------------------------------===//
//
// Figure 7 industrial rows, one request at a time, each in a forked
// child that parses the row, builds a fresh Verifier (Jobs=1) and
// verifies under a fixed budget, the way chuteverify users run it.
// The parent kills a child that outlives the cap and counts it as
// failed. Nothing is shared across requests.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "corpus/Corpus.h"
#include "obs/ChromeTrace.h"
#include "support/Socket.h"

#include <cerrno>
#include <cmath>
#include <csignal>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace chute;

namespace perfbench {
namespace {

/// Rows that reach their expected verdict well within the budget at
/// Jobs=1, plus row 9, which overruns any budget inside
/// PathSearch::cyclesFrom and is killed at the cap every time.
const unsigned Fig7Rows[] = {1,  3,  4,  5,  7,  9,  17, 18, 19, 25, 26,
                             27, 28, 32, 36, 38, 40, 44, 46, 53, 54, 56};
/// The budget leaves the proof attempt (PrimaryShare 0.6) 4.8 s, well
/// above the slowest kept row, so no decided row depends on where the
/// budget expires; the cap is the budget plus a second of slack.
constexpr unsigned BudgetMs = 8000;
constexpr unsigned CapMs = 9000;
/// Wall time of one pass on the reference machine; fixes how many
/// passes a run of --seconds makes (the work never depends on speed).
constexpr double PassSeconds = 34.0;
/// One set-up (~0.8 s) is a single sample of a noisy host, so it is
/// repeated and the median reported.
constexpr unsigned SetupReps = 7;

struct Request {
  std::string Outcome; ///< "ok", "killed" or "crashed"
  double LatencyMs = 0;
  double CpuS = 0;
  double RssMb = 0;
  std::string Record; ///< the child's JSON report ("" unless ok)
};

const corpus::BenchRow &rowById(unsigned Id) {
  for (const corpus::BenchRow &R : corpus::fig7Rows())
    if (R.Id == Id)
      return R;
  std::abort();
}

double msSince(double T0) { return (nowSeconds() - T0) * 1000.0; }

const char *verdictName(Verdict V) {
  switch (V) {
  case Verdict::Proved:
    return "proved";
  case Verdict::Disproved:
    return "disproved";
  default:
    return "unknown";
  }
}

/// The child side of one request: parse, build, verify, report on
/// \p Fd, export the trace (after the report, so the parent's latency
/// excludes it), exit.
[[noreturn]] void childMain(int Fd, const std::string &Source,
                            const std::string &Property,
                            obs::TraceLevel Trace,
                            const std::string &TracePath) {
  alarm(CapMs / 1000 + 10); // backstop should the parent die
  obs::Tracer &Tr = obs::Tracer::global();
  Tr.reset();

  double T0 = nowSeconds();
  ExprContext Ctx;
  std::string Err;
  std::unique_ptr<Program> P = parseProgram(Ctx, Source, Err);
  if (!P)
    _exit(13);
  double ParseMs = msSince(T0);

  T0 = nowSeconds();
  Verifier V(*P, pinnedOptions(Trace, BudgetMs, ""));
  double InitMs = msSince(T0);

  T0 = nowSeconds();
  VerifyResult R = V.verify(Property, Err);
  double VerifyMs = msSince(T0);

  JsonObj J;
  J.str("verdict", verdictName(R.V))
      .num("parse_ms", ParseMs)
      .num("init_ms", InitMs)
      .num("verify_ms", VerifyMs)
      .num("rounds", R.Rounds)
      .num("refinements", R.Refinements)
      .num("backtracks", R.Backtracks)
      .num("smt_queries", R.SmtStats.Queries)
      .num("smt_retries", R.SmtStats.Retries)
      .num("cache_hits", R.CacheStats.Hits)
      .num("cache_misses", R.CacheStats.Misses)
      .num("inc_checks", R.SessionStats.Checks)
      .num("jobs", R.Jobs)
      .str("failure", R.Failure.valid() ? R.Failure.toString() : "");
  if (Trace != obs::TraceLevel::Off)
    J.raw("trace", traceJson(R.Trace));
  std::string Rec = J.str();
  (void)sendAll(Fd, Rec.data(), Rec.size());
  close(Fd);
  if (Trace == obs::TraceLevel::Full)
    obs::writeChromeTrace(Tr, TracePath);
  _exit(0);
}

/// Runs one request in a forked child. Latency runs from just before
/// the fork to the end of the child's report.
Request runChild(const corpus::BenchRow &Row, obs::TraceLevel Trace,
                 const std::string &TracePath) {
  Request Out;
  int Pipe[2];
  if (pipe(Pipe) != 0)
    std::abort();
  double T0 = nowSeconds();
  pid_t Pid = fork();
  if (Pid < 0)
    std::abort();
  if (Pid == 0) {
    close(Pipe[0]);
    childMain(Pipe[1], Row.Program, Row.Property, Trace, TracePath);
  }
  close(Pipe[1]);

  bool Killed = false;
  std::string Buf;
  for (;;) {
    int Left = static_cast<int>(CapMs - msSince(T0));
    pollfd P{Pipe[0], POLLIN, 0};
    int N = Left > 0 ? poll(&P, 1, Left) : 0;
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      kill(Pid, SIGKILL);
      Killed = true;
      break;
    }
    char Chunk[4096];
    ssize_t Got = read(Pipe[0], Chunk, sizeof(Chunk));
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got <= 0)
      break;
    Buf.append(Chunk, static_cast<std::size_t>(Got));
  }
  Out.LatencyMs = msSince(T0);
  close(Pipe[0]);

  int Status = 0;
  rusage U{};
  while (wait4(Pid, &Status, 0, &U) < 0 && errno == EINTR) {
  }
  Out.CpuS = U.ru_utime.tv_sec + U.ru_stime.tv_sec +
             (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
  Out.RssMb = U.ru_maxrss / 1024.0;
  if (Killed) {
    Out.Outcome = "killed";
  } else if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 || Buf.empty()) {
    Out.Outcome = "crashed";
  } else {
    Out.Outcome = "ok";
    Out.Record = Buf;
  }
  return Out;
}

/// One set-up repetition: parse every row (the input check), then a
/// forked warm-up request that loads Z3 and runs every layer once.
/// Returns {seconds, parse ms}.
std::pair<double, double> setupOnce(const std::vector<unsigned> &Ids) {
  double T0 = nowSeconds();
  for (unsigned Id : Ids) {
    ExprContext Ctx;
    std::string Err;
    if (!parseProgram(Ctx, rowById(Id).Program, Err)) {
      std::fprintf(stderr, "fig7 row %u does not parse: %s\n", Id,
                   Err.c_str());
      std::exit(1);
    }
  }
  double ParseMs = msSince(T0);
  corpus::BenchRow Warm;
  Warm.Program = WarmupProgram;
  Warm.Property = WarmupProperty;
  Request W = runChild(Warm, obs::TraceLevel::Off, "");
  if (W.Outcome != "ok") {
    std::fprintf(stderr, "fig7 warm-up request %s\n", W.Outcome.c_str());
    std::exit(1);
  }
  return {nowSeconds() - T0, ParseMs};
}

struct PassSpec {
  const char *Kind; ///< "timed", "untraced", "full" or "stats"
  obs::TraceLevel Trace;
};

std::string runPass(const Args &A, const std::vector<unsigned> &Ids,
                    const PassSpec &S, unsigned PassNo) {
  std::vector<unsigned> Order =
      permutation(static_cast<unsigned>(Ids.size()),
                  A.Seed * 1000003u + PassNo);
  std::vector<std::string> Reqs;
  double T0 = nowSeconds();
  for (unsigned K : Order) {
    const corpus::BenchRow &Row = rowById(Ids[K]);
    std::string TracePath;
    if (S.Trace == obs::TraceLevel::Full)
      TracePath = A.RunDir + "/trace-fig7-" + std::to_string(Row.Id) + ".json";
    Request R = runChild(Row, S.Trace, TracePath);
    JsonObj J;
    J.num("row", Row.Id)
        .str("example", Row.Example)
        .boolean("expect", Row.ExpectHolds)
        .str("outcome", R.Outcome)
        .num("latency_ms", R.LatencyMs)
        .num("cpu_s", R.CpuS)
        .num("rss_mb", R.RssMb)
        .str("trace_file", R.Outcome == "ok" ? TracePath : "")
        .raw("rec", R.Record.empty() ? "null" : R.Record);
    Reqs.push_back(J.str());
  }
  double Wall = nowSeconds() - T0;
  return JsonObj()
      .str("kind", S.Kind)
      .num("wall_s", Wall)
      .raw("requests", jsonArray(Reqs))
      .str();
}

} // namespace

std::string runFig7(const Args &A) {
  std::vector<unsigned> Ids(std::begin(Fig7Rows), std::end(Fig7Rows));

  std::vector<std::string> SetupS, SetupParse;
  for (unsigned I = 0; I < SetupReps; ++I) {
    auto [Secs, ParseMs] = setupOnce(Ids);
    SetupS.push_back(jsonNumber(Secs));
    SetupParse.push_back(jsonNumber(ParseMs));
  }

  std::vector<PassSpec> Passes;
  if (A.M == Mode::Timed) {
    unsigned N = std::max(1l, std::lround(A.Seconds / PassSeconds));
    Passes.assign(N, PassSpec{"timed", obs::TraceLevel::Off});
  } else {
    Passes = {{"untraced", obs::TraceLevel::Off},
              {"full", obs::TraceLevel::Full},
              {"stats", obs::TraceLevel::Stats}};
  }

  double Cpu0 = cpuSeconds(RUSAGE_SELF);
  std::vector<std::string> PassDocs;
  for (unsigned I = 0; I < Passes.size(); ++I)
    PassDocs.push_back(runPass(A, Ids, Passes[I], I));
  double ParentCpu = cpuSeconds(RUSAGE_SELF) - Cpu0;

  return JsonObj()
      .str("workload", "fig7")
      .num("seed", A.Seed)
      .raw("options", optionsJson(pinnedOptions(obs::TraceLevel::Off,
                                                BudgetMs, "")))
      .num("budget_ms", BudgetMs)
      .num("cap_ms", CapMs)
      .raw("setup_s", jsonArray(SetupS))
      .raw("setup_parse_ms", jsonArray(SetupParse))
      .num("parent_cpu_s", ParentCpu)
      .raw("passes", jsonArray(PassDocs))
      .str();
}

} // namespace perfbench
