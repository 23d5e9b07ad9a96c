//===- perfbench/driver/Service.cpp - The service workload -----------------===//
//
// Part of the chute project.
//
//===----------------------------------------------------------------------===//
//
// An in-process chuted Server on a unix socket in the run directory,
// driven by closed-loop Clients. Requests are a seeded order of a
// fixed pool of fig6 rows and generated cases, each sent once per
// round. The pool holds more programs than the registry keeps, so
// evicted programs persist to the slab store and come back warm.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "corpus/Corpus.h"
#include "daemon/Client.h"
#include "daemon/Server.h"
#include "obs/ChromeTrace.h"
#include "gen/Generator.h"
#include "support/TaskPool.h"

#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <sys/resource.h>
#include <thread>

using namespace chute;

namespace perfbench {
namespace {

/// Fig6 rows that finish cold in under a second at Jobs=1, covering
/// 13 of the 14 fig6 programs and the nested-E rows (11-23) that
/// exercise QE. Rows 10, 16, 24, 27 and the slow negated rows take
/// 1-5 s cold; the fast negated rows reuse programs already here.
/// Either would stretch a round past ten seconds.
const unsigned Fig6Ids[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  11, 12, 13,
                            14, 15, 17, 18, 20, 21, 22, 23, 25, 26, 28, 29};
/// Generated cases come from one fixed suite, so every seed draws from
/// the same pool and only the order of requests changes with --seed.
/// Kept: the cases that finish cold in under a second at Jobs=1,
/// including eg-nonterm cases that end Unknown (ROADMAP item 6).
constexpr std::uint64_t GenSeed = 0xc407e0001ull;
constexpr unsigned GenCount = 24;
const unsigned GenIds[] = {0, 4, 5, 6, 9, 12, 13, 14, 15, 20, 21, 22, 23};

constexpr unsigned Clients = 3;
constexpr unsigned MaxInFlight = 2;
constexpr unsigned MaxQueue = 8;
/// The registry holds 4 of the pool's 26 programs, so most requests
/// miss it and warm-start from the slab store. The median then sits
/// inside the miss mode instead of on the edge between hits and misses.
constexpr unsigned MaxPrograms = 4;
constexpr unsigned BudgetMs = 10000;
/// Wall time of one round on the reference machine (7-12 s, with the
/// host); fixes how many rounds a run of --seconds makes, so the work
/// never depends on speed. Three rounds spread 15% over ten seeds, four
/// 7-11%.
constexpr double RoundSeconds = 10.0;
/// One set-up (~0.8 s) is a single sample of a noisy host, so it is
/// repeated and the median reported.
constexpr unsigned SetupReps = 7;

struct Item {
  std::string Name;
  std::string Program;
  std::string Property;
  bool Expect = true;
};

std::vector<Item> pool() {
  std::vector<Item> P;
  for (unsigned Id : Fig6Ids)
    for (const corpus::BenchRow &R : corpus::fig6Rows())
      if (R.Id == Id)
        P.push_back({"fig6-" + std::to_string(Id), R.Program, R.Property,
                     R.ExpectHolds});
  std::vector<gen::GeneratedCase> Suite = gen::generateSuite(GenSeed, GenCount);
  for (unsigned K : GenIds) {
    const gen::GeneratedCase &C = Suite[K];
    P.push_back({"gen-" + std::to_string(C.Index) + "-" + C.Family,
                 C.Source, C.Property, C.ExpectHolds});
  }
  return P;
}

daemon::ServerOptions serverOptions(const std::string &Dir,
                                    obs::TraceLevel Trace) {
  daemon::ServerOptions O;
  O.Endpoint = "unix:" + Dir + "/chuted.sock";
  O.MaxInFlight = MaxInFlight;
  O.MaxQueue = MaxQueue;
  O.MaxFrameBytes = daemon::DefaultMaxFrameBytes;
  O.DefaultDeadlineMs = 0;
  O.MaxPrograms = MaxPrograms;
  O.IdleTimeoutMs = 0;
  O.HoldMs = 0;
  O.Verify = pinnedOptions(Trace, BudgetMs, Dir + "/cache");
  return O;
}

daemon::ClientOptions clientOptions(const std::string &Dir,
                                    std::uint64_t Seed) {
  daemon::ClientOptions O;
  O.Endpoint = "unix:" + Dir + "/chuted.sock";
  O.ConnectAttempts = 5;
  O.BackoffBaseMs = 50;
  O.BackoffCapMs = 2000;
  O.OverloadRetries = 0;
  O.MaxFrameBytes = daemon::DefaultMaxFrameBytes;
  O.ReplyTimeoutMs = 60000;
  O.ReplyGraceMs = 5000;
  O.Seed = Seed;
  O.Backend = 1 + static_cast<std::uint8_t>(BackendKind::Chute);
  return O;
}

void removeTree(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

std::unique_ptr<daemon::Server> startServer(const std::string &Dir,
                                            obs::TraceLevel Trace) {
  removeTree(Dir);
  std::filesystem::create_directories(Dir);
  auto S = std::make_unique<daemon::Server>(serverOptions(Dir, Trace));
  std::string Err;
  if (!S->start(Err)) {
    std::fprintf(stderr, "service: server start failed: %s\n", Err.c_str());
    std::exit(1);
  }
  daemon::Client C(clientOptions(Dir, 1));
  if (!C.ping()) {
    std::fprintf(stderr, "service: no Pong from the server\n");
    std::exit(1);
  }
  return S;
}

struct SetupRep {
  double Seconds = 0, ParseMs = 0, InitMs = 0;
  std::unique_ptr<daemon::Server> Server;
};

/// One set-up repetition: parse and lift every distinct program of
/// the pool (the input check), warm Z3 up with one small verify, then
/// start a server and wait for its first Pong.
SetupRep setupOnce(const std::vector<Item> &Pool, const std::string &Dir) {
  SetupRep R;
  double T0 = nowSeconds();
  std::set<std::string> Seen;
  for (const Item &I : Pool) {
    if (!Seen.insert(I.Program).second)
      continue;
    double T = nowSeconds();
    ExprContext Ctx;
    std::string Err;
    std::unique_ptr<Program> P = parseProgram(Ctx, I.Program, Err);
    if (!P) {
      std::fprintf(stderr, "service: %s does not parse: %s\n",
                   I.Name.c_str(), Err.c_str());
      std::exit(1);
    }
    double T1 = nowSeconds();
    Verifier V(*P, pinnedOptions(obs::TraceLevel::Off, BudgetMs, ""));
    R.ParseMs += (T1 - T) * 1000.0;
    R.InitMs += (nowSeconds() - T1) * 1000.0;
  }
  {
    ExprContext Ctx;
    std::string Err;
    std::unique_ptr<Program> P = parseProgram(Ctx, WarmupProgram, Err);
    Verifier V(*P, pinnedOptions(obs::TraceLevel::Off, BudgetMs, ""));
    if (V.verify(WarmupProperty, Err).V != Verdict::Proved) {
      std::fprintf(stderr, "service: warm-up verify failed\n");
      std::exit(1);
    }
  }
  R.Server = startServer(Dir, obs::TraceLevel::Off);
  R.Seconds = nowSeconds() - T0;
  return R;
}

struct Sent {
  unsigned Item = 0;
  std::string Outcome; ///< ClientOutcome name
  std::string Status;  ///< WireStatus name ("" unless Done)
  double StartS = 0, RoundTripMs = 0, ServerS = 0;
  std::string Detail;
};

/// Serves the whole request sequence with closed-loop clients and
/// returns the window's JSON document. \p Server is stopped on return.
std::string runWindow(const Args &A, const char *Kind,
                      const std::vector<Item> &Pool,
                      const std::vector<unsigned> &Seq,
                      std::unique_ptr<daemon::Server> Server,
                      const std::string &Dir, obs::TraceLevel Trace) {
  std::vector<Sent> Log(Seq.size());
  std::atomic<std::size_t> Next{0};
  double Cpu0 = cpuSeconds(RUSAGE_SELF);
  double T0 = nowSeconds();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      daemon::Client Cl(clientOptions(Dir, A.Seed * 8 + C + 1));
      for (std::size_t I; (I = Next.fetch_add(1)) < Seq.size();) {
        const Item &It = Pool[Seq[I]];
        Sent &S = Log[I];
        S.Item = Seq[I];
        S.StartS = nowSeconds() - T0;
        daemon::ClientResult R = Cl.request(It.Program, {It.Property});
        S.RoundTripMs = (nowSeconds() - T0 - S.StartS) * 1000.0;
        S.Outcome = daemon::toString(R.Outcome);
        S.Detail = R.Error;
        if (R.Outcome == daemon::ClientOutcome::Done && R.Verdicts.size() == 1) {
          S.Status = daemon::toString(R.Verdicts[0].St);
          S.ServerS = R.Verdicts[0].Seconds;
          if (!R.Verdicts[0].Failure.empty())
            S.Detail = R.Verdicts[0].Failure;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  double Wall = nowSeconds() - T0;
  double Cpu = cpuSeconds(RUSAGE_SELF) - Cpu0;
  daemon::ServerStats St = Server->stats();
  Server->stop();
  Server.reset();

  std::string TraceFile, Counters = "null";
  if (Trace == obs::TraceLevel::Full) {
    obs::Tracer &Tr = obs::Tracer::global();
    TraceFile = A.RunDir + "/trace-service.json";
    obs::writeChromeTrace(Tr, TraceFile);
    Counters = traceJson(Tr.snapshot());
    Tr.disable();
  }

  std::vector<std::string> Reqs;
  for (const Sent &S : Log) {
    const Item &It = Pool[S.Item];
    Reqs.push_back(JsonObj()
                       .str("name", It.Name)
                       .boolean("expect", It.Expect)
                       .str("outcome", S.Outcome)
                       .str("status", S.Status)
                       .num("latency_ms", S.RoundTripMs)
                       .num("server_s", S.ServerS)
                       .str("detail", S.Detail)
                       .str());
  }
  return JsonObj()
      .str("kind", Kind)
      .num("wall_s", Wall)
      .num("cpu_s", Cpu)
      .raw("server", St.toJson())
      .str("trace_file", TraceFile)
      .raw("trace", Counters)
      .raw("requests", jsonArray(Reqs))
      .str();
}

} // namespace

std::string runService(const Args &A) {
  TaskPool::configureGlobal(1);
  std::vector<Item> Pool = pool();

  std::vector<std::string> SetupS, ParseMs, InitMs;
  std::unique_ptr<daemon::Server> Live;
  for (unsigned I = 0; I < SetupReps; ++I) {
    if (Live) { // only the last repetition's server serves the window
      Live->stop();
      Live.reset();
    }
    SetupRep R = setupOnce(Pool, A.RunDir + "/svc-timed");
    SetupS.push_back(jsonNumber(R.Seconds));
    ParseMs.push_back(jsonNumber(R.ParseMs));
    InitMs.push_back(jsonNumber(R.InitMs));
    Live = std::move(R.Server);
  }

  unsigned Rounds = std::max(2l, std::lround(A.Seconds / RoundSeconds));
  std::vector<unsigned> Seq;
  for (unsigned R = 0; R < Rounds; ++R)
    for (unsigned K : permutation(static_cast<unsigned>(Pool.size()),
                                  A.Seed * 1000003u + R))
      Seq.push_back(K);

  std::vector<std::string> Windows;
  Windows.push_back(runWindow(A, A.M == Mode::Timed ? "timed" : "untraced",
                              Pool, Seq, std::move(Live),
                              A.RunDir + "/svc-timed", obs::TraceLevel::Off));
  rusage Usage{}; // the peak up to the end of the timed window
  getrusage(RUSAGE_SELF, &Usage);
  double PeakRssMb = Usage.ru_maxrss / 1024.0;
  if (A.M == Mode::Traced) {
    obs::Tracer::global().reset();
    std::string Dir = A.RunDir + "/svc-full";
    Windows.push_back(runWindow(A, "full", Pool, Seq,
                                startServer(Dir, obs::TraceLevel::Full), Dir,
                                obs::TraceLevel::Full));
  }

  std::set<std::string> Programs;
  for (const Item &I : Pool)
    Programs.insert(I.Program);
  return JsonObj()
      .str("workload", "service")
      .num("seed", A.Seed)
      .raw("options", optionsJson(pinnedOptions(obs::TraceLevel::Off,
                                                BudgetMs, "<run>/cache")))
      .raw("server_options",
           JsonObj()
               .num("clients", Clients)
               .num("max_in_flight", MaxInFlight)
               .num("max_queue", MaxQueue)
               .num("max_programs", MaxPrograms)
               .num("idle_timeout_ms", 0u)
               .num("default_deadline_ms", 0u)
               .num("pool_items", static_cast<unsigned>(Pool.size()))
               .num("pool_programs", static_cast<unsigned>(Programs.size()))
               .num("rounds", Rounds)
               .str())
      .raw("setup_s", jsonArray(SetupS))
      .raw("setup_parse_ms", jsonArray(ParseMs))
      .raw("setup_init_ms", jsonArray(InitMs))
      .num("peak_rss_mb", PeakRssMb)
      .raw("windows", jsonArray(Windows))
      .str();
}

} // namespace perfbench
