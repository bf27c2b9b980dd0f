// End-to-end benchmark driver: runs one named workload against the aspen
// libraries' public API and prints one raw JSON document on stdout.
//
//   aspen_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every workload runs at min(4, nproc) threads.
//
// --trace 0 repeats the whole workload (set-up, then the timed campaign) on
// the same inputs for --seconds, with set-up alone repeated between
// iterations for a steadier set-up median, and reports each iteration's
// set-up and run time (wall and CPU), operation count and determinism
// fingerprint.  --trace 1 runs the
// workload three times: a warm-up, an untraced reference, and a traced
// iteration with spans around every library call and the obs metrics
// registry on; then the call-by-call flow loop is replayed through
// run_flow_chaos (flows_anp_k16) and the per-layer probes run (standalone
// routing computes, DeltaSession apply/rollback, RoutingState copies and,
// on serve_k8, the serve-layer probe).  Spans are recorded here, around
// calls into src/, never inside it.
//
// perfbench/run.py turns the document into metrics, applies the
// correctness gate, and prints the benchmark's result line; this binary
// only measures and reports what it saw.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/survivability.h"
#include "src/aspen/generator.h"
#include "src/fault/chaos.h"
#include "src/fault/failure_domains.h"
#include "src/fault/seed.h"
#include "src/obs/obs.h"
#include "src/routing/delta.h"
#include "src/routing/updown.h"
#include "src/serve/driver.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/sim/simulator.h"
#include "src/topo/link_state.h"
#include "src/traffic/flow_plane.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_AUDIT_LEVEL
#define PERFBENCH_AUDIT_LEVEL -1
#endif

namespace {

using namespace aspen;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/// CPU time (user + sys) of every thread of the process so far.  The kernel
/// leaves out time the hypervisor took away from the vCPU (steal) and time
/// other processes ran, so it follows the work done, not the host's load.
double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---- spans ---------------------------------------------------------------

/// In-memory span log: name, start, end, parent index.  Disabled, open()
/// reads no clock and records nothing.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };

  bool enabled = false;

  int open(const char* name) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_s(), 0.0, parent});
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

class Scope {
 public:
  explicit Scope(const char* name) : id_(g_spans.open(name)) {}
  ~Scope() { g_spans.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// ---- workloads -----------------------------------------------------------

enum class Kind { kFlows, kSurvive, kServe };

struct Workload {
  const char* name;
  Kind kind;
  int n;
  int k;
  const char* ftv;
  ProtocolKind protocol;
  int events;           ///< chaos actions (flows, serve)
  std::uint64_t ops;    ///< flows admitted / samples / queries
};

/// The flow workload's fault schedule: the reference chaos seed.  --seed
/// drives its admitted flows and ECMP seeds instead, because schedules
/// differ in control-plane cost (by up to 1.7x under LSP at k=12), which
/// would swamp run-to-run comparisons across seeds.
constexpr std::uint64_t kFlowChaosSeed = 7;
/// After each iteration a --trace 0 run repeats set-up alone, at least once,
/// for kSetupShare of that iteration's wall time.  The host's speed drifts
/// over seconds, so set-ups spread over the whole run give a steadier median
/// than the same number taken in one stretch.
constexpr double kSetupShare = 0.1;

constexpr Workload kWorkloads[] = {
    {"flows_anp_k16", Kind::kFlows, 4, 16, "<0,0,0>", ProtocolKind::kAnp, 24,
     2'400'000},
    {"survive_k8", Kind::kSurvive, 4, 8, "<0,0,0>", ProtocolKind::kAnp, 0,
     2'500},
    {"serve_k8", Kind::kServe, 4, 8, "<0,0,0>", ProtocolKind::kAnp, 40,
     10'000},
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

/// One execution of a workload: set-up, then the timed campaign.
struct Iteration {
  double setup_s = 0.0;
  double run_s = 0.0;
  double setup_cpu_s = 0.0;
  double run_cpu_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  std::vector<Check> checks;
  std::vector<std::string> serve_checkpoints;  ///< serve_k8 only
};

/// Reports of the last serve / survivability campaign, for the traced
/// run's per-layer counts.
serve::ServeChaosReport g_last_serve;
SurvivabilityAccumulators g_last_survive;

std::string u64(std::uint64_t v) { return std::to_string(v); }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

Topology build_topology(const Workload& w) {
  const Scope span("topo.build");
  return Topology::build(
      generate_tree(w.n, w.k, FaultToleranceVector::parse(w.ftv)));
}

FlowChaosOptions flow_options(const Workload& w, std::uint64_t seed,
                              int threads) {
  FlowChaosOptions options;
  options.chaos.seed = kFlowChaosSeed;
  options.chaos.num_events = w.events;
  options.chaos.check_flows = 16;
  options.plane.base_seed = seed;
  options.plane.threads = threads;
  options.total_flows = w.ops;
  return options;
}

void add_chaos_checks(const ChaosOutcome& chaos, std::vector<Check>& out) {
  out.push_back({"chaos.ground_truth_violations == 0",
                 chaos.ground_truth_violations == 0,
                 u64(chaos.ground_truth_violations)});
  out.push_back({"chaos.tables_restored", chaos.tables_restored,
                 chaos.tables_restored ? "yes" : "no"});
}

/// run_flow_chaos's loop, driven call by call so each layer gets a span.
Iteration flows_iteration(const Workload& w, std::uint64_t seed, int threads,
                          bool setup_only) {
  Iteration it;
  const double t0 = now_s();
  const double c0 = cpu_now_s();
  const Topology topo = build_topology(w);
  const FlowChaosOptions options = flow_options(w, seed, threads);
  std::optional<fault::ChaosCampaign> campaign;
  {
    const Scope span("fault.campaign_setup");
    campaign.emplace(w.protocol, topo, options.chaos);
  }
  std::optional<FlowPlane> plane;
  {
    const Scope span("traffic.plane_setup");
    plane.emplace(topo, options.plane);
  }
  const double t1 = now_s();
  const double c1 = cpu_now_s();
  it.setup_s = t1 - t0;
  it.setup_cpu_s = c1 - c0;
  if (setup_only) return it;

  const std::uint64_t batches = static_cast<std::uint64_t>(w.events) + 1;
  const std::uint64_t per_batch = options.total_flows / batches;
  const auto admit = [&](std::uint64_t count) {
    const Scope span("traffic.admit");
    (void)plane->admit_uniform(count);
  };
  const auto step = [&]() {
    const Scope span("traffic.step");
    (void)plane->step(campaign->protocol().tables(), campaign->overlay(),
                      static_cast<double>(plane->epochs()));
  };
  const auto advance = [&]() {
    const Scope span("fault.advance");
    return campaign->advance();
  };

  admit(per_batch + options.total_flows % batches);
  step();
  while (advance()) {
    admit(per_batch);
    step();
  }
  {
    const Scope span("fault.finish");
    campaign->finish();
  }
  for (int i = 0; i < options.drain_epochs && plane->inflight() > 0; ++i) {
    step();
  }
  it.run_s = now_s() - t1;
  it.run_cpu_s = cpu_now_s() - c1;

  const std::uint64_t admitted = plane->admitted();
  const std::uint64_t delivered = plane->delivered();
  const std::uint64_t lost = plane->lost();
  const std::uint64_t inflight = plane->inflight();
  it.ops = admitted;
  it.failed = lost + inflight;
  it.fingerprint = plane->fate_fingerprint();
  it.checks.push_back({"admitted == delivered + lost + inflight",
                       admitted == delivered + lost + inflight,
                       u64(admitted) + " vs " + u64(delivered) + " + " +
                           u64(lost) + " + " + u64(inflight)});
  it.checks.push_back({"admitted == planned flows", admitted == w.ops,
                       u64(admitted)});
  add_chaos_checks(campaign->outcome(), it.checks);
  return it;
}

Iteration survive_iteration(const Workload& w, std::uint64_t seed,
                            int threads, bool setup_only) {
  Iteration it;
  const double t0 = now_s();
  const double c0 = cpu_now_s();
  const Topology topo = build_topology(w);
  std::optional<fault::FailureDomainModel> domains;
  {
    const Scope span("fault.domains_build");
    domains.emplace(fault::FailureDomainModel::independent(topo));
  }
  const double t1 = now_s();
  const double c1 = cpu_now_s();
  it.setup_s = t1 - t0;
  it.setup_cpu_s = c1 - c0;
  if (setup_only) return it;
  SurvivabilityOptions options;
  options.seed = seed;
  options.samples = w.ops;
  options.max_steps = 32;
  options.threads = threads;
  std::optional<SurvivabilityResult> result;
  {
    const Scope span("analysis.survivability");
    result.emplace(run_survivability(topo, *domains, options));
  }
  it.run_s = now_s() - t1;
  it.run_cpu_s = cpu_now_s() - c1;

  const SurvivabilityAccumulators& acc = result->acc;
  it.ops = result->samples;
  it.failed = acc.quarantined;
  it.fingerprint = acc.fingerprint();
  it.checks.push_back({"samples == planned samples", result->samples == w.ops,
                       u64(result->samples)});
  it.checks.push_back({"quarantined == 0", acc.quarantined == 0,
                       u64(acc.quarantined)});
  it.checks.push_back({"rollback_rebuilds == 0", acc.rollback_rebuilds == 0,
                       u64(acc.rollback_rebuilds)});
  g_last_survive = acc;
  return it;
}

serve::ServeChaosOptions serve_options(const Workload& w, std::uint64_t seed,
                                       int threads) {
  serve::ServeChaosOptions options;
  options.chaos.seed = seed;
  options.chaos.num_events = w.events;
  options.chaos.check_flows = 64;
  options.chaos.check_every = 10;
  options.num_queries = static_cast<int>(w.ops);
  options.num_clients = 4;
  options.query_interarrival_ms = 0.5;
  options.action_every_ms = static_cast<double>(options.num_queries) *
                            options.query_interarrival_ms /
                            static_cast<double>(options.chaos.num_events + 1);
  options.seal_every_actions = 2;
  options.checkpoint_every = options.num_queries / 6;
  options.client.channel.drop_rate = 0.15;
  options.client.channel.duplicate_rate = 0.05;
  options.client.channel.jitter_ms = 0.3;
  options.threads = threads;
  return options;
}


Iteration serve_iteration(const Workload& w, std::uint64_t seed, int threads,
                          bool setup_only) {
  Iteration it;
  const double t0 = now_s();
  const double c0 = cpu_now_s();
  const Topology topo = build_topology(w);
  const serve::ServeChaosOptions options = serve_options(w, seed, threads);
  {
    // run_serve_under_chaos starts by building a converged ChaosCampaign
    // and a SnapshotRegistry.  That call cannot be split from outside
    // src/, so the same construction, timed standalone, is the set-up.
    const Scope span("fault.campaign_setup");
    const fault::ChaosCampaign campaign(w.protocol, topo, options.chaos);
    const serve::SnapshotRegistry registry(topo, options.chaos.granularity,
                                           threads);
  }
  const double t1 = now_s();
  const double c1 = cpu_now_s();
  it.setup_s = t1 - t0;
  it.setup_cpu_s = c1 - c0;
  if (setup_only) return it;
  std::optional<serve::ServeChaosReport> report;
  {
    const Scope span("serve.campaign");
    report.emplace(serve::run_serve_under_chaos(w.protocol, topo, options));
  }
  it.run_s = now_s() - t1;
  it.run_cpu_s = cpu_now_s() - c1;

  const auto queries = static_cast<std::uint64_t>(options.num_queries);
  it.ops = queries;
  it.failed = queries - std::min(queries, report->answered);
  it.fingerprint = report->fingerprint();
  it.checks.push_back({"serve.passed()", report->passed(),
                       report->passed() ? "yes" : "no"});
  it.checks.push_back({"serve.audit_mismatches == 0",
                       report->audit_mismatches == 0,
                       u64(report->audit_mismatches)});
  it.checks.push_back({"serve.audited > 0", report->audited > 0,
                       u64(report->audited)});
  add_chaos_checks(report->chaos, it.checks);
  it.serve_checkpoints = report->checkpoints;
  g_last_serve = std::move(*report);
  return it;
}

Iteration run_iteration(const Workload& w, std::uint64_t seed, int threads,
                        bool setup_only = false) {
  switch (w.kind) {
    case Kind::kFlows:
      return flows_iteration(w, seed, threads, setup_only);
    case Kind::kSurvive:
      return survive_iteration(w, seed, threads, setup_only);
    case Kind::kServe:
      return serve_iteration(w, seed, threads, setup_only);
  }
  return {};
}

// ---- probes (traced run only) --------------------------------------------

/// Standalone routing probes on the workload's tree: full computes at the
/// workload's thread count and at 1 thread, DeltaSession apply/rollback
/// over seeded progressive single-link fault sequences, RoutingState copies.
void routing_probe(const Topology& topo, std::uint64_t seed, int threads,
                   std::vector<Check>& checks) {
  const Scope root("probe.routing");
  const LinkStateOverlay intact(topo);
  std::uint64_t reference = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::optional<RoutingState> state;
    {
      const Scope span("routing.full");
      state.emplace(
          compute_updown_routes(topo, intact, DestGranularity::kEdge, threads));
    }
    reference = state_fingerprint(*state);
  }
  for (int rep = 0; rep < 3; ++rep) {
    std::optional<RoutingState> state;
    {
      const Scope span("routing.full.t1");
      state.emplace(
          compute_updown_routes(topo, intact, DestGranularity::kEdge, 1));
    }
    if (rep == 0) {
      const std::uint64_t fp = state_fingerprint(*state);
      checks.push_back({"routing.full identical at 1 and N threads",
                        fp == reference, hex(fp) + " vs " + hex(reference)});
    }
  }

  routing::DeltaSession session(topo, DestGranularity::kEdge, threads);
  Rng rng(fault::derive_stream_seed(seed, 0x5EB0u));
  const std::size_t links = static_cast<std::size_t>(topo.num_links());
  std::uint64_t unclean = 0;
  bool copy_identical = false;
  constexpr int kSequences = 16;
  constexpr int kFaultsPerSequence = 8;
  for (int s = 0; s < kSequences; ++s) {
    for (int f = 0; f < kFaultsPerSequence; ++f) {
      const LinkId link{static_cast<std::uint32_t>(rng.index(links))};
      const Scope span("routing.delta_apply");
      (void)session.apply(std::span<const LinkId>(&link, 1));
    }
    if (s == kSequences / 2) {
      const std::shared_ptr<const routing::PinnedState> pinned = session.pin();
      for (int rep = 0; rep < 16; ++rep) {
        std::optional<RoutingState> copy;
        {
          const Scope span("routing.state_copy");
          copy.emplace(pinned->state);
        }
        if (rep == 0) {
          copy_identical = state_fingerprint(*copy) == pinned->fingerprint;
        }
      }
    }
    bool clean = false;
    {
      const Scope span("routing.delta_rollback");
      clean = session.rollback();
    }
    if (!clean) ++unclean;
  }
  checks.push_back({"routing.delta rollbacks digest-clean", unclean == 0,
                    u64(unclean)});
  checks.push_back({"routing.state_copy fingerprint == pinned",
                    copy_identical, copy_identical ? "yes" : "no"});
}

/// Serve-layer probe: seals along the workload's chaos schedule, a seeded
/// query mix (50% route / 30% what-if / 20% loss) executed against each
/// sealed snapshot, and restore + checkpoint of every checkpoint the
/// traced campaign cut.
void serve_probe(const Workload& w, const Topology& topo, std::uint64_t seed,
                 int threads, const std::vector<std::string>& checkpoints,
                 std::vector<Check>& checks) {
  const Scope root("probe.serve");
  const serve::ServeChaosOptions options = serve_options(w, seed, threads);
  fault::ChaosCampaign campaign(w.protocol, topo, options.chaos);
  serve::SnapshotRegistry registry(topo, options.chaos.granularity, threads);
  Rng rng(fault::derive_stream_seed(seed, 0x5EB1u));
  const std::size_t hosts = static_cast<std::size_t>(topo.num_hosts());
  const std::size_t links = static_cast<std::size_t>(topo.num_links());
  constexpr int kQueriesPerSeal = 100;
  std::uint64_t next_id = 1;
  const auto run_queries = [&](const routing::PinnedState& pinned) {
    for (int q = 0; q < kQueriesPerSeal; ++q) {
      serve::Request req;
      req.id = next_id++;
      const std::size_t roll = rng.index(1000);
      req.kind = roll < 300   ? serve::QueryKind::kWhatIf
                 : roll < 500 ? serve::QueryKind::kLoss
                              : serve::QueryKind::kRoute;
      req.src = static_cast<std::uint32_t>(rng.index(hosts));
      req.dst = static_cast<std::uint32_t>(rng.index(hosts));
      if (req.dst == req.src) {
        req.dst = static_cast<std::uint32_t>((req.dst + 1) % hosts);
      }
      req.flow_seed = rng.index(1u << 30);
      if (req.kind == serve::QueryKind::kWhatIf) {
        const std::size_t cuts = 1 + rng.index(3);
        for (std::size_t j = 0; j < cuts; ++j) {
          req.fail_links.push_back(
              static_cast<std::uint32_t>(rng.index(links)));
        }
      }
      if (req.kind == serve::QueryKind::kLoss) req.flows = options.loss_flows;
      const char* name = req.kind == serve::QueryKind::kWhatIf
                             ? "serve.execute.what_if"
                         : req.kind == serve::QueryKind::kLoss
                             ? "serve.execute.loss"
                             : "serve.execute.route";
      const Scope span(name);
      (void)serve::execute_query(topo, pinned, req);
    }
  };

  run_queries(*registry.current().pinned);
  double now_ms = 0.0;
  while (campaign.advance()) {
    now_ms += options.action_every_ms;
    registry.note_live_event();
    if (campaign.actions_taken() % options.seal_every_actions != 0) continue;
    std::shared_ptr<const routing::PinnedState> pinned;
    {
      const Scope span("serve.seal");
      pinned = registry.seal(campaign.overlay(), now_ms).pinned;
    }
    run_queries(*pinned);
  }
  campaign.finish();

  std::uint64_t mismatched = 0;
  for (const std::string& cp : checkpoints) {
    Simulator sim;
    serve::SnapshotRegistry fresh(topo, options.chaos.granularity, threads);
    serve::Server server(sim, topo, fresh, options.server);
    {
      const Scope span("serve.restore");
      server.restore(cp);
    }
    std::string again;
    {
      const Scope span("serve.checkpoint");
      again = server.checkpoint();
    }
    if (again != cp) ++mismatched;
  }
  checks.push_back({"serve checkpoint -> restore -> checkpoint byte-identical",
                    mismatched == 0 && !checkpoints.empty(),
                    u64(mismatched) + " of " + u64(checkpoints.size())});
}

// ---- process accounting --------------------------------------------------

struct ProcSample {
  double wall_s;
  double user_s;
  double sys_s;
  std::uint64_t minor_faults;
};

ProcSample proc_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return {now_s(), tv(ru.ru_utime), tv(ru.ru_stime),
          static_cast<std::uint64_t>(ru.ru_minflt)};
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

// ---- JSON output ---------------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_checks(const std::vector<Check>& checks) {
  std::printf("[");
  for (std::size_t i = 0; i < checks.size(); ++i) {
    std::printf("%s{\"name\": %s, \"ok\": %s, \"detail\": %s}",
                i ? ", " : "", quoted(checks[i].name).c_str(),
                checks[i].ok ? "true" : "false",
                quoted(checks[i].detail).c_str());
  }
  std::printf("]");
}

void print_iteration(const Iteration& it) {
  std::printf("{\"setup_s\": %.9f, \"run_s\": %.9f, \"setup_cpu_s\": %.9f, "
              "\"run_cpu_s\": %.9f, \"ops\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"fingerprint\": \"%s\", "
              "\"checks\": ",
              it.setup_s, it.run_s, it.setup_cpu_s, it.run_cpu_s, it.ops,
              it.failed,
              hex(it.fingerprint).c_str());
  print_checks(it.checks);
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: aspen_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload_name = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1) return usage();
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name != nullptr && std::strcmp(w.name, workload_name) == 0) {
      workload = &w;
    }
  }
  if (workload == nullptr || (trace != 0 && trace != 1) || seconds <= 0.0) {
    return usage();
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int threads = std::min(4, nproc);
  parallel::set_num_threads(threads);

  std::vector<Iteration> iterations;
  std::vector<double> setup_only;
  std::vector<double> setup_only_cpu;
  std::vector<Check> extra_checks;
  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  ProcSample proc_delta{};
  std::string counters_json = "{}";

  if (trace == 0) {
    // Every iteration runs the same inputs, so each must reproduce the
    // first one's fingerprint.  --seconds bounds the whole loop, extra
    // set-ups included: another iteration starts only if one as long as
    // the last would end less than half an iteration past --seconds.
    const double start = now_s();
    double last = 0.0;
    do {
      const double t0 = now_s();
      iterations.push_back(run_iteration(*workload, seed, threads));
      const double wall = now_s() - t0;
      const double setups_end = now_s() + kSetupShare * wall;
      do {
        const Iteration setup = run_iteration(*workload, seed, threads, true);
        setup_only.push_back(setup.setup_s);
        setup_only_cpu.push_back(setup.setup_cpu_s);
      } while (now_s() < setups_end);
      last = now_s() - t0;
    } while (now_s() - start + last / 2 <= seconds);
  } else {
    // A warm-up iteration, an untraced reference iteration (with process
    // accounting), then the traced one: spans plus the obs metrics
    // registry.  All three run the same schedule.
    iterations.push_back(run_iteration(*workload, seed, threads));
    const ProcSample p0 = proc_now();
    iterations.push_back(run_iteration(*workload, seed, threads));
    const ProcSample p1 = proc_now();
    proc_delta = {p1.wall_s - p0.wall_s, p1.user_s - p0.user_s,
                  p1.sys_s - p0.sys_s, p1.minor_faults - p0.minor_faults};
    untraced_wall = proc_delta.wall_s;

    obs::ObsConfig obs_config;
    obs_config.metrics = true;
    obs::configure(obs_config);
    obs::reset_collected();
    g_spans.enabled = true;
    const double t0 = now_s();
    {
      const Scope root("run");
      iterations.push_back(run_iteration(*workload, seed, threads));
    }
    traced_wall = now_s() - t0;
    counters_json = obs::metrics().to_json(0);
    obs::configure(obs::ObsConfig{});

    // The call-by-call flow loop must reproduce run_flow_chaos exactly.
    const Topology topo = [&] {
      const obs::PauseObs quiet;
      return Topology::build(generate_tree(
          workload->n, workload->k, FaultToleranceVector::parse(workload->ftv)));
    }();
    if (workload->kind == Kind::kFlows) {
      const Scope span("probe.run_flow_chaos");
      const FlowChaosReport report = run_flow_chaos(
          workload->protocol, topo, flow_options(*workload, seed, threads));
      extra_checks.push_back(
          {"call-by-call loop fingerprint == run_flow_chaos fingerprint",
           report.fate_fingerprint == iterations.back().fingerprint,
           hex(report.fate_fingerprint) + " vs " +
               hex(iterations.back().fingerprint)});
    }
    routing_probe(topo, seed, threads, extra_checks);
    if (workload->kind == Kind::kServe) {
      serve_probe(*workload, topo, seed, threads,
                  iterations.back().serve_checkpoints, extra_checks);
    }
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %d, \"seconds\": %.3f,\n",
              workload->name, seed, trace, seconds);
  std::printf(" \"env\": {\"nproc\": %d, \"threads\": %d, \"compiler\": %s, "
              "\"build_type\": \"%s\", \"audit_level\": %d},\n",
              nproc, threads, quoted(std::string("GCC-compatible ") + __VERSION__).c_str(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_AUDIT_LEVEL);
  std::printf(" \"shape\": {\"n\": %d, \"k\": %d, \"ftv\": \"%s\", "
              "\"protocol\": \"%s\", \"events\": %d, \"ops\": %" PRIu64 "},\n",
              workload->n, workload->k, workload->ftv,
              to_cstring(workload->protocol), workload->events, workload->ops);
  std::printf(" \"peak_rss_mb\": %.3f,\n", peak_rss_mb());
  std::printf(" \"iterations\": [");
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    std::printf("%s\n  ", i ? "," : "");
    print_iteration(iterations[i]);
  }
  std::printf("],\n \"setup_only_s\": [");
  for (std::size_t i = 0; i < setup_only.size(); ++i) {
    std::printf("%s%.9f", i ? ", " : "", setup_only[i]);
  }
  std::printf("],\n \"setup_only_cpu_s\": [");
  for (std::size_t i = 0; i < setup_only_cpu.size(); ++i) {
    std::printf("%s%.9f", i ? ", " : "", setup_only_cpu[i]);
  }
  std::printf("],\n \"checks\": ");
  print_checks(extra_checks);
  if (trace == 1) {
    std::printf(",\n \"untraced_wall_s\": %.9f, \"traced_wall_s\": %.9f,\n",
                untraced_wall, traced_wall);
    std::printf(" \"proc\": {\"wall_s\": %.9f, \"user_s\": %.6f, "
                "\"sys_s\": %.6f, \"minor_faults\": %" PRIu64 "},\n",
                proc_delta.wall_s, proc_delta.user_s, proc_delta.sys_s,
                proc_delta.minor_faults);
    if (workload->kind == Kind::kServe) {
      const serve::ServeChaosReport& r = g_last_serve;
      std::printf(" \"serve_report\": {\"cache_hits\": %" PRIu64
                  ", \"cache_misses\": %" PRIu64 ", \"retransmits\": %" PRIu64
                  ", \"frames_sent\": %" PRIu64 ", \"answered\": %" PRIu64
                  ", \"seals\": %" PRIu64 ", \"checkpoints\": %" PRIu64 "},\n",
                  r.cache_hits, r.cache_misses, r.clients.retransmits,
                  r.clients.frames_sent, r.answered, r.seals,
                  r.checkpoints_cut);
    }
    if (workload->kind == Kind::kSurvive) {
      const SurvivabilityAccumulators& a = g_last_survive;
      std::printf(" \"survive_report\": {\"samples\": %" PRIu64
                  ", \"sum_steps\": %" PRIu64 ", \"full_rows\": %" PRIu64
                  ", \"patched_switches\": %" PRIu64 ", \"audits\": %" PRIu64
                  ", \"rollback_rebuilds\": %" PRIu64
                  ", \"quarantined\": %" PRIu64 "},\n",
                  a.committed_samples + a.quarantined, a.sum_steps,
                  a.incremental_full_rows, a.incremental_patched_switches,
                  a.audits_run, a.rollback_rebuilds, a.quarantined);
    }
    std::printf(" \"counters\": %s,\n \"spans\": [", counters_json.c_str());
    const auto& spans = g_spans.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::printf("%s\n  [\"%s\", %.9f, %.9f, %d]", i ? "," : "",
                  spans[i].name, spans[i].start, spans[i].end,
                  spans[i].parent);
    }
    std::printf("]");
  }
  std::printf("}\n");
  return 0;
}
