// mddbench — end-to-end and per-layer benchmark of mddsim (README.md here).
//
//   mddbench --workload NAME --seed S [--seconds T] [--trace 0|1]
//            [--root DIR] [--expected FILE]
//
// One workload per process.  With --trace 0 it runs one untimed warm-up
// trial, then timed trials (at least kMinTrials, until T seconds have
// passed) with every observer detached, and reports the end-to-end metrics
// as medians.  With --trace 1 it runs the traced pass instead, repeated
// until T seconds have passed: the same work with the library's phase
// profiler and span recorder attached, plus outside probes timed around
// public calls into each layer.  It reports the per-layer metrics as
// medians over the repetitions.  No file under src/ knows about the
// benchmark: every layer is timed from outside.
//
// Both modes check every output they produce and count each check as one
// operation.  The last stdout line is one JSON object with the keys
// "correct", "attempted", "failed" and "metrics".  Results and per-point
// provenance also go to bench/BENCH_mddbench_<workload>[_traced].json.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "mddsim/coherence/app_sim.hpp"
#include "mddsim/common/config_parse.hpp"
#include "mddsim/core/cwg.hpp"
#include "mddsim/mc/explorer.hpp"
#include "mddsim/par/sweep.hpp"
#include "mddsim/par/thread_pool.hpp"
#include "mddsim/routing/table.hpp"
#include "mddsim/snap/state_io.hpp"
#include "mddsim/topology/digraph.hpp"
#include "mddsim/verify/verify.hpp"

using namespace mddsim;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinTrials = 7;
/// Set-up rounds without a trial before the timed trials (see run_timed).
constexpr int kSetupRounds = 20;
/// Cycles between the traced pass's activity and routing samples (the
/// profiler's default sample period).
constexpr Cycle kSamplePeriod = 16;
/// Cycles between the bench-owned CWG detector's scans in the traced pass.
constexpr Cycle kScanPeriod = 10;
/// QuantileSampler capacity that keeps every sample (a run takes at most a
/// few hundred thousand), so its quantiles are exact.
constexpr std::size_t kKeepAll = std::size_t{1} << 24;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process image.  VmHWM, not ru_maxrss: at exec
/// Linux folds the parent's high-water mark into ru_maxrss, so a child of a
/// Python launcher would report the interpreter's footprint.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// CPUs this process may run on (what `nproc` prints).
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return par::hardware_threads();
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- Statistics over repeated samples. ---------------------------------------

struct Summary {
  std::size_t n = 0;
  double median = 0.0, q1 = 0.0, q3 = 0.0, mad = 0.0;
};

Summary summarize(const std::vector<double>& v) {
  QuantileSampler q(kKeepAll), dev(kKeepAll);
  for (double x : v) q.add(x);
  Summary s{v.size(), q.median(), q.quantile(0.25), q.quantile(0.75), 0.0};
  for (double x : v) dev.add(std::fabs(x - s.median));
  s.mad = dev.median();
  return s;
}

// --- Checked operations and output fingerprints. -----------------------------

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "[mddbench] check failed: %s\n", what.c_str());
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Ordered (key, fingerprint) pairs one trial produced.
using Fingerprints = std::vector<std::pair<std::string, std::string>>;

/// FNV-1a over every RunResult field; doubles go in as hex floats, so equal
/// fingerprints mean bit-identical results.
std::string fingerprint(const RunResult& r) {
  std::string s;
  char buf[40];
  for (double v : {r.offered_load, r.throughput, r.avg_packet_latency,
                   r.p50_packet_latency, r.p95_packet_latency,
                   r.p99_packet_latency, r.avg_txn_latency, r.avg_txn_messages,
                   r.normalized_deadlocks}) {
    std::snprintf(buf, sizeof(buf), "%a;", v);
    s += buf;
  }
  for (std::uint64_t v :
       {r.packets_delivered, r.txns_completed, r.counters.detections,
        r.counters.deflections, r.counters.rescues, r.counters.rescued_msgs,
        r.counters.retries, r.counters.cwg_deadlocks,
        static_cast<std::uint64_t>(r.drained), r.cycles_run}) {
    s += std::to_string(v) + ';';
  }
  return hex64(obs::fnv1a64(s));
}

std::string fingerprint(const AppRunResult& r) {
  std::string s;
  char buf[40];
  for (double v : {r.mean_load, r.max_load, r.frac_under_5pct,
                   r.avg_txn_latency}) {
    std::snprintf(buf, sizeof(buf), "%a;", v);
    s += buf;
  }
  for (std::uint64_t v :
       {r.responses.direct, r.responses.invalidation, r.responses.forwarding,
        r.responses.writeback, r.responses.local, r.accesses, r.network_txns,
        r.deadlock_detections, r.rescues, r.cycles}) {
    s += std::to_string(v) + ';';
  }
  return hex64(obs::fnv1a64(s));
}

/// Committed fingerprints for --seed 1 (expected.txt): lines of
/// "<workload> <key> <fingerprint>"; '#' starts a comment.
std::map<std::string, std::string> load_expected(const std::string& path,
                                                 const std::string& workload) {
  std::map<std::string, std::string> out;
  std::ifstream is(path);
  if (!is) throw ConfigError("cannot read expected fingerprints: " + path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, key, value;
    if (!(ls >> w >> key >> value)) {
      throw ConfigError(path + ": malformed line: " + line);
    }
    if (w == workload) out[key] = value;
  }
  return out;
}

// --- Per-layer metrics. ------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The per-layer metrics of the result line (BENCHMARK.json "per_layer").
/// Every workload prints all of them: host times only where every workload
/// exercises the layer, counts and rates otherwise, 0 where the workload
/// never reaches the layer.  Per-workload host times (step percentiles,
/// knot-scan latency, verify/mc/snap breakdowns) are printed and written to
/// the JSON artifact as extras.
constexpr MetricDef kPerLayer[] = {
    {"sim.ns_per_router_cycle", "ns"},
    {"sim.active_router_frac", "frac"},
    {"sim.active_ni_frac", "frac"},
    {"sim.skipped_frac", "frac"},
    {"setup.sim_ctor_us", "us"},
    {"config.parse_us", "us"},
    {"prof.protocol_step_ns_per_cycle", "ns"},
    {"prof.ni_inject_ns_per_cycle", "ns"},
    {"prof.router_step_ns_per_cycle", "ns"},
    {"prof.link_traversal_ns_per_cycle", "ns"},
    {"prof.token_handling_ns_per_cycle", "ns"},
    {"prof.coverage", "ratio"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.probe_overhead_frac", "frac"},
    {"router.flits_per_router_cycle", "flit"},
    {"router.vc_stalls_per_router_cycle", "count"},
    {"routing.candidates_per_call", "count"},
    {"spans.wait.inject_queue", "cycle/msg"},
    {"spans.wait.vc_alloc", "cycle/msg"},
    {"spans.wait.credit_stall", "cycle/msg"},
    {"spans.wait.eject_admit", "cycle/msg"},
    {"spans.wait.mc_wait", "cycle/msg"},
    {"spans.wait.recovery_lane", "cycle/msg"},
    {"cwg.vertices", "count"},
    {"cwg.edges_mean", "count"},
    {"cwg.knots_per_scan", "count"},
    {"recovery.rescues_per_kcycle", "count"},
    {"recovery.rescued_msgs_per_rescue", "count"},
    {"core.deflections_per_kmsg", "count"},
    {"core.rescues_per_detection", "ratio"},
    {"app.frac_under_5pct", "frac"},
    {"app.network_txns", "count"},
    {"app.table1_err_pp", "pp"},
    {"par.points_per_s_j1", "1/s"},
    {"par.points_per_s_j2", "1/s"},
    {"par.points_per_s_j4", "1/s"},
    {"par.speedup_j4", "ratio"},
    {"par.efficiency_j4", "ratio"},
    {"par.intra_speedup_j2", "ratio"},
    {"par.intra_speedup_j4", "ratio"},
    {"verify.config_ms", "ms"},
    {"mc.states", "count"},
    {"mc.paths", "count"},
    {"mc.dedup_hit_rate", "frac"},
    {"mc.states_per_s", "1/s"},
    {"snap.bytes_per_node", "B"},
    {"snap.roundtrip_mb_per_s", "MB/s"},
};

/// One traced-pass repetition's per-layer values: the kPerLayer metrics
/// plus workload-specific extras (name → (unit, value)).
class Layers {
 public:
  void set(const std::string& name, double v) {
    MDD_CHECK_MSG(per_layer(name), "unknown per-layer metric " + name);
    values_[name] = v;
  }
  void extra(const std::string& name, const char* unit, double v) {
    MDD_CHECK_MSG(!per_layer(name), name + " is a per-layer metric");
    extras_[name] = {unit, v};
  }
  const std::map<std::string, double>& values() const { return values_; }
  const std::map<std::string, std::pair<std::string, double>>& extras() const {
    return extras_;
  }

 private:
  static bool per_layer(const std::string& name) {
    for (const MetricDef& d : kPerLayer) {
      if (name == d.name) return true;
    }
    return false;
  }

  std::map<std::string, double> values_;
  std::map<std::string, std::pair<std::string, double>> extras_;
};

// --- Traced pass over Simulator points. --------------------------------------

/// Accumulators over every simulation one traced-pass repetition runs.
/// Each point runs three times: U, untraced (the run() users call); A,
/// profiled (cfg.profile + cfg.spans); B, probed (stepped with mc_tick
/// under outside probes).  A and B must end in U's exact state.
struct TraceAcc {
  // U: untraced reference.
  double untraced_s = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t router_cycles = 0;
  std::uint64_t skipped = 0;
  std::uint64_t flits_forwarded = 0;
  std::uint64_t vc_stalls = 0;
  DeadlockCounters counters;
  std::uint64_t delivered = 0;
  std::uint64_t measured_cycles = 0;
  std::vector<double> ctor_us;
  // A: profiled.
  double profiled_s = 0.0;
  std::uint64_t profiled_cycles = 0;
  Cycle sample_period = 0;
  double phase_s[obs::kNumPhases] = {};
  std::uint64_t phase_calls[obs::kNumPhases] = {};
  std::uint64_t phase_cycles[obs::kNumPhases] = {};
  std::uint64_t span_msgs = 0;
  std::uint64_t span_blocked[obs::kNumBlockCauses] = {};
  // B: probed.
  double probed_s = 0.0;
  QuantileSampler step_ns{kKeepAll};
  std::uint64_t router_active = 0, router_samples = 0;
  std::uint64_t ni_active = 0, ni_samples = 0;
  std::uint64_t cand_calls = 0, cand_out = 0;
  double cand_ns = 0.0;
  QuantileSampler scan_us{kKeepAll};
  double scan_us_sum = 0.0;
  std::uint64_t scan_edges = 0, scan_knots = 0, vertices = 0;
};

/// Constructs a simulator through `make`, recording the constructor's time.
template <typename Make>
auto timed_make(TraceAcc& acc, Make&& make) {
  const auto t0 = Clock::now();
  auto p = make();
  acc.ctor_us.push_back(1e6 * seconds_since(t0));
  return p;
}

void add_fabric(TraceAcc& acc, const Network& net) {
  const int routers = net.topology().num_routers();
  acc.router_cycles += net.now() * static_cast<std::uint64_t>(routers);
  for (int r = 0; r < routers; ++r) {
    const Router& rt = net.router(static_cast<RouterId>(r));
    acc.vc_stalls += rt.vc_stall_cycles();
    for (int p = 0; p < rt.num_outputs(); ++p) {
      for (int v = 0; v < rt.vcs(); ++v) {
        acc.flits_forwarded += rt.output(p, v).flits_forwarded;
      }
    }
  }
}

void add_counters(TraceAcc& acc, const DeadlockCounters& c,
                  std::uint64_t delivered, Cycle measured) {
  acc.counters.detections += c.detections;
  acc.counters.deflections += c.deflections;
  acc.counters.rescues += c.rescues;
  acc.counters.rescued_msgs += c.rescued_msgs;
  acc.delivered += delivered;
  acc.measured_cycles += measured;
}

void add_profile(TraceAcc& acc, const obs::PhaseProfiler& prof,
                 std::uint64_t cycles, double wall_s) {
  for (int i = 0; i < obs::kNumPhases; ++i) {
    const auto p = static_cast<obs::Phase>(i);
    acc.phase_s[i] += prof.estimated_seconds(p);
    acc.phase_calls[i] += prof.calls(p);
    acc.phase_cycles[i] += prof.cycles(p);
  }
  acc.profiled_cycles += cycles;
  acc.profiled_s += wall_s;
  acc.sample_period = prof.sample_period();
}

void add_spans(TraceAcc& acc, const obs::SpanRecorder& spans) {
  acc.span_msgs += spans.opened();
  for (int c = 0; c < obs::kNumBlockCauses; ++c) {
    acc.span_blocked[c] +=
        spans.blocked_cycles(static_cast<obs::BlockCause>(c));
  }
}

bool ni_active(const NetworkInterface& ni) {
  if (ni.total_ejection_flits() > 0 || ni.pending_backlog() > 0 ||
      ni.mc_current() != nullptr) {
    return true;
  }
  for (int s = 0; s < ni.num_queue_slots(); ++s) {
    if (ni.input_size(s) > 0 || ni.output_size(s) > 0) return true;
  }
  return false;
}

/// Activity sample plus routing probe: counts busy routers and NIs, then
/// times RoutingAlgorithm::candidates over every buffered head flit.
void sample_activity(const Network& net, TraceAcc& acc) {
  struct Head {
    RouterId r;
    const Packet* pkt;
  };
  // Reused across samples so the probe does not allocate.
  static std::vector<Head> heads;
  static std::vector<RouteCandidate> cand;
  heads.clear();
  const int routers = net.topology().num_routers();
  for (int r = 0; r < routers; ++r) {
    const Router& rt = net.router(static_cast<RouterId>(r));
    if (rt.total_buffered_flits() == 0) continue;
    ++acc.router_active;
    for (int p = 0; p < rt.num_inputs(); ++p) {
      for (int v = 0; v < rt.vcs(); ++v) {
        const InputVc& in = rt.input(p, v);
        if (!in.buffer.empty() && in.buffer.front().is_head()) {
          heads.push_back(
              {static_cast<RouterId>(r), in.buffer.front().pkt.get()});
        }
      }
    }
  }
  acc.router_samples += static_cast<std::uint64_t>(routers);
  for (int n = 0; n < net.num_nodes(); ++n) {
    if (ni_active(net.ni(static_cast<NodeId>(n)))) ++acc.ni_active;
  }
  acc.ni_samples += static_cast<std::uint64_t>(net.num_nodes());

  const auto t0 = Clock::now();
  for (const Head& h : heads) {
    net.routing().candidates(h.r, *h.pkt, cand);
    acc.cand_out += cand.size();
  }
  acc.cand_ns += 1e9 * seconds_since(t0);
  acc.cand_calls += heads.size();
}

/// Pass B: steps `sim` to the end of its measurement window one mc_tick at
/// a time — exactly run()'s main loop — timing every cycle, sampling
/// activity every kSamplePeriod cycles and running a bench-owned CWG
/// detector every kScanPeriod cycles.
void probe_step(Simulator& sim, TraceAcc& acc) {
  const SimConfig& cfg = sim.config();
  const Cycle end = cfg.warmup_cycles + cfg.measure_cycles;
  Network& net = sim.network();
  // The windows run() would set, so the closing run() call adds no cycle.
  net.set_measurement_window(cfg.warmup_cycles, end);
  sim.metrics().set_window(cfg.warmup_cycles, end);
  const CwgDetector det(net);
  const auto start = Clock::now();
  while (net.now() < end) {
    const auto t0 = Clock::now();
    sim.mc_tick();
    acc.step_ns.add(1e9 * seconds_since(t0));
    const Cycle now = net.now();
    if (now % kScanPeriod == 0) {
      const auto ts = Clock::now();
      const std::vector<Knot> knots = det.find_knots();
      const double us = 1e6 * seconds_since(ts);
      acc.scan_us.add(us);
      acc.scan_us_sum += us;
      acc.scan_edges += det.csr_edges().size();
      acc.scan_knots += knots.size();
    }
    if (now % kSamplePeriod == 0) sample_activity(net, acc);
  }
  acc.probed_s += seconds_since(start);
  acc.vertices = static_cast<std::uint64_t>(det.num_vertices());
}

/// Runs one point through passes U, A and B; returns U's result.
RunResult trace_point(const std::string& label, const SimConfig& cfg,
                      TraceAcc& acc, Checks& checks) {
  auto u = timed_make(acc, [&] { return std::make_unique<Simulator>(cfg); });
  auto t0 = Clock::now();
  const RunResult ru = u->run();
  acc.untraced_s += seconds_since(t0);
  acc.cycles += ru.cycles_run;
  acc.skipped += u->skipped_cycles();
  add_fabric(acc, u->network());
  add_counters(acc, ru.counters, ru.packets_delivered, cfg.measure_cycles);
  const std::string fp = fingerprint(ru);
  const std::uint64_t hash = snap::StateIO::state_hash(*u);
  u.reset();

  SimConfig cfg_a = cfg;
  cfg_a.profile = true;
  cfg_a.spans = true;
  auto a = timed_make(acc, [&] { return std::make_unique<Simulator>(cfg_a); });
  t0 = Clock::now();
  const RunResult ra = a->run();
  add_profile(acc, *a->profiler(), ra.cycles_run, seconds_since(t0));
  add_spans(acc, *a->spans());
  checks.expect(fingerprint(ra) == fp,
                label + ": profiler and spans leave RunResult bit-identical");
  checks.expect(snap::StateIO::state_hash(*a) == hash,
                label + ": profiler and spans leave the final state identical");
  a.reset();

  auto b = timed_make(acc, [&] { return std::make_unique<Simulator>(cfg); });
  probe_step(*b, acc);
  const RunResult rb = b->run();
  checks.expect(rb.cycles_run == ru.cycles_run && fingerprint(rb) == fp,
                label + ": probed mc_tick stepping reproduces run()");
  checks.expect(snap::StateIO::state_hash(*b) == hash,
                label + ": probes are read-only (final state_hash)");
  return ru;
}

/// Per-layer metrics every traced workload derives from its accumulators.
void report_trace(const TraceAcc& acc, Layers& L) {
  L.set("sim.ns_per_router_cycle",
        ratio(1e9 * acc.untraced_s, static_cast<double>(acc.router_cycles)));
  L.set("sim.skipped_frac", ratio(static_cast<double>(acc.skipped),
                                  static_cast<double>(acc.cycles)));
  L.set("setup.sim_ctor_us", summarize(acc.ctor_us).median);

  // The profiler's estimates, per simulated cycle.
  const auto per_cycle = [&](obs::Phase p) {
    return ratio(1e9 * acc.phase_s[static_cast<int>(p)],
                 static_cast<double>(acc.profiled_cycles));
  };
  L.set("prof.protocol_step_ns_per_cycle", per_cycle(obs::Phase::ProtocolStep));
  L.set("prof.ni_inject_ns_per_cycle", per_cycle(obs::Phase::NiInject));
  L.set("prof.router_step_ns_per_cycle", per_cycle(obs::Phase::RouterStep));
  L.set("prof.link_traversal_ns_per_cycle",
        per_cycle(obs::Phase::LinkTraversal));
  L.set("prof.token_handling_ns_per_cycle",
        per_cycle(obs::Phase::TokenHandling));
  L.extra("prof.traffic_gen_ns_per_cycle", "ns",
          per_cycle(obs::Phase::TrafficGen));
  L.extra("prof.cwg_scan_ns_per_cycle", "ns", per_cycle(obs::Phase::CwgScan));
  double top = 0.0;
  for (int i = 0; i < obs::kNumPhases; ++i) {
    if (!obs::phase_is_sub(static_cast<obs::Phase>(i))) top += acc.phase_s[i];
  }
  L.set("prof.coverage", ratio(top, acc.profiled_s));
  // Estimator defect: the sub-phases nested in RouterStep sum past it.
  L.extra("prof.subphases_over_router_step", "ratio",
          ratio(per_cycle(obs::Phase::VcAlloc) +
                    per_cycle(obs::Phase::SwitchAlloc),
                per_cycle(obs::Phase::RouterStep)));
  // Estimator defect: CwgScan runs every cwg_period cycles but is scaled by
  // the sample period; sampled scans x period / scans run = over-count.
  const auto cs = static_cast<int>(obs::Phase::CwgScan);
  const auto scans_run = static_cast<double>(acc.phase_cycles[cs]);
  if (scans_run > 0) {
    L.extra("prof.cwg_scan_overcount", "ratio",
            static_cast<double>(acc.phase_calls[cs] * acc.sample_period) /
                scans_run);
  }

  L.set("obs.trace_overhead_frac",
        ratio(acc.profiled_s, acc.untraced_s) - 1.0);
  const auto rc = static_cast<double>(acc.router_cycles);
  L.set("router.flits_per_router_cycle",
        static_cast<double>(acc.flits_forwarded) / rc);
  L.set("router.vc_stalls_per_router_cycle",
        static_cast<double>(acc.vc_stalls) / rc);

  for (int i = 0; i < obs::kNumBlockCauses; ++i) {
    const auto cause = static_cast<obs::BlockCause>(i);
    if (cause == obs::BlockCause::FaultFrozen) continue;  // no fault plans
    L.set(std::string("spans.wait.") + obs::block_cause_name(cause),
          ratio(static_cast<double>(acc.span_blocked[i]),
                static_cast<double>(acc.span_msgs)));
  }

  const DeadlockCounters& c = acc.counters;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  L.set("recovery.rescues_per_kcycle",
        ratio(1e3 * count(c.rescues), count(acc.measured_cycles)));
  L.set("recovery.rescued_msgs_per_rescue",
        ratio(count(c.rescued_msgs), count(c.rescues)));
  L.set("core.deflections_per_kmsg",
        ratio(1e3 * count(c.deflections), count(acc.delivered)));
  L.set("core.rescues_per_detection",
        ratio(count(c.rescues), count(c.detections)));

  if (acc.step_ns.empty()) return;  // no probed pass (app_msi)
  L.set("obs.probe_overhead_frac", ratio(acc.probed_s, acc.untraced_s) - 1.0);
  L.set("sim.active_router_frac",
        ratio(count(acc.router_active), count(acc.router_samples)));
  L.set("sim.active_ni_frac",
        ratio(count(acc.ni_active), count(acc.ni_samples)));
  L.set("routing.candidates_per_call",
        ratio(count(acc.cand_out), count(acc.cand_calls)));
  L.extra("routing.candidates_ns", "ns",
          ratio(acc.cand_ns, count(acc.cand_calls)));
  L.extra("sim.step_ns_p50", "ns", acc.step_ns.median());
  L.extra("sim.step_ns_p99", "ns", acc.step_ns.p99());
  L.extra("sim.step_ns_p999", "ns", acc.step_ns.p999());
  L.extra("sim.step_samples", "count", count(acc.step_ns.count()));
  const auto nscan = count(acc.scan_us.count());
  L.extra("cwg.find_knots_us_p50", "us", acc.scan_us.median());
  L.extra("cwg.find_knots_us_p99", "us", acc.scan_us.p99());
  L.extra("cwg.scan_samples", "count", nscan);
  L.set("cwg.vertices", count(acc.vertices));
  L.set("cwg.edges_mean", ratio(count(acc.scan_edges), nscan));
  L.set("cwg.knots_per_scan", ratio(count(acc.scan_knots), nscan));
  if (scans_run > 0) {
    // The outside-timed cost of as many scans as the library ran, by the
    // bench-owned detector on the same traffic: against the profiler's
    // CwgScan estimate, and as a share of the untraced runs' host time.
    const double scan_s = 1e-6 * ratio(acc.scan_us_sum, nscan) * scans_run;
    L.extra("prof.cwg_scan_over_outside", "ratio", acc.phase_s[cs] / scan_s);
    L.extra("cwg.scan_share", "frac", scan_s / acc.untraced_s);
  }
}

// --- Workloads. --------------------------------------------------------------

struct LabeledConfig {
  std::string label;
  SimConfig cfg;
  bool expect_pass = true;  ///< static verdict
};

/// Traces every point through passes U, A and B and reports the per-layer
/// metrics; the fingerprints are the untraced runs'.
void trace_points(const std::vector<LabeledConfig>& points, Layers& L,
                  Checks& checks, Fingerprints& fp) {
  TraceAcc acc;
  for (const LabeledConfig& p : points) {
    fp.emplace_back(p.label,
                    fingerprint(trace_point(p.label, p.cfg, acc, checks)));
  }
  report_trace(acc, L);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Every configuration the workload simulates or verifies.
  virtual std::vector<LabeledConfig> configs() const = 0;
  /// Untimed one-time work before the warm-up trial.
  virtual void prepare(Checks&) {}
  /// Builds one trial's inputs (timed as setup_s).
  virtual void setup() = 0;
  /// Drops what setup() built, for a set-up round without a trial.
  virtual void release() = 0;
  /// Runs one trial (timed as trial_s) and records its fingerprints.
  virtual void run(Checks& checks, Fingerprints& fp) = 0;
  /// One traced-pass repetition; its fingerprints come from the untraced
  /// reference runs, so they match the timed trials'.
  virtual void traced(Layers& L, Checks& checks, Fingerprints& fp) = 0;
};

/// An 8x8 torus PAT271 point with the figure benches' reduced run length:
/// 2000 warm-up plus 6000 measured cycles.
SimConfig pat271(Scheme scheme, int vcs, double rate, std::uint64_t seed) {
  SimConfig cfg;
  cfg.scheme = scheme;
  cfg.pattern = "PAT271";
  cfg.vcs_per_link = vcs;
  cfg.injection_rate = rate;
  cfg.warmup_cycles = 2000;
  cfg.measure_cycles = 6000;
  cfg.seed = seed;
  return cfg;
}

/// lowload, saturated, oracle_cwg: independent Simulator points, one
/// thread, open loop at a fixed rate.
class SimPoints : public Workload {
 public:
  /// `intra` also measures set_intra_jobs on the first PR point.
  SimPoints(std::vector<LabeledConfig> points, bool intra)
      : points_(std::move(points)), intra_(intra) {}

  std::vector<LabeledConfig> configs() const override { return points_; }

  void setup() override {
    for (const LabeledConfig& p : points_) {
      sims_.push_back(std::make_unique<Simulator>(p.cfg));
    }
  }

  void release() override { sims_.clear(); }

  void run(Checks& checks, Fingerprints& fp) override {
    for (std::size_t i = 0; i < sims_.size(); ++i) {
      const RunResult r = sims_[i]->run();
      checks.expect(
          r.packets_delivered > 0 && std::isfinite(r.avg_packet_latency),
          points_[i].label + ": traffic delivered");
      fp.emplace_back(points_[i].label, fingerprint(r));
    }
    sims_.clear();
  }

  void traced(Layers& L, Checks& checks, Fingerprints& fp) override {
    trace_points(points_, L, checks, fp);
    if (!intra_) return;
    for (const LabeledConfig& p : points_) {
      if (p.cfg.scheme == Scheme::PR) {
        intra_speedup(p, L, checks);
        break;
      }
    }
  }

 private:
  /// Within-run parallelism (Simulator::set_intra_jobs) on one point:
  /// speed-up over serial, and bit-identity of every jobs count.
  static void intra_speedup(const LabeledConfig& p, Layers& L,
                            Checks& checks) {
    const auto timed_run = [&](int jobs, std::string& fp) {
      Simulator sim(p.cfg);
      sim.set_intra_jobs(jobs);
      const auto t0 = Clock::now();
      fp = fingerprint(sim.run());
      return seconds_since(t0);
    };
    std::string ref;
    const double serial = timed_run(1, ref);
    for (int jobs : {2, 4}) {
      if (jobs > nproc()) continue;
      std::string fp;
      const double t = timed_run(jobs, fp);
      checks.expect(fp == ref, p.label + ": set_intra_jobs(" +
                                   std::to_string(jobs) + ") bit-identical");
      L.set("par.intra_speedup_j" + std::to_string(jobs), ratio(serial, t));
    }
  }

  std::vector<LabeledConfig> points_;
  bool intra_;
  std::vector<std::unique_ptr<Simulator>> sims_;
};

/// Seed of replica `i` of `k`: disjoint across --seed values.  A point's
/// host cost depends on its traffic (how often knots form, how long queues
/// grow), so each workload runs every point as several replicas and the
/// seed-to-seed spread of a trial's work shrinks with their number.
std::uint64_t replica_seed(std::uint64_t seed, int k, int i) {
  return seed * static_cast<std::uint64_t>(k) + static_cast<std::uint64_t>(i);
}

std::string replica_label(const std::string& base, int i) {
  return base + "/r" + std::to_string(i);
}

std::unique_ptr<Workload> make_sim_points(const std::string& name,
                                          std::uint64_t seed) {
  std::vector<LabeledConfig> pts;
  if (name == "lowload" || name == "saturated") {
    constexpr int kReplicas = 4;
    // 0.2x / 1.1x the PAT271 saturation estimate (bench_util.hpp: 0.0132).
    const double rate = name == "lowload" ? 0.00264 : 0.01452;
    for (Scheme s : {Scheme::SA, Scheme::DR, Scheme::PR}) {
      const std::string base = std::string(scheme_name(s)) + "/PAT271/vc8";
      for (int i = 0; i < kReplicas; ++i) {
        pts.push_back({replica_label(base, i),
                       pat271(s, 8, rate, replica_seed(seed, kReplicas, i))});
      }
    }
    return std::make_unique<SimPoints>(std::move(pts), name == "saturated");
  }
  // oracle_cwg: 4-entry queues at 1.5x saturation with an oracle scan every
  // 2 cycles, where knot scans take 39% of the host time (14% every 10
  // cycles): well over trial_s's bound, so that a find_knots twice as slow
  // fails the comparison.  Throughput is bistable here (0.02 to 0.16 across
  // seeds), so one point's host time varies across seeds with a CV of 0.15
  // at 1000+3000 cycles (0.19 at 2000+6000).  Many short replicas bring the
  // trial's CV to about 3% in the least host time.
  constexpr int kReplicas = 24;
  for (int i = 0; i < kReplicas; ++i) {
    SimConfig cfg =
        pat271(Scheme::PR, 4, 0.0198, replica_seed(seed, kReplicas, i));
    cfg.warmup_cycles = 1000;
    cfg.measure_cycles = 3000;
    cfg.msg_queue_size = 4;
    cfg.mshr_limit = 4;
    cfg.detection_mode = SimConfig::DetectionMode::Oracle;
    cfg.cwg_period = 2;
    pts.push_back({replica_label("PR/PAT271/vc4/oracle", i), cfg});
  }
  return std::make_unique<SimPoints>(std::move(pts), false);
}

/// app_msi: the four Splash-2 application models through AppSimulation
/// (closed loop, MSI), checked against paper Table 1.
class AppMsi : public Workload {
 public:
  explicit AppMsi(std::uint64_t seed) : seed_(seed) {}

  std::vector<LabeledConfig> configs() const override {
    std::vector<LabeledConfig> out;
    for (const Row& row : kTable1) out.push_back({row.app, config(), true});
    return out;
  }

  void setup() override {
    for (const Row& row : kTable1) sims_.push_back(make(row.app));
  }

  void release() override { sims_.clear(); }

  void run(Checks& checks, Fingerprints& fp) override {
    for (std::size_t i = 0; i < sims_.size(); ++i) {
      const AppRunResult r = sims_[i]->run(kDuration, kWarmup);
      check_table1(kTable1[i], r, checks);
      fp.emplace_back(kTable1[i].app, fingerprint(r));
    }
    sims_.clear();
  }

  void traced(Layers& L, Checks& checks, Fingerprints& fp) override {
    TraceAcc acc;
    double under5 = 0.0, err = 0.0;
    std::uint64_t txns = 0;
    for (const Row& row : kTable1) {
      const std::string app = row.app;
      auto u = timed_make(acc, [&] { return make(row.app); });
      auto t0 = Clock::now();
      const AppRunResult ru = u->run(kDuration, kWarmup);
      const double host_s = seconds_since(t0);
      acc.untraced_s += host_s;
      acc.cycles += ru.cycles;
      add_fabric(acc, u->network());
      add_counters(acc, u->network().counters(),
                   u->metrics().packets_delivered(), kDuration - kWarmup);
      fp.emplace_back(app, fingerprint(ru));
      L.extra("app." + app + ".host_s", "s", host_s);
      L.extra("app." + app + ".network_txns", "count",
              static_cast<double>(ru.network_txns));
      under5 += ru.frac_under_5pct / static_cast<double>(std::size(kTable1));
      txns += ru.network_txns;
      err = std::max(err, table1_err_pp(row, ru));
      u.reset();

      // Profiled: the library's profiler and span recorder, attached
      // through the public Network setters.
      obs::PhaseProfiler prof;
      obs::SpanRecorder spans;
      auto a = timed_make(acc, [&] { return make(row.app); });
      a->network().set_profiler(&prof);
      a->network().set_spans(&spans);
      t0 = Clock::now();
      const AppRunResult ra = a->run(kDuration, kWarmup);
      add_profile(acc, prof, ra.cycles, seconds_since(t0));
      spans.finish(ra.cycles);
      add_spans(acc, spans);
      checks.expect(fingerprint(ra) == fingerprint(ru),
                    app + ": profiler and spans leave AppRunResult identical");
    }
    report_trace(acc, L);
    L.set("app.frac_under_5pct", under5);
    L.set("app.network_txns", static_cast<double>(txns));
    L.set("app.table1_err_pp", err);
  }

 private:
  struct Row {
    const char* app;
    double d, i, f;  ///< paper Table 1, percent
  };
  static constexpr Row kTable1[] = {{"FFT", 98.7, 0.9, 0.4},
                                    {"LU", 96.5, 3.0, 0.5},
                                    {"Radix", 95.5, 3.6, 0.8},
                                    {"Water", 15.2, 50.1, 34.7}};
  /// bench_table1_response_types' reduced run: 140k cycles, 40k warm-up.
  static constexpr Cycle kDuration = 140000;
  static constexpr Cycle kWarmup = 40000;
  /// Largest D/I/F error (percentage points) accepted for any seed: twice
  /// the worst seen over seeds 1-16 (0.96 pp).
  static constexpr double kTable1TolPp = 2.0;

  SimConfig config() const {
    SimConfig cfg = SimConfig::application_defaults();
    cfg.scheme = Scheme::PR;
    cfg.use_all_types = true;  // what AppSimulation sets internally
    cfg.seed = seed_;
    return cfg;
  }

  std::unique_ptr<AppSimulation> make(const char* app) const {
    return std::make_unique<AppSimulation>(config(), AppModel::by_name(app));
  }

  static double table1_err_pp(const Row& row, const AppRunResult& r) {
    const ResponseStats& s = r.responses;
    return std::max({std::fabs(100.0 * s.direct_frac() - row.d),
                     std::fabs(100.0 * s.invalidation_frac() - row.i),
                     std::fabs(100.0 * s.forwarding_frac() - row.f)});
  }

  static void check_table1(const Row& row, const AppRunResult& r,
                           Checks& checks) {
    checks.expect(table1_err_pp(row, r) <= kTable1TolPp,
                  std::string(row.app) + ": Table 1 D/I/F within " +
                      std::to_string(kTable1TolPp) + " pp of the paper");
  }

  std::uint64_t seed_;
  std::vector<std::unique_ptr<AppSimulation>> sims_;
};

/// figure_sweep: the Figure-8 PAT271 panel (4 VCs) through SweepRunner.
class FigureSweep : public Workload {
 public:
  explicit FigureSweep(std::uint64_t seed) {
    // Replicas even out the panel's cost across seeds and the workers' load
    // balance: with one seed per point, trial_s spread 12% across seeds.
    constexpr int kReplicas = 3;
    for (Scheme s : {Scheme::DR, Scheme::PR}) {
      for (double frac : {0.2, 0.4, 0.6, 0.8, 0.95, 1.1}) {
        char base[48];
        std::snprintf(base, sizeof(base), "%s/PAT271/vc4/x%.2f",
                      std::string(scheme_name(s)).c_str(), frac);
        for (int i = 0; i < kReplicas; ++i) {
          const SimConfig cfg = pat271(s, 4, frac * 0.0132,
                                       replica_seed(seed, kReplicas, i));
          points_.push_back({replica_label(base, i), cfg, true});
          cfgs_.push_back(cfg);
        }
      }
    }
    sa_ = pat271(Scheme::SA, 4, 0.0132, seed);
  }

  std::vector<LabeledConfig> configs() const override { return points_; }

  void prepare(Checks& checks) override {
    // SA needs two escape VCs per class on a torus: 3 classes exceed 4 VCs,
    // so the panel has no SA series (as in the paper).
    bool rejected = false;
    try {
      sa_.validate();
    } catch (const ConfigError&) {
      rejected = true;
    }
    checks.expect(rejected, "SA/PAT271/vc4 rejected as infeasible");
    for (const RunResult& r : par::SweepRunner(1).run(cfgs_)) {
      serial_.push_back(fingerprint(r));
    }
  }

  void setup() override {
    // A proxy measured outside the trial: SweepRunner::run constructs each
    // point's Simulator on its workers, inside trial_s, so setup_s times
    // the same constructions (and releases) serially here.  A change to
    // SweepRunner's own set-up moves trial_s, not this.
    for (const SimConfig& cfg : cfgs_) Simulator sim(cfg);
  }

  void release() override {}

  void run(Checks& checks, Fingerprints& fp) override {
    const std::vector<RunResult> res = par::SweepRunner(jobs()).run(cfgs_);
    for (std::size_t i = 0; i < res.size(); ++i) {
      const std::string f = fingerprint(res[i]);
      checks.expect(f == serial_[i], points_[i].label + ": jobs=" +
                                         std::to_string(jobs()) +
                                         " sweep bit-identical to serial");
      fp.emplace_back(points_[i].label, f);
    }
  }

  void traced(Layers& L, Checks& checks, Fingerprints& fp) override {
    trace_points(points_, L, checks, fp);

    // par: the same sweep at 1, 2 and 4 workers, plus each point alone.
    const auto n = static_cast<double>(cfgs_.size());
    double t1 = 0.0, t4 = 0.0;
    for (int jobs : {1, 2, 4}) {
      if (jobs > nproc()) continue;
      const auto t0 = Clock::now();
      const std::vector<RunResult> res = par::SweepRunner(jobs).run(cfgs_);
      const double t = seconds_since(t0);
      for (std::size_t i = 0; i < res.size(); ++i) {
        checks.expect(fingerprint(res[i]) == fp[i].second,
                      points_[i].label + ": jobs=" + std::to_string(jobs) +
                          " sweep bit-identical to the single run");
      }
      L.set("par.points_per_s_j" + std::to_string(jobs), n / t);
      if (jobs == 1) t1 = t;
      if (jobs == 4) t4 = t;
    }
    if (t4 > 0.0) {
      L.set("par.speedup_j4", t1 / t4);
      L.set("par.efficiency_j4", t1 / t4 / 4.0);
    }
    double point_max = 0.0;
    for (const SimConfig& cfg : cfgs_) {
      const auto t0 = Clock::now();
      par::SweepRunner(1).run({cfg});
      point_max = std::max(point_max, seconds_since(t0));
    }
    L.extra("par.point_s_max", "s", point_max);
  }

 private:
  static int jobs() { return std::min(4, nproc()); }

  std::vector<LabeledConfig> points_;
  std::vector<SimConfig> cfgs_;
  SimConfig sa_;
  std::vector<std::string> serial_;
};

std::vector<std::string> split_words(const std::string& s) {
  std::istringstream is(s);
  std::vector<std::string> out;
  for (std::string w; is >> w;) out.push_back(w);
  return out;
}

/// static_exhaustive: the static verifier, the exhaustive explorer and
/// snapshot round trips — the layers the simulated workloads never touch.
class StaticExhaustive : public Workload {
 public:
  StaticExhaustive(std::uint64_t seed, const std::string& root) {
    // The CI verify matrix (.github/workflows/ci.yml verify-smoke).
    const char* const kMatrix[] = {
        "scheme=SA pattern=PAT100 vcs=4",
        "scheme=SA pattern=PAT271 vcs=8",
        "scheme=SA pattern=PAT271 vcs=16",
        "scheme=SA pattern=PAT271 vcs=16 shared_adaptive=1",
        "scheme=DR pattern=PAT721 vcs=4",
        "scheme=DR pattern=PAT271 vcs=8",
        "scheme=PR pattern=PAT271 vcs=4",
        "scheme=PR pattern=PAT271 vcs=16 queue_org=per_type"};
    // k=16 keeps the five configurations under 16 VCs: the three 16-VC
    // ones alone take 1.8 s per trial at k=16.
    for (const char* m : kMatrix) {
      SimConfig cfg;
      apply_config_options(cfg, split_words(m));
      add(Group::Kary8, std::string("k8/") + m, cfg, true);
      SimConfig mesh = cfg;
      mesh.torus = false;
      add(Group::Arbitrary, std::string("mesh8/") + m, mesh, true);
      if (cfg.vcs_per_link < 16) {
        cfg.k = 16;
        add(Group::Kary16, std::string("k16/") + m, cfg, true);
      }
    }
    // verify/corpus/manifest.txt: "<file> <PASS|FAIL> <options...>".
    const std::string corpus = root + "/verify/corpus";
    const std::string manifest_path = corpus + "/manifest.txt";
    std::ifstream manifest(manifest_path);
    if (!manifest) throw ConfigError("cannot read " + manifest_path);
    for (std::string line; std::getline(manifest, line);) {
      const std::vector<std::string> w = split_words(line);
      if (w.empty() || w[0][0] == '#') continue;
      if (w.size() < 2 || (w[1] != "PASS" && w[1] != "FAIL")) {
        throw ConfigError(manifest_path + ": malformed line: " + line);
      }
      SimConfig cfg;
      cfg.topology_spec = "file:" + corpus + "/" + w[0];
      apply_config_options(cfg, {w.begin() + 2, w.end()});
      add(Group::Corpus, "corpus/" + w[0], cfg, w[1] == "PASS");
    }
    if (cases_.back().group != Group::Corpus) {
      throw ConfigError(manifest_path + " lists no case");
    }
    for (const char* spec : {"dragonfly:8,4", "fattree:3,8", "cmesh:8,8,4"}) {
      SimConfig cfg;
      cfg.topology_spec = spec;
      cfg.scheme = Scheme::SA;
      cfg.pattern = "PAT100";
      add(Group::Generators, std::string("gen/") + spec, cfg, true);
    }

    // The 8x8 PR run whose state at cycle 16000 is snapshotted.
    snap_cfg_ = pat271(Scheme::PR, 4, 0.0132, seed);
    snap_cfg_.measure_cycles = 14000;
  }

  std::vector<LabeledConfig> configs() const override {
    std::vector<LabeledConfig> out;
    for (const Case& c : cases_) {
      out.push_back({c.label, c.cfg, c.expect_pass});
    }
    out.push_back({"snap/PR/PAT271/vc4", snap_cfg_, true});
    return out;
  }

  void setup() override {
    for (Case& c : cases_) c.inputs = inputs(c);
    snap_sim_ = std::make_unique<Simulator>(snap_cfg_);
  }

  void release() override {
    for (Case& c : cases_) c.inputs = {};
    snap_sim_.reset();
  }

  void run(Checks& checks, Fingerprints& fp) override {
    std::string verdicts;
    for (const Case& c : cases_) {
      check_verdict(c, verify::run_verify(c.inputs), checks, verdicts);
    }
    fp.emplace_back("verify", hex64(obs::fnv1a64(verdicts)));
    explore_all(checks, fp, nullptr);
    snapshot_roundtrip(*snap_sim_, checks, fp, nullptr);
    release();
  }

  void traced(Layers& L, Checks& checks, Fingerprints& fp) override {
    // verify: run_verify per group, plus digraph construction and table
    // synthesis timed on their own.
    double group_ms[kNumGroups] = {};
    std::string verdicts;
    for (const Case& c : cases_) {
      const verify::VerifyInputs in = inputs(c);
      const auto t0 = Clock::now();
      const verify::Verdict v = verify::run_verify(in);
      group_ms[static_cast<int>(c.group)] += 1e3 * seconds_since(t0);
      check_verdict(c, v, checks, verdicts);
    }
    fp.emplace_back("verify", hex64(obs::fnv1a64(verdicts)));
    const char* const kGroupNames[kNumGroups] = {
        "kary8", "kary16", "arbitrary", "corpus", "generators"};
    for (int g = 0; g < kNumGroups; ++g) {
      L.extra(std::string("verify.") + kGroupNames[g] + "_ms", "ms",
              group_ms[g]);
    }
    // The digraph and routing table behind each digraph-backend case, built
    // on their own as from_config / from_config_arbitrary build them.
    double digraph_ms = 0.0, table_ms = 0.0;
    for (const Case& c : cases_) {
      if (c.group == Group::Kary8 || c.group == Group::Kary16) continue;
      if (c.group == Group::Arbitrary) {
        const Topology topo = c.cfg.make_topology();
        const auto kind = verify::VerifyInputs::from_config(c.cfg).kind;
        auto t0 = Clock::now();
        const DigraphTopology g = DigraphTopology::from_kary(topo, false);
        digraph_ms += 1e3 * seconds_since(t0);
        t0 = Clock::now();
        RoutingTable::compile_kary(topo, g,
                                   kind != RoutingAlgorithm::Kind::DOR,
                                   kind != RoutingAlgorithm::Kind::TFAR);
        table_ms += 1e3 * seconds_since(t0);
      } else {
        auto t0 = Clock::now();
        const DigraphFile df = make_digraph(c.cfg.topology_spec);
        digraph_ms += 1e3 * seconds_since(t0);
        t0 = Clock::now();
        if (df.routes.empty()) {
          RoutingTable::synthesize(df.digraph);
        } else {
          RoutingTable(df.digraph, df.routes, c.label);
        }
        table_ms += 1e3 * seconds_since(t0);
      }
    }
    L.extra("topology.digraph_build_ms", "ms", digraph_ms);
    L.extra("routing.table_synthesize_ms", "ms", table_ms);

    explore_all(checks, fp, &L);

    TraceAcc acc;
    trace_point("snap/PR/PAT271/vc4", snap_cfg_, acc, checks);
    report_trace(acc, L);
    Simulator sim(snap_cfg_);
    snapshot_roundtrip(sim, checks, fp, &L);
  }

 private:
  enum class Group : std::uint8_t {
    Kary8,
    Kary16,
    Arbitrary,
    Corpus,
    Generators
  };
  static constexpr int kNumGroups = 5;
  struct Case {
    Group group;
    std::string label;
    SimConfig cfg;
    bool expect_pass;
    verify::VerifyInputs inputs;
  };

  void add(Group g, std::string label, const SimConfig& cfg,
           bool expect_pass) {
    cases_.push_back({g, std::move(label), cfg, expect_pass, {}});
  }

  static verify::VerifyInputs inputs(const Case& c) {
    return c.group == Group::Arbitrary
               ? verify::VerifyInputs::from_config_arbitrary(c.cfg)
               : verify::VerifyInputs::from_config(c.cfg);
  }

  /// Checks the verdict and appends its shape (verdict bits and
  /// counterexample lengths) to the fingerprint text.
  static void check_verdict(const Case& c, const verify::Verdict& v,
                            Checks& checks, std::string& verdicts) {
    checks.expect(v.pass == c.expect_pass,
                  c.label + ": verdict " + (c.expect_pass ? "PASS" : "FAIL"));
    verdicts += std::to_string(v.pass) + std::to_string(v.strict_pass) + ':' +
                std::to_string(v.cycle.size()) + ',' +
                std::to_string(v.strict_cycle.size()) + ';';
  }

  /// The pinned PASS configuration of tests/test_mc.cpp: a 2x2 PR mesh with
  /// one fully adaptive VC.
  static SimConfig mesh_pr(Cycle measure) {
    SimConfig c;
    c.k = 2;
    c.n = 2;
    c.torus = false;
    c.scheme = Scheme::PR;
    c.vcs_per_link = 1;
    c.flit_buffer_depth = 1;
    c.pattern = "PAT100";
    c.lengths.flits = {1, 1, 1, 1};
    c.injection_rate = 0.1;
    c.warmup_cycles = 0;
    c.measure_cycles = measure;
    c.msg_queue_size = 2;
    c.mshr_limit = 1;
    c.source_queue_size = 2;
    c.msg_service_time = 2;
    c.detection_threshold = 8;
    c.router_timeout = 32;
    return c;
  }

  /// The seeded-broken torus of tests/test_mc.cpp: SA with the dateline
  /// escape lane removed, which wedges at cycle 41.
  static SimConfig broken_torus() {
    SimConfig c;
    c.k = 4;
    c.n = 1;
    c.torus = true;
    c.scheme = Scheme::SA;
    c.vcs_per_link = 2;
    c.escape_override = 1;
    c.flit_buffer_depth = 1;
    c.pattern = "PAT100";
    c.lengths.flits = {4, 4, 4, 4};
    c.injection_rate = 1.0;
    c.warmup_cycles = 0;
    c.measure_cycles = 1000;
    c.msg_queue_size = 8;
    c.mshr_limit = 16;
    c.source_queue_size = 8;
    c.msg_service_time = 1;
    c.detection_threshold = 100000;
    c.router_timeout = 100000;
    c.seed = 5;
    return c;
  }

  static std::string explore_fp(const mc::ExploreResult& r) {
    return std::string(mc::verdict_name(r.verdict)) + '/' +
           std::to_string(r.states_visited) + '/' + std::to_string(r.paths) +
           '/' + std::to_string(r.choice_points) + '/' +
           std::to_string(r.dedup_hits);
  }

  /// mc: the two pinned PASS trees and the refutation with its replay.
  static void explore_all(Checks& checks, Fingerprints& fp, Layers* L) {
    mc::ExploreOptions pass_opts;
    pass_opts.max_cycles = 600;
    pass_opts.knot_persistence = 64;
    const mc::ExploreResult small = mc::explore(mesh_pr(40), pass_opts);
    checks.expect(small.verdict == mc::Verdict::Pass &&
                      small.states_visited == 774 && small.paths == 56,
                  "mc: 2x2 PR mesh measure=40 PASS with 774 states / 56 paths");
    fp.emplace_back("mc774", explore_fp(small));

    auto t0 = Clock::now();
    const mc::ExploreResult big = mc::explore(mesh_pr(92), pass_opts);
    const double explore_s = seconds_since(t0);
    checks.expect(big.verdict == mc::Verdict::Pass &&
                      big.states_visited == 82244 && big.paths == 9214,
                  "mc: 2x2 PR mesh measure=92 PASS with 82244 states / 9214 "
                  "paths");
    fp.emplace_back("mc82244", explore_fp(big));

    mc::ExploreOptions refute_opts;
    refute_opts.max_cycles = 4000;
    refute_opts.knot_persistence = 40;
    const mc::ExploreResult bad = mc::explore(broken_torus(), refute_opts);
    checks.expect(bad.verdict == mc::Verdict::Knot &&
                      bad.schedule.knot_signature == 0x953d04773d5aa08dull,
                  "mc: escape-free torus refuted with knot 0x953d04773d5aa08d");
    t0 = Clock::now();
    const mc::ReplayResult rr = mc::replay(bad.schedule);
    const double replay_s = seconds_since(t0);
    checks.expect(rr.reproduced && rr.knot_signature == 0x953d04773d5aa08dull,
                  "mc: knot 0x953d04773d5aa08d REPRODUCED on replay");
    fp.emplace_back("refute", explore_fp(bad) + '/' +
                                  std::to_string(bad.schedule.cycle) + '/' +
                                  hex64(bad.schedule.knot_signature));
    if (L == nullptr) return;
    L->set("mc.states", static_cast<double>(big.states_visited));
    L->set("mc.paths", static_cast<double>(big.paths));
    L->set("mc.dedup_hit_rate", ratio(static_cast<double>(big.dedup_hits),
                                      static_cast<double>(big.paths)));
    L->set("mc.states_per_s",
           static_cast<double>(big.states_visited) / explore_s);
    L->extra("mc.explore_s", "s", explore_s);
    L->extra("mc.replay_ms", "ms", 1e3 * replay_s);
  }

  /// Runs `sim` to cycle 16000, snapshots it, restores the snapshot and
  /// snapshots the restored simulator again: bytes and state_hash must match.
  static void snapshot_roundtrip(Simulator& sim, Checks& checks,
                                 Fingerprints& fp, Layers* L) {
    sim.run();
    auto t0 = Clock::now();
    const std::vector<std::uint8_t> bytes = sim.snapshot();
    const double save_s = seconds_since(t0);
    t0 = Clock::now();
    const std::unique_ptr<Simulator> restored = Simulator::restore(bytes);
    const double restore_s = seconds_since(t0);
    checks.expect(restored->snapshot() == bytes,
                  "snap: restore then snapshot is byte-identical");
    t0 = Clock::now();
    const std::uint64_t hash = snap::StateIO::state_hash(sim);
    const double hash_s = seconds_since(t0);
    checks.expect(snap::StateIO::state_hash(*restored) == hash,
                  "snap: restored state_hash equal");
    fp.emplace_back("snap", std::to_string(bytes.size()) + '/' + hex64(hash));
    if (L == nullptr) return;
    const auto size = static_cast<double>(bytes.size());
    L->set("snap.bytes_per_node",
           size / static_cast<double>(sim.network().num_nodes()));
    L->set("snap.roundtrip_mb_per_s", 1e-6 * size / (save_s + restore_s));
    L->extra("snap.save_ms", "ms", 1e3 * save_s);
    L->extra("snap.restore_ms", "ms", 1e3 * restore_s);
    L->extra("snap.state_hash_us", "us", 1e6 * hash_s);
  }

  std::vector<Case> cases_;
  SimConfig snap_cfg_;
  std::unique_ptr<Simulator> snap_sim_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& root) {
  if (name == "lowload" || name == "saturated" || name == "oracle_cwg") {
    return make_sim_points(name, seed);
  }
  if (name == "app_msi") return std::make_unique<AppMsi>(seed);
  if (name == "figure_sweep") return std::make_unique<FigureSweep>(seed);
  if (name == "static_exhaustive") {
    return std::make_unique<StaticExhaustive>(seed, root);
  }
  return nullptr;
}

/// Layer probes every workload shares: parsing its configuration text back
/// (config.parse_us) and statically verifying each configuration
/// (verify.config_ms), with the round trip and the verdict checked.
void probe_configs(const std::vector<LabeledConfig>& configs, Layers& L,
                   Checks& checks) {
  constexpr int kParseReps = 20;
  std::vector<double> parse_us, verify_ms;
  for (const LabeledConfig& c : configs) {
    const std::string text = config_to_string(c.cfg);
    SimConfig parsed;
    const auto t0 = Clock::now();
    for (int i = 0; i < kParseReps; ++i) {
      parsed = SimConfig{};
      std::istringstream is(text);
      apply_config_file(parsed, is);
    }
    parse_us.push_back(1e6 * seconds_since(t0) / kParseReps);
    checks.expect(config_to_string(parsed) == text,
                  c.label + ": config text round-trips");

    const auto t1 = Clock::now();
    const verify::Verdict v =
        verify::run_verify(verify::VerifyInputs::from_config(c.cfg));
    verify_ms.push_back(1e3 * seconds_since(t1));
    checks.expect(v.pass == c.expect_pass, c.label + ": static verdict");
  }
  L.set("config.parse_us", summarize(parse_us).median);
  L.set("verify.config_ms", summarize(verify_ms).median);
}

// --- Command line and main. --------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string expected;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--root") {
      a.root = v;
    } else if (k == "--expected") {
      a.expected = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

/// Checks each run's fingerprints: the first run's are the reference every
/// later run must repeat exactly, and with --seed 1 they must equal
/// expected.txt.
class Outputs {
 public:
  Outputs(const Args& args, Checks& checks) : args_(args), checks_(checks) {
    if (!args.expected.empty()) {
      expected_ = load_expected(args.expected, args.workload);
    }
  }

  void check(const Fingerprints& fp) {
    if (!have_reference_) {
      reference_ = fp;
      have_reference_ = true;
      if (args_.seed == 1 && !args_.expected.empty()) {
        for (const auto& [key, value] : fp) {
          const auto it = expected_.find(key);
          checks_.expect(it != expected_.end() && it->second == value,
                         args_.workload + "/" + key +
                             ": matches expected.txt (seed 1)");
        }
      }
      return;
    }
    checks_.expect(fp.size() == reference_.size(), "every output produced");
    for (std::size_t i = 0; i < std::min(fp.size(), reference_.size()); ++i) {
      checks_.expect(fp[i] == reference_[i],
                     fp[i].first + ": identical across runs");
    }
  }

  const Fingerprints& reference() const { return reference_; }

 private:
  const Args& args_;
  Checks& checks_;
  std::map<std::string, std::string> expected_;
  Fingerprints reference_;
  bool have_reference_ = false;
};

/// One reported metric.  Extras are printed and archived but are not part
/// of the result line.
struct Reported {
  std::string name;
  std::string unit;
  Summary s;
  bool extra = false;
};

/// --trace 0: warm-up, then timed trials until `seconds` (at least
/// kMinTrials).
std::vector<Reported> run_timed(Workload& w, double seconds, Checks& checks,
                                Outputs& outputs) {
  w.prepare(checks);
  Fingerprints warm;
  w.setup();
  w.run(checks, warm);  // untimed: caches, allocator pools
  outputs.check(warm);
  // Every set-up starts from a trimmed heap, as in a fresh process: what
  // the last trial freed goes back to the system, so each set-up pays for
  // its pages, whatever the trial before it left in the heap.  Reusing that
  // heap instead made set-up times bimodal (2.3 or 3.7 ms on oracle_cwg).
  // Set-up takes milliseconds, so it is sampled more often than the trials
  // run: kSetupRounds set-ups without a trial, then one per trial.
  std::vector<double> setup_s, trial_s;
  const auto timed_setup = [&] {
    malloc_trim(0);
    const auto t0 = Clock::now();
    w.setup();
    setup_s.push_back(seconds_since(t0));
  };
  for (int i = 0; i < kSetupRounds; ++i) {
    timed_setup();
    w.release();
  }
  const auto start = Clock::now();
  while (trial_s.size() < kMinTrials || seconds_since(start) < seconds) {
    timed_setup();
    const auto t0 = Clock::now();
    Fingerprints fp;
    w.run(checks, fp);
    trial_s.push_back(seconds_since(t0));
    outputs.check(fp);
  }
  Summary rss;
  rss.n = 1;
  rss.median = rss.q1 = rss.q3 = peak_rss_mb();
  return {{"trial_s", "s", summarize(trial_s)},
          {"peak_rss_mb", "MB", rss},
          {"setup_s", "s", summarize(setup_s)}};
}

/// --trace 1: traced-pass repetitions until `seconds` (at least one); each
/// metric is the median over the repetitions.
std::vector<Reported> run_traced(Workload& w, double seconds,
                                 const std::vector<LabeledConfig>& configs,
                                 Checks& checks, Outputs& outputs) {
  std::vector<Layers> reps;
  const auto start = Clock::now();
  do {
    Layers L;
    Fingerprints fp;
    probe_configs(configs, L, checks);
    w.traced(L, checks, fp);
    outputs.check(fp);
    reps.push_back(std::move(L));
  } while (seconds_since(start) < seconds);

  const auto over_reps = [&](const std::string& name, bool extra) {
    std::vector<double> v;
    for (const Layers& L : reps) {
      if (extra) {
        const auto it = L.extras().find(name);
        v.push_back(it == L.extras().end() ? 0.0 : it->second.second);
      } else {
        const auto it = L.values().find(name);
        v.push_back(it == L.values().end() ? 0.0 : it->second);
      }
    }
    return summarize(v);
  };
  std::vector<Reported> out;
  for (const MetricDef& d : kPerLayer) {
    out.push_back({d.name, d.unit, over_reps(d.name, false)});
  }
  for (const auto& [name, ext] : reps.front().extras()) {
    out.push_back({name, ext.first, over_reps(name, true), true});
  }
  return out;
}

void write_artifact(const Args& args, const std::vector<LabeledConfig>& configs,
                    const Checks& checks, const Fingerprints& fps,
                    const std::vector<Reported>& metrics) {
  std::vector<SimConfig> cfgs;
  for (const LabeledConfig& c : configs) cfgs.push_back(c.cfg);
  bench::note_configs(cfgs);
  const std::string name =
      "mddbench_" + args.workload + (args.trace ? "_traced" : "");
  bench::write_bench_json(name, [&](JsonWriter& jw) {
    jw.kv("workload", args.workload);
    jw.kv("seed", args.seed);
    jw.kv("trace", args.trace);
    jw.kv("seconds", args.seconds);
    jw.kv("nproc", nproc());
    jw.kv("hardware_threads", par::hardware_threads());
    jw.kv("ops_attempted", checks.attempted());
    jw.kv("ops_failed", checks.failed());
    jw.key("points").begin_array();
    for (const LabeledConfig& c : configs) {
      const obs::RunProvenance p = obs::make_provenance(c.cfg, 1, 0.0);
      jw.begin_object();
      jw.kv("label", c.label);
      jw.kv("config_hash", p.config_hash);
      jw.kv("scheme", p.scheme);
      jw.kv("pattern", p.pattern);
      jw.kv("seed", p.seed);
      jw.end_object();
    }
    jw.end_array();
    jw.key("fingerprints").begin_object();
    for (const auto& [key, value] : fps) jw.kv(key, value);
    jw.end_object();
    jw.key("metrics").begin_object();
    for (const Reported& m : metrics) {
      jw.key(m.name).begin_object();
      jw.kv("unit", m.unit);
      jw.kv("extra", m.extra);
      jw.kv("n", static_cast<std::uint64_t>(m.s.n));
      jw.kv("median", m.s.median);
      jw.kv("q1", m.s.q1);
      jw.kv("q3", m.s.q3);
      jw.kv("mad", m.s.mad);
      jw.end_object();
    }
    jw.end_object();
  });
}

void print_result_line(const Checks& checks,
                       const std::vector<Reported>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  const char* sep = "";
  for (const Reported& m : metrics) {
    if (m.extra) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), std::isfinite(m.s.median) ? m.s.median : 0.0,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: mddbench --workload NAME --seed S [--seconds T] "
                 "[--trace 0|1] [--root DIR] [--expected FILE]\n"
                 "workloads: lowload saturated oracle_cwg app_msi "
                 "figure_sweep static_exhaustive\n");
    return 2;
  }
  bench::bench_start();
  Checks checks;
  std::vector<LabeledConfig> configs;
  std::vector<Reported> metrics;
  Fingerprints fps;
  try {
    const std::unique_ptr<Workload> w =
        make_workload(args.workload, args.seed, args.root);
    if (!w) {
      std::fprintf(stderr, "mddbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    configs = w->configs();
    Outputs outputs(args, checks);
    std::printf("# mddbench %s seed=%llu trace=%d nproc=%d "
                "hardware_threads=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                nproc(), par::hardware_threads());
    metrics = args.trace
                  ? run_traced(*w, args.seconds, configs, checks, outputs)
                  : run_timed(*w, args.seconds, checks, outputs);
    fps = outputs.reference();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mddbench: %s\n", e.what());
    return 1;
  }

  std::printf("\n| metric | unit | median | q1 | q3 | MAD | n |\n"
              "|---|---|---|---|---|---|---|\n");
  for (const Reported& m : metrics) {
    std::printf("| %s%s | %s | %.6g | %.6g | %.6g | %.3g | %zu |\n",
                m.name.c_str(), m.extra ? " (extra)" : "", m.unit.c_str(),
                m.s.median, m.s.q1, m.s.q3, m.s.mad, m.s.n);
  }
  std::printf("\nops: %llu attempted, %llu failed (ops_failed_frac %.6g)\n",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()),
              ratio(static_cast<double>(checks.failed()),
                    static_cast<double>(checks.attempted())));
  for (const auto& [key, value] : fps) {
    std::printf("fingerprint %s %s %s\n", args.workload.c_str(), key.c_str(),
                value.c_str());
  }
  write_artifact(args, configs, checks, fps, metrics);
  std::fflush(stdout);
  print_result_line(checks, metrics);
  return 0;
}
