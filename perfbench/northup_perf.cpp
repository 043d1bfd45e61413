// northup_perf — the Northup benchmark driver.
//
//   northup_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Measures Northup the way its two kinds of users meet it, through
// public entry points only:
//   * gemm-dgpu, hotspot-paced, pipelined-paced: a programmer running an
//     out-of-core program (algos::make_plan + Plan::run on a fresh
//     core::Runtime per job), who sees host wall time per job and the
//     virtual (EventSim) makespan;
//   * svc-http: an operator running the northup-serve stack
//     (svc::JobService + http::HttpServer + http::ControlPlane) on
//     loopback, closed loop, who sees jobs/s and POST->SSE-result latency.
// Every completed job's result_hash is compared with a reference computed
// in set-up in inline mode; a mismatch is the only thing that makes the
// run incorrect (and the exit code non-zero). A job that throws counts as
// failed, by error type, and the run carries on.
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// run that interleaves untraced and traced jobs and prints per-layer
// metrics taken from the flight recorder (obs::EventLog) and from a
// timing mem::Storage decorator installed through
// RuntimeOptions::storage_decorator. perfbench/README.md explains the
// workloads and every metric.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "northup/algos/plan.hpp"
#include "northup/analyze/analyze.hpp"
#include "northup/core/runtime.hpp"
#include "northup/http/control_plane.hpp"
#include "northup/http/server.hpp"
#include "northup/memsim/storage.hpp"
#include "northup/obs/event_log.hpp"
#include "northup/obs/sampler.hpp"
#include "northup/sim/models.hpp"
#include "northup/svc/service.hpp"
#include "northup/topo/presets.hpp"
#include "northup/util/assert.hpp"
#include "northup/util/json.hpp"

namespace na = northup::algos;
namespace nc = northup::core;
namespace nh = northup::http;
namespace nm = northup::mem;
namespace no = northup::obs;
namespace ns = northup::svc;
namespace nt = northup::topo;
namespace nu = northup::util;
namespace json = northup::util::json;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (numpy's default), 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// Peak resident set of the process so far, in MiB.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t host_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// --- Result accounting -----------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every --trace 0 run prints (BENCHMARK.json).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"job_s_p50", "s"},
    {"job_s_tail", "s"},       {"goodput_jobs_per_s", "1/s"},
    {"completed_share", "ratio"}, {"virtual_makespan_s", "virtual_s"},
    {"peak_rss_mib", "MiB"},
};

/// The per-layer metrics every --trace 1 run prints; a layer a workload
/// does not reach reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"device.kernel_busy_s", "s"},    {"device.kernel_launches", "count"},
    {"device.self_s", "s"},           {"memsim.read_busy_s", "s"},
    {"memsim.write_busy_s", "s"},     {"memsim.read_bytes", "bytes"},
    {"memsim.write_bytes", "bytes"},  {"memsim.self_s", "s"},
    {"data.move_busy_s", "s"},        {"data.moves", "count"},
    {"data.self_s", "s"},             {"cache.hits", "count"},
    {"cache.misses", "count"},        {"cache.hit_ratio", "ratio"},
    {"exec.critical_path_s", "s"},    {"exec.overlap_ratio", "ratio"},
    {"algos.measured_s", "s"},        {"algos.input_s", "s"},
    {"algos.spawns", "count"},        {"algos.bytes_moved", "bytes"},
    {"core.runtime_ctor_s", "s"},     {"svc.queue_wait_s_p50", "s"},
    {"svc.exec_s_p50", "s"},          {"http.overhead_s_p50", "s"},
    {"http.healthz_rtt_s", "s"},      {"util.json_parse_mb_s", "MB/s"},
    {"obs.events_per_job", "count"},  {"obs.record_ns", "ns"},
    {"obs.recorder_share", "ratio"},  {"resil.retries", "count"},
    {"unattributed_share", "ratio"},  {"trace.job_s_p50", "s"},
    {"trace.overhead_s", "s"},        {"reconcile.gap_share", "ratio"},
    {"failed_share", "ratio"},        {"errors.capacity_error", "count"},
    {"errors.io_error", "count"},     {"errors.wrong_hash", "count"},
    {"errors.other_error", "count"},
};

/// Named metrics, plus the job counters of the run.
struct Report {
  bool trace = false;
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< thrown/non-Done jobs plus wrong hashes
  std::uint64_t wrong_hash = 0;
  std::map<std::string, std::uint64_t> errors;  ///< failures by error type

  void add(const std::string& name, double value) {
    values[name] = std::isfinite(value) ? value : 0.0;
  }

  void note_failure(const std::string& type) {
    ++failed;
    ++errors[type];
  }

  /// Prints every metric of the run's kind by name and unit, then the
  /// result object as the last line.
  void print() {
    add("failed_share", ratio(static_cast<double>(failed),
                              static_cast<double>(attempted)));
    for (const auto& [type, count] : errors) {
      add("errors." + type, static_cast<double>(count));
    }
    std::string out = "{\"correct\": ";
    out += wrong_hash == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    const std::span<const MetricSpec> specs =
        trace ? std::span<const MetricSpec>(kPerLayer)
              : std::span<const MetricSpec>(kEndToEnd);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const double v = values.count(specs[i].name) ? values.at(specs[i].name) : 0.0;
      std::printf("%-24s %16.9g %s\n", specs[i].name, v, specs[i].unit);
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out += std::string(i ? ", " : "") + "\"" + specs[i].name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + specs[i].unit + "\"}";
    }
    std::printf("failed %llu of %llu jobs\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const auto& [type, count] : errors) {
      std::printf("failed jobs: %s x%llu\n", type.c_str(),
                  static_cast<unsigned long long>(count));
    }
    std::printf("%s}}\n", out.c_str());
    std::fflush(stdout);
  }
};

/// Error type of an exception escaping one job.
std::string error_type(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const nu::CapacityError&) {
    return "capacity_error";
  } catch (const nu::IoError&) {
    return "io_error";
  } catch (...) {
    return "other_error";
  }
}

// --- Timing storage decorator (traced runs only) ---------------------------

/// A half-open [begin, end) interval on an EventLog clock, with a layer.
struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  int layer = 0;
};

/// Attribution layers of a traced app job, highest priority first: a
/// moment covered by several layers belongs to the first one.
enum Layer { kMemsim = 0, kDevice, kData, kRun, kLayerCount };

/// What the timing decorator saw on every file-backed node of one job.
struct IoTally {
  std::mutex mu;
  std::vector<Interval> spans;
  double read_s = 0.0, write_s = 0.0;
  std::uint64_t read_bytes = 0, write_bytes = 0;
};

/// mem::Storage decorator timing every read/write of the wrapped backend
/// on `clock`. Adds no locking around the access itself, so concurrent
/// transfers keep overlapping as they do undecorated.
class TimingStorage final : public nm::Storage {
 public:
  TimingStorage(std::unique_ptr<nm::Storage> inner, IoTally& tally,
                const no::EventLog& clock)
      : Storage(inner->name(), inner->kind(), inner->capacity(),
                inner->model()),
        inner_(std::move(inner)),
        tally_(tally),
        clock_(clock) {}

 protected:
  std::uint64_t do_alloc(std::uint64_t size) override {
    const nm::Allocation a = inner_->alloc(size);
    std::lock_guard<std::mutex> lock(mu_);
    allocations_.emplace(a.handle, a);
    return a.handle;
  }
  void do_release(std::uint64_t handle) override {
    nm::Allocation a;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = allocations_.find(handle);
      NU_CHECK(it != allocations_.end(), "unknown handle in timing wrapper");
      a = it->second;
      allocations_.erase(it);
    }
    inner_->release(a);
  }
  void do_read(void* dst, std::uint64_t handle, std::uint64_t offset,
               std::uint64_t size) override {
    const nm::Allocation a = lookup(handle);
    const std::uint64_t t0 = clock_.now_ns();
    inner_->read(dst, a, offset, size);
    note(t0, false, size);
  }
  void do_write(std::uint64_t handle, std::uint64_t offset, const void* src,
                std::uint64_t size) override {
    nm::Allocation a = lookup(handle);
    const std::uint64_t t0 = clock_.now_ns();
    inner_->write(a, offset, src, size);
    note(t0, true, size);
  }

 private:
  nm::Allocation lookup(std::uint64_t handle) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = allocations_.find(handle);
    NU_CHECK(it != allocations_.end(), "unknown handle in timing wrapper");
    return it->second;
  }
  void note(std::uint64_t t0, bool is_write, std::uint64_t bytes) {
    const std::uint64_t t1 = clock_.now_ns();
    const double secs = static_cast<double>(t1 - t0) * 1e-9;
    std::lock_guard<std::mutex> lock(tally_.mu);
    tally_.spans.push_back({t0, t1, kMemsim});
    (is_write ? tally_.write_s : tally_.read_s) += secs;
    (is_write ? tally_.write_bytes : tally_.read_bytes) += bytes;
  }

  std::unique_ptr<nm::Storage> inner_;
  IoTally& tally_;
  const no::EventLog& clock_;
  std::mutex mu_;  ///< guards allocations_
  std::map<std::uint64_t, nm::Allocation> allocations_;
};

/// Microbenchmarked cost of one EventLog::record on a warm thread ring:
/// the median of five batches, in nanoseconds.
double record_ns() {
  no::EventLog log;
  no::Event e;
  e.kind = no::EventKind::kMove;
  e.name = log.intern("bench");
  constexpr int kBatch = 200000;
  for (int i = 0; i < kBatch; ++i) log.record(e);  // first-touch the ring
  std::vector<double> per;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      e.ts_ns = static_cast<std::uint64_t>(i);
      log.record(e);
    }
    per.push_back(since(t0) / kBatch * 1e9);
  }
  return median(per);
}

// --- App workloads ---------------------------------------------------------

/// Storage model of the figure harnesses: the paper's SSD bandwidths with
/// access latency scaled by the block ratio 256/4096 (DESIGN.md §2).
/// Frozen here rather than shared so that the benchmark's inputs change
/// only when this file does.
constexpr double kModelScale = 1.0 / 16.0;

nt::PresetOptions machine_options(std::uint64_t staging,
                                  std::uint64_t device) {
  nt::PresetOptions o;
  o.root_capacity = 256ULL << 20;
  o.staging_capacity = staging;
  o.device_capacity = device;
  o.storage_model = northup::sim::ModelPresets::ssd(1400.0, 600.0);
  o.storage_model.access_latency_s *= kModelScale;
  o.proc_flops_scale = kModelScale;
  return o;
}

/// GEMM n=1024: level-1 block 256 (2 MiB staging, 1 MiB device).
nt::PresetOptions gemm_machine() { return machine_options(2ULL << 20, 1ULL << 20); }
/// HotSpot n=2048 with staging that keeps the cross-sweep working set
/// resident, so unchanged power blocks hit the shard cache on re-descent.
nt::PresetOptions hotspot_machine() { return machine_options(40ULL << 20, 8ULL << 20); }

na::GemmConfig gemm_config(std::uint64_t seed) {
  na::GemmConfig c;
  c.n = 1024;
  c.verify_samples = 32;
  c.seed = seed;
  c.hash_result = true;
  return c;
}

na::HotspotConfig hotspot_config(std::uint64_t seed) {
  na::HotspotConfig c;
  c.n = 2048;
  c.iterations = 2;  // even: the second sweep re-descends cached power blocks
  c.verify = false;
  c.seed = seed;
  c.hash_result = true;
  return c;
}

struct AppKind {
  std::string name;
  std::unique_ptr<na::Plan> plan;
  std::function<nt::TopoTree()> tree;
  std::uint64_t ref_hash = 0;
};

struct AppWorkload {
  std::vector<AppKind> kinds;
  nc::RuntimeOptions options;  ///< the measured configuration
};

/// Tail percentile of the app workloads: a 30 s run completes 60 to 90
/// jobs, so at least ten lie beyond p75 (svc-http, with thousands of
/// jobs a run, reports p99).
constexpr double kAppTailQuantile = 0.75;

AppWorkload make_app_workload(const std::string& name, std::uint64_t seed) {
  AppWorkload w;
  w.options.parallel_leaf_threads = host_threads();
  auto gemm = [&](std::function<nt::TopoTree()> tree) {
    w.kinds.push_back({"gemm", na::make_plan(gemm_config(seed)),
                       std::move(tree), 0});
  };
  auto hotspot = [&](std::function<nt::TopoTree()> tree) {
    w.kinds.push_back({"hotspot", na::make_plan(hotspot_config(seed + 1)),
                       std::move(tree), 0});
  };
  if (name == "gemm-dgpu") {
    gemm([] { return nt::dgpu_three_level(nm::StorageKind::Ssd, gemm_machine()); });
  } else if (name == "hotspot-paced") {
    w.options.paced_storage = true;
    hotspot([] { return nt::apu_two_level(nm::StorageKind::Ssd, hotspot_machine()); });
  } else if (name == "pipelined-paced") {
    w.options.paced_storage = true;
    w.options.pipeline_threads = 3;
    gemm([] { return nt::apu_two_level(nm::StorageKind::Ssd, gemm_machine()); });
    hotspot([] { return nt::apu_two_level(nm::StorageKind::Ssd, hotspot_machine()); });
  } else {
    throw nu::Error("unknown workload '" + name + "'");
  }
  return w;
}

/// Per-layer observations of one traced job.
struct LayerSample {
  double self[kLayerCount] = {};  ///< exclusive time per Layer
  double input_s = 0.0;           ///< Plan::run time outside every run span
  double kernel_busy_s = 0.0, move_busy_s = 0.0;
  double io_busy_s = 0.0;  ///< kIo inside run spans
  double critical_path_s = 0.0;
  std::uint64_t launches = 0, moves = 0, retries = 0, events = 0;
};

/// Exclusive attribution of [t0, t1) over `spans`: each moment goes to
/// the highest-priority layer covering it; moments inside a run span
/// that no layer covers stay in self[kRun] (unattributed); moments
/// outside every run span are input generation, preprocessing,
/// verification and hashing (`input_s`).
void attribute(std::vector<Interval> spans, std::uint64_t t0, std::uint64_t t1,
               LayerSample& out) {
  struct Edge {
    std::uint64_t t;
    int layer;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(spans.size() * 2);
  for (const Interval& s : spans) {
    const std::uint64_t b = std::max(s.begin, t0), e = std::min(s.end, t1);
    if (b >= e) continue;
    edges.push_back({b, s.layer, +1});
    edges.push_back({e, s.layer, -1});
  }
  edges.push_back({t1, kRun, 0});
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });
  int active[kLayerCount] = {};
  std::uint64_t prev = t0;
  for (const Edge& edge : edges) {
    const double seg = static_cast<double>(edge.t - prev) * 1e-9;
    int owner = -1;
    for (int l = 0; l < kLayerCount; ++l) {
      if (active[l] > 0) {
        owner = l;
        break;
      }
    }
    (owner < 0 ? out.input_s : out.self[owner]) += seg;
    active[edge.layer] += edge.delta;
    prev = edge.t;
  }
}

/// Reads one traced job's recording: layer busy times and counts, the
/// measured critical path of its run phase, and exclusive attribution.
LayerSample analyse_trace(const no::EventLog& log, IoTally& tally,
                          std::uint64_t t0, std::uint64_t t1) {
  LayerSample out;
  no::RecordedRun run = log.snapshot();
  out.events = run.events.size() + run.dropped;
  std::uint32_t run_name = UINT32_MAX;
  for (std::uint32_t i = 0; i < run.names.size(); ++i) {
    if (run.names[i] == "run") run_name = i;
  }
  std::vector<Interval> spans = std::move(tally.spans);
  std::map<no::SpanId, std::uint64_t> open_runs;
  std::vector<Interval> run_windows;
  for (const no::Event& e : run.events) {
    const std::uint64_t end = e.ts_ns + e.dur_ns;
    switch (e.kind) {
      case no::EventKind::kCompute:
        spans.push_back({e.ts_ns, end, kDevice});
        out.kernel_busy_s += static_cast<double>(e.dur_ns) * 1e-9;
        ++out.launches;
        break;
      case no::EventKind::kMove:
        spans.push_back({e.ts_ns, end, kData});
        out.move_busy_s += static_cast<double>(e.dur_ns) * 1e-9;
        ++out.moves;
        break;
      case no::EventKind::kRetry:
        ++out.retries;
        break;
      case no::EventKind::kSpanBegin:
        if (e.name == run_name) open_runs[e.span] = e.ts_ns;
        break;
      case no::EventKind::kSpanEnd:
        if (auto it = open_runs.find(e.span); it != open_runs.end()) {
          run_windows.push_back({it->second, e.ts_ns, kRun});
          open_runs.erase(it);
        }
        break;
      default:
        break;
    }
  }
  // Restrict the critical-path walk and the I/O busy time to the run
  // phase, where overlap is possible; preprocessing is serial by design.
  no::RecordedRun measured;
  measured.names = run.names;
  measured.node_names = run.node_names;
  for (const no::Event& e : run.events) {
    for (const Interval& w : run_windows) {
      if (e.ts_ns >= w.begin && e.ts_ns + e.dur_ns <= w.end) {
        measured.events.push_back(e);
        if (e.kind == no::EventKind::kIo) {
          out.io_busy_s += static_cast<double>(e.dur_ns) * 1e-9;
        }
        break;
      }
    }
  }
  if (!measured.events.empty()) {
    out.critical_path_s =
        northup::analyze::measured_critical_path(measured).length_s;
  }
  spans.insert(spans.end(), run_windows.begin(), run_windows.end());
  attribute(std::move(spans), t0, t1, out);
  return out;
}

/// One app job's outcome.
struct AppJob {
  bool ok = false;
  std::string error;  ///< error type when !ok
  double wall_s = 0.0;
  double ctor_s = 0.0;
  na::RunStats stats;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  IoTally io;
  LayerSample layers;
};

/// Runs `kind` once on a fresh Runtime built with `options`. Only
/// Plan::run is timed. With `traced`, the job records into its own
/// EventLog and its file-backed nodes are wrapped in TimingStorage.
std::unique_ptr<AppJob> run_app_job(const AppKind& kind,
                                    nc::RuntimeOptions options, bool traced) {
  auto job = std::make_unique<AppJob>();
  std::unique_ptr<no::EventLog> log;
  if (traced) {
    log = std::make_unique<no::EventLog>();
    options.external_event_log = log.get();
    options.storage_decorator =
        [&job, &log](nt::NodeId id, const nt::TopoTree& tree,
                     std::unique_ptr<nm::Storage> storage)
        -> std::unique_ptr<nm::Storage> {
      if (!nm::is_file_backed(tree.memory(id).storage_type)) return storage;
      return std::make_unique<TimingStorage>(std::move(storage), job->io, *log);
    };
  }
  const auto c0 = Clock::now();
  nc::Runtime rt(kind.tree(), std::move(options));
  job->ctor_s = since(c0);
  const std::uint64_t t0_ns = log ? log->now_ns() : 0;
  const auto t0 = Clock::now();
  try {
    job->stats = kind.plan->run(rt);
    job->wall_s = since(t0);
    job->ok = true;
  } catch (...) {
    job->wall_s = since(t0);
    job->error = error_type(std::current_exception());
  }
  const std::uint64_t t1_ns = log ? log->now_ns() : 0;
  for (nt::NodeId id = 0; id < rt.tree().node_count(); ++id) {
    if (auto* cache = rt.shard_cache_at(id)) {
      job->cache_hits += cache->hits();
      job->cache_misses += cache->misses();
    }
  }
  if (traced) job->layers = analyse_trace(*log, job->io, t0_ns, t1_ns);
  return job;
}

/// Reference hashes in inline, unpaced mode — the mode every other mode
/// must reproduce bit for bit — then one untimed warm-up job per kind in
/// the measured configuration (when that is inline and unpaced, the
/// reference job is the warm-up). Returns the set-up seconds.
double set_up_app(AppWorkload& w) {
  const auto t0 = Clock::now();
  nc::RuntimeOptions reference = w.options;
  reference.pipeline_threads = 0;
  reference.paced_storage = false;
  for (AppKind& kind : w.kinds) {
    const auto job = run_app_job(kind, reference, false);
    NU_CHECK(job->ok, "reference " + kind.name + " job failed: " + job->error);
    kind.ref_hash = job->stats.result_hash;
    if (w.options.pipeline_threads > 0 || w.options.paced_storage) {
      run_app_job(kind, w.options, false);  // warm-up; may fail (recorded later)
    }
  }
  return since(t0);
}

void run_app(const std::string& name, std::uint64_t seed, double seconds,
             bool trace, Report& report) {
  // Set-up is repeated and its median reported: one set-up is a few
  // jobs long, so a single reading would carry a single job's noise.
  // Peak memory is read after the first set-up, which has run one job of
  // each kind: what one program run needs. Read after the load, it would
  // depend on how the allocator's per-thread arenas fill up over dozens of
  // fresh runtimes (405-537 MiB over ten hotspot-paced runs).
  std::vector<double> setups;
  double rss_mib = 0.0;
  AppWorkload w;
  for (int i = 0; i < kSetups; ++i) {
    w = make_app_workload(name, seed);
    setups.push_back(set_up_app(w));
    if (i == 0) rss_mib = peak_rss_mib();
  }

  std::vector<double> walls, makespans, traced_walls;
  std::vector<std::unique_ptr<AppJob>> traced;
  double ctor_sum = 0.0;
  std::uint64_t done = 0;
  const auto load0 = Clock::now();
  for (std::size_t i = 0; since(load0) < seconds; ++i) {
    const AppKind& kind = w.kinds[i % w.kinds.size()];
    // Traced runs alternate untraced and traced jobs (pairs of jobs per
    // kind), so both medians come from the same stretch of host time.
    const bool traced_job = trace && (i / w.kinds.size()) % 2 == 1;
    auto job = run_app_job(kind, w.options, traced_job);
    ++report.attempted;
    ctor_sum += job->ctor_s;
    if (!job->ok) {
      report.note_failure(job->error);
    } else if (job->stats.result_hash != kind.ref_hash) {
      ++report.wrong_hash;
      report.note_failure("wrong_hash");
    } else if (traced_job) {
      traced_walls.push_back(job->wall_s);
      traced.push_back(std::move(job));
    } else {
      ++done;
      walls.push_back(job->wall_s);
      makespans.push_back(job->stats.makespan);
    }
  }
  const double load_s = since(load0);

  const double p50 = median(walls);
  if (!trace) {
    report.add("setup_s", median(setups));
    report.add("job_s_p50", p50);
    report.add("job_s_tail", quantile(walls, kAppTailQuantile));
    report.add("goodput_jobs_per_s", static_cast<double>(done) / load_s);
    report.add("completed_share", ratio(static_cast<double>(done),
                     static_cast<double>(report.attempted)));
    report.add("virtual_makespan_s", median(makespans));
    report.add("peak_rss_mib", rss_mib);
    return;
  }

  // --- Per-layer metrics: means over the traced jobs that completed. ---
  std::vector<const AppJob*> ok;
  for (const auto& job : traced) ok.push_back(job.get());
  const double n = std::max<double>(1.0, static_cast<double>(ok.size()));
  LayerSample sum;
  double read_s = 0, write_s = 0, read_b = 0, write_b = 0, measured_s = 0;
  double spawns = 0, bytes_moved = 0, hits = 0, misses = 0, wall = 0;
  for (const AppJob* job : ok) {
    const LayerSample& l = job->layers;
    for (int k = 0; k < kLayerCount; ++k) sum.self[k] += l.self[k];
    sum.input_s += l.input_s;
    sum.kernel_busy_s += l.kernel_busy_s;
    sum.move_busy_s += l.move_busy_s;
    sum.io_busy_s += l.io_busy_s;
    sum.critical_path_s += l.critical_path_s;
    sum.launches += l.launches;
    sum.moves += l.moves;
    sum.retries += l.retries;
    sum.events += l.events;
    read_s += job->io.read_s;
    write_s += job->io.write_s;
    read_b += static_cast<double>(job->io.read_bytes);
    write_b += static_cast<double>(job->io.write_bytes);
    measured_s += job->stats.wall_seconds;
    spawns += static_cast<double>(job->stats.spawns);
    bytes_moved += static_cast<double>(job->stats.bytes_moved);
    hits += static_cast<double>(job->cache_hits);
    misses += static_cast<double>(job->cache_misses);
    wall += job->wall_s;
  }
  const double rec_ns = record_ns();
  const double events = static_cast<double>(sum.events) / n;
  const double layer_sum = (sum.self[kMemsim] + sum.self[kDevice] +
                            sum.self[kData] + sum.self[kRun] + sum.input_s) / n;
  report.add("device.kernel_busy_s", sum.kernel_busy_s / n);
  report.add("device.kernel_launches", static_cast<double>(sum.launches) / n);
  report.add("device.self_s", sum.self[kDevice] / n);
  report.add("memsim.read_busy_s", read_s / n);
  report.add("memsim.write_busy_s", write_s / n);
  report.add("memsim.read_bytes", read_b / n);
  report.add("memsim.write_bytes", write_b / n);
  report.add("memsim.self_s", sum.self[kMemsim] / n);
  report.add("data.move_busy_s", sum.move_busy_s / n);
  report.add("data.moves", static_cast<double>(sum.moves) / n);
  report.add("data.self_s", sum.self[kData] / n);
  report.add("cache.hits", hits / n);
  report.add("cache.misses", misses / n);
  report.add("cache.hit_ratio", ratio(hits, hits + misses));
  report.add("exec.critical_path_s", sum.critical_path_s / n);
  report.add("exec.overlap_ratio", ratio(sum.critical_path_s, sum.io_busy_s + sum.kernel_busy_s));
  report.add("algos.measured_s", measured_s / n);
  report.add("algos.input_s", sum.input_s / n);
  report.add("algos.spawns", spawns / n);
  report.add("algos.bytes_moved", bytes_moved / n);
  report.add("core.runtime_ctor_s", ctor_sum / static_cast<double>(report.attempted));
  report.add("obs.events_per_job", events);
  report.add("obs.record_ns", rec_ns);
  report.add("obs.recorder_share", ratio(events * rec_ns * 1e-9, p50));
  report.add("resil.retries", static_cast<double>(sum.retries) / n);
  report.add("unattributed_share", ratio(sum.self[kRun], wall));
  report.add("trace.job_s_p50", median(traced_walls));
  report.add("trace.overhead_s", median(traced_walls) - p50);
  report.add("reconcile.gap_share", ratio(layer_sum - p50, p50));
}

// --- svc-http ----------------------------------------------------------------

/// One blocking loopback connection with a read buffer. Socket timeouts
/// bound every read and write, so a wedged server fails the job instead
/// of hanging the benchmark.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    NU_CHECK(fd_ >= 0, "socket() failed");
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw nu::Error("connect to 127.0.0.1:" + std::to_string(port) + " failed");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw nu::Error("send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Body of one Content-Length framed response.
  std::string read_response() {
    std::size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) fill();
    std::string head = buf_.substr(0, head_end);
    for (char& c : head) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    const std::size_t cl = head.find("content-length:");
    NU_CHECK(cl != std::string::npos, "response without Content-Length");
    const std::size_t len = std::strtoull(head.c_str() + cl + 15, nullptr, 10);
    while (buf_.size() < head_end + 4 + len) fill();
    std::string body = buf_.substr(head_end + 4, len);
    buf_.erase(0, head_end + 4 + len);
    return body;
  }

  /// Data of the `event: result` of a Server-Sent-Events stream.
  std::string read_sse_result() {
    static const std::string kResult = "event: result\ndata: ";
    for (;;) {
      const std::size_t at = buf_.find(kResult);
      if (at != std::string::npos) {
        const std::size_t end = buf_.find("\n\n", at);
        if (end != std::string::npos) {
          return buf_.substr(at + kResult.size(), end - at - kResult.size());
        }
      }
      if (buf_.find("event: timeout") != std::string::npos) {
        throw nu::Error("SSE stream timed out");
      }
      fill();
    }
  }

 private:
  void fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) throw nu::Error("connection closed or timed out");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }

  int fd_ = -1;
  std::string buf_;
};

std::string request(const std::string& method, const std::string& target,
                    const std::string& body = "") {
  std::string r = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    r += "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n";
  }
  return r + "\r\n" + body;
}

/// One service worker per core: with fewer, a run's throughput would
/// depend on which cores its workers happen to land on (their speeds
/// differ by up to 1.7x on the reference host), not on the code.
ns::ServiceOptions service_options() {
  ns::ServiceOptions o;
  o.workers = host_threads();
  return o;
}

/// The northup-serve stack in-process, with northup-serve's defaults
/// except for the worker count: service, sampler feeding /timeseries,
/// control plane, HTTP server. Member order makes the server stop
/// before the plane it calls into.
struct ServeStack {
  ns::JobService service{service_options()};
  no::MetricsSampler sampler{service.metrics(), std::chrono::milliseconds(250),
                             2048, /*include_counters=*/true};
  nh::ControlPlane plane{service, &sampler};
  nh::HttpServer server{nh::ServerOptions{}, &service.metrics()};

  ServeStack() {
    plane.mount(server);
    sampler.start();
    server.start();
  }
  ~ServeStack() {
    server.stop();
    sampler.stop();
    service.wait_all();
  }
};

/// The service job mix (small GEMM / HotSpot / SpMV, as in the
/// svc_throughput harness) as POST /jobs bodies.
std::vector<std::string> svc_specs(std::uint64_t seed, int client) {
  const std::string tenant = "\"tenant\": \"client-" + std::to_string(client) + "\"";
  const auto s = [&](std::uint64_t k) { return std::to_string(seed + k); };
  return {
      "{\"kind\": \"gemm\", " + tenant +
          ", \"config\": {\"n\": 64, \"verify_samples\": 0, \"seed\": " + s(0) + "}}",
      "{\"kind\": \"hotspot\", " + tenant +
          ", \"config\": {\"n\": 64, \"iterations\": 1, \"verify\": false, \"seed\": " +
          s(1) + "}}",
      "{\"kind\": \"spmv\", " + tenant +
          ", \"config\": {\"rows\": 20000, \"avg_nnz\": 8, \"verify\": false, \"seed\": " +
          s(2) + "}}",
  };
}

std::string hex_u64(std::uint64_t v) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct HttpJob {
  std::string error;  ///< error type; empty when the job completed
  std::string hash;
  double rtt_s = 0.0, latency_s = 0.0, queue_wait_s = 0.0, wall_s = 0.0,
         makespan_s = 0.0, retries = 0.0;
};

/// POST one job, then follow its SSE stream to the result on the same
/// keep-alive connection. rtt_s is what the HTTP caller waits.
HttpJob http_job(std::uint16_t port, const std::string& body) {
  HttpJob r;
  const auto t0 = Clock::now();
  try {
    Connection conn(port);
    conn.send(request("POST", "/jobs", body));
    const json::Value posted = json::parse(conn.read_response(), "POST /jobs");
    const json::Value& jobs = posted.at("jobs");
    NU_CHECK(jobs.is_array() && jobs.array.size() == 1, "POST /jobs reply");
    if (jobs.array[0].str("state") == "rejected") {
      r.error = "other_error";
      return r;
    }
    conn.send(request("GET", "/jobs/" + std::to_string(jobs.array[0].u64("id")) + "/events"));
    const std::string data = conn.read_sse_result();
    r.rtt_s = since(t0);
    const json::Value result = json::parse(data, "SSE result");
    if (result.str("state") != "done") {
      const std::string err = result.str("error");
      r.error = err.find("apacity") != std::string::npos ? "capacity_error"
                : err.find("I/O") != std::string::npos   ? "io_error"
                                                         : "other_error";
      return r;
    }
    const json::Value& stats = result.at("stats");
    r.hash = stats.str("result_hash");
    r.latency_s = result.num("latency_s");
    r.queue_wait_s = result.num("queue_wait_s");
    r.wall_s = stats.num("wall_seconds");
    r.makespan_s = stats.num("makespan_s");
    r.retries = stats.num("chunk_retries");
  } catch (const std::exception&) {
    r.error = "other_error";
  }
  return r;
}

/// Median seconds of a no-job round trip (GET /healthz, keep-alive).
double healthz_rtt(std::uint16_t port) {
  Connection conn(port);
  std::vector<double> rtts;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    conn.send(request("GET", "/healthz"));
    conn.read_response();
    rtts.push_back(since(t0));
  }
  return median(rtts);
}

/// MB/s of util::json::parse + ControlPlane::parse_job_request over the
/// request bodies and util::json::parse over a result body — the
/// parsing an HTTP job costs the server and its client.
double json_parse_mb_s(const std::vector<std::string>& specs,
                       const std::string& result_body) {
  std::vector<double> rates;
  for (int r = 0; r < 5; ++r) {
    std::size_t bytes = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < 2000; ++i) {
      for (const std::string& spec : specs) {
        const ns::JobRequest req =
            nh::ControlPlane::parse_job_request(json::parse(spec, "spec"));
        NU_CHECK(req.tenant == "client-0", "spec parsed wrongly");
        bytes += spec.size();
      }
      NU_CHECK(json::parse(result_body, "result").has("stats"), "result body");
      bytes += result_body.size();
    }
    rates.push_back(static_cast<double>(bytes) / since(t0) / 1e6);
  }
  return median(rates);
}

/// Median seconds to construct a core::Runtime the way the service
/// builds one per job attempt: the service machine preset, recording
/// into an external (machine-wide) EventLog.
double runtime_ctor_s() {
  no::EventLog log;
  const ns::ServiceOptions defaults;
  nc::RuntimeOptions options;
  options.external_event_log = &log;
  std::vector<double> ctor;
  for (int i = 0; i < 30; ++i) {
    const auto t0 = Clock::now();
    nc::Runtime rt(nt::dgpu_three_level(defaults.file_kind, defaults.machine), options);
    ctor.push_back(since(t0));
  }
  return median(ctor);
}

/// Reference results of the job mix, one per kind.
struct SvcReference {
  std::vector<std::string> hashes;  ///< hex, as the HTTP result carries it
  std::string result_json;          ///< a complete result document
};

/// Builds the stack, takes each kind's reference hash from an in-process
/// run (inline mode: the service's job runtimes have no pipeline), then
/// untimed warm-up jobs of every kind over HTTP.
double set_up_svc(std::unique_ptr<ServeStack>& stack,
                  const std::vector<std::string>& specs, SvcReference& ref) {
  const auto t0 = Clock::now();
  stack = std::make_unique<ServeStack>();
  ref = {};
  for (const std::string& spec : specs) {
    ns::JobHandle h = stack->service.submit(
        nh::ControlPlane::parse_job_request(json::parse(spec, "spec")));
    const ns::JobResult& r = h.wait();
    NU_CHECK(r.state == ns::JobState::Done, "reference job failed: " + r.error);
    ref.hashes.push_back(hex_u64(r.stats.result_hash));
    ref.result_json = nh::ControlPlane::job_json(h.id(), h);
  }
  // Warm-up from one client per service worker at once, so that every
  // worker has run jobs (and allocated its flight-recorder ring) before
  // memory is read.
  std::atomic<int> warm_failures{0};
  std::vector<std::thread> warm;
  for (std::size_t c = 0; c < stack->service.options().workers; ++c) {
    warm.emplace_back([&] {
      for (const std::string& spec : specs) {
        if (!http_job(stack->server.port(), spec).error.empty()) ++warm_failures;
      }
    });
  }
  for (std::thread& t : warm) t.join();
  NU_CHECK(warm_failures == 0, "warm-up job over HTTP failed");
  return since(t0);
}

void run_svc(std::uint64_t seed, double seconds, bool trace, Report& report) {
  // Closed loop: each client waits for its job's result before posting
  // the next, as HTTP callers do. At most one connection per client, so
  // the server's worker pool (4) never makes a client wait for a worker.
  const int kClients = static_cast<int>(std::min<std::size_t>(4, host_threads()));
  std::unique_ptr<ServeStack> stack;
  SvcReference ref;
  std::vector<double> setups;
  double rss_mib = 0.0;  // after the first set-up, as in run_app
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    setups.push_back(set_up_svc(stack, svc_specs(seed, 0), ref));
    if (i == 0) rss_mib = peak_rss_mib();
  }
  const std::uint16_t port = stack->server.port();

  std::mutex mu;
  std::vector<HttpJob> jobs;
  const auto load0 = Clock::now();
  const auto deadline = load0 + std::chrono::duration<double>(seconds);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<std::string> specs = svc_specs(seed, c);
      std::vector<HttpJob> mine;
      for (std::size_t i = 0; Clock::now() < deadline; ++i) {
        const std::size_t kind = (static_cast<std::size_t>(c) + i) % specs.size();
        HttpJob job = http_job(port, specs[kind]);
        if (job.error.empty() && job.hash != ref.hashes[kind]) job.error = "wrong_hash";
        mine.push_back(std::move(job));
      }
      std::lock_guard<std::mutex> lock(mu);
      for (HttpJob& j : mine) jobs.push_back(std::move(j));
    });
  }
  for (std::thread& t : clients) t.join();
  const double load_s = since(load0);

  std::vector<double> rtt, makespans, queue, exec, http_over, wall, retries;
  for (const HttpJob& j : jobs) {
    ++report.attempted;
    if (!j.error.empty()) {
      if (j.error == "wrong_hash") ++report.wrong_hash;
      report.note_failure(j.error);
      continue;
    }
    rtt.push_back(j.rtt_s);
    makespans.push_back(j.makespan_s);
    queue.push_back(j.queue_wait_s);
    exec.push_back(j.latency_s - j.queue_wait_s);
    http_over.push_back(j.rtt_s - j.latency_s);
    wall.push_back(j.wall_s);
    retries.push_back(j.retries);
  }
  const double p50 = median(rtt);
  if (!trace) {
    report.add("setup_s", median(setups));
    report.add("job_s_p50", p50);
    report.add("job_s_tail", quantile(rtt, 0.99));
    report.add("goodput_jobs_per_s", static_cast<double>(rtt.size()) / load_s);
    report.add("completed_share", ratio(static_cast<double>(rtt.size()),
                                        static_cast<double>(report.attempted)));
    report.add("virtual_makespan_s", median(makespans));
    report.add("peak_rss_mib", rss_mib);
    return;
  }

  // Jobs the last stack ran: the load, the references, and one warm-up
  // of each kind per service worker.
  const double service_jobs = static_cast<double>(
      jobs.size() + ref.hashes.size() * (1 + stack->service.options().workers));
  const no::RecordedRun recorded = stack->service.machine().event_log()->snapshot();
  const double events =
      static_cast<double>(recorded.events.size() + recorded.dropped) / service_jobs;
  const double rec_ns = record_ns();
  const double ctor = runtime_ctor_s();
  // Self times of the typical job: the mean decomposition of the jobs
  // whose round trip lies between p40 and p60. Per-layer medians do not
  // add up (queue wait is near 0 for a job that finds an idle worker
  // and a whole job long for one that does not), so the reconciliation
  // is made on this band instead.
  const double lo = quantile(rtt, 0.4), hi = quantile(rtt, 0.6);
  double band = 0, b_rtt = 0, b_http = 0, b_queue = 0, b_wall = 0;
  for (std::size_t i = 0; i < rtt.size(); ++i) {
    if (rtt[i] < lo || rtt[i] > hi) continue;
    ++band;
    b_rtt += rtt[i];
    b_http += http_over[i];
    b_queue += queue[i];
    b_wall += wall[i];
  }
  band = std::max(band, 1.0);
  const double unattributed = (b_rtt - b_http - b_queue - b_wall) / band - ctor;
  const double layer_sum = (b_http + b_queue + b_wall) / band + ctor + unattributed;
  report.add("algos.measured_s", median(wall));
  report.add("core.runtime_ctor_s", ctor);
  report.add("svc.queue_wait_s_p50", median(queue));
  report.add("svc.exec_s_p50", median(exec));
  report.add("http.overhead_s_p50", median(http_over));
  report.add("http.healthz_rtt_s", healthz_rtt(port));
  report.add("util.json_parse_mb_s", json_parse_mb_s(svc_specs(seed, 0), ref.result_json));
  report.add("obs.events_per_job", events);
  report.add("obs.record_ns", rec_ns);
  report.add("obs.recorder_share", ratio(events * rec_ns * 1e-9, p50));
  report.add("resil.retries", mean(retries));
  report.add("unattributed_share", ratio(unattributed, b_rtt / band));
  report.add("trace.job_s_p50", p50);
  report.add("reconcile.gap_share", ratio(layer_sum - p50, p50));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      throw nu::Error("unknown argument " + key);
    }
  }
  if (argc % 2 == 0) throw nu::Error("arguments come in --name value pairs");
  if (a.workload.empty()) throw nu::Error("--workload is required");
  if (!(a.seconds > 0.0)) throw nu::Error("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Report report;
    report.trace = args.trace;
    if (args.workload == "svc-http") {
      run_svc(args.seed, args.seconds, args.trace, report);
    } else {
      run_app(args.workload, args.seed, args.seconds, args.trace, report);
    }
    report.print();
    // Failed jobs are measured outcomes; only a wrong result is an error.
    return report.wrong_hash == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "northup_perf: %s\n", e.what());
    return 2;
  }
}
