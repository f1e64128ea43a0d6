// The process-wide host pool (decomp/host_pool.hpp, DESIGN.md §15): every
// index exactly once, per-call slot exclusivity, nesting, concurrent
// callers, typed error propagation, the decoder on top of it, and no
// thread started on the decode or encode path after warm-up.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "cell/machine.hpp"
#include "cellenc/pipeline.hpp"
#include "cellenc/stage_t1.hpp"
#include "common/rng.hpp"
#include "decomp/host_pool.hpp"
#include "image/synth.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/t2_encoder.hpp"
#include "jp2k/tile.hpp"
#include "service/encode_service.hpp"

namespace cj2k::decomp {
namespace {

struct TaskFailure : std::runtime_error {
  explicit TaskFailure(int at)
      : std::runtime_error("task failed at " + std::to_string(at)), index(at) {}
  int index;
};

TEST(HostPool, EveryIndexRunsExactlyOnce) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, host_slots(), std::size_t{10000}}) {
    std::vector<std::atomic<int>> runs(n);
    parallel_for(n, [&](std::size_t i, std::size_t) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(HostPool, SlotsStayInRangeAndAreNeverShared) {
  const std::size_t slots = host_slots();
  ASSERT_GE(slots, 1u);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> busy(slots);
    std::mutex mu;
    std::vector<std::set<std::thread::id>> owners(slots);
    std::atomic<int> out_of_range{0};
    std::atomic<int> shared{0};
    parallel_for(2000, [&](std::size_t, std::size_t slot) {
      if (slot >= slots) {
        out_of_range.fetch_add(1);
        return;
      }
      if (busy[slot].exchange(1) != 0) shared.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(mu);
        owners[slot].insert(std::this_thread::get_id());
      }
      std::this_thread::yield();
      busy[slot].store(0);
    });
    EXPECT_EQ(out_of_range.load(), 0);
    EXPECT_EQ(shared.load(), 0);
    for (std::size_t s = 0; s < slots; ++s) {
      EXPECT_LE(owners[s].size(), 1u) << "slot " << s << " round " << round;
    }
    // Slot 0 is the caller's (helpers may have drained the job first).
    EXPECT_TRUE(owners[0].empty() ||
                owners[0].count(std::this_thread::get_id()) == 1);
  }
}

TEST(HostPool, NestedParallelForCompletes) {
  const std::size_t outer = 2 * host_slots() + 1;
  constexpr std::size_t kInner = 64;
  constexpr std::size_t kInnermost = 8;
  std::vector<std::atomic<int>> runs(outer * kInner * kInnermost);
  parallel_for(outer, [&](std::size_t i, std::size_t) {
    parallel_for(kInner, [&](std::size_t j, std::size_t slot) {
      EXPECT_LT(slot, host_slots());
      parallel_for(kInnermost, [&](std::size_t k, std::size_t) {
        runs[(i * kInner + j) * kInnermost + k].fetch_add(1);
      });
    });
  });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].load(), 1) << i;
  }
}

TEST(HostPool, ConcurrentCallersBothComplete) {
  constexpr std::size_t kN = 5000;
  constexpr int kRounds = 20;
  std::vector<std::uint64_t> sums(2, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&sums, t] {
      for (int r = 0; r < kRounds; ++r) {
        std::atomic<std::uint64_t> sum{0};
        parallel_for(kN, [&](std::size_t i, std::size_t) {
          sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        sums[static_cast<std::size_t>(t)] += sum.load();
      }
    });
  }
  for (auto& c : callers) c.join();
  const std::uint64_t expected = kRounds * (kN * (kN + 1) / 2);
  EXPECT_EQ(sums[0], expected);
  EXPECT_EQ(sums[1], expected);
}

/// Counts the tasks inside fn; the destructor runs on the throw path too.
struct InFlight {
  explicit InFlight(std::atomic<int>& c) : count(c) { count.fetch_add(1); }
  ~InFlight() { count.fetch_sub(1); }
  InFlight(const InFlight&) = delete;
  InFlight& operator=(const InFlight&) = delete;
  std::atomic<int>& count;
};

TEST(HostPool, ThrowingTaskRethrowsItsTypeAfterHelpersStop) {
  constexpr std::size_t kN = 10000;
  std::atomic<int> in_flight{0};
  std::atomic<std::size_t> ran{0};
  try {
    parallel_for(kN, [&](std::size_t i, std::size_t) {
      const InFlight guard(in_flight);
      ran.fetch_add(1);
      if (i == 37) throw TaskFailure(37);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    });
    ADD_FAILURE() << "parallel_for swallowed the exception";
  } catch (const std::exception& e) {
    EXPECT_EQ(typeid(e), typeid(TaskFailure));
    EXPECT_EQ(dynamic_cast<const TaskFailure&>(e).index, 37);
    // Every helper has left: nothing still runs against captured state.
    EXPECT_EQ(in_flight.load(), 0);
    // The job stopped handing out indices after the failure.
    EXPECT_LT(ran.load(), kN);
  }
  // The pool stays usable.
  std::atomic<int> after{0};
  parallel_for(100, [&](std::size_t, std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 100);
}

TEST(HostPool, HelperExceptionReachesTheCaller) {
  if (host_slots() < 2) GTEST_SKIP() << "single-slot host: no helpers";
  std::atomic<int> in_flight{0};
  std::atomic<bool> helper_ran{false};
  // Only helpers throw.  The caller's slot holds its first index until a
  // helper has run, so a helper is certain to join however the threads are
  // scheduled.
  EXPECT_THROW(parallel_for(100,
                            [&](std::size_t i, std::size_t slot) {
                              const InFlight guard(in_flight);
                              if (slot != 0) {
                                helper_ran.store(true);
                                throw TaskFailure(static_cast<int>(i));
                              }
                              while (!helper_ran.load()) {
                                std::this_thread::yield();
                              }
                            }),
               TaskFailure);
  EXPECT_EQ(in_flight.load(), 0);
}

Image decode_test_image() {
  return synth::photographic(257, 193, 3, 31);
}

TEST(HostPool, ConcurrentDecodesOfOneStreamAreIdentical) {
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 4;
  p.cb_width = 32;
  p.cb_height = 32;
  p.rate = 0.3;
  p.layers = 3;
  const auto stream = jp2k::encode(decode_test_image(), p);
  const Image reference = jp2k::decode(stream);

  constexpr int kDecoders = 4;
  std::vector<Image> got(kDecoders);
  std::vector<std::thread> threads;
  for (int t = 0; t < kDecoders; ++t) {
    threads.emplace_back([&stream, &got, t] {
      got[static_cast<std::size_t>(t)] = jp2k::decode(stream);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kDecoders; ++t) {
    const Image& img = got[static_cast<std::size_t>(t)];
    ASSERT_EQ(img.components(), reference.components());
    for (std::size_t c = 0; c < img.components(); ++c) {
      for (std::size_t y = 0; y < img.height(); ++y) {
        ASSERT_TRUE(std::equal(img.plane(c).row(y),
                               img.plane(c).row(y) + img.width(),
                               reference.plane(c).row(y)))
            << "decoder " << t << " component " << c << " row " << y;
      }
    }
  }
}

#if defined(__linux__)
/// Thread ids of this process, from /proc/self/task.
std::set<std::string> live_threads() {
  std::set<std::string> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ids.insert(e->d_name);
  }
  closedir(dir);
  return ids;
}

/// A Tier-1-ready tile over one random coefficient plane.
jp2k::Tile coded_tile_skeleton(std::size_t w, std::size_t h, int levels) {
  jp2k::Tile tile;
  tile.width = w;
  tile.height = h;
  tile.levels = levels;
  jp2k::TileComponent tc;
  for (const auto& info : jp2k::subband_layout(w, h, levels)) {
    jp2k::Subband sb;
    sb.info = info;
    sb.quant_step = 1.0;
    jp2k::make_block_grid(sb, 32, 32);
    tc.subbands.push_back(std::move(sb));
  }
  tile.components.push_back(std::move(tc));
  return tile;
}

/// Thread ids that appear while `fn` runs three times after one warm-up
/// call.  A sampler lists /proc/self/task meanwhile; a thread spawned and
/// joined inside a call shows up as an id that was not there before.
/// (Sampling can miss a very short-lived thread, never report one that
/// does not exist.)
std::set<std::string> threads_started_after_warm_up(
    const std::function<void()>& fn) {
  fn();  // Warm-up: the pool's workers start here at the latest.
  const std::set<std::string> before = live_threads();
  EXPECT_FALSE(before.empty());
  std::atomic<bool> done{false};
  std::set<std::string> seen;
  std::string sampler_tid;
  std::thread sampler([&] {
    sampler_tid = std::to_string(syscall(SYS_gettid));
    while (!done.load()) {
      for (const auto& id : live_threads()) seen.insert(id);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (int i = 0; i < 3; ++i) fn();
  done.store(true);
  sampler.join();

  seen.erase(sampler_tid);
  std::set<std::string> started;
  for (const auto& id : seen) {
    if (before.count(id) == 0) started.insert(id);
  }
  return started;
}

/// "N thread(s): id id ..." with at most eight ids.
std::string describe(const std::set<std::string>& ids) {
  std::string out = std::to_string(ids.size()) + " thread(s):";
  std::size_t shown = 0;
  for (const auto& id : ids) {
    if (shown++ == 8) return out + " ...";
    out += " " + id;
  }
  return out;
}

// After warm-up the decoder, stage_t1 and t2_encode_precincts run on the
// pool's existing threads.
TEST(HostPool, DecodeAndEncoderStagesCreateNoThreadsAfterWarmUp) {
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.3;
  p.layers = 2;
  const auto stream = jp2k::encode(synth::photographic(384, 320, 3, 8), p);

  jp2k::Tile tile = coded_tile_skeleton(256, 256, 3);
  Plane coeffs(256, 256);
  Rng rng(5);
  for (std::size_t y = 0; y < 256; ++y) {
    for (std::size_t x = 0; x < 256; ++x) {
      coeffs.at(y, x) = static_cast<Sample>(rng.next_below(512)) - 256;
    }
  }
  const std::vector<Span2d<const Sample>> planes = {
      static_cast<const Plane&>(coeffs).view()};
  cell::MachineConfig cfg;
  cfg.num_spes = 8;
  cell::Machine machine(cfg);

  const auto started = threads_started_after_warm_up([&] {
    (void)jp2k::decode(stream);
    (void)cellenc::stage_t1(machine, tile, planes);
    (void)jp2k::t2_encode_precincts(tile, /*parallel=*/true);
  });
  EXPECT_TRUE(started.empty()) << "started mid-call: " << describe(started);
}

// The whole encode path — every SPE stage, Tier-1, the rate tail, Tier-2
// and the encode service — runs on the pool's existing threads.
TEST(HostPool, EncodePathCreatesNoThreadsAfterWarmUp) {
  const auto img =
      std::make_shared<const Image>(synth::photographic(192, 160, 3, 9));
  cell::MachineConfig cfg;
  cfg.num_spes = 8;
  cellenc::CellEncoder enc(cfg);

  jp2k::CodingParams lossy;
  lossy.wavelet = jp2k::WaveletKind::kIrreversible97;
  lossy.rate = 0.3;
  lossy.layers = 2;
  jp2k::CodingParams ht;
  ht.block_coder = jp2k::BlockCoder::kHt;
  // A pure layer ladder on a tiled grid: no rate target, so the final
  // Tier-2 pass codes its precinct streams afresh.
  jp2k::CodingParams ladder;
  ladder.wavelet = jp2k::WaveletKind::kIrreversible97;
  ladder.layers = 3;
  ladder.tiles_x = 2;
  ladder.tiles_y = 2;

  const std::vector<std::pair<const char*, jp2k::CodingParams>> cases = {
      {"lossy EBCOT", lossy}, {"lossless HT", ht}, {"tiled ladder", ladder}};
  for (const auto& c : cases) {
    const auto started = threads_started_after_warm_up(
        [&] { (void)enc.encode(*img, c.second); });
    EXPECT_TRUE(started.empty())
        << c.first << " started mid-call: " << describe(started);
  }

  service::ServiceOptions sopt;
  sopt.machine.num_spes = 16;
  sopt.machine.num_ppe_threads = 2;
  sopt.machine.chips = 2;
  const auto started = threads_started_after_warm_up([&] {
    service::EncodeService svc(sopt);
    for (std::size_t i = 0; i < 3; ++i) {
      service::EncodeJob job;
      job.image = img;
      job.params = cases[i].second;
      svc.submit(std::move(job));
    }
    (void)svc.run();
  });
  EXPECT_TRUE(started.empty())
      << "EncodeService::run started mid-call: " << describe(started);
}
#endif

}  // namespace
}  // namespace cj2k::decomp
