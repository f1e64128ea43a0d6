// Cell/B.E. machine model tests: Local Store limits, DMA rules, SIMD
// instrumentation, cost model relations, machine timing composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cell/audit.hpp"
#include "cell/cost_model.hpp"
#include "cell/dma.hpp"
#include "cell/local_store.hpp"
#include "cell/machine.hpp"
#include "cell/simd.hpp"
#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace cj2k::cell {
namespace {

TEST(LocalStore, AllocatesAlignedAndTracksUsage) {
  LocalStore ls;
  auto* a = ls.alloc<float>(100);
  EXPECT_TRUE(is_aligned(a, kCacheLineBytes));
  auto* b = ls.alloc<std::int32_t>(7, kQuadWordBytes);
  EXPECT_TRUE(is_aligned(b, kQuadWordBytes));
  EXPECT_GT(ls.used(), 0u);
  const auto peak = ls.peak_used();
  ls.reset();
  EXPECT_EQ(ls.used(), 0u);
  EXPECT_EQ(ls.peak_used(), peak);  // high-water survives reset
}

TEST(LocalStore, ThrowsWhenExhausted) {
  LocalStore ls;
  EXPECT_THROW(ls.alloc<std::uint8_t>(LocalStore::kCapacity), CellHardwareError);
  // 256 KB minus the code reserve fits a bounded working set only.
  auto* p = ls.alloc<std::uint8_t>(100 * 1024);
  EXPECT_NE(p, nullptr);
  EXPECT_THROW(ls.alloc<std::uint8_t>(200 * 1024), CellHardwareError);
}

TEST(LocalStore, ConstantFootprintScenario) {
  // The decomposition scheme's point: one row of a constant-width chunk
  // fits regardless of image size.  A full image row of a 3172-wide image
  // would be 12.7 KB; ten of them for a 9/7 ring is ~127 KB — fits; but a
  // full 3172x3116 column group would not.
  LocalStore ls;
  auto* ring = ls.alloc<float>(10 * 3172);
  EXPECT_NE(ring, nullptr);
  EXPECT_THROW(ls.alloc<float>(3172 * 3116 / 8), CellHardwareError);
}

TEST(Dma, EnforcesCellTransferRules) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::uint8_t> main_buf(4096);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(4096);

  // Efficient path: cache-line aligned, line-multiple size.
  dma.get(lsb, main_buf.data(), 256);
  EXPECT_EQ(c.dma_transfers, 1u);
  EXPECT_EQ(c.dma_unaligned, 0u);
  EXPECT_EQ(c.dma_bytes_in, 256u);

  // Quad-word path (valid but not line-efficient).
  dma.put(lsb + 16, main_buf.data() + 16, 32);
  EXPECT_EQ(c.dma_unaligned, 1u);

  // Small naturally-aligned transfers.
  dma.get(lsb + 4, main_buf.data() + 4, 4);
  dma.get(lsb + 8, main_buf.data() + 8, 8);

  // Violations.
  EXPECT_THROW(dma.get(lsb, main_buf.data(), 0), CellHardwareError);
  EXPECT_THROW(dma.get(lsb, main_buf.data(), 17), CellHardwareError);
  EXPECT_THROW(dma.get(lsb + 1, main_buf.data(), 16), CellHardwareError);
  EXPECT_THROW(dma.get(lsb, main_buf.data() + 3, 4), CellHardwareError);
  EXPECT_THROW(dma.get(lsb, main_buf.data(), 32 * 1024), CellHardwareError);
}

TEST(Dma, RejectsSizesTheMfcCannotEncode) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::uint8_t> main_buf(2 * DmaEngine::kMaxTransfer);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(2 * DmaEngine::kMaxTransfer);

  // Legal sizes are {1,2,4,8} and 16·n up to 16 KB; everything between is
  // rejected even with perfectly aligned addresses.
  for (std::size_t bytes : {3u, 5u, 6u, 7u, 12u, 17u, 24u, 100u}) {
    EXPECT_THROW(dma.get(lsb, main_buf.data(), bytes), CellHardwareError)
        << bytes;
    EXPECT_THROW(dma.put(lsb, main_buf.data(), bytes), CellHardwareError)
        << bytes;
  }
  EXPECT_EQ(c.dma_transfers, 0u);  // rejected transfers are not counted

  // The largest single transfer is exactly 16 KB; one byte-pair more fails.
  EXPECT_NO_THROW(dma.get(lsb, main_buf.data(), DmaEngine::kMaxTransfer));
  EXPECT_THROW(
      dma.get(lsb, main_buf.data(), DmaEngine::kMaxTransfer + kQuadWordBytes),
      CellHardwareError);
}

TEST(Dma, RejectsMismatchedAlignment) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::uint8_t> main_buf(4096);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(4096);

  // Quad-word transfers need both sides quad-aligned — either side alone
  // off by 8 fails, both off by the same 8 still fails (the MFC has no
  // offset-matching path below quad granularity).
  EXPECT_THROW(dma.get(lsb + 8, main_buf.data(), 32), CellHardwareError);
  EXPECT_THROW(dma.get(lsb, main_buf.data() + 8, 32), CellHardwareError);
  EXPECT_THROW(dma.get(lsb + 8, main_buf.data() + 8, 32), CellHardwareError);
  EXPECT_NO_THROW(dma.get(lsb + 16, main_buf.data() + 48, 32));

  // Small transfers are naturally aligned on both sides.
  EXPECT_THROW(dma.get(lsb + 4, main_buf.data() + 2, 4), CellHardwareError);
  EXPECT_THROW(dma.put(lsb + 2, main_buf.data() + 4, 4), CellHardwareError);
  EXPECT_NO_THROW(dma.put(lsb + 4, main_buf.data() + 4, 4));
}

TEST(Dma, EfficiencyNeedsLineAlignmentAndLineSize) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::uint8_t> main_buf(4096);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(4096);

  dma.get(lsb, main_buf.data(), kCacheLineBytes);  // fully efficient
  EXPECT_EQ(c.dma_unaligned, 0u);
  // Line-multiple size but one side only quad-aligned: inefficient.
  dma.get(lsb + kQuadWordBytes, main_buf.data(), kCacheLineBytes);
  EXPECT_EQ(c.dma_unaligned, 1u);
  // Line-aligned both sides but sub-line size: inefficient.
  dma.get(lsb, main_buf.data(), kCacheLineBytes / 2);
  EXPECT_EQ(c.dma_unaligned, 2u);
}

TEST(Dma, LargeTransferSplitBoundaries) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::uint8_t> main_buf(64 * 1024);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(64 * 1024);

  // Exactly 16 KB: one piece, no split.
  dma.get_large(lsb, main_buf.data(), DmaEngine::kMaxTransfer);
  EXPECT_EQ(c.dma_transfers, 1u);

  // One quad over: 16 KB + 16 B remainder.
  dma.get_large(lsb, main_buf.data(),
                DmaEngine::kMaxTransfer + kQuadWordBytes);
  EXPECT_EQ(c.dma_transfers, 3u);

  // Zero bytes: no transfer, no error (empty DMA list).
  dma.put_large(lsb, main_buf.data(), 0);
  EXPECT_EQ(c.dma_transfers, 3u);

  // The split pieces land back-to-back: data integrity across boundaries.
  for (std::size_t i = 0; i < 40 * 1024; ++i) {
    main_buf[i] = static_cast<std::uint8_t>(i * 7);
  }
  dma.get_large(lsb, main_buf.data(), 40 * 1024);
  EXPECT_EQ(lsb[DmaEngine::kMaxTransfer], main_buf[DmaEngine::kMaxTransfer]);
  EXPECT_EQ(lsb[40 * 1024 - 1], main_buf[40 * 1024 - 1]);
  lsb[2 * DmaEngine::kMaxTransfer] ^= 0xFF;
  dma.put_large(lsb, main_buf.data(), 40 * 1024);
  EXPECT_EQ(main_buf[2 * DmaEngine::kMaxTransfer],
            lsb[2 * DmaEngine::kMaxTransfer]);

  // A non-quad remainder still obeys the single-transfer rules.
  EXPECT_THROW(dma.get_large(lsb, main_buf.data(), 16 * 1024 + 5),
               CellHardwareError);
}

TEST(LocalStore, ExhaustionLeavesUsageConsistent) {
  LocalStore ls;
  const std::size_t before = ls.used();
  EXPECT_THROW(ls.alloc<std::uint8_t>(LocalStore::kCapacity + 1),
               CellHardwareError);
  EXPECT_EQ(ls.used(), before);  // failed allocation takes nothing

  // Fill in pieces until the arena genuinely runs dry, then verify the
  // reported headroom is honest: available() succeeds, available()+1 fails.
  while (ls.available() >= 16 * 1024) ls.alloc<std::uint8_t>(16 * 1024);
  const std::size_t room = ls.available();
  if (room > 0) {
    auto* p = ls.alloc<std::uint8_t>(room, 1);
    EXPECT_NE(p, nullptr);
  }
  EXPECT_THROW(ls.alloc<std::uint8_t>(1, 1), CellHardwareError);
}

TEST(LocalStore, PeakAccountingAcrossResetCycles) {
  LocalStore ls;
  ls.alloc<std::uint8_t>(60 * 1024);
  EXPECT_EQ(ls.peak_used(), ls.used());
  const std::size_t first_peak = ls.peak_used();

  // A smaller second cycle must not move the high-water mark…
  ls.reset();
  EXPECT_EQ(ls.used(), 0u);
  ls.alloc<std::uint8_t>(10 * 1024);
  EXPECT_EQ(ls.peak_used(), first_peak);

  // …a larger third cycle must.
  ls.reset();
  ls.alloc<std::uint8_t>(100 * 1024);
  EXPECT_GT(ls.peak_used(), first_peak);
  EXPECT_EQ(ls.peak_used(), ls.used());

  // Alignment padding counts against the arena: an allocation aligned to a
  // full line from an 8-byte-odd cursor consumes more than its size.
  ls.reset();
  ls.alloc<std::uint8_t>(8, 8);
  const std::size_t used_small = ls.used();
  ls.alloc<std::uint8_t>(kCacheLineBytes, kCacheLineBytes);
  EXPECT_GE(ls.used(), used_small + kCacheLineBytes);
}

TEST(Dma, LargeTransfersChunkAt16K) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::uint8_t> main_buf(100 * 1024);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(100 * 1024);
  dma.get_large(lsb, main_buf.data(), 40 * 1024);
  EXPECT_EQ(c.dma_transfers, 3u);  // 16 + 16 + 8 KB
  EXPECT_EQ(c.dma_bytes_in, 40u * 1024u);
}

TEST(Dma, MovesRealData) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::int32_t> main_buf(64);
  LocalStore ls;
  auto* lsb = ls.alloc<std::int32_t>(64);
  for (int i = 0; i < 64; ++i) main_buf[static_cast<std::size_t>(i)] = i * 3;
  dma.get(lsb, main_buf.data(), 256);
  EXPECT_EQ(lsb[10], 30);
  lsb[10] = -1;
  dma.put(lsb, main_buf.data(), 256);
  EXPECT_EQ(main_buf[10], -1);
}

TEST(DmaTags, AsyncTransfersMoveDataAndCount) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::int32_t> main_buf(64);
  LocalStore ls;
  auto* lsb = ls.alloc<std::int32_t>(64);
  for (int i = 0; i < 64; ++i) main_buf[static_cast<std::size_t>(i)] = i;
  dma.get_async(lsb, main_buf.data(), 256, 3);
  EXPECT_EQ(dma.pending_mask(), 1u << 3);
  EXPECT_EQ(dma.issued_mask(), 1u << 3);
  dma.wait_tag(3);
  EXPECT_EQ(dma.pending_mask(), 0u);
  EXPECT_EQ(lsb[17], 17);
  EXPECT_EQ(c.dma_tagged_transfers, 1u);
  EXPECT_EQ(c.dma_bytes_tagged, 256u);
  EXPECT_EQ(c.dma_transfers, 1u);  // tagged traffic is still DMA traffic
  dma.put_async(lsb, main_buf.data() + 32, 128, 7);
  dma.wait_tag_mask(1u << 7);
  EXPECT_EQ(main_buf[40], 8);
  EXPECT_EQ(c.dma_bytes_tagged, 384u);
}

TEST(DmaTags, HardMisuseThrows) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::int32_t> main_buf(64);
  LocalStore ls;
  auto* lsb = ls.alloc<std::int32_t>(64);
  // Tag out of the MFC's 32-group range.
  EXPECT_THROW(dma.get_async(lsb, main_buf.data(), 256, DmaEngine::kNumTags),
               CellHardwareError);
  EXPECT_THROW(dma.put_async(lsb, main_buf.data(), 256, 99),
               CellHardwareError);
  // Waiting on an empty mask, or on tags never issued (wait on nothing).
  EXPECT_THROW(dma.wait_tag_mask(0), CellHardwareError);
  EXPECT_THROW(dma.wait_tag(5), CellHardwareError);
  dma.get_async(lsb, main_buf.data(), 256, 2);
  EXPECT_THROW(dma.wait_tag(4), CellHardwareError);
  EXPECT_NO_THROW(dma.wait_tag(2));
  // Re-waiting an already-drained but once-issued tag is benign (the MFC
  // just reports the group complete).
  EXPECT_NO_THROW(dma.wait_tag(2));
  // wait_all with nothing in flight is the legal no-op epilogue.
  EXPECT_NO_THROW(dma.wait_all());
}

TEST(DmaTags, HazardsAreReportedToTheAudit) {
  OpCounters c;
  DmaEngine dma(c);
  AuditConfig cfg;
  cfg.enabled = true;
  InvariantAudit audit(cfg);
  dma.attach_audit(&audit);
  AlignedBuffer<std::int32_t> main_buf(256);
  LocalStore ls;
  auto* lsb = ls.alloc<std::int32_t>(256);

  // Touching a buffer whose get has not been waited.
  dma.get_async(lsb, main_buf.data(), 256, 0);
  dma.touch(lsb, 256);
  EXPECT_EQ(audit.report().tag_touch_before_wait, 1u);
  dma.wait_tag(0);
  dma.touch(lsb, 256);  // clean after the wait
  EXPECT_EQ(audit.report().tag_touch_before_wait, 1u);

  // Re-targeting a buffer with a transfer in flight, without a fence.
  dma.put_async(lsb, main_buf.data(), 256, 1);
  dma.get_async(lsb, main_buf.data() + 64, 256, 2);
  EXPECT_EQ(audit.report().tag_reuse_in_flight, 1u);
  dma.wait_tag_mask((1u << 1) | (1u << 2));

  // The fenced flavour of the same re-target on the same tag is legal.
  dma.put_async(lsb + 64, main_buf.data(), 256, 4);
  dma.getf_async(lsb + 64, main_buf.data() + 128, 256, 4);
  EXPECT_EQ(audit.report().tag_reuse_in_flight, 1u);
  dma.wait_tag(4);

  // Returning from a kernel with tags still in flight.
  dma.get_async(lsb, main_buf.data(), 256, 6);
  dma.finish_kernel();
  EXPECT_EQ(audit.report().tag_pending_at_exit, 1u);
  EXPECT_EQ(dma.pending_mask(), 0u);  // finish_kernel resets tag state
  EXPECT_EQ(audit.report().tag_hazards(), 3u);
  EXPECT_FALSE(audit.report().clean());
}

TEST(DmaTags, StrictAuditThrowsOnHazard) {
  OpCounters c;
  DmaEngine dma(c);
  AuditConfig cfg;
  cfg.enabled = true;
  cfg.strict = true;
  InvariantAudit audit(cfg);
  dma.attach_audit(&audit);
  AlignedBuffer<std::int32_t> main_buf(64);
  LocalStore ls;
  auto* lsb = ls.alloc<std::int32_t>(64);
  dma.get_async(lsb, main_buf.data(), 256, 0);
  EXPECT_THROW(dma.touch(lsb, 256), AuditError);
}

TEST(DmaTags, FinishKernelWithNothingPendingIsClean) {
  OpCounters c;
  DmaEngine dma(c);
  AuditConfig cfg;
  cfg.enabled = true;
  InvariantAudit audit(cfg);
  dma.attach_audit(&audit);
  AlignedBuffer<std::int32_t> main_buf(64);
  LocalStore ls;
  auto* lsb = ls.alloc<std::int32_t>(64);
  dma.get_async(lsb, main_buf.data(), 256, 0);
  dma.wait_all();
  dma.finish_kernel();
  EXPECT_EQ(audit.report().tag_hazards(), 0u);
  EXPECT_TRUE(audit.report().clean());
}

/// Reference hazard rules: one record per issued transfer, every query a
/// linear scan over all of them in issue order.  The engine's bookkeeping
/// keeps fewer records and must report exactly what this reports.
struct HazardModel {
  struct Rec {
    std::size_t lo, hi;
    unsigned tag;
    bool is_get;
  };
  std::vector<Rec> pending;
  std::uint32_t pending_mask = 0, issued_mask = 0;
  std::uint64_t touch = 0, reuse = 0, at_exit = 0;
  std::string first_detail;

  void hazard(std::uint64_t& count, const std::string& detail) {
    if (touch + reuse + at_exit == 0) first_detail = detail;
    ++count;
  }
  void issue(std::size_t lo, std::size_t hi, unsigned tag, bool is_get,
             bool fenced) {
    for (const Rec& p : pending) {
      if (lo < p.hi && p.lo < hi && !(fenced && p.tag == tag)) {
        hazard(reuse, "tag " + std::to_string(tag) +
                          " re-targets a Local Store range in flight on tag " +
                          std::to_string(p.tag) + " without a same-tag fence");
        break;
      }
    }
    pending.push_back({lo, hi, tag, is_get});
    pending_mask |= 1u << tag;
    issued_mask |= 1u << tag;
  }
  void touch_range(std::size_t lo, std::size_t hi) {
    for (const Rec& p : pending) {
      if (lo < p.hi && p.lo < hi) {
        hazard(touch, std::string("buffer touched while its ") +
                          (p.is_get ? "get" : "put") + " is in flight on tag " +
                          std::to_string(p.tag));
        return;
      }
    }
  }
  void retire(std::uint32_t mask) {
    std::vector<Rec> keep;
    for (const Rec& p : pending) {
      if ((mask & (1u << p.tag)) == 0) keep.push_back(p);
    }
    pending.swap(keep);
    pending_mask &= ~mask;
  }
  void finish() {
    if (pending_mask != 0) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%x", pending_mask);
      hazard(at_exit, "kernel exit with tags in flight (pending mask 0x" +
                          std::string(buf) + ")");
    }
    pending.clear();
    pending_mask = issued_mask = 0;
  }
};

/// One random tagged-DMA command over a small set of overlapping Local
/// Store ranges and tags 0..5.
struct DmaCommand {
  int kind;  ///< 0-3 get/put/getf/putf, 4 touch, 5 wait_tag,
             ///< 6 wait_tag_mask, 7 wait_all, 8 finish_kernel.
  std::size_t off, bytes;
  unsigned tag;
  std::uint32_t mask;
};

std::vector<DmaCommand> random_commands(std::uint64_t seed, int n) {
  // Byte ranges into a 512-byte Local Store buffer, each overlapping
  // another; line-aligned so strict mode only ever throws on tag hazards.
  static const std::size_t kRanges[4][2] = {
      {0, 256}, {128, 256}, {256, 256}, {0, 512}};
  Rng rng(seed);
  std::vector<DmaCommand> cmds;
  for (int i = 0; i < n; ++i) {
    DmaCommand c{};
    // Issues twice as likely as each other command, so lists grow.
    const auto pick = rng.next_below(13);
    c.kind = pick < 8 ? static_cast<int>(pick / 2) : static_cast<int>(pick - 4);
    const auto* r = kRanges[rng.next_below(4)];
    c.off = r[0];
    c.bytes = r[1];
    c.tag = static_cast<unsigned>(rng.next_below(6));
    c.mask = static_cast<std::uint32_t>(1 + rng.next_below(63));
    cmds.push_back(c);
  }
  return cmds;
}

/// Runs `cmd` through both the engine and the model.  A wait the model says
/// hits only never-issued tags must throw CellHardwareError on the engine
/// and leaves both untouched.
void apply(const DmaCommand& cmd, DmaEngine& dma, HazardModel& model,
           std::uint8_t* ls, std::uint8_t* mem) {
  const std::size_t lo = cmd.off, hi = cmd.off + cmd.bytes;
  std::uint32_t wait_mask = 0;
  switch (cmd.kind) {
    case 0:
    case 2:
      model.issue(lo, hi, cmd.tag, /*is_get=*/true, cmd.kind == 2);
      break;
    case 1:
    case 3:
      model.issue(lo, hi, cmd.tag, /*is_get=*/false, cmd.kind == 3);
      break;
    case 4:
      model.touch_range(lo, hi);
      break;
    case 5:
      wait_mask = 1u << cmd.tag;
      break;
    case 6:
      wait_mask = cmd.mask;
      break;
    case 7:
      model.retire(~0u);
      break;
    default:
      model.finish();
      break;
  }
  if (wait_mask != 0 && (wait_mask & model.issued_mask) == 0) {
    EXPECT_THROW(cmd.kind == 5 ? dma.wait_tag(cmd.tag)
                               : dma.wait_tag_mask(wait_mask),
                 CellHardwareError);
    return;
  }
  if (wait_mask != 0) model.retire(wait_mask);
  switch (cmd.kind) {
    case 0: dma.get_async(ls + lo, mem + lo, cmd.bytes, cmd.tag); break;
    case 1: dma.put_async(ls + lo, mem + lo, cmd.bytes, cmd.tag); break;
    case 2: dma.getf_async(ls + lo, mem + lo, cmd.bytes, cmd.tag); break;
    case 3: dma.putf_async(ls + lo, mem + lo, cmd.bytes, cmd.tag); break;
    case 4: dma.touch(ls + lo, cmd.bytes); break;
    case 5: dma.wait_tag(cmd.tag); break;
    case 6: dma.wait_tag_mask(cmd.mask); break;
    case 7: dma.wait_all(); break;
    default: dma.finish_kernel(); break;
  }
}

TEST(DmaTags, HazardReportsMatchTheLinearScanReference) {
  AlignedBuffer<std::uint8_t> mem(512);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(512);
  std::size_t folded = 0;  // Commands after which the engine held fewer.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const auto cmds = random_commands(seed, 80);
    AuditConfig cfg;
    cfg.enabled = true;
    OpCounters c;
    DmaEngine dma(c);
    InvariantAudit audit(cfg);
    dma.attach_audit(&audit);
    HazardModel model;
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      apply(cmds[i], dma, model, lsb, mem.data());
      const AuditReport r = audit.report();
      ASSERT_EQ(r.tag_touch_before_wait, model.touch)
          << "seed " << seed << " command " << i;
      ASSERT_EQ(r.tag_reuse_in_flight, model.reuse)
          << "seed " << seed << " command " << i;
      ASSERT_EQ(r.tag_pending_at_exit, model.at_exit)
          << "seed " << seed << " command " << i;
      ASSERT_EQ(dma.pending_mask(), model.pending_mask);
      ASSERT_LE(dma.pending_entries(), model.pending.size());
      if (dma.pending_entries() < model.pending.size()) ++folded;
    }

    // Strict mode: the AuditError fires on the model's first hazard and
    // carries its detail text.
    cfg.strict = true;
    OpCounters sc;
    DmaEngine strict_dma(sc);
    InvariantAudit strict_audit(cfg);
    strict_dma.attach_audit(&strict_audit);
    HazardModel strict_model;
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      const std::uint64_t before = strict_model.touch + strict_model.reuse +
                                   strict_model.at_exit;
      try {
        apply(cmds[i], strict_dma, strict_model, lsb, mem.data());
      } catch (const AuditError& e) {
        ASSERT_EQ(before, 0u) << "seed " << seed << " command " << i;
        ASSERT_GT(strict_model.touch + strict_model.reuse +
                      strict_model.at_exit,
                  0u)
            << "seed " << seed << " command " << i;
        const std::string what = e.what();
        const std::string want = ": " + strict_model.first_detail;
        ASSERT_GE(what.size(), want.size());
        EXPECT_EQ(what.substr(what.size() - want.size()), want)
            << "seed " << seed;
        break;
      }
      ASSERT_EQ(strict_model.touch + strict_model.reuse +
                    strict_model.at_exit,
                0u)
          << "hazard not thrown: seed " << seed << " command " << i;
    }
  }
  EXPECT_GT(folded, 0u);
}

TEST(DmaTags, FencedCopyChainKeepsOneRecordPerBuffer) {
  // The read stage's shape: a fenced get->put chain over two buffers/tags
  // with no mid-stream wait, one row per step.
  constexpr std::size_t kRows = 10000, kRowElems = 32;
  AlignedBuffer<std::int32_t> src(kRows * kRowElems), dst(kRows * kRowElems);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::int32_t>(i);
  }
  LocalStore ls;
  std::int32_t* buf[2] = {ls.alloc<std::int32_t>(kRowElems),
                          ls.alloc<std::int32_t>(kRowElems)};
  auto copy_chain = [&](DmaEngine& dma) {
    std::size_t most = 0;
    for (std::size_t y = 0; y < kRows; ++y) {
      const unsigned t = static_cast<unsigned>(y & 1);
      dma.getf_async(buf[t], src.data() + y * kRowElems, kRowElems * 4, t);
      dma.putf_async(buf[t], dst.data() + y * kRowElems, kRowElems * 4, t);
      most = std::max(most, dma.pending_entries());
    }
    return most;
  };

  OpCounters c;
  DmaEngine audited(c);
  AuditConfig cfg;
  cfg.enabled = true;
  cfg.strict = true;
  InvariantAudit audit(cfg);
  audited.attach_audit(&audit);
  EXPECT_LE(copy_chain(audited), 2u);
  audited.wait_all();
  audited.finish_kernel();
  EXPECT_EQ(audit.report().tag_hazards(), 0u);
  EXPECT_EQ(dst[kRows * kRowElems - 1], src[kRows * kRowElems - 1]);

  // No audit: no records at all, while the tag masks and the hard MFC
  // checks behave as before.
  DmaEngine bare(c);
  EXPECT_EQ(copy_chain(bare), 0u);
  EXPECT_EQ(bare.pending_mask(), 3u);
  EXPECT_EQ(bare.issued_mask(), 3u);
  EXPECT_THROW(bare.wait_tag(2), CellHardwareError);
  bare.wait_tag(0);
  EXPECT_EQ(bare.pending_mask(), 2u);
  bare.wait_all();
  EXPECT_EQ(bare.pending_mask(), 0u);
  EXPECT_NO_THROW(bare.wait_tag(1));
  bare.finish_kernel();
  EXPECT_EQ(bare.issued_mask(), 0u);
  EXPECT_THROW(bare.wait_tag(0), CellHardwareError);
}

TEST(Simd, CountsAndComputes) {
  OpCounters c;
  Simd s(c);
  alignas(16) float a[4] = {1, 2, 3, 4};
  alignas(16) float b[4] = {10, 20, 30, 40};
  auto va = s.load(a);
  auto vb = s.load(b);
  auto sum = s.add(va, vb);
  auto prod = s.madd(va, vb, sum);
  alignas(16) float out[4];
  s.store(out, prod);
  EXPECT_EQ(out[0], 1 * 10 + 11);
  EXPECT_EQ(out[3], 4 * 40 + 44);
  EXPECT_EQ(c.v_load, 2u);
  EXPECT_EQ(c.v_store, 1u);
  EXPECT_EQ(c.v_add, 1u);
  EXPECT_EQ(c.v_mul_f, 1u);
}

TEST(Simd, RejectsMisalignedAccess) {
  OpCounters c;
  Simd s(c);
  alignas(16) float buf[8] = {};
  EXPECT_THROW(s.load(buf + 1), CellHardwareError);
  EXPECT_NO_THROW(s.load_shifted(buf + 1));  // the shuffle path allows it
  EXPECT_EQ(c.v_shuffle, 1u);
  EXPECT_EQ(c.v_load, 2u);  // shifted load = two quad loads
}

TEST(Simd, EmulatedIntegerMultiply) {
  OpCounters c;
  Simd s(c);
  auto a = s.splat(std::int32_t{7});
  auto b = s.splat(std::int32_t{-3});
  auto r = s.mul_emulated(a, b);
  EXPECT_EQ(r.lane[0], -21);
  EXPECT_EQ(c.v_mul_i_emul, 1u);
  auto q = s.mul_fix_q13(s.splat(std::int32_t{1 << 13}),
                         s.splat(std::int32_t{100}));
  EXPECT_EQ(q.lane[2], 100);
  EXPECT_EQ(c.v_mul_i_emul, 2u);
}

TEST(CostModel, Table1Relations) {
  // The §4 argument: a fixed-point lifting step (emulated multiply) costs
  // materially more SPE issue slots than the float step (fm).
  CostModel m;
  OpCounters fixed_step, float_step;
  fixed_step.v_mul_i_emul = 1000;
  fixed_step.v_add = 1000;
  float_step.v_mul_f = 1000;
  float_step.v_add = 1000;
  EXPECT_GT(m.spe_seconds(fixed_step), m.spe_seconds(float_step) * 2.0);
}

TEST(CostModel, PpeBeatsSpeOnT1AndLosesOnStreams) {
  CostModel m;
  OpCounters t1;
  t1.t1_symbols = 1000000;
  EXPECT_LT(m.ppe_seconds(t1), m.spe_seconds(t1));  // branchy integer code

  OpCounters stream;  // vectorized streaming kernel
  stream.v_load = 1000;
  stream.v_store = 1000;
  stream.v_add = 2000;
  stream.v_mul_f = 2000;
  EXPECT_LT(m.spe_seconds(stream), m.ppe_seconds(stream) / 3.0);
}

TEST(CostModel, UnalignedDmaIsPenalized) {
  CostModel m;
  OpCounters aligned, unaligned;
  aligned.dma_bytes_in = 1 << 20;
  aligned.dma_transfers = 100;
  unaligned.dma_bytes_in = 1 << 20;
  unaligned.dma_transfers = 100;
  unaligned.dma_unaligned = 100;
  EXPECT_GT(m.effective_dma_bytes(unaligned),
            m.effective_dma_bytes(aligned) * 3 / 2);
}

TEST(Machine, ComposesStageTiming) {
  MachineConfig cfg;
  cfg.num_spes = 4;
  Machine m(cfg);
  std::vector<int> touched(4, 0);
  const auto t = m.run_data_parallel(
      "test",
      [&](int i, SpeContext& ctx) {
        touched[static_cast<std::size_t>(i)] = 1;
        ctx.counters.v_add = 1000 * static_cast<std::uint64_t>(i + 1);
        ctx.counters.dma_bytes_in = 1 << 20;
        ctx.counters.dma_transfers = 10;
      },
      [&](OpCounters& c) { c.s_int = 500; });
  for (int v : touched) EXPECT_EQ(v, 1);
  EXPECT_EQ(t.name, "test");
  EXPECT_GT(t.spe_compute, 0.0);
  EXPECT_GT(t.dma_aggregate, 0.0);
  EXPECT_GT(t.ppe, 0.0);
  EXPECT_GE(t.seconds, t.spe_compute);
  EXPECT_GE(t.seconds, t.dma_aggregate);
  EXPECT_EQ(t.dma_bytes, 4u << 20);
}

TEST(Machine, BandwidthScalesWithChips) {
  MachineConfig one, two;
  two.chips = 2;
  EXPECT_EQ(Machine(two).total_mem_bw(), 2.0 * Machine(one).total_mem_bw());
}

TEST(Machine, NoOverlapSerializesComputeAndDma) {
  MachineConfig cfg;
  cfg.num_spes = 1;
  Machine m(cfg);
  std::vector<OpCounters> spe(1);
  spe[0].v_add = 1u << 24;
  spe[0].dma_bytes_in = 1u << 28;
  spe[0].dma_transfers = 1;
  // Overlap is earned: only tagged (asynchronous) traffic hides behind
  // compute.
  spe[0].dma_tagged_transfers = 1;
  spe[0].dma_bytes_tagged = 1u << 28;
  const auto overlapped = m.compose("a", spe, {}, true);
  const auto serial = m.compose("b", spe, {}, false);
  EXPECT_GT(serial.seconds, overlapped.seconds);
  EXPECT_DOUBLE_EQ(overlapped.dma_overlap_saved,
                   serial.seconds - overlapped.seconds);
}

TEST(Machine, UntaggedTrafficEarnsNoOverlap) {
  MachineConfig cfg;
  cfg.num_spes = 1;
  Machine m(cfg);
  std::vector<OpCounters> spe(1);
  spe[0].v_add = 1u << 24;
  spe[0].dma_bytes_in = 1u << 28;
  spe[0].dma_transfers = 1;  // synchronous: stalls the SPE either way
  const auto overlapped = m.compose("a", spe, {}, true);
  const auto serial = m.compose("b", spe, {}, false);
  EXPECT_DOUBLE_EQ(serial.seconds, overlapped.seconds);
  EXPECT_DOUBLE_EQ(overlapped.dma_overlap_saved, 0.0);
}

TEST(Machine, PartiallyTaggedTrafficEarnsPartialOverlap) {
  MachineConfig cfg;
  cfg.num_spes = 1;
  Machine m(cfg);
  std::vector<OpCounters> all_tagged(1), half_tagged(1);
  // Compute strictly dominates the transfer time, so the fully tagged
  // stage hides all of it, the half-tagged stage pays the sync half, and
  // the serial composition pays everything.
  all_tagged[0].v_add = half_tagged[0].v_add = 1u << 27;
  all_tagged[0].dma_bytes_in = half_tagged[0].dma_bytes_in = 1u << 28;
  all_tagged[0].dma_transfers = half_tagged[0].dma_transfers = 2;
  all_tagged[0].dma_tagged_transfers = 2;
  all_tagged[0].dma_bytes_tagged = 1u << 28;
  half_tagged[0].dma_tagged_transfers = 1;
  half_tagged[0].dma_bytes_tagged = 1u << 27;
  const auto full = m.compose("a", all_tagged, {}, true);
  const auto half = m.compose("b", half_tagged, {}, true);
  const auto none = m.compose("c", all_tagged, {}, false);
  EXPECT_LT(full.seconds, half.seconds);
  EXPECT_LT(half.seconds, none.seconds);
}

TEST(Machine, WorkerExceptionsPropagate) {
  MachineConfig cfg;
  cfg.num_spes = 2;
  Machine m(cfg);
  EXPECT_THROW(
      m.run_data_parallel(
          "boom",
          [](int i, SpeContext&) {
            if (i == 1) throw CellHardwareError("kernel fault");
          },
          nullptr),
      CellHardwareError);
}

}  // namespace
}  // namespace cj2k::cell
