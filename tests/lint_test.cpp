// cellcheck tier 3+4 tests: each lint rule on inline snippets, the
// comment/string stripper, false-positive guards for the repo's real
// idioms, a seeded-bad fixture corpus for every flow rule, and the gates
// the acceptance criteria pin: src/, bench/ and tools/ all check clean
// under both tiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cellcheck/flow.hpp"
#include "cellcheck/lint.hpp"

namespace cj2k::cellcheck {
namespace {

std::vector<std::string> rules_of(const std::vector<Violation>& vs) {
  std::vector<std::string> out;
  for (const auto& v : vs) out.push_back(v.rule);
  return out;
}

bool has_rule(const std::vector<Violation>& vs, const std::string& rule) {
  const auto rs = rules_of(vs);
  return std::find(rs.begin(), rs.end(), rule) != rs.end();
}

LintOptions spe_all() {
  LintOptions o;
  o.treat_all_as_spe = true;
  return o;
}

FlowOptions flow_all() {
  FlowOptions o;
  o.treat_all_as_spe = true;
  return o;
}

TEST(Strip, RemovesCommentsAndStringContents) {
  const std::string in =
      "int a; // new int\n"
      "/* malloc(4) */ int b;\n"
      "const char* s = \"std::mutex inside\";\n"
      "char c = '\\\"';\n";
  const std::string out = strip_comments_and_strings(in);
  EXPECT_EQ(out.find("new"), std::string::npos);
  EXPECT_EQ(out.find("malloc"), std::string::npos);
  EXPECT_EQ(out.find("mutex"), std::string::npos);
  // Code survives, newlines survive (line numbers stay stable).
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(in.begin(), in.end(), '\n'));
}

TEST(Strip, KeepsStringDelimitersBalanced) {
  const std::string out =
      strip_comments_and_strings("f(\"a // not a comment\"); int g;");
  EXPECT_NE(out.find("int g;"), std::string::npos);
  EXPECT_EQ(out.find("not a comment"), std::string::npos);
}

TEST(LintRules, FlagsHeapAllocationInSpeCode) {
  const auto vs = lint_source("t.cpp", "auto* p = new float[64];\n",
                              spe_all());
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "spe-heap-alloc");
  EXPECT_EQ(vs[0].line, 1u);
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "void* q = malloc(256);\n", spe_all()),
      "spe-heap-alloc"));
}

TEST(LintRules, FlagsVectorGrowthInSpeCode) {
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "std::vector<float> tmp;\n", spe_all()),
      "spe-vector-growth"));
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "out.push_back(x);\n", spe_all()),
      "spe-vector-growth"));
  EXPECT_TRUE(has_rule(lint_source("t.cpp", "buf.resize(n);\n", spe_all()),
                       "spe-vector-growth"));
}

TEST(LintRules, FlagsMutexAndThreadInSpeCode) {
  EXPECT_TRUE(has_rule(lint_source("t.cpp", "std::mutex mu;\n", spe_all()),
                       "spe-mutex"));
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "std::lock_guard<std::mutex> l(mu);\n", spe_all()),
      "spe-mutex"));
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "std::thread worker([] {});\n", spe_all()),
      "spe-thread"));
}

TEST(LintRules, FlagsUngatedTraceEmissionInSpeCode) {
  // Seeded-bad: recording on every iteration of the kernel's hot loop.
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "rec->emit_span(track, n, c, t0, dur);\n",
                  spe_all()),
      "spe-trace-in-hot-loop"));
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "trace.emit_instant(tk, n, c, ts);\n", spe_all()),
      "spe-trace-in-hot-loop"));
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "rec->emit_flow_begin(tk, n, c, ts, id);\n",
                  spe_all()),
      "spe-trace-in-hot-loop"));
}

TEST(LintRules, GatedTraceEmissionIsAllowed) {
  // The accepted idiom: a same-line guard keeps the untraced path free.
  EXPECT_TRUE(lint_source("t.cpp",
                          "if (trc) trc->emit_span(tk, n, c, t0, d);\n",
                          spe_all())
                  .empty());
  EXPECT_TRUE(
      lint_source("t.cpp",
                  "if (rec != nullptr) rec->emit_instant(tk, n, c, ts);\n",
                  spe_all())
          .empty());
}

TEST(LintRules, TraceEmissionOutsideSpeRegionsIsAllowed) {
  // Driver-side emission after the stage joins is exactly where the
  // recorder is meant to be used; only SPE-resident code is flagged.
  const std::string src =
      "void drain(TraceRecorder& rec) {\n"
      "  rec.emit_span(0, n, c, t0, dur);\n"
      "}\n";
  EXPECT_TRUE(lint_source("t.cpp", src, {}).empty());
}

TEST(LintRules, SeededKernelWithUngatedEmitTripsInsideRegionOnly) {
  // A realistic kernel shape: the marker parameter opens the region, the
  // ungated emit inside it trips, and the identical call after the brace
  // closes does not.
  const std::string src =
      "void kernel(cell::SpeContext& ctx, Rec* rec) {\n"
      "  rec->emit_instant(1, n, c, ts);\n"
      "}\n"
      "void after(Rec* rec) { rec->emit_instant(1, n, c, ts); }\n";
  const auto vs = lint_source("t.cpp", src, {});
  ASSERT_EQ(vs.size(), 1u) << format_violations(vs);
  EXPECT_EQ(vs[0].rule, "spe-trace-in-hot-loop");
  EXPECT_EQ(vs[0].line, 2u);
}

TEST(LintRules, FlagsBareDmaSizeLiterals) {
  const auto vs =
      lint_source("t.cpp", "dma.get(dst, src, 256);\n", LintOptions{});
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "dma-literal-size");

  // Derived sizes and small naturally-aligned literals are fine.
  EXPECT_TRUE(
      lint_source("t.cpp", "dma.get(dst, src, 2 * kCacheLineBytes);\n", {})
          .empty());
  EXPECT_TRUE(
      lint_source("t.cpp", "dma.put(src, dst, n * sizeof(float));\n", {})
          .empty());
  EXPECT_TRUE(lint_source("t.cpp", "dma.get(dst, src, 4);\n", {}).empty());
  EXPECT_TRUE(lint_source("t.cpp", "dma.get_large(d, s, bytes);\n", {})
                  .empty());
}

TEST(LintRules, DmaCallSplitAcrossLinesStillChecked) {
  const auto vs = lint_source(
      "t.cpp", "dma.put_large(ls_src,\n    main_dst,\n    4096);\n", {});
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "dma-literal-size");
  EXPECT_EQ(vs[0].line, 1u);
}

TEST(LintRegions, KernelSignatureOpensARegion) {
  const std::string src =
      "void kernel(int w, cell::Simd& simd, cell::DmaEngine& dma) {\n"
      "  std::vector<float> bad;\n"
      "}\n"
      "void host_code() {\n"
      "  std::vector<float> fine;\n"
      "}\n";
  const auto vs = lint_source("t.cpp", src, {});
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "spe-vector-growth");
  EXPECT_EQ(vs[0].line, 2u);
}

TEST(LintRegions, LambdaTakingSpeContextIsARegion) {
  const std::string src =
      "m.run_data_parallel(\"x\", [&](int i, cell::SpeContext& ctx) {\n"
      "  auto* p = new int[4];\n"
      "});\n";
  const auto vs = lint_source("t.cpp", src, {});
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "spe-heap-alloc");
}

TEST(LintRegions, TemplatedPolicyKernelIsARegion) {
  // A kernel written once over a vector policy takes `V&`, not `Simd&`; it
  // is still SPE code.  Forwarding (`Fn&&`) and const (`const T&`) template
  // parameters do not make a region, nor does a class template's member:
  // the parameters' scope ends at the declaration's first `{`.
  const std::string src =
      "template <class V, typename T>\n"
      "void kernel(V& s, const T* in, std::size_t n) {\n"
      "  auto* tmp = new float[n];\n"
      "  std::vector<float> grow;\n"
      "  grow.push_back(in[0]);\n"
      "}\n"
      "template <typename Fn, typename T>\n"
      "void host_helper(Fn&& fn, const T& t) {\n"
      "  std::vector<int> fine;\n"
      "}\n"
      "template <class V>\n"
      "struct Holder {\n"
      "  void set(V& v) { std::vector<V> copies; }\n"
      "};\n";
  const auto vs = lint_source("t.hpp", src, {});
  ASSERT_EQ(vs.size(), 3u) << format_violations(vs);
  EXPECT_EQ(vs[0].rule, "spe-heap-alloc");
  EXPECT_EQ(vs[0].line, 3u);
  EXPECT_EQ(vs[1].rule, "spe-vector-growth");
  EXPECT_EQ(vs[1].line, 4u);
  EXPECT_EQ(vs[2].rule, "spe-vector-growth");
  EXPECT_EQ(vs[2].line, 5u);
}

TEST(LintRegions, RegionEndsAtClosingBrace) {
  const std::string src =
      "void kernel(cell::DmaEngine& dma) {\n"
      "  dma.get(a, b, n);\n"
      "}\n"
      "std::vector<int> host_after;\n";
  EXPECT_TRUE(lint_source("t.cpp", src, {}).empty());
}

TEST(LintRegions, MembersOfADmaEngineHolderAreARegion) {
  // A class that stores a DmaEngine& (the DWT's Local Store row ring)
  // drives the engine from member functions whose signatures never name
  // it; the whole class body is SPE code.  A class without such a member
  // stays host code.
  const std::string src =
      "template <class T, std::size_t K>\n"
      "class Ring {\n"
      " public:\n"
      "  void grow() { std::vector<T> bad; }\n"
      "  void put(std::ptrdiff_t r) const {\n"
      "    dma_put_row_tagged(dma_, slot(r), dst, n, tag(r));\n"
      "  }\n"
      " private:\n"
      "  cell::DmaEngine& dma_;\n"
      "};\n"
      "class HostTable {\n"
      "  void grow() { std::vector<int> fine; }\n"
      "  cell::DmaEngine* engine_;\n"
      "};\n";
  const auto regions = find_spe_regions(strip_comments_and_strings(src));
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].first_line, 3u);
  EXPECT_EQ(regions[0].last_line, 10u);
  const auto vs = lint_source("t.cpp", src, {});
  ASSERT_EQ(vs.size(), 1u) << format_violations(vs);
  EXPECT_EQ(vs[0].rule, "spe-vector-growth");
  EXPECT_EQ(vs[0].line, 4u);
}

TEST(LintRegions, StdFunctionTypeIsNotARegion) {
  // machine.hpp names the kernel convention as a std::function type; that
  // is a declaration, not SPE code.
  const std::string src =
      "using SpeWork = std::function<void(int, SpeContext&)>;\n"
      "std::vector<SpeWork> pending;\n";
  EXPECT_TRUE(lint_source("t.cpp", src, {}).empty());
}

TEST(LintRegions, ServicePpeCodeIsNotAnSpeRegion) {
  // Encode-service PPE-side code (src/service, DESIGN.md §12) schedules
  // host threads and pool leases — std::thread / std::mutex / std::vector
  // are its bread and butter and must not trip the SPE-region rules, which
  // key on kernel signatures (SpeContext& / Simd& / DmaEngine&), not on
  // directory.  This fixture pins that a pool-taking service function is
  // not a region.
  const std::string src =
      "void run_jobs(const service::SpePool& pool,\n"
      "              std::vector<service::EncodeJob>& jobs) {\n"
      "  std::mutex mu;\n"
      "  std::vector<std::thread> workers;\n"
      "  workers.emplace_back([&] {\n"
      "    std::lock_guard<std::mutex> lock(mu);\n"
      "    jobs.resize(jobs.size());\n"
      "  });\n"
      "  for (auto& t : workers) t.join();\n"
      "}\n";
  EXPECT_TRUE(lint_source("service/encode_service.cpp", src, {}).empty());
}

TEST(LintRegions, DeclarationDoesNotLatchOntoNextBrace) {
  // A prototype mentioning DmaEngine& ends at ';' — the struct body that
  // happens to follow must not become an SPE region.
  const std::string src =
      "void kernel(cell::DmaEngine& dma);\n"
      "struct Host {\n"
      "  std::vector<int> items;\n"
      "};\n";
  EXPECT_TRUE(lint_source("t.cpp", src, {}).empty());
}

TEST(LintRegions, CommentedCodeDoesNotTrip) {
  const std::string src =
      "void kernel(cell::Simd& s) {\n"
      "  // std::vector<float> old_approach;\n"
      "  /* new float[4] */\n"
      "}\n";
  EXPECT_TRUE(lint_source("t.cpp", src, {}).empty());
}

TEST(LintRules, FlagsSuffixedDmaSizeLiterals) {
  // 0x80u / 4096UL used to slip through: the suffix sits between two word
  // characters, so the old literal regex's trailing \b never matched.
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "dma.get(dst, src, 0x80u);\n", {}),
      "dma-literal-size"));
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "dma.put(src, dst, 4096UL);\n", {}),
      "dma-literal-size"));
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "dma.get_large(d, s, 0X4000uLL);\n", {}),
      "dma-literal-size"));
}

TEST(LintRules, AsyncAndTaggedCallsCheckTheSizeArgumentNotTheTag) {
  // dma.get_async(buf, addr, size, tag): the size is argument 2, and the
  // trailing tag literal must not be mistaken for a transfer size.
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "dma.get_async(d, s, 256, tag);\n", {}),
      "dma-literal-size"));
  EXPECT_TRUE(
      lint_source("t.cpp", "dma.get_async(d, s, n * sizeof(float), 31);\n", {})
          .empty());
  EXPECT_TRUE(
      lint_source("t.cpp", "dma.putf_async(d, s, bytes, 17);\n", {}).empty());
  // dma_put_row_tagged(dma, buf, addr, elems, tag): size is argument 3.
  EXPECT_TRUE(
      lint_source("t.cpp", "dma_put_row_tagged(dma, b, a, elems, 31);\n", {})
          .empty());
  EXPECT_TRUE(has_rule(
      lint_source("t.cpp", "dma_getf_row_tagged(dma, b, a, 512, tag);\n", {}),
      "dma-literal-size"));
}

TEST(LintRules, DmaEngineMaxTransferIsAnAllowedSize) {
  EXPECT_TRUE(
      lint_source("t.cpp",
                  "dma.get_large(d, s, cell::DmaEngine::kMaxTransfer);\n", {})
          .empty());
}

// ---------------------------------------------------------------------------
// Tier-4 flow rules: one seeded-bad fixture per rule, plus clean realistic
// shapes that must NOT trip (the false-positive guards).

TEST(FlowRules, UseWhileInFlightIsTagUnwaited) {
  const std::string src =
      "dma.get_async(buf, src, n, 0);\n"
      "consume(buf);\n"
      "dma.wait_tag(0);\n";
  const auto vs = flow_source("t.cpp", src, flow_all());
  ASSERT_EQ(vs.size(), 1u) << format_violations(vs);
  EXPECT_EQ(vs[0].rule, "dma-tag-unwaited");
  EXPECT_EQ(vs[0].line, 2u);
}

TEST(FlowRules, TouchAfterWaitIsClean) {
  const std::string src =
      "dma.get_async(buf, src, n, 0);\n"
      "dma.wait_tag(0);\n"
      "dma.touch(buf, n);\n"
      "consume(buf);\n";
  EXPECT_TRUE(flow_source("t.cpp", src, flow_all()).empty());
}

TEST(FlowRules, PendingTagAtExitIsTagUnwaited) {
  const std::string src = "dma.put_async(buf, dst, n, 4);\n";
  const auto vs = flow_source("t.cpp", src, flow_all());
  ASSERT_EQ(vs.size(), 1u) << format_violations(vs);
  EXPECT_EQ(vs[0].rule, "dma-tag-unwaited");
  EXPECT_NE(vs[0].message.find("exit"), std::string::npos);
}

TEST(FlowRules, UnfencedBufferRetargetIsReuseInFlight) {
  const std::string src =
      "dma.get_async(buf, a, n, 0);\n"
      "dma.get_async(buf, b, n, 1);\n"
      "dma.wait_all();\n";
  const auto vs = flow_source("t.cpp", src, flow_all());
  ASSERT_EQ(vs.size(), 1u) << format_violations(vs);
  EXPECT_EQ(vs[0].rule, "dma-tag-reuse-in-flight");
  EXPECT_EQ(vs[0].line, 2u);
}

TEST(FlowRules, FencedSameTagRetargetIsLegal) {
  // The MFC fence orders a getf/putf after prior commands on the SAME tag,
  // so re-targeting an in-flight buffer this way is the one legal shape.
  const std::string src =
      "dma.getf_async(buf, a, n, 0);\n"
      "dma.getf_async(buf, b, n, 0);\n"
      "dma.wait_tag(0);\n"
      "consume(buf);\n";
  EXPECT_TRUE(flow_source("t.cpp", src, flow_all()).empty());
}

TEST(FlowRules, FencedCrossTagRetargetStillFlagged) {
  // A fence does not order across tag groups — same-buffer reuse on a
  // different tag is a hazard even when fenced.
  const std::string src =
      "dma.getf_async(buf, a, n, 0);\n"
      "dma.getf_async(buf, b, n, 1);\n"
      "dma.wait_all();\n";
  EXPECT_TRUE(has_rule(flow_source("t.cpp", src, flow_all()),
                       "dma-tag-reuse-in-flight"));
}

TEST(FlowRules, WaitOnNeverIssuedTagIsWaitUnissued) {
  const auto vs = flow_source("t.cpp", "dma.wait_tag(5);\n", flow_all());
  ASSERT_EQ(vs.size(), 1u) << format_violations(vs);
  EXPECT_EQ(vs[0].rule, "dma-wait-unissued");
}

TEST(FlowRules, EmptyWaitMaskIsWaitUnissued) {
  EXPECT_TRUE(has_rule(
      flow_source("t.cpp", "dma.wait_tag_mask(0);\n", flow_all()),
      "dma-wait-unissued"));
}

TEST(FlowRules, MaskCoveringIssuedTagIsClean) {
  const std::string src =
      "dma.get_async(buf, a, n, 3);\n"
      "dma.wait_tag_mask(1u << 3);\n"
      "consume(buf);\n";
  EXPECT_TRUE(flow_source("t.cpp", src, flow_all()).empty());
}

TEST(FlowRules, SingleTagDoubleBufferIsImbalance) {
  // Both parities of ping[] issued on tag 0: every wait drains both, so
  // the ping/pong serializes exactly like a single buffer.
  const std::string src =
      "for (int i = 0; i < 8; ++i) {\n"
      "  const unsigned t = i & 1;\n"
      "  dma.get_async(ping[t], src, n, 0);\n"
      "  dma.wait_tag(0);\n"
      "  dma.touch(ping[t], n);\n"
      "}\n"
      "dma.wait_all();\n";
  const auto vs = flow_source("t.cpp", src, flow_all());
  ASSERT_EQ(vs.size(), 1u) << format_violations(vs);
  EXPECT_EQ(vs[0].rule, "dma-double-buffer-imbalance");
}

TEST(FlowRules, PerParityTagsAreBalanced) {
  const std::string src =
      "for (int i = 0; i < 8; ++i) {\n"
      "  const unsigned t = i & 1;\n"
      "  dma.get_async(ping[t], src, n, t);\n"
      "  dma.wait_tag(t);\n"
      "  dma.touch(ping[t], n);\n"
      "}\n"
      "dma.wait_all();\n";
  EXPECT_TRUE(flow_source("t.cpp", src, flow_all()).empty());
}

TEST(FlowRules, RealisticFencedPingPongKernelIsClean) {
  // The stage-kernel dialect end to end: fenced prologue prefetch, parity
  // variables through a loop, conditional next-row prefetch, wait-touch-
  // transform-put, drain, Local Store reset.
  const std::string src =
      "void kernel(cell::SpeContext& ctx) {\n"
      "  Sample* lin[2] = {ctx.ls.alloc<Sample>(pad),"
      " ctx.ls.alloc<Sample>(pad)};\n"
      "  dma_getf_row_tagged(ctx.dma, lin[0], plane.row(0), tw, 0);\n"
      "  for (std::size_t y = 0; y < count; ++y) {\n"
      "    const unsigned cur = y & 1;\n"
      "    const unsigned nxt = cur ^ 1;\n"
      "    if (y + 1 < count) {\n"
      "      dma_getf_row_tagged(ctx.dma, lin[nxt], plane.row(y + 1), tw,"
      " nxt);\n"
      "    }\n"
      "    ctx.dma.wait_tag(cur);\n"
      "    ctx.dma.touch(lin[cur], tw * sizeof(Sample));\n"
      "    transform(lin[cur], tw);\n"
      "    dma_put_row_tagged(ctx.dma, lin[cur], plane.row(y), tw, cur);\n"
      "  }\n"
      "  ctx.dma.wait_all();\n"
      "  ctx.ls.reset();\n"
      "}\n";
  const auto vs = flow_source("t.cpp", src);  // region detection, not --spe-all
  EXPECT_TRUE(vs.empty()) << format_violations(vs);
}

TEST(FlowRules, SymbolicTagParameterIsJudgedLeniently) {
  // kernels.cpp's row helpers issue on a caller-supplied tag and return
  // without waiting — the caller owns the wait.  Symbolic pending state
  // must never be reported at exit.
  const std::string src =
      "void helper(cell::DmaEngine& dma, unsigned tag) {\n"
      "  dma.get_async(buf, src, n, tag);\n"
      "}\n";
  EXPECT_TRUE(flow_source("t.cpp", src).empty());
}

TEST(FlowRules, ConditionalIssueCountsAsPendingAtTheJoin) {
  // Union-at-join: a transfer issued on only one branch is still pending
  // after the if, so touching the buffer without a wait is flagged.
  const std::string src =
      "if (prefetch) {\n"
      "  dma.get_async(buf, src, n, 0);\n"
      "}\n"
      "consume(buf);\n"
      "dma.wait_all();\n";
  EXPECT_TRUE(has_rule(flow_source("t.cpp", src, flow_all()),
                       "dma-tag-unwaited"));
}

TEST(FlowRules, CastParityTagsResolve) {
  // The read stage's chain tags `t = static_cast<unsigned>(k & 1)`: the
  // cast keeps the parity, so the tags resolve and a chain missing its
  // final drain is caught with both tags named.
  const std::string src =
      "void kernel(cell::SpeContext& ctx) {\n"
      "  for (std::size_t k = 0; k < n; ++k) {\n"
      "    const unsigned t = static_cast<unsigned>(k & 1);\n"
      "    dma_getf_row_tagged(ctx.dma, buf[t], src(k), w, t);\n"
      "    dma_putf_row_tagged(ctx.dma, buf[t], dst(k), w, t);\n"
      "  }\n"
      "}\n";
  std::vector<RegionTagSummary> sums;
  const auto vs = flow_source("t.cpp", src, {}, &sums);
  ASSERT_EQ(vs.size(), 2u) << format_violations(vs);
  EXPECT_NE(vs[0].message.find("tag 0"), std::string::npos);
  EXPECT_NE(vs[1].message.find("tag 1"), std::string::npos);
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums[0].resolved_issues, sums[0].issues);
}

TEST(FlowRules, IfConstexprArmsAreAlternatives) {
  // A stage shared by in-place and out-of-place paths picks the fenced or
  // the unfenced get per path: the arms never both run, so the unfenced
  // arm does not re-target the buffer the fenced arm just issued on.  Each
  // arm is still checked on its own: with a put in flight on the buffer,
  // only the unfenced arm is a hazard.
  const std::string ok =
      "if constexpr (P::kInPlace) {\n"
      "  dma_getf_row_tagged(dma, buf, src, n, 0);\n"
      "} else {\n"
      "  dma_get_row_tagged(dma, buf, src, n, 0);\n"
      "}\n"
      "dma.wait_tag(0);\n"
      "consume(buf);\n";
  EXPECT_TRUE(flow_source("t.cpp", ok, flow_all()).empty())
      << format_violations(flow_source("t.cpp", ok, flow_all()));
  const std::string bad =
      "dma_put_row_tagged(dma, buf, dst, n, 0);\n"
      "if constexpr (P::kInPlace) {\n"
      "  dma_getf_row_tagged(dma, buf, src, n, 0);\n"
      "} else {\n"
      "  dma_get_row_tagged(dma, buf, src, n, 0);\n"
      "}\n"
      "dma.wait_all();\n";
  const auto vs = flow_source("t.cpp", bad, flow_all());
  ASSERT_EQ(vs.size(), 1u) << format_violations(vs);
  EXPECT_EQ(vs[0].rule, "dma-tag-reuse-in-flight");
  EXPECT_EQ(vs[0].line, 5u);
}

TEST(FlowRules, MemberEngineCallsAreEvents) {
  // A DmaEngine held as the member `dma_` waits and touches like `dma`.
  const std::string src =
      "dma.get_async(buf, src, n, 3);\n"
      "dma_.wait_tag(3);\n"
      "dma_.touch(buf, n);\n";
  EXPECT_TRUE(flow_source("t.cpp", src, flow_all()).empty())
      << format_violations(flow_source("t.cpp", src, flow_all()));
}

TEST(FlowRules, LsAllocOverBudgetIsFlagged) {
  const std::string src =
      "void kernel(cell::SpeContext& ctx) {\n"
      "  float* big = ctx.ls.alloc<float>(40000);\n"
      "  float* more = ctx.ls.alloc<float>(16000);\n"
      "}\n";
  const auto vs = flow_source("t.cpp", src);
  ASSERT_EQ(vs.size(), 1u) << format_violations(vs);
  EXPECT_EQ(vs[0].rule, "ls-static-budget");
  EXPECT_NE(vs[0].message.find("224000"), std::string::npos);
}

TEST(FlowRules, LsBudgetEdgeIsExact) {
  // 53248 floats == 212992 bytes == the budget, exactly: still legal.
  EXPECT_EQ(kStaticLsBudgetBytes, 212992u);
  EXPECT_TRUE(
      flow_source("t.cpp", "float* p = ls.alloc<float>(53248);\n", flow_all())
          .empty());
  EXPECT_TRUE(has_rule(
      flow_source("t.cpp", "float* p = ls.alloc<float>(53249);\n", flow_all()),
      "ls-static-budget"));
}

TEST(FlowRules, LsResetReturnsTheBudget) {
  const std::string src =
      "float* a = ls.alloc<float>(40000);\n"
      "ls.reset();\n"
      "float* b = ls.alloc<float>(40000);\n";
  EXPECT_TRUE(flow_source("t.cpp", src, flow_all()).empty());
}

TEST(FlowSummaries, CountIssuesAndWaitsPerRegion) {
  const std::string src =
      "void kernel(cell::DmaEngine& dma) {\n"
      "  dma.get_async(buf, src, n, 0);\n"
      "  dma.wait_tag(0);\n"
      "  dma.touch(buf, n);\n"
      "}\n";
  std::vector<RegionTagSummary> sums;
  const auto vs = flow_source("t.cpp", src, {}, &sums);
  EXPECT_TRUE(vs.empty()) << format_violations(vs);
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums[0].issues, 1u);
  EXPECT_EQ(sums[0].resolved_issues, 1u);
  EXPECT_EQ(sums[0].waits, 1u);
  EXPECT_EQ(sums[0].violations, 0u);
}

TEST(LintFormat, ReportLinesAreFileLineRuleMessage) {
  const auto vs = lint_source("dir/file.cpp", "dma.get(a, b, 128);\n", {});
  ASSERT_EQ(vs.size(), 1u);
  const std::string line = format_violations(vs);
  EXPECT_NE(line.find("dir/file.cpp:1: [dma-literal-size]"),
            std::string::npos);
}

// The acceptance gate: the real source tree has zero violations.  CJ2K_-
// SOURCE_DIR is injected by tests/CMakeLists.txt.
TEST(LintGate, SrcTreeIsClean) {
  const auto vs = lint_tree(CJ2K_SOURCE_DIR "/src", {});
  EXPECT_TRUE(vs.empty()) << format_violations(vs);
}

TEST(LintGate, SrcTreeHasSpeRegionsToCheck) {
  // Guard against the detector silently matching nothing: treat-all mode
  // must find the rules' own machinery (audit.hpp's std::mutex etc.), so
  // an empty clean result above is meaningful.
  const auto vs = lint_tree(CJ2K_SOURCE_DIR "/src", spe_all());
  EXPECT_FALSE(vs.empty());
}

TEST(LintGate, TemplatedRowKernelsAreSpeRegions) {
  // The one-source row kernels are templates over the vector policy.  Seed
  // a vector declaration into every kernel body: each must be flagged, or
  // the clean gate above is not covering the kernels.
  std::ifstream in(CJ2K_SOURCE_DIR "/src/cellenc/kernels.hpp");
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  std::size_t seeded = 0;
  for (std::size_t pos = text.find("\nvoid simd_"); pos != std::string::npos;
       pos = text.find("\nvoid simd_", pos + 1)) {
    text.insert(text.find("{\n", pos) + 2, "  std::vector<int> seeded;\n");
    ++seeded;
  }
  EXPECT_GE(seeded, 18u);
  const auto vs = lint_source("kernels.hpp", text, {});
  EXPECT_EQ(vs.size(), seeded) << format_violations(vs);
}

TEST(LintGate, BenchAndToolsTreesAreClean) {
  for (const char* tree : {CJ2K_SOURCE_DIR "/bench", CJ2K_SOURCE_DIR
                           "/tools"}) {
    const auto vs = lint_tree(tree, {});
    EXPECT_TRUE(vs.empty()) << tree << ":\n" << format_violations(vs);
  }
}

TEST(FlowGate, SrcBenchAndToolsTreesAreFlowClean) {
  for (const char* tree :
       {CJ2K_SOURCE_DIR "/src", CJ2K_SOURCE_DIR "/bench",
        CJ2K_SOURCE_DIR "/tools"}) {
    const auto vs = flow_tree(tree, {});
    EXPECT_TRUE(vs.empty()) << tree << ":\n" << format_violations(vs);
  }
}

TEST(FlowGate, SrcTreeHasTaggedKernelsToCheck) {
  // The flow gate above is only meaningful if the analyzer actually sees
  // the stage kernels' tagged traffic: demand a healthy population of SPE
  // regions that both issue async DMA on resolved tags and wait on them.
  std::vector<RegionTagSummary> sums;
  flow_tree(CJ2K_SOURCE_DIR "/src", {}, &sums);
  std::size_t tagged = 0;
  for (const auto& s : sums) {
    if (s.resolved_issues > 0 && s.waits > 0) ++tagged;
  }
  EXPECT_GE(tagged, 8u);
}

}  // namespace
}  // namespace cj2k::cellcheck
