// cj2k — command-line encoder/decoder (the "Jasper transcoder" role).
//
//   cj2k encode  <in.bmp|in.ppm|in.pgm> <out.cj2k> [options]
//   cj2k decode  <in.cj2k> <out.bmp|out.ppm|out.pgm> [--layers N]
//   cj2k info    <in.cj2k>
//   cj2k bench   <in.bmp|in.ppm> [--spes N] [--ppes N] [--chips N]
//                [--lossy] [--rate R] [--tiles CxR] [--block-coder B]
//                [--trace out.json]
//   cj2k serve-bench <in.bmp|in.ppm> [--jobs N] [--policy P] [--jps R]
//                [--seed S] [--spes N] [--ppes N] [--chips N]
//                [--group-spes N] [--no-steal] [--lossy] [--rate R]
//                [--tiles CxR] [--block-coder B] [--trace out.json]
//
// Bench extras:
//   --trace FILE        write a Chrome trace-event JSON of the simulated run
//                       (load in Perfetto / chrome://tracing); the file also
//                       embeds the derived-metrics registry (DESIGN.md §11)
//
// serve-bench extras (DESIGN.md §12):
//   --jobs N            number of concurrent encode jobs (default 8)
//   --policy P          scheduling policy: latency | throughput | adaptive
//                       (default throughput)
//   --jps R             open-loop arrival rate, jobs/second (default 16)
//   --seed S            arrival-process RNG seed (default 1)
//   --group-spes N      SPEs per lease group (default 8)
//   --no-steal          disable job-level work stealing
//
// Encode options:
//   --lossy             9/7 irreversible (default: lossless 5/3)
//   --rate R            target size as a fraction of raw bytes (implies --lossy)
//   --layers N          quality layers (default 1)
//   --levels N          decomposition levels (default 5)
//   --cb N              code block size (default 64)
//   --tiles CxR         split the image into a CxR tile grid (default 1x1)
//   --block-coder B     block coder: ebcot (default) or ht (Part 15 cleanup
//                       pass; single layer, rate targeting via quantizer)
//   --no-mct            disable RCT/ICT
//   --fixed-point       Q13 fixed-point 9/7 (Jasper's original arithmetic)
//   --reset-ctx         RESET contexts each coding pass
//   --vsc               vertically stripe-causal contexts
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cellenc/pipeline.hpp"
#include "common/rng.hpp"
#include "image/bmp.hpp"
#include "image/metrics.hpp"
#include "image/pnm.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/encoder.hpp"
#include "service/encode_service.hpp"

using namespace cj2k;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cj2k encode <in.bmp|in.ppm> <out.cj2k> [--lossy] "
               "[--rate R] [--layers N]\n"
               "                   [--levels N] [--cb N] [--tiles CxR] "
               "[--block-coder ebcot|ht]\n"
               "                   [--no-mct] [--fixed-point] [--reset-ctx] "
               "[--vsc]\n"
               "       cj2k decode <in.cj2k> <out.bmp|out.ppm> [--layers N]\n"
               "       cj2k info   <in.cj2k>\n"
               "       cj2k bench  <in.bmp|in.ppm> [--spes N] [--ppes N] "
               "[--chips N]\n"
               "                   [--lossy] [--rate R] [--tiles CxR] "
               "[--block-coder ebcot|ht]\n"
               "                   [--backend cell|native] [--trace "
               "out.json]\n"
               "       cj2k serve-bench <in.bmp|in.ppm> [--jobs N] "
               "[--policy latency|throughput|adaptive]\n"
               "                   [--jps R] [--seed S] [--spes N] [--ppes N] "
               "[--chips N]\n"
               "                   [--group-spes N] [--no-steal] [--lossy] "
               "[--rate R]\n"
               "                   [--tiles CxR] [--block-coder ebcot|ht] "
               "[--backend cell|native]\n"
               "                   [--trace out.json]\n");
  return 2;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

Image read_image(const std::string& path) {
  if (ends_with(path, ".bmp")) return bmp::read(path);
  return pnm::read(path);
}

void write_image(const std::string& path, const Image& img) {
  if (ends_with(path, ".bmp")) {
    bmp::write(path, img);
  } else {
    pnm::write(path, img);
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open: " + path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot create: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Fetches the value of --name from args, or fallback.
double opt_num(const std::vector<std::string>& args, const char* name,
               double fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == name) return std::stod(args[i + 1]);
  }
  return fallback;
}

bool opt_flag(const std::vector<std::string>& args, const char* name) {
  for (const auto& a : args) {
    if (a == name) return true;
  }
  return false;
}

/// Parses --block-coder ebcot|ht into params; leaves the EBCOT default
/// when the flag is absent.
void opt_block_coder(const std::vector<std::string>& args,
                     jp2k::CodingParams& p) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] != "--block-coder") continue;
    const std::string& v = args[i + 1];
    if (v == "ebcot") {
      p.block_coder = jp2k::BlockCoder::kEbcot;
    } else if (v == "ht") {
      p.block_coder = jp2k::BlockCoder::kHt;
    } else {
      throw InvalidArgument("--block-coder expects 'ebcot' or 'ht', got '" +
                            v + "'");
    }
    return;
  }
}

/// Parses --backend cell|native into pipeline options; leaves the
/// Cell-model default when the flag is absent.
void opt_backend(const std::vector<std::string>& args,
                 cellenc::PipelineOptions& opt) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] != "--backend") continue;
    if (!backend::parse(args[i + 1], opt.backend)) {
      throw InvalidArgument("--backend expects 'cell' or 'native', got '" +
                            args[i + 1] + "'");
    }
    return;
  }
}

/// Parses --tiles CxR (e.g. "2x2") into params; leaves the 1x1 default
/// when the flag is absent.
void opt_tiles(const std::vector<std::string>& args, jp2k::CodingParams& p) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] != "--tiles") continue;
    const std::string& v = args[i + 1];
    const std::size_t x = v.find('x');
    if (x == std::string::npos || x == 0 || x + 1 >= v.size()) {
      throw InvalidArgument("--tiles expects CxR, e.g. --tiles 2x2");
    }
    p.tiles_x = static_cast<std::size_t>(std::stoul(v.substr(0, x)));
    p.tiles_y = static_cast<std::size_t>(std::stoul(v.substr(x + 1)));
    return;
  }
}

int cmd_encode(const std::string& in, const std::string& out,
               const std::vector<std::string>& args) {
  const Image img = read_image(in);

  jp2k::CodingParams p;
  p.rate = opt_num(args, "--rate", 0.0);
  if (p.rate > 0.0 || opt_flag(args, "--lossy")) {
    p.wavelet = jp2k::WaveletKind::kIrreversible97;
  }
  p.layers = static_cast<int>(opt_num(args, "--layers", 1));
  p.levels = static_cast<int>(opt_num(args, "--levels", 5));
  const auto cb = static_cast<std::size_t>(opt_num(args, "--cb", 64));
  p.cb_width = cb;
  p.cb_height = cb;
  p.mct = !opt_flag(args, "--no-mct");
  p.fixed_point_97 = opt_flag(args, "--fixed-point");
  p.t1.reset_contexts = opt_flag(args, "--reset-ctx");
  p.t1.vertically_causal = opt_flag(args, "--vsc");
  opt_block_coder(args, p);
  opt_tiles(args, p);

  jp2k::EncodeStats stats;
  const auto bytes = jp2k::encode(img, p, &stats);
  write_file(out, bytes);
  std::printf("%s: %zux%zu x%zu -> %zu bytes (%.2f:1, %.3f bpp) in %.0f ms\n",
              out.c_str(), img.width(), img.height(), img.components(),
              bytes.size(),
              static_cast<double>(img.raw_bytes()) /
                  static_cast<double>(bytes.size()),
              8.0 * static_cast<double>(bytes.size()) /
                  static_cast<double>(img.width() * img.height()),
              stats.total_seconds * 1e3);
  return 0;
}

int cmd_decode(const std::string& in, const std::string& out,
               const std::vector<std::string>& args) {
  const auto bytes = read_file(in);
  const int layers = static_cast<int>(opt_num(args, "--layers", 0));
  const Image img = jp2k::decode(bytes, layers);
  write_image(out, img);
  std::printf("%s: %zux%zu x%zu decoded%s\n", out.c_str(), img.width(),
              img.height(), img.components(),
              layers > 0 ? " (progressive)" : "");
  return 0;
}

int cmd_info(const std::string& in) {
  const auto bytes = read_file(in);
  std::vector<jp2k::TilePart> parts;
  const auto hdr = jp2k::parse_codestream(bytes, parts);
  std::size_t packet_bytes = 0;
  for (const auto& p : parts) packet_bytes += p.packet_size;
  std::printf("codestream: %zu bytes total, %zu packet bytes\n", bytes.size(),
              packet_bytes);
  std::printf("image: %zux%zu, %zu component(s), %u bpp\n", hdr.width,
              hdr.height, hdr.components, hdr.bit_depth);
  const auto grid = jp2k::TileGrid::from_tile_size(hdr.width, hdr.height,
                                                   hdr.tile_w, hdr.tile_h);
  std::printf("tiles: %zux%zu grid (%zu tile-part(s), nominal %zux%zu)\n",
              grid.cols(), grid.rows(), parts.size(), grid.tile_w(),
              grid.tile_h());
  std::printf("coding: %s wavelet, %d levels, %zux%zu blocks, MCT %s, "
              "%d layer(s)%s%s%s\n",
              hdr.params.wavelet == jp2k::WaveletKind::kReversible53
                  ? "5/3 reversible"
                  : (hdr.params.fixed_point_97 ? "9/7 fixed-point"
                                               : "9/7 float"),
              hdr.params.levels, hdr.params.cb_width, hdr.params.cb_height,
              hdr.params.mct ? "on" : "off", hdr.params.layers,
              hdr.params.t1.reset_contexts ? ", RESET" : "",
              hdr.params.t1.vertically_causal ? ", VSC" : "",
              hdr.params.rate > 0 ? ", rate-controlled" : "");
  if (hdr.params.block_coder == jp2k::BlockCoder::kHt) {
    std::printf("block coder: HT (Part 15), CAP Pcap=0x%08x Ccap15=0x%04x\n",
                hdr.pcap, hdr.scap15);
  } else {
    std::printf("block coder: EBCOT%s\n",
                hdr.cap_present ? " (CAP marker present)" : "");
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    std::printf("tile %zu: %zu packet bytes, %zu component(s)\n", i,
                parts[i].packet_size, parts[i].band_meta.size());
  }
  return 0;
}

/// Fetches the value of --name from args, or "".
std::string opt_str(const std::vector<std::string>& args, const char* name) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == name) return args[i + 1];
  }
  return "";
}

int cmd_bench(const std::string& in, const std::vector<std::string>& args) {
  const Image img = read_image(in);
  cell::MachineConfig cfg;
  cfg.num_spes = static_cast<int>(opt_num(args, "--spes", 8));
  cfg.num_ppe_threads = static_cast<int>(opt_num(args, "--ppes", 1));
  cfg.chips = static_cast<int>(opt_num(args, "--chips", 1));

  jp2k::CodingParams p;
  p.rate = opt_num(args, "--rate", 0.0);
  if (p.rate > 0.0 || opt_flag(args, "--lossy")) {
    p.wavelet = jp2k::WaveletKind::kIrreversible97;
  }
  p.layers = static_cast<int>(opt_num(args, "--layers", 1));
  p.levels = static_cast<int>(opt_num(args, "--levels", 5));
  opt_block_coder(args, p);
  opt_tiles(args, p);

  cellenc::PipelineOptions opt;
  opt_backend(args, opt);
  const std::string trace_path = opt_str(args, "--trace");
  opt.trace.enabled = !trace_path.empty();

  cellenc::CellEncoder enc(cfg);
  const auto res = enc.encode(img, p, opt);
  std::printf("Cell model: %d SPE + %d PPE thread(s), %d chip(s), "
              "%s kernel backend\n",
              cfg.num_spes, cfg.num_ppe_threads, cfg.chips,
              backend::to_string(opt.backend));
  std::printf("simulated encode: %.2f ms (host wall %.0f ms), %zu bytes\n",
              res.simulated_seconds * 1e3, res.wall_seconds * 1e3,
              res.codestream.size());
  std::printf("  %-18s %10s %10s %7s %9s %9s %9s %9s %9s\n", "stage",
              "sim ms", "wall ms", "occ", "busy", "dma-wait", "q-empty",
              "ppe-ser", "chan");
  for (const auto& s : res.stages) {
    const double occ = s.seconds > 0 ? s.stall.busy / s.seconds : 0.0;
    std::printf("  %-18s %10.3f %10.3f %6.1f%% %9.3f %9.3f %9.3f %9.3f "
                "%9.3f\n",
                s.name.c_str(), s.seconds * 1e3, s.wall_seconds * 1e3,
                occ * 100.0, s.stall.busy * 1e3, s.stall.dma_wait * 1e3,
                s.stall.queue_empty * 1e3, s.stall.ppe_serial * 1e3,
                s.stall.channel_stall * 1e3);
  }
  if (res.trace) {
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) throw IoError("cannot create: " + trace_path);
    res.trace->write_chrome_json(out, &res.metrics);
    std::printf("trace: %s (%zu events, %zu dropped) — load in Perfetto or "
                "chrome://tracing\n",
                trace_path.c_str(), res.trace->total_events(),
                res.trace->dropped_events());
  }
  return 0;
}

int cmd_serve_bench(const std::string& in,
                    const std::vector<std::string>& args) {
  const auto img = std::make_shared<const Image>(read_image(in));

  service::ServiceOptions sopt;
  sopt.machine.num_spes = static_cast<int>(opt_num(args, "--spes", 16));
  sopt.machine.num_ppe_threads =
      static_cast<int>(opt_num(args, "--ppes", 2));
  sopt.machine.chips = static_cast<int>(opt_num(args, "--chips", 2));
  sopt.group_spes = static_cast<int>(opt_num(args, "--group-spes", 8));
  if (opt_flag(args, "--no-steal")) sopt.steal = service::StealMode::kOff;
  const std::string policy = opt_str(args, "--policy");
  if (!policy.empty()) sopt.policy = service::parse_policy(policy);
  const std::string trace_path = opt_str(args, "--trace");
  sopt.trace = !trace_path.empty();

  jp2k::CodingParams p;
  p.rate = opt_num(args, "--rate", 0.0);
  if (p.rate > 0.0 || opt_flag(args, "--lossy")) {
    p.wavelet = jp2k::WaveletKind::kIrreversible97;
  }
  p.layers = static_cast<int>(opt_num(args, "--layers", 1));
  p.levels = static_cast<int>(opt_num(args, "--levels", 5));
  opt_block_coder(args, p);
  opt_tiles(args, p);
  cellenc::PipelineOptions popt;
  opt_backend(args, popt);

  const auto jobs = static_cast<std::size_t>(opt_num(args, "--jobs", 8));
  const double jps = opt_num(args, "--jps", 16.0);
  const auto seed = static_cast<std::uint64_t>(opt_num(args, "--seed", 1));
  if (jobs < 1) throw InvalidArgument("--jobs must be at least 1");
  if (jps <= 0) throw InvalidArgument("--jps must be positive");

  service::EncodeService svc(sopt);
  {
    Rng rng(seed);
    double clock = 0;
    for (std::size_t i = 0; i < jobs; ++i) {
      clock += -std::log1p(-rng.next_double()) / jps;
      service::EncodeJob job;
      job.image = img;
      job.params = p;
      job.pipeline = popt;
      job.arrival_seconds = clock;
      svc.submit(std::move(job));
    }
  }
  const service::ServiceResult res = svc.run();

  std::printf("encode service: %zu jobs, %zu group(s) x %d SPEs, "
              "%s policy, stealing %s, %.1f jobs/s offered\n",
              jobs, res.groups, res.group_spes,
              service::policy_name(sopt.policy),
              svc.stealing_enabled() ? "on" : "off", jps);
  std::printf("  %-8s %10s %10s %10s %10s %7s %7s %10s\n", "job", "arrival",
              "wait", "service", "latency", "groups", "stolen", "bytes");
  for (const auto& jr : res.jobs) {
    std::printf("  %-8s %8.4f s %8.4f s %8.4f s %8.4f s %7zu %7zu %10zu\n",
                jr.name.c_str(), jr.arrival_seconds, jr.queue_wait_seconds,
                jr.service_seconds, jr.latency_seconds, jr.lease_groups,
                jr.stolen_items, jr.pipeline.codestream.size());
  }
  std::printf("summary: %.2f jobs/s, p50 %.4f s, p99 %.4f s, "
              "occupancy %.1f%%, %zu steal(s), makespan %.4f s\n",
              res.summary.jobs_per_sec, res.summary.p50_latency,
              res.summary.p99_latency, 100.0 * res.summary.pool_occupancy,
              static_cast<std::size_t>(res.summary.steals),
              res.makespan_seconds);
  if (res.trace) {
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) throw IoError("cannot create: " + trace_path);
    res.trace->write_chrome_json(out, &res.metrics);
    std::printf("trace: %s (%zu events, %zu dropped) — load in Perfetto or "
                "chrome://tracing\n",
                trace_path.c_str(), res.trace->total_events(),
                res.trace->dropped_events());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

  try {
    if (cmd == "encode" && args.size() >= 2) {
      return cmd_encode(args[0], args[1], args);
    }
    if (cmd == "decode" && args.size() >= 2) {
      return cmd_decode(args[0], args[1], args);
    }
    if (cmd == "info" && args.size() >= 1) {
      return cmd_info(args[0]);
    }
    if (cmd == "bench" && args.size() >= 1) {
      return cmd_bench(args[0], args);
    }
    if (cmd == "serve-bench" && args.size() >= 1) {
      return cmd_serve_bench(args[0], args);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "cj2k: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cj2k: %s\n", e.what());
    return 1;
  }
  return usage();
}
