#include "profile/profile_cache.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "compiler/compile_cache.hpp"
#include "telemetry/metrics.hpp"

namespace duet {
namespace {

constexpr const char* kMagic = "duet-profile-cache";
constexpr int kFormatVersion = 1;

uint64_t hash_double(uint64_t h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return hash_mix(h, bits);
}

// A row the schedulers can trust: every statistic finite and non-negative,
// and min <= max. A hand-edited or corrupted file must not feed them NaN,
// infinite or negative latencies.
bool plausible(const SummaryStats& s) {
  for (double v : {s.mean, s.stddev, s.min, s.max, s.p50, s.p90, s.p99, s.p999}) {
    if (!std::isfinite(v) || v < 0.0) return false;
  }
  return s.min <= s.max;
}

}  // namespace

uint64_t profile_stats_key(const GraphFingerprint& fp, DeviceKind device,
                           const ProfileOptions& options,
                           const DeviceCostParams& params, double noise_sigma) {
  uint64_t h = hash_mix(0x50524F4649434143ull, fp.structural);
  h = hash_mix(h, static_cast<uint64_t>(device));
  h = hash_mix(h, static_cast<uint64_t>(options.runs));
  h = hash_mix(h, options.with_noise ? 1u : 0u);
  // A schedule_quality hook changes the lowered costs but has no identity to
  // hash: hooked profiles get a key space of their own, apart from unhooked
  // ones.
  h = hash_mix(h, options.compile.schedule_quality
                      ? ~0ull
                      : compile_options_key(options.compile));
  h = hash_mix(h, device_params_key(params));
  return hash_double(h, options.with_noise ? noise_sigma : 0.0);
}

uint64_t calibration_fingerprint(const DevicePair& devices) {
  uint64_t h = hash_mix(0x43414C4942524154ull, kFormatVersion);
  h = hash_mix(h, device_params_key(devices.cpu->params()));
  h = hash_double(h, devices.cpu->noise_sigma());
  h = hash_mix(h, device_params_key(devices.gpu->params()));
  h = hash_double(h, devices.gpu->noise_sigma());
  h = hash_double(h, devices.link->params().latency_s);
  return hash_double(h, devices.link->params().bandwidth_gbps);
}

ProfileCache& ProfileCache::instance() {
  static ProfileCache cache;
  return cache;
}

bool ProfileCache::lookup(uint64_t key, SummaryStats* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    static telemetry::Counter& misses = telemetry::counter("profile.cache.misses");
    misses.add(1);
    return false;
  }
  ++stats_.hits;
  static telemetry::Counter& hits = telemetry::counter("profile.cache.hits");
  hits.add(1);
  if (out != nullptr) *out = it->second;
  return true;
}

void ProfileCache::insert(uint64_t key, const SummaryStats& stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  map_[key] = stats;
}

bool ProfileCache::contains(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.count(key) > 0;
}

size_t ProfileCache::open_disk(const std::string& path, uint64_t calibration_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  disk_path_ = path;
  calibration_key_ = calibration_key;
  stats_.disk_loaded = 0;
  stats_.disk_rejected = 0;

  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  char magic[32] = {0};
  int version = 0;
  uint64_t calib = 0;
  size_t accepted = 0;
  size_t rejected = 0;
  if (std::fscanf(f, "%31s v%d calib %" SCNx64 "\n", magic, &version, &calib) == 3 &&
      std::strcmp(magic, kMagic) == 0 && version == kFormatVersion &&
      calib == calibration_key) {
    uint64_t key = 0;
    SummaryStats s;
    unsigned long long count = 0;
    while (std::fscanf(f, "%" SCNx64 " %llu %lg %lg %lg %lg %lg %lg %lg %lg\n",
                       &key, &count, &s.mean, &s.stddev, &s.min, &s.max, &s.p50,
                       &s.p90, &s.p99, &s.p999) == 10) {
      s.count = static_cast<size_t>(count);
      if (!plausible(s)) {
        ++rejected;
        continue;
      }
      map_[key] = s;
      ++accepted;
    }
  }
  std::fclose(f);
  stats_.disk_loaded = accepted;
  stats_.disk_rejected = rejected;
  static telemetry::Counter& rejected_rows =
      telemetry::counter("profile.cache.disk_rejected");
  rejected_rows.add(rejected);
  return accepted;
}

void ProfileCache::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (disk_path_.empty()) return;
  const std::filesystem::path path(disk_path_);
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  // Write a sibling temporary, then rename it over the target: readers and
  // a crash see either the old file or the new one, never a torn mix. The
  // pid keeps concurrent writers in different processes off one temporary.
  const std::filesystem::path tmp(disk_path_ + ".tmp." +
                                  std::to_string(::getpid()));
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "%s v%d calib %" PRIx64 "\n", kMagic, kFormatVersion,
               calibration_key_);
  for (const auto& [key, s] : map_) {
    std::fprintf(f, "%" PRIx64 " %llu %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n",
                 key, static_cast<unsigned long long>(s.count), s.mean, s.stddev,
                 s.min, s.max, s.p50, s.p90, s.p99, s.p999);
  }
  const bool written = std::ferror(f) == 0;
  std::error_code ec;
  if (std::fclose(f) != 0 || !written) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

void ProfileCache::close_disk() {
  std::lock_guard<std::mutex> lock(mutex_);
  disk_path_.clear();
  calibration_key_ = 0;
}

void ProfileCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
}

ProfileCache::Stats ProfileCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.entries = map_.size();
  return s;
}

void ProfileCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t loaded = stats_.disk_loaded;
  const uint64_t rejected = stats_.disk_rejected;
  stats_ = Stats{};
  stats_.disk_loaded = loaded;
  stats_.disk_rejected = rejected;
}

}  // namespace duet
