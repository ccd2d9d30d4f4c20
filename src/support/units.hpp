#pragma once
// Unit constants and formatting helpers.  All simulated time is in seconds
// (double), all data sizes in bytes (std::size_t or double for rates), all
// rates in units/second.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace bgp::units {

// ---- data sizes -----------------------------------------------------------
inline constexpr double KiB = 1024.0;
inline constexpr double MiB = 1024.0 * 1024.0;
inline constexpr double GiB = 1024.0 * 1024.0 * 1024.0;
// Vendors (and the paper) quote network/memory bandwidth in decimal units.
inline constexpr double KB = 1e3;
inline constexpr double MB = 1e6;
inline constexpr double GB = 1e9;

// ---- time -----------------------------------------------------------------
inline constexpr double sec = 1.0;
inline constexpr double msec = 1e-3;
inline constexpr double usec = 1e-6;
inline constexpr double nsec = 1e-9;

// ---- rates ----------------------------------------------------------------
inline constexpr double GFlops = 1e9;  // floating point ops per second
inline constexpr double MFlops = 1e6;
inline constexpr double TFlops = 1e12;
inline constexpr double GBs = 1e9;  // bytes per second
inline constexpr double MBs = 1e6;

namespace detail {
inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}
}  // namespace detail

/// Formats a byte count with a binary suffix, e.g. "32.0 KiB", "8.0 MiB".
inline std::string formatBytes(double bytes) {
  if (bytes < KiB) return detail::fmt("%.0f B", bytes);
  if (bytes < MiB) return detail::fmt("%.1f KiB", bytes / KiB);
  if (bytes < GiB) return detail::fmt("%.1f MiB", bytes / MiB);
  return detail::fmt("%.2f GiB", bytes / GiB);
}

/// Formats a duration in the most readable unit, e.g. "3.20 us", "1.45 s".
inline std::string formatTime(double seconds) {
  if (seconds < 0) {
    std::string negative = "-";  // appended: `"-" + string&&` trips -Wrestrict
    negative += formatTime(-seconds);
    return negative;
  }
  if (seconds < usec) return detail::fmt("%.1f ns", seconds / nsec);
  if (seconds < msec) return detail::fmt("%.2f us", seconds / usec);
  if (seconds < sec) return detail::fmt("%.2f ms", seconds / msec);
  return detail::fmt("%.3f s", seconds);
}

/// Formats a rate in flop/s, e.g. "3.40 GF/s", "21.9 TF/s".
inline std::string formatFlops(double flopsPerSec) {
  if (flopsPerSec < GFlops) return detail::fmt("%.1f MF/s", flopsPerSec / MFlops);
  if (flopsPerSec < TFlops) return detail::fmt("%.2f GF/s", flopsPerSec / GFlops);
  return detail::fmt("%.2f TF/s", flopsPerSec / TFlops);
}

/// Formats a bandwidth in bytes/s, e.g. "425.0 MB/s", "5.10 GB/s".
inline std::string formatBandwidth(double bytesPerSec) {
  if (bytesPerSec < MBs) return detail::fmt("%.1f KB/s", bytesPerSec / KB);
  if (bytesPerSec < GBs) return detail::fmt("%.1f MB/s", bytesPerSec / MBs);
  return detail::fmt("%.2f GB/s", bytesPerSec / GBs);
}

}  // namespace bgp::units
