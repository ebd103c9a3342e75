#include "crf/util/rss.h"

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstring>

namespace crf {
namespace {

// Parses a "/proc/self/status" line of the form "VmHWM:   123456 kB".
int64_t ReadStatusField(const char* field) {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) {
    return 0;
  }
  const size_t field_len = std::strlen(field);
  char line[256];
  int64_t kb = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      std::sscanf(line + field_len + 1, "%ld", &kb);
      break;
    }
  }
  std::fclose(file);
  return kb * 1024;
}

// Sums the "Rss:" rows of every /proc/self/smaps mapping whose header line
// `select(start, end, header, header_length)` accepts (trailing newline and
// spaces stripped); 0 if smaps is unavailable.
template <typename Select>
int64_t SumSmapsRss(const Select& select) {
  std::FILE* file = std::fopen("/proc/self/smaps", "r");
  if (file == nullptr) {
    return 0;
  }
  char line[512];
  int64_t total = 0;
  bool in_target = false;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    const char c = line[0];
    const bool is_vma_header = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (is_vma_header) {
      size_t len = std::strlen(line);
      while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == ' ')) {
        line[--len] = '\0';
      }
      unsigned long start = 0;
      unsigned long end = 0;
      in_target = std::sscanf(line, "%lx-%lx", &start, &end) == 2 && select(start, end, line, len);
    } else if (in_target && std::strncmp(line, "Rss:", 4) == 0) {
      int64_t kb = 0;
      std::sscanf(line + 4, "%ld", &kb);
      total += kb * 1024;
    }
  }
  std::fclose(file);
  return total;
}

}  // namespace

int64_t ReadPeakRssBytes() {
  const int64_t hwm = ReadStatusField("VmHWM");
  if (hwm > 0) {
    return hwm;
  }
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // ru_maxrss is in kB on Linux
}

int64_t ReadMappedFileRssBytes(const std::string& path) {
  return SumSmapsRss([&path](uintptr_t, uintptr_t, const char* header, size_t len) {
    // "addr-addr perms offset dev inode      /path/to/file"
    return len >= path.size() && std::strcmp(header + len - path.size(), path.c_str()) == 0 &&
           (len == path.size() || header[len - path.size() - 1] == ' ');
  });
}

int64_t ReadMappedRangeRssBytes(const void* begin, uint64_t length) {
  const auto lo = reinterpret_cast<uintptr_t>(begin);
  const uintptr_t hi = lo + length;
  return SumSmapsRss([lo, hi](uintptr_t start, uintptr_t end, const char*, size_t) {
    return start < hi && lo < end;
  });
}

bool ResetPeakRss() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) {
    return false;
  }
  // "5" resets the peak-RSS watermark only (Documentation/filesystems/proc).
  const bool ok = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && ok;
}

}  // namespace crf
