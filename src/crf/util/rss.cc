#include "crf/util/rss.h"

#include <sys/resource.h>

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
      // "addr-addr perms offset dev inode      /path/to/file\n"
      size_t len = std::strlen(line);
      while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == ' ')) {
        line[--len] = '\0';
      }
      in_target = len >= path.size() &&
                  std::strcmp(line + len - path.size(), path.c_str()) == 0 &&
                  (len == path.size() || line[len - path.size() - 1] == ' ');
    } else if (in_target && std::strncmp(line, "Rss:", 4) == 0) {
      int64_t kb = 0;
      std::sscanf(line + 4, "%ld", &kb);
      total += kb * 1024;
    }
  }
  std::fclose(file);
  return total;
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
