// Process peak-RSS measurement for the memory-footprint benches.
//
// Peak RSS (the kernel's high-water mark of resident pages) is the honest
// metric for "did the mmap / streaming path actually avoid materializing the
// trace": current RSS dips as pages are evicted, but the high-water mark
// records the worst moment. Linux exposes it as VmHWM in /proc/self/status
// (resettable, used per-lane by the bench) with getrusage's ru_maxrss as the
// portable fallback (not resettable — only trust it for the first lane of a
// process).

#ifndef CRF_UTIL_RSS_H_
#define CRF_UTIL_RSS_H_

#include <cstdint>
#include <string>

namespace crf {

// Peak resident set size of the calling process in bytes, since process
// start or the last successful ResetPeakRss(). Returns 0 if unavailable.
int64_t ReadPeakRssBytes();

// Resets the kernel's peak-RSS watermark to the current RSS (writes "5" to
// /proc/self/clear_refs). Returns false where unsupported; callers should
// then treat ReadPeakRssBytes() as a whole-process figure.
bool ResetPeakRss();

// Total resident bytes (the "Rss:" rows of /proc/self/smaps) across every
// mapping of the file at `path` in this process; 0 if the file is not
// mapped or smaps is unavailable. This is the precise "how much of the
// mapped trace did this process materialize" figure: mincore would count
// hot page-cache pages the process never touched, and whole-process RSS
// deltas pick up unrelated allocator churn.
int64_t ReadMappedFileRssBytes(const std::string& path);

// Resident bytes (smaps "Rss:") of every mapping in this process that
// overlaps [begin, begin + length): how much of a mapping this process has
// faulted in, whatever the page cache holds. Whole mappings count, so a
// range inside a larger mapping reports that mapping's residency. 0 if
// nothing is mapped there or smaps is unavailable.
int64_t ReadMappedRangeRssBytes(const void* begin, uint64_t length);

}  // namespace crf

#endif  // CRF_UTIL_RSS_H_
