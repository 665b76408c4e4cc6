// Process-wide accounting and cooperative trimming of long-lived engine
// scratch (the replicate hot path's thread_local IndexScratch instances).
//
// Those scratches deliberately never shrink while a workload runs — that is
// what makes a warm replicate allocation-free. In a LONG-LIVED SERVER,
// though, the high-water sticks around forever: one query against a huge
// sample pins every worker's scratch at that sample's size even after the
// sample is replaced by a small one. Two hooks fix that without ever
// touching a scratch from a foreign thread:
//
//  * RESIDENT-BYTES GAUGE — each scratch reports its approximate resident
//    capacity (AddResidentBytes deltas); ResidentBytes() is the process
//    total, surfaced through QueryService::Stats for observability.
//  * TRIM EPOCH — RequestTrim() bumps a global epoch. Every scratch
//    remembers the epoch it last observed and, at its next use ON ITS
//    OWNING THREAD, releases its capacity before rebuilding (shrink-to-fit
//    of every pooled buffer). Trimming is therefore race-free by
//    construction, costs one relaxed atomic load per use when idle, and
//    converges as soon as each worker touches its scratch once. A trimmed
//    scratch rebuilds from empty — results are bit-identical (the scratch
//    contract already guarantees independence from prior contents), only
//    the warm-up allocations are paid again.
//
// The serving layer calls RequestTrim() when a registered sample is
// replaced by a meaningfully smaller one (query_service.cc).
#ifndef UUQ_COMMON_SCRATCH_METRICS_H_
#define UUQ_COMMON_SCRATCH_METRICS_H_

#include <cstdint>

namespace uuq {
namespace scratch {

/// Adjusts the process-wide resident-scratch gauge (negative on release).
void AddResidentBytes(int64_t delta);

/// Approximate bytes currently held by registered scratches, process-wide.
int64_t ResidentBytes();

/// Asks every registered scratch to release its capacity at next use.
void RequestTrim();

/// The current trim epoch (monotone; bumped by RequestTrim).
uint64_t TrimEpoch();

}  // namespace scratch
}  // namespace uuq

#endif  // UUQ_COMMON_SCRATCH_METRICS_H_
