// Snapshot export: stable text and JSON renderings of a RegistrySnapshot,
// plus the per-stage latency breakdown table the serving benches print.
// Everything here reads snapshots — no live instrument access, so dumping
// never perturbs a running workload beyond taking the snapshot itself.
#pragma once

#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/status.h"

namespace balsa::obs {

/// `s` escaped for inclusion inside a JSON string literal: quote,
/// backslash, and the named control characters get two-character escapes;
/// any other control character becomes \u00XX. Label values and span names
/// flow into dumps verbatim ("name{k=\"v\"}"), so everything that renders
/// JSON here routes strings through this.
std::string JsonEscape(const std::string& s);

/// One line per metric, sorted by name:
///   counter  serving.requests  12345
///   hist     serving.request_us{outcome=hit}  count=100 mean=3.2 p50<=4 ...
/// Histograms whose p99 bucket carries an exemplar append " p99_ex=#<id>"
/// — the trace id to look up in the flight recorder.
std::string TextDump(const RegistrySnapshot& snapshot);

/// {"metrics":[{"name":...,"kind":...,"value":...}|{...,"count":...,
/// "sum":...,"buckets":[...]}]} — buckets trimmed at the last non-zero.
/// Histograms gain "p99_exemplar":<trace id> when their p99 bucket has one.
std::string JsonDump(const RegistrySnapshot& snapshot);

/// JsonDump of `snapshot` written to `path` (the --metrics-json target).
Status WriteJsonFile(const RegistrySnapshot& snapshot,
                     const std::string& path);

/// The per-stage latency breakdown (count, mean, p50, p99 upper bounds in
/// us) of `tracer`'s spans as a table — the component view of where served
/// requests spent their time. Stages with no samples are omitted. The
/// caption follows from the tracer's sample_every and whether any span was
/// recorded: "sampled 1/N" under head sampling; "sampling off" when spans
/// arrived anyway through traces installed by another path (the flight
/// recorder's miss-path shells); and with no rows either "no sampled spans
/// yet" or, when nothing can be sampled (sample_every <= 0), "tracing
/// disabled".
std::string StageBreakdownText(const RequestTracer& tracer);

/// Prints StageBreakdownText(tracer) to stdout.
void PrintStageBreakdown(const RequestTracer& tracer);

}  // namespace balsa::obs
