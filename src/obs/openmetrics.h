#ifndef EDR_OBS_OPENMETRICS_H_
#define EDR_OBS_OPENMETRICS_H_

#include <string>
#include <string_view>

namespace edr {

class FlightRecorder;
struct MetricsSnapshot;

/// The registry entry name mapped to an OpenMetrics metric family name:
/// prefixed with "edr_", every character outside [a-zA-Z0-9_:] replaced
/// with '_' (registry names use dots — "query.dp_total" →
/// "edr_query_dp_total"), and a trailing "_total" stripped so the counter
/// sample suffix does not double up.
std::string OpenMetricsName(std::string_view registry_name);

/// Escapes a label value per the OpenMetrics ABNF: backslash, double
/// quote, and newline become \\ \" \n.
std::string OpenMetricsEscapeLabel(std::string_view value);

struct OpenMetricsOptions {
  /// When set, the "query.seconds" histogram's tail buckets carry
  /// exemplars referencing this recorder's retained slowest queries
  /// (label entry_id = FlightRecord::id), so a scrape can jump from a
  /// hot histogram bucket straight to the flight-recorder entry that
  /// landed there.
  const FlightRecorder* exemplars = nullptr;
};

/// Renders the snapshot as one OpenMetrics 1.0 text exposition:
/// counters as `<name>_total`, latency histograms as cumulative
/// `<name>_bucket{le="..."}` series (upper edges from
/// LatencyBucketUpperSeconds) plus `_sum`/`_count`, terminated by
/// `# EOF`. Works in every build — an EDR_DISABLE_OBS snapshot simply
/// renders all-zero families.
std::string RenderOpenMetrics(const MetricsSnapshot& snapshot,
                              const OpenMetricsOptions& options = {});

/// True iff `text` is one syntactically valid OpenMetrics exposition:
/// well-formed metadata and sample lines, metric-name and label grammar,
/// `# EOF` terminator, cumulative (non-decreasing) histogram buckets
/// whose `+Inf` bucket equals the family's `_count`, and counter samples
/// carrying the `_total` suffix. The obs/json.h-style checker the tests
/// and the CLI's `check-openmetrics` command round-trip every emitted
/// exposition through. On failure, `*error` (when non-null) receives a
/// one-line description including the offending line number.
bool OpenMetricsIsValid(std::string_view text, std::string* error = nullptr);

}  // namespace edr

#endif  // EDR_OBS_OPENMETRICS_H_
