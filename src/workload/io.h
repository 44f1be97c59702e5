#ifndef MOTTO_WORKLOAD_IO_H_
#define MOTTO_WORKLOAD_IO_H_

#include <string>
#include <vector>

#include "ccl/pattern.h"
#include "common/result.h"
#include "event/stream.h"

namespace motto {

/// Workload files: one CCL query per non-empty line; '#' starts a comment.
/// Query names are "q1".."qN" in file order unless a line is prefixed with
/// "name:" (e.g. "lost_packets: SELECT * FROM dc MATCHING [...]"). A name
/// used twice, explicitly or automatically, is refused with both lines.
Result<std::vector<Query>> ParseWorkloadText(const std::string& text,
                                             EventTypeRegistry* registry);
Result<std::vector<Query>> LoadWorkloadFile(const std::string& path,
                                            EventTypeRegistry* registry);

/// Renders queries back to workload-file text (windows in microseconds).
std::string WorkloadToText(const std::vector<Query>& queries,
                           const EventTypeRegistry& registry);
Status SaveWorkloadFile(const std::string& path,
                        const std::vector<Query>& queries,
                        const EventTypeRegistry& registry);

/// Stream CSV: header "type,ts_us,value,aux", one primitive event per line,
/// sorted by timestamp. Types are registered on load.
Result<EventStream> ParseStreamCsv(const std::string& text,
                                   EventTypeRegistry* registry);
Result<EventStream> LoadStreamCsv(const std::string& path,
                                  EventTypeRegistry* registry);
std::string StreamToCsv(const EventStream& stream,
                        const EventTypeRegistry& registry);
Status SaveStreamCsv(const std::string& path, const EventStream& stream,
                     const EventTypeRegistry& registry);

}  // namespace motto

#endif  // MOTTO_WORKLOAD_IO_H_
