// Trace (de)serialization in the text exchange format.
//
// Lets external simulators feed traces into memopt and lets long traces be
// captured once and replayed across experiments. Text is the exchange
// format: one access per line, "R|W <hex addr> <size> <cycle> <hex value>".
// It is human-readable and diffable; columns after addr are optional on
// input (defaults: size 4, cycle 0, value 0). '#' starts a comment.
//
// The one binary format is the ".mtsc" block container
// (trace/stream_file.hpp), which also streams, mmaps and checksums. The
// row-wise ".mtrc" format is retired: nothing reads or writes it, and a
// path naming one is an error that says how to convert the file.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace memopt {

class TraceSource;

/// Write `source` in the text format (O(chunk) memory). Resets the source
/// first, so the whole trace is written whatever was read before.
void write_trace_text(std::ostream& os, TraceSource& source);

/// Parse the text format. Throws memopt::Error with a line number on any
/// malformed record.
MemTrace read_trace_text(std::istream& is);

/// Throws memopt::Error if `path` names a retired trace format (".mtrc").
/// The message names ".mtsc" and the command that converts the file.
void reject_retired_trace_format(const std::string& path);

/// Text-format file wrappers. Throw memopt::Error if the file cannot be
/// opened or if `path` names a retired format (reject_retired_trace_format).
/// save_trace publishes crash-safely: a killed run never leaves a truncated
/// file under `path`.
void save_trace(const std::string& path, TraceSource& source);
MemTrace load_trace(const std::string& path);

}  // namespace memopt
