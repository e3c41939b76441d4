/**
 * @file
 * Binary trace file format (".xbt").
 *
 * Layout (little endian):
 *   magic  'X','B','T','2'
 *   u32    name length, bytes (at most kMaxTraceNameLen)
 *   u64    instruction count
 *   per instruction: u64 ip, u8 len, u8 uops, u8 cls, i32 takenIdx,
 *                    i32 behaviorId
 *   u64    record count
 *   per record: i32 staticIdx, u8 taken
 *   u32    CRC-32 (zlib's) of every byte before it
 *
 * Behaviors are not serialized: a written trace replays exactly, it
 * is not re-executable. Both directions make one pass through one
 * kTraceBufBytes buffer, never one fread/fwrite per field.
 *
 * readTraceEx() validates everything before constructing the Trace:
 * the magic, the name/instruction/record counts against the file
 * size, each instruction's length (1..15), uop count (1..16), class
 * and takenIdx range, IP uniqueness, each record's staticIdx range
 * and taken flag, no bytes between the records and the trailer, and
 * last the CRC, which catches a flipped byte that still parses. A
 * malformed file therefore yields a Status with the offending byte
 * offset, never UB, an abort or silently wrong records.
 */

#ifndef XBS_TRACE_TRACE_IO_HH
#define XBS_TRACE_TRACE_IO_HH

#include <string>

#include "common/status.hh"
#include "trace/trace.hh"

namespace xbs
{

/** Format limit on the serialized trace name. The field is a u32,
 *  but no legitimate name approaches this; enforcing a tight cap
 *  turns a corrupt length into an early structured error. */
constexpr std::size_t kMaxTraceNameLen = 4096;

/** Size of the one buffer a trace read or write streams through. */
constexpr std::size_t kTraceBufBytes = std::size_t(1) << 20;

/** Write @p trace to @p path; returns an error Status (with file and
 *  byte-offset context) on I/O failure, flush and close included, or
 *  a name exceeding the format's field width — nothing is silently
 *  truncated/wrapped. */
Status writeTraceEx(const Trace &trace, const std::string &path);

/** Read and fully validate a trace file written by writeTraceEx(). */
Expected<Trace> readTraceEx(const std::string &path);

} // namespace xbs

#endif // XBS_TRACE_TRACE_IO_HH
