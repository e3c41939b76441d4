#!/usr/bin/env python3
"""Generate the malformed-trace corpus (*.xbt files).

Re-run after changing the trace format in src/trace/trace_io.cc
(layout documented in trace_io.hh):

    File   := magic="XBT2"  u32 nameLen  name
              u64 instCount  Inst*  u64 recordCount  Record*
              u32 crc32(every byte before it)
    Inst   := u64 ip  u8 len  u8 uops  u8 cls  i32 takenIdx
              i32 behaviorId
    Record := i32 staticIdx  u8 taken

valid_min.xbt must parse; every other file must be rejected by
readTraceEx with a Status naming its defect and carrying a byte
offset, as test_trace_io_corrupt.cc asserts. Each defective body is
sealed with a correct trailer, so the defect named in its file name is
the only one. CRC32 is the reflected 0xEDB88320 polynomial, i.e.
zlib.crc32.
"""

import pathlib
import struct
import zlib

NO_TARGET = -1
NO_BEHAVIOR = -1
SEQ, COND = 0, 1


def inst(ip, length=1, uops=1, cls=SEQ, taken_idx=NO_TARGET,
         behavior_id=NO_BEHAVIOR):
    return struct.pack("<QBBBii", ip, length, uops, cls, taken_idx,
                       behavior_id)


def record(static_idx, taken=0):
    return struct.pack("<iB", static_idx, taken)


def body(name, insts, records, magic=b"XBT2", num_records=None):
    if num_records is None:
        num_records = len(records)
    return (magic + struct.pack("<I", len(name)) + name
            + struct.pack("<Q", len(insts)) + b"".join(insts)
            + struct.pack("<Q", num_records) + b"".join(records))


def seal(data):
    return data + struct.pack("<I", zlib.crc32(data) & 0xFFFFFFFF)


def main():
    out = pathlib.Path(__file__).resolve().parent

    def write(file, data):
        (out / file).write_bytes(data)

    # A seq instruction falling through to a branch back to it.
    mini_insts = [inst(0x1000),
                  inst(0x1001, cls=COND, taken_idx=0)]
    mini_records = [record(0), record(1, taken=1)]
    mini = body(b"mini", mini_insts, mini_records)
    valid = seal(mini)
    write("valid_min.xbt", valid)

    # The same trace in the retired unsealed XBT1 format.
    write("xbt1.xbt", body(b"mini", mini_insts, mini_records,
                           magic=b"XBT1"))

    # Cut inside the magic: too short to hold a header or a trailer.
    write("empty.xbt", b"")
    write("trunc_header.xbt", b"XB")
    write("bad_magic.xbt", seal(b"XBT9" + bytes(16)))

    # Name and count fields that promise more than the file holds.
    write("trunc_name.xbt",
          seal(b"XBT2" + struct.pack("<I", 100) + b"abcde"))
    write("huge_name.xbt",
          seal(b"XBT2" + struct.pack("<I", 5000) + b"x" * 64))
    write("oversized_inst_count.xbt",
          seal(b"XBT2" + struct.pack("<I", 1) + b"t"
               + struct.pack("<Q", 1 << 40)))
    write("trunc_records.xbt",
          seal(body(b"t", [inst(0x1000, cls=COND, taken_idx=0)],
                    [record(0)], num_records=50)))

    # One bad field in an otherwise well-formed instruction table.
    write("bad_inst_class.xbt", seal(body(b"t", [inst(0x1000, cls=99)],
                                          [])))
    write("zero_uops.xbt", seal(body(b"t", [inst(0x1000, uops=0)], [])))
    write("wide_uops.xbt", seal(body(b"t", [inst(0x1000, uops=5)], [])))
    write("bad_taken_idx.xbt",
          seal(body(b"t", [inst(0x1000, cls=COND, taken_idx=5)], [])))
    write("dup_ip.xbt",
          seal(body(b"t", [inst(0x1000), inst(0x1000)], [])))
    write("descending_ip.xbt",
          seal(body(b"t", [inst(0x1001), inst(0x1000)], [])))

    # One bad field in the record section.
    one_branch = [inst(0x1000, cls=COND, taken_idx=0)]
    write("bad_record_idx.xbt",
          seal(body(b"t", one_branch, [record(7)])))
    write("bad_taken_flag.xbt",
          seal(body(b"t", one_branch, [record(0, taken=2)])))

    # Bytes between the record section and the trailer.
    write("trailing_bytes.xbt", seal(mini + b"JUNK"))

    # A structurally valid file whose body no longer matches its
    # trailer: record 0's staticIdx flipped from 0 to 1, still in
    # range, so only the checksum can catch it.
    flipped = bytearray(valid)
    flipped[len(mini) - 2 * 5] ^= 0x01
    write("bad_checksum.xbt", bytes(flipped))

    # The trailer cut short.
    write("trunc_trailer.xbt", valid[:-2])


if __name__ == "__main__":
    main()
