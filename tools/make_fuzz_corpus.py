#!/usr/bin/env python3
"""Regenerate the seed + regression corpus under fuzz/corpus/.

One subdirectory per harness (frame/, classify/, predictions/, stats/,
error/, model/, serialize/ — matching fuzz/fuzz_<name>.cpp and the driver
table in tests/fuzz_replay_test.cpp). Seeds cover the happy path of every
decoder plus the regression inputs for the hand-found PR 8 wire bugs:
overflowing n*c*h*w dimension products, wrapping count prefixes, oversized
length prefixes, and truncation at every interesting boundary.

Deterministic: running it twice produces byte-identical files. Run from the
repo root after changing the wire format:

    python3 tools/make_fuzz_corpus.py
"""
import os
import struct

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fuzz", "corpus")

MAGIC = 0x544E4C42
VERSION = 2

OP_CLASSIFY = 0x01
OP_CLASSIFY_BATCH = 0x02
OP_STATS = 0x03
OP_PING = 0x04
OP_CLASSIFY_RESP = 0x81
OP_CLASSIFY_BATCH_RESP = 0x82
OP_STATS_RESP = 0x83
OP_PONG = 0x84
OP_ERROR = 0xFF


def u8(v): return struct.pack("<B", v)
def u16(v): return struct.pack("<H", v)
def u32(v): return struct.pack("<I", v)
def u64(v): return struct.pack("<Q", v)
def i64(v): return struct.pack("<q", v)
def f32(v): return struct.pack("<f", v)
def f64(v): return struct.pack("<d", v)
def wstr(s): return u16(len(s)) + s.encode()


def build_frame(opcode, payload, **kw):
    return (u32(kw.get("magic", MAGIC)) + u8(kw.get("version", VERSION)) + u8(opcode) +
            u16(kw.get("reserved", 0)) + u32(kw.get("request_id", 7)) +
            u32(kw.get("length", len(payload))) + payload)


def classify_payload(variant=b"base", max_batch=0, batch=None, c=3, h=4, w=4, pixels=None):
    body = wstr(variant.decode() if isinstance(variant, bytes) else variant) + u32(max_batch)
    n = 1
    if batch is not None:
        body += u32(batch)
        n = batch
    body += u16(c) + u16(h) + u16(w)
    if pixels is None:
        pixels = b"".join(f32(0.25 * i) for i in range(n * c * h * w))
    return body + pixels


def predictions_payload(batch=None, preds=1, k=3):
    body = b"" if batch is None else u32(batch)
    count = preds if batch is None else batch
    for i in range(count):
        body += u32(i % 43) + f32(0.9) + u32(k) + b"".join(f32(0.1 * j) for j in range(k))
    return body


def error_payload(code=2, message="queue full: request shed"):
    return u16(code) + wstr(message)


def stats_payload(variants=1, connections=1):
    body = b"".join(i64(v) for v in range(14))
    body += u32(variants)
    for i in range(variants):
        body += wstr(f"variant{i}") + b"".join(i64(j) for j in range(7))
        body += b"".join(f64(1.5 * j) for j in range(4))
    body += u32(connections)
    for i in range(connections):
        body += u64(i + 1) + b"".join(i64(j) for j in range(5))
    return body


def model_checkpoint(count=2, truncate=None, dims_len=None, data_len=None):
    body = u32(0x544E4C42) + u32(1) + u32(count)
    params = [("conv1.weight", [2, 3, 3, 3]), ("fc.bias", [4])]
    for name, dims in params[:count]:
        body += u32(len(name)) + name.encode()
        d = dims_len if dims_len is not None else len(dims)
        body += i64(d) + b"".join(i64(x) for x in dims)
        numel = 1
        for x in dims:
            numel *= x
        n = data_len if data_len is not None else numel
        body += i64(n) + b"".join(f32(0.01 * i) for i in range(numel))
        dims_len = data_len = None  # only distort the first record
    return body if truncate is None else body[:truncate]


def write(sub, name, data):
    path = os.path.join(ROOT, sub)
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, name), "wb") as f:
        f.write(data)


def main():
    # ---- frame/: framing-layer seeds (full frames, header attacks) ----------
    write("frame", "ping", build_frame(OP_PING, b""))
    write("frame", "classify_valid", build_frame(OP_CLASSIFY, classify_payload()))
    write("frame", "classify_batch_valid",
          build_frame(OP_CLASSIFY_BATCH, classify_payload(batch=2)))
    write("frame", "stats_response", build_frame(OP_STATS_RESP, stats_payload()))
    write("frame", "error_response", build_frame(OP_ERROR, error_payload()))
    write("frame", "two_frames", build_frame(OP_PING, b"") + build_frame(OP_STATS, b""))
    write("frame", "bad_magic", build_frame(OP_PING, b"", magic=0xDEADBEEF))
    write("frame", "bad_version", build_frame(OP_PING, b"", version=9))
    write("frame", "reserved_nonzero", build_frame(OP_PING, b"", reserved=1))
    write("frame", "unknown_opcode", build_frame(0x55, b""))
    # PR 8 regression: a length prefix far past max_frame_bytes must be
    # rejected at the header, never buffered.
    write("frame", "oversized_length", build_frame(OP_CLASSIFY, b"", length=0xFFFFFFFF))
    # PR 8 regression: truncation mid-header and mid-payload.
    whole = build_frame(OP_CLASSIFY, classify_payload())
    write("frame", "truncated_mid_header", whole[:9])
    write("frame", "truncated_mid_payload", whole[: 16 + 5])

    # ---- classify/: payload decoder (1 leading batch-flag byte) -------------
    write("classify", "single_valid", u8(0) + classify_payload())
    write("classify", "batch_valid", u8(1) + classify_payload(batch=2))
    write("classify", "zero_dim", u8(0) + classify_payload(c=0, pixels=b""))
    # PR 8 regression: n*c*h*w products that overflow int64 / wrap to match
    # the payload size must be rejected before any Tensor allocation.
    write("classify", "overflow_dims",
          u8(1) + wstr("base") + u32(0) + u32(0xFFFFFFFF) + u16(0xFFFF) + u16(0xFFFF) +
          u16(0xFFFF) + b"\x00" * 64)
    write("classify", "wrapping_count",
          u8(1) + wstr("base") + u32(0) + u32(0x40000000) + u16(2) + u16(2) + u16(2) +
          b"\x00" * 32)
    write("classify", "truncated_pixels", u8(0) + classify_payload()[:-7])
    write("classify", "trailing_garbage", u8(0) + classify_payload() + b"\xAA")
    write("classify", "huge_variant_name", u8(0) + u16(0xFFFF) + b"v" * 40)

    # ---- predictions/: payload decoder (1 leading batch-flag byte) ----------
    write("predictions", "single_valid", u8(0) + predictions_payload())
    write("predictions", "batch_valid", u8(1) + predictions_payload(batch=3))
    # PR 8 regression: wrapping count prefixes (count * 12 wraps a u32) must
    # be bounded against the payload bytes before reserve().
    write("predictions", "hostile_count", u8(1) + u32(0xFFFFFFFF) + b"\x00" * 16)
    write("predictions", "hostile_logit_count",
          u8(0) + u32(1) + f32(0.5) + u32(0x40000001) + b"\x00" * 8)
    write("predictions", "truncated", u8(1) + predictions_payload(batch=2)[:-3])

    # ---- stats/ -------------------------------------------------------------
    write("stats", "valid", stats_payload())
    write("stats", "empty_counts", stats_payload(variants=0, connections=0))
    write("stats", "hostile_variant_count",
          stats_payload(variants=0, connections=0)[:-8] + u32(0xFFFFFFFF) + u32(0))
    write("stats", "hostile_connection_count",
          stats_payload(variants=0, connections=0)[:-4] + u32(0xFFFFFFFF))
    write("stats", "truncated", stats_payload()[:-9])

    # ---- error/ -------------------------------------------------------------
    write("error", "overload", error_payload(code=2))
    write("error", "invalid_request", error_payload(code=1, message="bad shape"))
    write("error", "unknown_code", error_payload(code=99))
    write("error", "truncated", error_payload()[:-4])
    write("error", "empty", b"")

    # ---- model/: checkpoint reader ------------------------------------------
    write("model", "valid", model_checkpoint())
    write("model", "bad_magic", u32(0x12345678) + model_checkpoint()[4:])
    write("model", "bad_version", model_checkpoint()[:4] + u32(9) + model_checkpoint()[8:])
    write("model", "truncated", model_checkpoint(truncate=30))
    # Hostile counts: a count prefix promising far more records/elements than
    # the file holds must fail cleanly before allocation.
    write("model", "hostile_record_count", u32(0x544E4C42) + u32(1) + u32(0xFFFFFFFF))
    write("model", "hostile_dims_count", model_checkpoint(count=1, dims_len=2**60))
    write("model", "hostile_data_count", model_checkpoint(count=1, data_len=2**60))
    write("model", "negative_count", model_checkpoint(count=1, dims_len=-1))

    # ---- serialize/: BinaryReader op tape -----------------------------------
    write("serialize", "ops_mixed",
          u32(0) + u32(5) + u32(1) + i64(-3) + u32(3) + u32(4) + b"abcd" +
          u32(4) + i64(2) + f32(1.0) + f32(2.0) + u32(5) + i64(1) + i64(9))
    write("serialize", "hostile_string_len", u32(3) + u32(0xFFFFFFFF) + b"x")
    write("serialize", "hostile_array_len", u32(4) + i64(2**61) + b"\x00" * 8)
    write("serialize", "negative_array_len", u32(5) + i64(-5))
    write("serialize", "truncated_scalar", u32(1) + b"\x01\x02")
    write("serialize", "empty", b"")

    total = 0
    for sub in sorted(os.listdir(ROOT)):
        n = len(os.listdir(os.path.join(ROOT, sub)))
        total += n
        print(f"  {sub}/: {n} seeds")
    print(f"{total} corpus files under {os.path.normpath(ROOT)}")


if __name__ == "__main__":
    main()
