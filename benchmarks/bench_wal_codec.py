"""WAL record codec bakeoff: JSON vs legacy repr vs binary (v2).

The engine hot path stamps a CRC over a canonical encoding of every
appended record and (on the archive/replication path) serializes the
record into a wire frame.  This bench races the three candidate codecs
on both jobs over a realistic record mix -- BEGIN/COMMIT control
records and INSERT/UPDATE data records carrying the sales-schema row
shapes (ints, strings, whole-valued float timestamps):

* **json** -- ``json.dumps`` with sorted keys: readable, but slow and
  *lossy* (tuples decay to lists, bytes unsupported), so decode cannot
  be type-preserving;
* **repr** -- the legacy v1 format: ``repr`` out, ``ast.literal_eval``
  back, type-preserving but not canonical (``1`` vs ``1.0`` and list
  vs tuple checksum differently -- the DR scrubber's false repairs);
* **binary** -- the committed v2 codec: marshal-backed canonical CRC
  payload plus the tagged struct wire frame.

The committed winner is the binary codec; the asserts at the bottom
pin why: CRC stamping at parity with repr on the aggregate append
stream (and ~2x faster on control records), an archive/replication
round-trip several times faster (repr encodes fast via C ``repr()``
but its ``ast.literal_eval`` decode is an order of magnitude slower
than everything else), the smallest frames, and -- the tiebreak that
is really a correctness requirement -- the only *canonical* CRC
payload.  JSON is additionally disqualified on fidelity: composite
(tuple) keys decay to lists and bytes cannot be encoded at all.

Run standalone: ``python benchmarks/bench_wal_codec.py [--quick]``
or under pytest (CI): ``pytest benchmarks/bench_wal_codec.py``.
"""

import argparse
import ast
import json
import sys
import time
import zlib

from repro.core.report import TextTable
from repro.engine.wal import LogKind, LogRecord, record_crc
from repro.engine.walcodec import (
    canonical_payload,
    decode_record,
    encode_record,
    encode_record_legacy,
)

_EPOCH = 1_700_000_000.0


def sample_records(n: int):
    """A realistic append mix: per txn two UPDATEs over the sales row
    shapes and one COMMIT (the T1-T4 OLTP profile)."""
    records = []
    lsn = 1
    for txn_id in range(1, n // 3 + 2):
        prev = 0
        def stamp(kind, table=None, key=None, before=None, after=None):
            nonlocal lsn, prev
            record = LogRecord(
                lsn, txn_id, kind, table, key, before, after, prev,
                record_crc(lsn, txn_id, kind, table, key, before, after, prev),
            )
            prev = 0 if kind in (LogKind.COMMIT, LogKind.ABORT) else lsn
            lsn += 1
            records.append(record)
        order = (txn_id, txn_id % 97, _EPOCH + txn_id, "NEW", 104.5, 99.0)
        stamp(LogKind.UPDATE, "ORDERS", txn_id,
              before=order,
              after=order[:3] + ("PAID", 104.5, _EPOCH + txn_id + 1.0))
        stamp(LogKind.UPDATE, "CUSTOMER", txn_id % 97,
              before=(txn_id % 97, "name-x", 500.0, "GC", _EPOCH),
              after=(txn_id % 97, "name-x", 504.5, "GC", _EPOCH))
        stamp(LogKind.COMMIT)
    return records[:n]


# -- the three contestants ----------------------------------------------------

def json_encode(record):
    return json.dumps(
        [record.lsn, record.txn_id, record.kind.value, record.table,
         record.key, record.before, record.after, record.prev_lsn,
         record.crc],
        separators=(",", ":"),
    ).encode("utf-8")


def json_decode(frame):
    (lsn, txn_id, kind_value, table, key, before,
     after, prev_lsn, crc) = json.loads(frame)
    return LogRecord(
        lsn, txn_id, LogKind(kind_value), table, key,
        tuple(before) if before is not None else None,
        tuple(after) if after is not None else None,
        prev_lsn, crc,
    )


def json_crc_payload(record):
    return json.dumps(
        [record.lsn, record.txn_id, record.kind.value, record.table,
         record.key, record.before, record.after, record.prev_lsn],
        separators=(",", ":"),
    ).encode("utf-8")


def repr_decode(frame):
    fields = ast.literal_eval(frame[1:].decode("utf-8"))
    lsn, txn_id, kind_value, table, key, before, after, prev_lsn, crc = fields
    return LogRecord(lsn, txn_id, LogKind(kind_value), table, key,
                     before, after, prev_lsn, crc)


def repr_crc_payload(record):
    return repr((record.lsn, record.txn_id, record.kind.value, record.table,
                 record.key, record.before, record.after,
                 record.prev_lsn)).encode("utf-8")


def binary_crc_payload(record):
    return canonical_payload(
        record.lsn, record.txn_id, record.kind.value, record.table,
        record.key, record.before, record.after, record.prev_lsn,
    )


CODECS = {
    "json": (json_encode, json_decode, json_crc_payload),
    "repr": (encode_record_legacy, repr_decode, repr_crc_payload),
    "binary": (encode_record, decode_record, binary_crc_payload),
}


def _lap(fn, items):
    start = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - start) / len(items)


def run_bakeoff(quick: bool = False):
    n = 400 if quick else 2000
    repeats = 5 if quick else 8
    records = sample_records(n)
    jobs = {}
    for name, (encode, decode, crc_payload) in CODECS.items():
        frames = [encode(record) for record in records]
        jobs[name] = {
            "encode_ns": (encode, records),
            "decode_ns": (decode, frames),
            "crc_ns": (lambda r, _p=crc_payload: zlib.crc32(_p(r)), records),
        }
    best = {name: {job: float("inf") for job in jobs[name]} for name in jobs}
    # Interleave the repeats round-robin so machine-load drift hits
    # every codec equally instead of whichever ran last.
    for _ in range(repeats):
        for name, per_job in jobs.items():
            for job, (fn, items) in per_job.items():
                best[name][job] = min(best[name][job], _lap(fn, items) * 1e9)
    results = {}
    for name, (encode, _decode, _crc) in CODECS.items():
        frames = [encode(record) for record in records]
        results[name] = dict(
            best[name], bytes=sum(len(f) for f in frames) / len(frames),
        )
    return records, results


def _canonical_checks(records):
    """Which CRC payloads are canonical: equal bytes for value-equal
    records that round-tripped with decayed types (list for tuple,
    float for int)?"""
    import dataclasses

    outcomes = {}
    sample = next(r for r in records if r.kind is LogKind.UPDATE)
    decayed = dataclasses.replace(
        sample,
        key=float(sample.key),
        before=list(sample.before),
        after=list(sample.after),
    )
    for name, (_encode, _decode, crc_payload) in CODECS.items():
        try:
            outcomes[name] = crc_payload(sample) == crc_payload(decayed)
        except TypeError:  # codec cannot even encode the decayed form
            outcomes[name] = False
    return outcomes


def _report(results, canonical) -> TextTable:
    table = TextTable(
        ["codec", "encode ns/rec", "decode ns/rec", "crc ns/rec",
         "bytes/rec", "canonical crc"],
        title="WAL record codec bakeoff (lower is better)",
    )
    for name, row in results.items():
        table.add_row(
            name, round(row["encode_ns"]), round(row["decode_ns"]),
            round(row["crc_ns"]), round(row["bytes"], 1),
            "yes" if canonical[name] else "no",
        )
    return table


def _check(results, canonical) -> None:
    # The committed codec must win the jobs the engine actually pays
    # for: CRC stamping (every append) and the archive/replication
    # round-trip (encode + decode).  On CRC the stream-aggregate race
    # vs repr is a dead heat (C-level repr() is hard to beat on tiny
    # rows; binary wins the control records ~2x) -- a 25% band keeps
    # machine noise from flaking CI, and canonicality is the tiebreak.
    assert results["binary"]["crc_ns"] < results["json"]["crc_ns"], \
        "binary CRC payload slower than JSON"
    assert results["binary"]["crc_ns"] < results["repr"]["crc_ns"] * 1.25, \
        "binary CRC payload materially slower than legacy repr"
    assert results["binary"]["encode_ns"] < results["json"]["encode_ns"], \
        "binary wire encode slower than JSON"
    binary_rt = results["binary"]["encode_ns"] + results["binary"]["decode_ns"]
    repr_rt = results["repr"]["encode_ns"] + results["repr"]["decode_ns"]
    assert binary_rt < repr_rt, "binary round-trip slower than legacy repr"
    assert results["binary"]["bytes"] < results["json"]["bytes"]
    assert results["binary"]["bytes"] < results["repr"]["bytes"]
    # JSON's remaining edge (decode speed) does not matter because it is
    # disqualified on fidelity: a composite key round-trips as a list.
    composite = LogRecord(
        1, 2, LogKind.INSERT, "T", (1, "k"), None, (1, "k", None), 0, 0,
    )
    assert json_decode(json_encode(composite)).key != composite.key, \
        "JSON unexpectedly preserved tuple keys -- revisit the bakeoff"
    assert decode_record(encode_record(composite)).key == composite.key
    # and it is the only canonical one -- the correctness half of the
    # bakeoff (the repr CRC's false scrubber repairs)
    assert canonical["binary"], "binary CRC payload must be canonical"
    assert not canonical["repr"], "repr CRC was never canonical"
    # decoded frames must round-trip losslessly for the committed codec
    record = sample_records(8)[1]
    decoded = decode_record(encode_record(record))
    assert decoded == record, "binary round-trip must be lossless"


def test_wal_codec_bakeoff(benchmark):
    records, results = benchmark.pedantic(
        lambda: run_bakeoff(quick=True), rounds=1, iterations=1
    )
    canonical = _canonical_checks(records)
    _report(results, canonical).print()
    for name, row in results.items():
        benchmark.extra_info[f"{name}_encode_ns"] = round(row["encode_ns"], 1)
        benchmark.extra_info[f"{name}_crc_ns"] = round(row["crc_ns"], 1)
    _check(results, canonical)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizing (400 records)"
    )
    args = parser.parse_args(argv)
    records, results = run_bakeoff(quick=args.quick)
    canonical = _canonical_checks(records)
    _report(results, canonical).print()
    try:
        _check(results, canonical)
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    rt = lambda name: results[name]["encode_ns"] + results[name]["decode_ns"]  # noqa: E731
    print(
        f"winner: binary (crc {results['repr']['crc_ns'] / results['binary']['crc_ns']:.1f}x "
        f"faster than legacy repr; round-trip {rt('repr') / rt('binary'):.1f}x faster)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
