#!/usr/bin/env python3
"""Convert a flight-recorder JSONL dump to Chrome tracing format.

The flight recorder (src/obs/flight_recorder.h) is the one place the server
retains requests, and it exports them as JSONL — one self-contained object
per line with the completion metadata (row-cap fields included) and the
trace's spans inline. This script turns that into the Chrome tracing /
Perfetto JSON event format, so a tail-latency investigation is one drag-and-
drop away from a timeline:

    ./build/examples/statusz 200 --flight-jsonl=/tmp/flight.jsonl
    scripts/trace_to_chrome.py /tmp/flight.jsonl > /tmp/flight_trace.json
    # open https://ui.perfetto.dev (or chrome://tracing) and load the file

    scripts/trace_to_chrome.py --self-test   # convert embedded sample lines
                                             # and check the timeline shape

Layout: each retained trace becomes one "process" (pid = rank by latency,
slowest first, so the worst request sorts to the top of the timeline), named
after the query, outcome, and end-to-end latency. Spans become complete
("ph": "X") events at their recorded start/duration; a span-less shell (a
retained cache hit — the hit path allocates no spans by design) still gets
one synthetic event covering its full latency so it is visible on the
timeline. A row-capped entry's plan, output rows, and execution time ride
on its request bar. Stdlib only; reads a path or stdin.
"""

import argparse
import json
import sys

# Stable tid per stage so every trace lays out its stages in the same
# vertical order (request-level bar on top, then the pipeline stages).
STAGE_TIDS = {
    "request": 0,
    "fingerprint": 1,
    "cache_lookup": 2,
    "coalesce_wait": 3,
    "queue_wait": 4,
    "beam_search": 5,
    "inference": 6,
    "admit": 7,
    "exec_scan": 8,
    "exec_join": 9,
    "reanalyze": 10,
}


def load_traces(stream):
    traces = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            traces.append(json.loads(line))
        except json.JSONDecodeError as err:
            print(f"warning: line {lineno} is not JSON ({err}); skipped",
                  file=sys.stderr)
    return traces


def convert(traces):
    # Slowest first: pid order is how chrome://tracing sorts processes.
    traces = sorted(traces, key=lambda t: -float(t.get("latency_us", 0)))
    events = []
    for pid, trace in enumerate(traces, start=1):
        latency = float(trace.get("latency_us", 0))
        name = "{} [{}] {:.0f}us #{}".format(
            trace.get("query", "?"), trace.get("outcome", "?"), latency,
            trace.get("trace_id", 0))
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
        flags = []
        if trace.get("error"):
            flags.append("error")
        if trace.get("capped"):
            flags.append("row-capped")
        # One request-level bar spanning the whole latency, so span-less
        # shells (retained hits) are still visible and spanned traces show
        # their instrumented share against the end-to-end time.
        events.append({
            "ph": "X", "pid": pid, "tid": STAGE_TIDS["request"],
            "ts": 0.0, "dur": latency,
            "name": "request ({})".format(trace.get("reason", "?")),
            "cat": trace.get("outcome", "?"),
            "args": {
                "trace_id": trace.get("trace_id", 0),
                "fingerprint": trace.get("fingerprint", ""),
                "completion_index": trace.get("completion_index", 0),
                "stats_version": trace.get("stats_version", 0),
                "data_epoch": trace.get("data_epoch", 0),
                "flags": ",".join(flags) or "none",
                **({"plan": trace.get("plan", ""),
                    "rows_out": trace.get("rows_out", 0),
                    "exec_us": trace.get("exec_us", 0)}
                   if trace.get("capped") else {}),
            },
        })
        for span in trace.get("spans", []):
            stage = span.get("stage", "?")
            events.append({
                "ph": "X", "pid": pid,
                "tid": STAGE_TIDS.get(stage, len(STAGE_TIDS)),
                "ts": float(span.get("start_us", 0)),
                "dur": float(span.get("dur_us", 0)),
                "name": stage, "cat": stage,
            })
        for stage, tid in STAGE_TIDS.items():
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": stage},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# One line of each kind the store exports (TraceStore::RetainedJson), out of
# latency order: a cache hit retained as a span-less shell, a row-capped
# request promoted after execution, and a miss with its planning spans.
SELF_TEST_LINES = [
    '{"trace_id":9223372036854775810,"latency_us":3.2,"outcome":"hit",'
    '"reason":"reservoir","fingerprint":"00000000000000aa","query":"q1",'
    '"error":false,"capped":false,"completion_index":7,"stats_version":1,'
    '"data_epoch":4,"plan":"","rows_out":0,"exec_us":0.0,"spans":[]}',
    '{"trace_id":128,"latency_us":40.5,"outcome":"hit","reason":"outcome",'
    '"fingerprint":"00000000000000bb","query":"star4","error":false,'
    '"capped":true,"completion_index":0,"stats_version":1,"data_epoch":4,'
    '"plan":"HashJoin(SeqScan(s), SeqScan(c))","rows_out":8,'
    '"exec_us":310.0,"spans":[{"stage":"fingerprint","start_us":0.5,'
    '"dur_us":1.5},{"stage":"exec_scan","start_us":60.0,"dur_us":90.0}]}',
    '{"trace_id":9223372036854775809,"latency_us":850.0,"outcome":"miss",'
    '"reason":"top_k","fingerprint":"00000000000000cc","query":"q2",'
    '"error":false,"capped":false,"completion_index":3,"stats_version":1,'
    '"data_epoch":4,"plan":"","rows_out":0,"exec_us":0.0,"spans":['
    '{"stage":"queue_wait","start_us":2.0,"dur_us":10.0},'
    '{"stage":"beam_search","start_us":12.0,"dur_us":800.0},'
    '{"stage":"inference","start_us":20.0,"dur_us":300.0}]}',
]


def run_self_test():
    """Converts SELF_TEST_LINES and checks the timeline's shape."""
    traces = load_traces(SELF_TEST_LINES)
    events = convert(traces)["traceEvents"]
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    check(len(traces) == 3, "all three embedded lines parse")
    names = {e["pid"]: e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    ordered = [names[pid] for pid in sorted(names)]
    check([n.split(" ")[0] for n in ordered] == ["q2", "star4", "q1"],
          "processes ordered slowest first, got {}".format(ordered))
    for pid, trace in enumerate(
            sorted(traces, key=lambda t: -t["latency_us"]), start=1):
        bars = [e for e in events if e["pid"] == pid and e["ph"] == "X"
                and e["tid"] == STAGE_TIDS["request"]]
        check(len(bars) == 1,
              "pid {}: one request bar, got {}".format(pid, len(bars)))
        check(bars and bars[0]["dur"] == trace["latency_us"],
              "pid {}: request bar spans the latency".format(pid))
        spans = [e for e in events if e["pid"] == pid and e["ph"] == "X"
                 and e["tid"] != STAGE_TIDS["request"]]
        check([e["name"] for e in spans]
              == [s["stage"] for s in trace["spans"]],
              "pid {}: one event per span".format(pid))
        args = bars[0]["args"] if bars else {}
        if trace["capped"]:
            check(args.get("flags") == "row-capped"
                  and args.get("rows_out") == 8
                  and args.get("plan", "").startswith("HashJoin("),
                  "pid {}: row-cap fields on the request bar".format(pid))
        else:
            check("plan" not in args,
                  "pid {}: no row-cap fields on an uncapped bar".format(pid))
    json.dumps(events)  # the document must serialize

    for what in failures:
        print("self-test FAILED: " + what, file=sys.stderr)
    if not failures:
        print("self-test passed: {} traces, {} events".format(
            len(traces), len(events)))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="flight-recorder JSONL -> Chrome tracing JSON")
    parser.add_argument("jsonl", nargs="?", default="-",
                        help="flight JSONL dump (default: stdin)")
    parser.add_argument("-o", "--output", default="-",
                        help="output path (default: stdout)")
    parser.add_argument("--self-test", action="store_true",
                        help="convert embedded sample lines, check the "
                             "timeline shape, and exit")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(run_self_test())

    if args.jsonl == "-":
        traces = load_traces(sys.stdin)
    else:
        with open(args.jsonl, encoding="utf-8") as f:
            traces = load_traces(f)
    if not traces:
        print("warning: no traces in input; writing an empty timeline",
              file=sys.stderr)

    document = convert(traces)
    if args.output == "-":
        json.dump(document, sys.stdout)
        sys.stdout.write("\n")
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(document, f)
            f.write("\n")
        print(f"wrote {len(document['traceEvents'])} events "
              f"({len(traces)} traces) to {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
