#!/usr/bin/env python3
"""Structural validator for TraceSink's Chrome trace-event JSON.

Loads a trace file (e.g. the nightly ``bench_chaos_goodput
--trace-out`` artifact), and fails unless:

  * every event carries the required fields for its phase and its
    category is one of the known vocabulary (iteration/plan/admission/
    eviction/phase/migration/slo, plus fault/retry from the fault
    layer's crash/drain/straggler/link-failure and backoff-retry
    events);
  * events in the ``plan``, ``admission`` and ``slo`` categories use
    their known name vocabulary, and the SLO-class instants
    (``class_shed``, ``deadline_exceeded``, ``demoted``) each carry a
    ``request`` arg identifying which request was shed/expired/demoted;
  * every ``full_walk`` instant carries a ``reason`` arg naming why
    verbatim plan reuse declined, from core's ``PlanDecline`` names;
  * timestamps are monotonically non-decreasing per (pid, tid) track
    in file order (recording order is simulation order, so any
    decrease means the ring or the export reordered events);
  * "X" events have a non-negative duration;
  * async "b"/"e" events pair up by (cat, id) — every end has a
    matching open begin with ts(e) >= ts(b), and nothing is left open
    at the end of the file (the export synthesizes closes, so an open
    span is an export bug);
  * at least ``--min-categories`` distinct categories appear (the
    end-to-end coverage check: a churny run must exercise most of the
    vocabulary).

Usage:
    ci/validate_trace.py TRACE_JSON [--min-categories N]

Exit status 1 on any violation, 0 otherwise.
"""

import argparse
import json
import sys

KNOWN_CATEGORIES = {
    "iteration",
    "plan",
    "admission",
    "eviction",
    "phase",
    "migration",
    "slo",
    "fault",
    "retry",
}

KNOWN_PHASES = {"i", "X", "b", "e"}

# Name vocabulary for the categories with a pinned schema: a plan
# boundary either reuses the last plan or walks; admission carries
# per-instance admits plus class-aware sheds; slo carries the monitor
# verdicts plus the deadline outcomes.
KNOWN_NAMES_BY_CATEGORY = {
    "plan": {"reuse", "full_walk"},
    "admission": {"admit", "class_shed"},
    "slo": {"ok", "violated", "deadline_exceeded", "demoted"},
}

# Instants that must identify their request in args.
REQUEST_ARG_NAMES = {"class_shed", "deadline_exceeded", "demoted"}

# Instants that must say why plan reuse declined, and the reasons they
# may give (core::planDeclineNames()).
REASON_ARG_NAMES = {"full_walk"}
KNOWN_REASONS = {"none", "inactive", "state_changed", "veto", "budget"}


def fail(errors, message, limit=20):
    if len(errors) < limit:
        errors.append(message)
    elif len(errors) == limit:
        errors.append("... further violations suppressed")


def validate(doc, min_categories):
    errors = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["no 'traceEvents' array — not a Chrome trace"]
    if not events:
        return ["empty 'traceEvents' array"]

    last_ts = {}  # (pid, tid) -> last timestamp seen
    open_spans = {}  # (cat, id) -> list of begin timestamps
    categories = set()

    for i, e in enumerate(events):
        where = f"event {i}"
        for field in ("name", "cat", "ph", "pid", "tid", "ts"):
            if field not in e:
                fail(errors, f"{where}: missing '{field}'")
        cat = e.get("cat")
        ph = e.get("ph")
        ts = e.get("ts")
        if cat not in KNOWN_CATEGORIES:
            fail(errors, f"{where}: unknown category '{cat}'")
        else:
            categories.add(cat)
            known_names = KNOWN_NAMES_BY_CATEGORY.get(cat)
            name = e.get("name")
            if known_names is not None and name not in known_names:
                fail(
                    errors,
                    f"{where}: unknown name '{name}' in category "
                    f"'{cat}' (known: {sorted(known_names)})",
                )
            if name in REQUEST_ARG_NAMES:
                args = e.get("args")
                if not isinstance(args, dict) or not isinstance(
                    args.get("request"), int
                ):
                    fail(
                        errors,
                        f"{where}: '{name}' without an integer "
                        "'request' arg",
                    )
            if name in REASON_ARG_NAMES:
                args = e.get("args")
                reason = args.get("reason") if isinstance(args, dict) else None
                if reason not in KNOWN_REASONS:
                    fail(
                        errors,
                        f"{where}: '{name}' with reason {reason!r} "
                        f"(known: {sorted(KNOWN_REASONS)})",
                    )
        if ph not in KNOWN_PHASES:
            fail(errors, f"{where}: unknown phase '{ph}'")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(errors, f"{where}: bad timestamp {ts!r}")
            continue

        track = (e.get("pid"), e.get("tid"))
        prev = last_ts.get(track)
        if prev is not None and ts < prev:
            fail(
                errors,
                f"{where}: ts {ts} < {prev} on track {track} "
                "(non-monotonic)",
            )
        last_ts[track] = ts

        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(errors, f"{where}: 'X' with bad dur {dur!r}")
        elif ph == "b":
            if "id" not in e:
                fail(errors, f"{where}: 'b' without id")
            else:
                open_spans.setdefault((cat, e["id"]), []).append(ts)
        elif ph == "e":
            key = (cat, e.get("id"))
            stack = open_spans.get(key)
            if not stack:
                fail(errors, f"{where}: 'e' with no open 'b' for {key}")
            else:
                begin_ts = stack.pop()
                if not stack:
                    del open_spans[key]
                if ts < begin_ts:
                    fail(
                        errors,
                        f"{where}: span {key} ends at {ts} before its "
                        f"begin at {begin_ts}",
                    )

    for key, stack in sorted(open_spans.items(), key=str):
        fail(errors, f"span {key} left open ({len(stack)} begin(s))")

    if len(categories) < min_categories:
        fail(
            errors,
            f"only {len(categories)} categories present "
            f"({sorted(categories)}), need >= {min_categories}",
        )

    return errors


def main(argv):
    parser = argparse.ArgumentParser(
        description="Validate TraceSink Chrome trace-event JSON."
    )
    parser.add_argument("trace", help="trace JSON file to validate")
    parser.add_argument(
        "--min-categories",
        type=int,
        default=1,
        help="minimum distinct event categories required (default 1)",
    )
    args = parser.parse_args(argv[1:])

    try:
        with open(args.trace) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{args.trace}: {exc}", file=sys.stderr)
        return 1

    errors = validate(doc, args.min_categories)
    if errors:
        for message in errors:
            print(f"TRACE FAIL {args.trace}: {message}")
        return 1

    events = doc["traceEvents"]
    cats = sorted({e.get("cat") for e in events})
    print(
        f"ok {args.trace}: {len(events)} events, "
        f"{len(cats)} categories ({', '.join(cats)})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
