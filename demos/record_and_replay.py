#!/usr/bin/env python3
"""Record a disturbed session, then prove the wire log tells the whole story.

Three steps:

1. Run the breakdown scenario and keep the raw session log: every record
   that crossed the wire, byte for byte.
2. Point a brand new control instance at that log.  It sees exactly what
   the original control saw, in the same order, and must answer with the
   same command bytes.  One byte of drift fails the comparison.
3. Recompute all KPIs from nothing but the log and compare against the
   streaming report, then corrupt the log and watch the audit catch it.
"""

from pathlib import Path

import holobench
from holobench.control import ReferenceControl, load_orders_file
from holobench.harness import run_single
from holobench.interface import encode_record, extract_command_log, iter_records, replay_session
from holobench.kpi import ConservationError, recompute_from_log, reports_match
from holobench.model import load_model_file
from holobench.scenario import load_scenario_file

DATA = Path(holobench.__file__).parent / "data"


def main():
    model = load_model_file(str(DATA / "minicell" / "model.json"))
    orders = load_orders_file(str(DATA / "minicell" / "orders.json"))
    scenario = load_scenario_file(str(DATA / "scenarios" / "ps9.json"))

    print("step 1: record")
    result = run_single(model, orders, scenario, seed=1)
    lines = result.log.count(b"\n")
    print(f"  {result.run_id}: {result.status}, {lines} wire records, "
          f"{len(result.log)} bytes\n")

    print("step 2: replay against a fresh control")
    original = extract_command_log(result.log)
    replayed = replay_session(result.log, ReferenceControl(model))
    print(f"  original command log  {len(original):>6} bytes")
    print(f"  replayed command log  {len(replayed):>6} bytes")
    print(f"  byte-identical: {replayed == original}\n")
    assert replayed == original

    print("step 3: recompute KPIs from the log alone")
    recomputed = recompute_from_log(result.log)
    diffs = reports_match(result.report, recomputed)
    print(f"  streaming makespan {result.report.makespan}, "
          f"recomputed {recomputed.makespan}, differences: {diffs or 'none'}")
    assert diffs == []

    # Now lose one completion record and let conservation notice.
    mutated = bytearray()
    for line, record in iter_records(result.log):
        if record["kind"] == "event-batch":
            events = [e for e in record["body"]["events"]
                      if not (e["kind"] == "order-completed" and e["order"] == "O2")]
            if len(events) != len(record["body"]["events"]):
                record["body"]["events"] = events
                mutated += encode_record(record)
                continue
        mutated += line
    try:
        recompute_from_log(bytes(mutated))
        print("  mutated log slipped through (this should never print)")
    except ConservationError as exc:
        print(f"  mutated log rejected: {exc}")


if __name__ == "__main__":
    main()
