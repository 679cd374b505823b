"""Command line front end.

Subcommands: run a suite, compare artifacts, validate a document.  Exit
codes: 0 on success, 1 on failure, 2 on usage errors, such as an unknown
HOLOBENCH_LOG.  That variable (quiet, info, debug) controls logging
verbosity only; it never changes what a run computes.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import harness
from .control import OrderBookError, load_orders
from .model import MODEL_KEYS, ModelError, load_model
from .scenario import CategoryRegistry, ScenarioError, load_scenario_doc

log = logging.getLogger("holobench")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> bool:
    """Set the package log level from HOLOBENCH_LOG, unset or empty meaning quiet."""
    value = os.environ.get("HOLOBENCH_LOG") or "quiet"
    level = _LOG_LEVELS.get(value.lower())
    if level is None:
        print(f"error: HOLOBENCH_LOG must be one of {', '.join(_LOG_LEVELS)}, not {value!r}",
              file=sys.stderr)
        return False
    # The level goes on the package logger: basicConfig does nothing when the
    # root logger already has a handler, as in an embedding application.
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    logging.getLogger("holobench").setLevel(level)
    return True


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError("seeds must be a comma-separated list of integers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holobench",
        description="Deterministic benchmarking of holonic manufacturing control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark suite")
    p_run.add_argument("suite", help="path to the suite document")
    p_run.add_argument("--out", default="bench-out", help="artifact directory")
    p_run.add_argument("--seeds", type=_parse_seeds, default=None, help="override seeds, e.g. 1,2,3")
    p_run.add_argument("--cap", type=int, default=None, help="override the tick cap")
    p_run.add_argument("--force", action="store_true", help="overwrite existing artifacts")

    p_cmp = sub.add_parser("compare", help="recompute the comparison for an artifact directory")
    p_cmp.add_argument("dir", help="artifact directory holding manifest.json")

    p_val = sub.add_parser("validate", help="validate a model, scenario, order book, or suite document")
    p_val.add_argument("file", help="path to the JSON document")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        suite = harness.load_suite(args.suite)
        if args.seeds is not None and not args.seeds:
            print("error: --seeds must name at least one seed", file=sys.stderr)
            return EXIT_USAGE
        if args.cap is not None and args.cap <= 0:
            print("error: --cap must be positive", file=sys.stderr)
            return EXIT_USAGE
        log.info("running suite %s into %s", suite.id, args.out)
        os.makedirs(args.out, exist_ok=True)
        manifest = harness.run_suite(
            suite, args.out, seeds=args.seeds, cap=args.cap, force=args.force
        )
    except (harness.SuiteError, harness.ArtifactError, ModelError, ScenarioError,
            OrderBookError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    bad = [r["run_id"] for r in manifest["runs"] if r["status"] != "completed"]
    with open(os.path.join(args.out, "summary.txt"), encoding="utf-8") as f:
        print(f.read(), end="")
    try:
        print(f"artifact digest: {harness.artifact_digest(args.out)}")
    except harness.ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if bad:
        print(f"error: {len(bad)} run(s) did not complete: {', '.join(bad)}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        summary = harness.compare(args.dir)
    except (harness.ArtifactError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(summary, end="")
    return EXIT_OK


def _sniff_kind(doc: object) -> str:
    if isinstance(doc, dict):
        if set(doc) == MODEL_KEYS:
            return "model"
        if "scenarios" in doc and "seeds" in doc:
            return "suite"
        if "orders" in doc and "rules" not in doc:
            return "orders"
        if "rules" in doc or "id" in doc:
            return "scenario"
    return "unknown"


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        with open(args.file, encoding="utf-8") as f:
            text = f.read()
        doc = json.loads(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except json.JSONDecodeError as exc:
        print(f"error: {args.file} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    kind = _sniff_kind(doc)
    try:
        if kind == "model":
            model = load_model(text)
            print(f"OK: model, hash {model.model_hash}")
        elif kind == "scenario":
            scenario = load_scenario_doc(doc)
            harness.check_categories([scenario], CategoryRegistry.load())
            cat = scenario.category or "baseline"
            print(f"OK: scenario {scenario.id} [{cat}], {len(scenario.rules)} rule(s)")
        elif kind == "orders":
            orders = load_orders(text)
            print(f"OK: order book, {len(orders)} order(s)")
        elif kind == "suite":
            suite = harness.load_suite(args.file)
            harness.check_categories(suite.load_scenarios(), CategoryRegistry.load())
            print(
                f"OK: suite {suite.id}, {len(suite.scenario_paths)} scenario(s) x "
                f"{len(suite.seeds)} seed(s)"
            )
        else:
            print(f"error: {args.file} is not a recognized document", file=sys.stderr)
            return EXIT_FAILURE
    except (ModelError, ScenarioError, OrderBookError, harness.SuiteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if not _setup_logging():
        return EXIT_USAGE
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
