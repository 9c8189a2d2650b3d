"""Command-line surface: solving, generation, search, treewidth, Table checks.

Every subcommand prints a single JSON object (canonical key order) unless
--human is given; a file that cannot be read or written is {"error": "io"}
with exit 2.  PERCOP_STATE_BUDGET in the environment overrides the
solver's state-count cap.  verify-table renders the rows that
`search.verify_table` checks and exits 3 if any row hit the state budget,
else 2 if any row failed or misses its witness, else 0.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from . import solver as _solver
from .constructions import GENERATORS, circulant_123
from .corners import find_k_temporal_corners
from .graphs import LimitError
from .instancefile import InstanceError, dump_json, parse, serialize_specimen
from .periodic import footprint, is_temporally_connected
from .search import (
    get_spec,
    load_witness_certificate,
    search as run_search,
    spec_from_dict,
    verify_table,
)
from .treewidth import bag_strategy, exact_treewidth, smooth


def _load_instance(path):
    return parse(Path(path).read_bytes())


def _emit(args, obj, human_lines=None):
    if args.human and human_lines is not None:
        print("\n".join(human_lines))
    else:
        sys.stdout.write(dump_json(obj))


def cmd_solve(args):
    pg, meta = _load_instance(args.file)
    # no cop number comes back only when --max-cops stopped the ascent
    copnum, result = _solver.solve_cop_number(pg, max_cops=args.max_cops)
    out = {
        "file": str(args.file),
        "n": pg.n,
        "period": pg.period,
        "temporally_connected": is_temporally_connected(pg),
        "cop_number": copnum,
        "searched_up_to": args.max_cops if copnum is None else copnum,
        "initial_placement": list(result.initial_placement) if result else None,
    }
    if meta["expected"] and "copnum" in meta["expected"]:
        out["expected_copnum"] = meta["expected"]["copnum"]
        out["expected_match"] = meta["expected"]["copnum"] == copnum
    if args.trace and result is not None:
        trace = _solver.extract_trace(result)
        Path(args.trace).write_text(dump_json(trace))
        out["trace_written_to"] = str(args.trace)
    _emit(args, out, [
        "cop number: %s (n=%d, p=%d)" % (copnum, pg.n, pg.period),
        "initial placement: %s" % (out["initial_placement"],),
    ])
    return 0


def cmd_triple(args):
    pg, meta = _load_instance(args.file)
    tr = _solver.triple(pg)
    out = {"file": str(args.file)}
    out.update(tr.as_dict())
    if meta["expected"]:
        out["expected"] = meta["expected"]
        out["expected_match"] = all(
            meta["expected"].get(k) in (None, v)
            for k, v in tr.as_dict().items()
            if k != "min_snapshot_copnum"
        )
    _emit(args, out, [
        "(a,b,c) = (%d,%d,%d), min snapshot %d"
        % (tr.footprint_copnum, tr.max_snapshot_copnum, tr.copnum,
           tr.min_snapshot_copnum)
    ])
    return 0


def cmd_corners(args):
    pg, _meta = _load_instance(args.file)
    ws = find_k_temporal_corners(pg, args.k)
    out = {
        "file": str(args.file),
        "k": args.k,
        "count": len(ws),
        "witnesses": [w.as_dict() for w in ws],
    }
    _emit(args, out, ["%d %d-temporal corner(s)" % (len(ws), args.k)] + [
        "  t=%d corner=%d covers=%s" % (w.t, w.corner_vertex, list(w.covers))
        for w in ws[:20]
    ])
    return 0


def cmd_generate(args):
    name = args.name
    if name == "circulant_123":
        if args.steps is not None:
            steps = [int(x) for x in args.steps.split(",")]
        else:
            steps = load_witness_certificate(name)["params"]["steps"]
        specimen = circulant_123(steps)
    elif name in GENERATORS:
        if args.steps is not None:
            raise ValueError("--steps applies to circulant_123 only, not %r" % name)
        specimen = GENERATORS[name]()
    else:
        known = sorted(GENERATORS) + ["circulant_123"]
        raise ValueError("unknown construction %r; known: %s" % (name, known))
    text = serialize_specimen(specimen)
    out = {
        "name": specimen.name,
        "n": specimen.instance.n,
        "period": specimen.instance.period,
        "provenance": specimen.provenance,
        "expected_triple": list(specimen.expected_triple),
    }
    if args.out:
        Path(args.out).write_text(text)
        out["written_to"] = str(args.out)
        _emit(args, out, ["wrote %s to %s" % (name, args.out)])
    else:
        sys.stdout.write(text)
    return 0


def cmd_search(args):
    if Path(args.spec).is_file():
        import json

        try:
            obj = json.loads(Path(args.spec).read_text())
        except RecursionError as e:
            raise ValueError("spec file: JSON nested too deeply") from e
        spec = spec_from_dict(obj)
    else:
        spec = get_spec(args.spec)
    # rebuilt through the dataclass, so the overrides are checked like the file
    overrides = {"seed": args.seed, "budget_seconds": args.budget}
    spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    outcome = run_search(spec)
    out = outcome.as_dict()
    if outcome.witness is not None and args.out:
        Path(args.out).write_text(serialize_specimen(outcome.witness))
        out["witness_written_to"] = str(args.out)
    _emit(args, out, [
        "search %s: %s after %d candidates" % (spec.name, outcome.status,
                                               outcome.tried)
    ])
    return 0 if outcome.status == "found" else 1


def cmd_treewidth(args):
    pg, _meta = _load_instance(args.file)
    foot = footprint(pg)
    width, td = exact_treewidth(foot)
    out = {"file": str(args.file), "n": foot.n, "treewidth": width}
    out.update(td.as_dict())
    _emit(args, out, ["treewidth %d with %d bags" % (width, len(td.bags))])
    return 0


def cmd_tw_bound(args):
    pg, _meta = _load_instance(args.file)
    foot = footprint(pg)
    width, td = exact_treewidth(foot)
    # the bag strategy refuses an instance it cannot play before any solve
    policy = bag_strategy(pg, smooth(td, foot))
    copnum = _solver.cop_number(pg)
    verdict = _solver.verify_policy(pg, policy)
    out = {
        "file": str(args.file),
        "treewidth": width,
        "bound": width + 1,
        "cop_number": copnum,
        "bound_holds": copnum <= width + 1,
        "bag_strategy_wins": verdict.wins,
        "bag_strategy_max_capture_moves": verdict.max_capture_moves,
    }
    _emit(args, out, [
        "cop number %d <= treewidth+1 = %d: %s; bag strategy wins: %s"
        % (copnum, width + 1, out["bound_holds"], verdict.wins)
    ])
    return 0


def cmd_verify_table(args):
    rows = verify_table(skip_search=args.skip_search_rows)
    counts = dict(Counter(r["status"] for r in rows))
    if "budget-error" in counts:
        exit_code = 3
    elif "FAIL" in counts or "missing-witness" in counts:
        exit_code = 2
    else:
        exit_code = 0
    out = {"rows": rows, "summary": counts, "exit_code": exit_code}
    human = ["a b c  status        source"]
    for r in rows:
        human.append(
            "%d %d %d  %-13s %s%s"
            % (
                r["a"], r["b"], r["c"], r["status"], r["source"],
                "  computed=%s" % (r.get("computed"),) if "computed" in r else "",
            )
        )
    human.append("summary: %s" % counts)
    _emit(args, out, human)
    return exit_code


def build_parser():
    ap = argparse.ArgumentParser(
        prog="percop",
        description="Cops and Robber on periodic temporal graphs: exact "
        "solving, instance generation, reconstruction search, bounds.",
    )
    ap.add_argument("--human", action="store_true", help="tabular output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="cop number of an instance file")
    p.add_argument("file")
    p.add_argument("--max-cops", type=int, default=None)
    p.add_argument("--trace", default=None, help="write a capture trace here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("triple", help="footprint/max-snapshot/periodic cop numbers")
    p.add_argument("file")
    p.set_defaults(func=cmd_triple)

    p = sub.add_parser("corners", help="k-temporal corner report")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_corners)

    p = sub.add_parser("generate", help="emit a named construction")
    p.add_argument("name")
    p.add_argument("--out", default=None)
    p.add_argument("--steps", default=None, help="circulant strides, comma separated")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("search", help="property-directed reconstruction")
    p.add_argument("--spec", required=True, help="named spec or JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=float, default=None, help="seconds")
    p.add_argument("--out", default=None, help="write found witness here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("treewidth", help="exact treewidth of the footprint")
    p.add_argument("file")
    p.set_defaults(func=cmd_treewidth)

    p = sub.add_parser("tw-bound", help="treewidth+1 bound and bag strategy check")
    p.add_argument("file")
    p.set_defaults(func=cmd_tw_bound)

    p = sub.add_parser("verify-table", help="check the summary table rows")
    p.add_argument("--skip-search-rows", action="store_true")
    p.set_defaults(func=cmd_verify_table)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InstanceError as e:
        sys.stdout.write(dump_json({"error": e.code, "detail": str(e)}))
        return 2
    except OSError as e:
        # a file that cannot be read or written, such as a missing instance
        sys.stdout.write(dump_json({"error": "io", "detail": str(e)}))
        return 2
    except _solver.BudgetError as e:
        sys.stdout.write(dump_json({"error": "budget", "detail": str(e)}))
        return 3
    except LimitError as e:
        sys.stdout.write(dump_json({"error": "invalid", "detail": str(e)}))
        return 3
    except ValueError as e:
        # contract violations from the library (malformed arguments)
        sys.stdout.write(dump_json({"error": "invalid", "detail": str(e)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
