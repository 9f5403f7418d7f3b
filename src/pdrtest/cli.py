"""Command-line front end: ``test``, ``dim``, and ``simulate`` subcommands.

Exit status reflects operation, not the statistical decision: 0 means the
command ran (whether or not the null was rejected), 2 means an I/O
problem, 3 a data or configuration problem, 4 a numerical failure or
memory running out.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys

import numpy as np

from .dataset import BOSTON_SCHEMA, Dataset, Schema, boston_path, load_csv, prepare_boston
from .errors import DataError, SingularityError
from .lackfit import run_test
from .sdr import estimate_basis
from .simulate import RENDERERS, power_experiment, read_experiment_spec

EXIT_OK = 0
EXIT_IO = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _columns(arg: str | None) -> tuple[str, ...]:
    if not arg:
        return ()
    return tuple(c.strip() for c in arg.split(",") if c.strip())


def _resolve_seed(arg: int | None) -> int:
    # a fresh seed is generated (and printed) when none is supplied, so
    # every run can be reproduced from its own report
    return secrets.randbelow(2**63) if arg is None else arg


def _load_dataset(args) -> tuple[Dataset, dict]:
    """The dataset the flags name, and its report's ``config``."""
    if args.preset == "boston":
        given = [f"--{name}" for name in ("y", "x", "w") if getattr(args, name)]
        if given:
            raise DataError(f"--preset boston sets its own columns; remove {', '.join(given)}")
        path = args.data or boston_path()
        ds = prepare_boston(load_csv(path, BOSTON_SCHEMA))
    else:
        if not args.data:
            raise DataError("--data is required (or use --preset boston)")
        if not args.y or not args.x:
            raise DataError("--y and --x are required without a preset")
        schema = Schema(y=args.y, x=_columns(args.x), w=_columns(args.w))
        path = args.data
        ds = load_csv(path, schema)
    if ds.dropped_rows:
        print(f"note: {ds.dropped_rows} row(s) dropped (missing or non-numeric cells)",
              file=sys.stderr)
    return ds, _config(args, ds, str(path))


def _config(args, ds: Dataset, path: str) -> dict:
    """Where the data came from: the values of a report that no record holds."""
    names = ds.column_names
    return {
        "command": args.command,
        "data": path,
        "preset": args.preset,
        "y": names.y,
        "x": list(names.x),
        "w": list(names.w),
        "n": ds.n,
        "dropped_rows": ds.dropped_rows,
    }


def _render(record: dict, fmt: str) -> str:
    """The record as indented JSON, or as text: one aligned
    ``key = <JSON value>`` line per key.  Both list the keys in sorted order."""
    if fmt == "json":
        return json.dumps(record, sort_keys=True, indent=2) + "\n"
    width = max(map(len, record))
    return "".join(
        f"{key:<{width}} = {json.dumps(record[key], sort_keys=True)}\n" for key in sorted(record)
    )


def _write(text: str, out: str | None) -> None:
    """Send a command's rendered output to the file ``out``, or to stdout
    when there is none: the one place the package writes output."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def cmd_test(args) -> int:
    ds, config = _load_dataset(args)
    seed = _resolve_seed(args.seed)
    report = run_test(
        ds, args.family, m=args.mc_reps, c_n=args.cn, seed=seed, alpha=args.alpha
    )
    _write(_render({**report.to_record(), "config": config}, args.format), args.out)
    return EXIT_OK


def cmd_dim(args) -> int:
    ds, config = _load_dataset(args)
    record = estimate_basis(ds, args.cn).to_record()
    _write(_render({**record, "config": config}, args.format), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = read_experiment_spec(args.spec)
    table = power_experiment(
        spec.designs(), spec.reps, spec.mc_reps, spec.alpha, spec.seed,
        workers=args.workers,
    )
    out = args.out or spec.out
    _write(RENDERERS[args.format](table), out)
    if out:
        print(f"wrote {len(table.rows)} row(s) to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdrtest",
        description="Lack-of-fit testing for partially parametric single-index models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--data", help="CSV file with a header row")
        p.add_argument("--preset", choices=["boston"],
                       help="use a built-in preparation pipeline (bundled data when --data is omitted)")
        p.add_argument("--y", help="response column")
        p.add_argument("--x", help="comma-separated index covariate columns")
        p.add_argument("--w", help="comma-separated plain covariate columns", default="")
        p.add_argument("--cn", type=float, default=None,
                       help="ridge constant for the dimension decision (default log(n)/n)")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=["text", "json"], default="text")

    p_test = sub.add_parser("test", help="run the lack-of-fit test on a dataset")
    add_data_flags(p_test)
    p_test.add_argument("--family", default="linear",
                        help="hypothesized mean family (default: linear)")
    p_test.add_argument("--mc-reps", type=int, default=2000,
                        help="Monte Carlo replicates (default 2000)")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--seed", type=int, default=None,
                        help="RNG seed; generated and printed when omitted")
    p_test.set_defaults(func=cmd_test)

    p_dim = sub.add_parser("dim", help="estimate directions and structural dimension")
    add_data_flags(p_dim)
    p_dim.set_defaults(func=cmd_dim)

    p_sim = sub.add_parser("simulate", help="run a size/power experiment from a spec file")
    p_sim.add_argument("--spec", required=True, help="experiment specification file")
    p_sim.add_argument("--out", help="output path (overrides 'out' from the experiment file)")
    p_sim.add_argument("--format", choices=list(RENDERERS), default="csv")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        # numpy's message names the array it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # DataError (every refused setting or input) and any other ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
