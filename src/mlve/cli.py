"""Command-line front end.

Subcommands:

  compare        expansion partial sums against the quadrature reference
  verify         run the invariant suites (exit 1 on any failure)
  enumerate      tree / forest / jungle counts, optionally edge lists
  oracle         Z and log Z for one parameter set
  verify-bounds  CSV of the combinatorial inequality margins
  domain-map     grid of the analyticity-domain membership in g
  mayer          polymer-gas expansion versus direct enumeration

All file outputs are UTF-8 CSV with a header row, or JSON with a
schema_version field; at fixed configuration the outputs are
byte-identical across runs.

The parser is built on the first ``main`` call and kept for the rest of
the process; ``main`` looks each subcommand's ``cmd_*`` function up
again on every call, so a caller that rebinds one of them in this module
(a test stub, a tracer) is reached from then on.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import sys
from functools import cache
from itertools import accumulate

SCHEMA_VERSION = 2
# math.exp(x) is finite exactly for x below this
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _fail_usage(message: str) -> "NoReturn":  # noqa: F821 - doc only
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_config(path: str | None) -> dict:
    from . import engine, oracle

    defaults = {
        "lambda": 0.2,
        "M": 2,
        "j_min": 1,
        "j_max": 3,
        "n_max": 3,
        "oracle_nodes": oracle.DEFAULT_NODES,
        "gl_nodes": engine.DEFAULT_GL_NODES,
    }
    if path is None:
        return defaults
    if not os.path.isfile(path):
        _fail_usage(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:  # a file that exists but cannot be read
        _fail_usage(f"cannot read config {path}: {exc.strerror or exc}")
    except ValueError as exc:  # also an integer past Python's digit limit
        _fail_usage(f"config is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        _fail_usage(f"config must be a JSON object, got {type(loaded).__name__}: {loaded!r}")
    unknown = set(loaded) - set(defaults) - {"schema_version"}
    if unknown:
        _fail_usage(f"unknown config keys: {sorted(unknown)}")
    defaults.update(loaded)
    return defaults


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _coupling(value, key: str) -> complex:
    """A JSON setting that is a finite number or [re, im], as a complex."""
    if _is_real(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value)):
        return complex(value[0], value[1])
    _fail_usage(f"{key} must be a finite number or [re, im], got {value!r}")


def _params(cfg):
    from .model_core import ModelParams

    lam = _coupling(cfg["lambda"], "lambda")
    M, j_min, j_max = (_int_setting(cfg, key, lo) for key, lo in (("M", 2), ("j_min", 1), ("j_max", 1)))
    try:
        return ModelParams(lam, M, j_min, j_max)
    except ValueError as exc:
        _fail_usage(str(exc))


def _int_setting(cfg, key: str, lo: int, hi: int | None = None) -> int:
    """cfg[key] as an integer in lo..hi (no upper end when hi is None)."""
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < lo or (hi is not None and value > hi):
        wanted = f"an integer in {lo}..{hi}" if hi is not None else f"an integer >= {lo}"
        _fail_usage(f"{key} must be {wanted}, got {value!r}")
    return value


def _out_path(args) -> None:
    """A usage error when --out, or the nearest part of it that exists, is
    not a directory.  Creates nothing.  The parts are named as pathlib
    names them: a POSIX root, then the components that are neither empty
    nor ".", and "." for none."""
    out = args.out
    root = "//" if out[:2] == "//" and out[2:3] != "/" else "/" if out[:1] == "/" else ""
    names = [name for name in out.split("/") if name not in ("", ".")]
    for end in range(len(names), -1, -1):
        part = root + "/".join(names[:end]) or "."
        if os.path.exists(part):
            if not os.path.isdir(part):
                _fail_usage(f"--out {out}: {part} is not a directory")
            break


def _out_dir(args) -> str:
    """The --out directory, created with its parents if absent."""
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        _fail_usage(f"--out {args.out}: {exc.strerror or exc}")
    return out


def _write_json(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=2) + "\n")


def _write_csv(path: str, header: list, rows) -> None:
    """A header row and then rows, with csv's default CRLF line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _window(params) -> dict:
    """The header that summary.json and oracle.json share."""
    return {
        "schema_version": SCHEMA_VERSION,
        "lambda": [params.lam.real, params.lam.imag],
        "M": params.M,
        "j_min": params.j_min,
        "j_max": params.j_max,
        "cutoff": params.cutoff,
    }


def cmd_compare(args) -> int:
    from . import combinatorics, engine, oracle
    from .errors import QuadratureUnreliableError

    cfg = load_config(args.config)
    params = _params(cfg)
    n_max = _int_setting(cfg, "n_max", 1, combinatorics.JUNGLE_BUDGET)
    # order n over at least n slices admits one Bosonic block on all n
    # vertices with distinct slices, which the engine refuses past BLOCK_BUDGET
    if min(n_max, len(params.slices)) > engine.BLOCK_BUDGET:
        _fail_usage(
            f"n_max must be an integer in 1..{engine.BLOCK_BUDGET} over {len(params.slices)} slices, got {n_max}: "
            f"a higher order reaches Bosonic blocks of more than {engine.BLOCK_BUDGET} vertices"
        )
    gl_nodes = _int_setting(cfg, "gl_nodes", 1, engine.MAX_GL_NODES)
    counts = engine.block_counts(len(params.slices), n_max)
    seconds = engine.block_seconds(counts, gl_nodes)
    if seconds > engine.BLOCK_SECONDS_LIMIT:
        sizes = ", ".join(f"{n} {b}-vertex" for b, n in counts.items())
        _fail_usage(
            f"n_max {n_max} over {len(params.slices)} slices needs {sizes} block integrals, about "
            f"{seconds:.3g} s at {gl_nodes} Gauss-Legendre nodes, past the {engine.BLOCK_SECONDS_LIMIT:g} s limit"
        )
    nodes = _int_setting(cfg, "oracle_nodes", oracle.MIN_NODES, oracle.MAX_NODES)
    _out_path(args)  # a bad --out costs no quadrature; the directory waits for a reference
    try:
        ref = oracle.logz_oracle(params, nodes)
    except (QuadratureUnreliableError, ValueError) as exc:
        _fail_usage(f"no reliable log Z reference at this coupling: {exc}")
    out = _out_dir(args)

    ev = engine.TermEvaluator(params, gl_nodes, n_max)
    orders, trace_rows = [], []
    for n in range(1, n_max + 1):
        total = 0j
        for index, jungle, stabilizer, slices, value in ev.order_terms(n):
            total += value / stabilizer
            if args.trace:
                trace_rows.append(
                    {
                        "n": n,
                        "class": index,
                        "stabilizer": stabilizer,
                        "bosonic": sorted(jungle.bosonic.edges),
                        "fermionic": sorted(jungle.fermionic),
                        "slices": list(slices),
                        "value": [value.real, value.imag],
                    }
                )
        orders.append(total)
    sums = list(accumulate(orders, initial=0j))[1:]
    errors = [abs(s - ref) for s in sums]
    rows = [[n, f"{s.real:.15e}", f"{s.imag:.15e}", f"{err:.15e}"] for n, (s, err) in enumerate(zip(sums, errors), 1)]
    _write_csv(os.path.join(out, "orders.csv"), ["n", "partial_sum_re", "partial_sum_im", "abs_error_vs_oracle"], rows)
    summary = {
        **_window(params),
        "oracle_logz": [ref.real, ref.imag],
        "orders": [[o.real, o.imag] for o in orders],
        "partial_sums": [[s.real, s.imag] for s in sums],
        "abs_errors": errors,
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    if args.trace:
        with open(os.path.join(out, "trace.jsonl"), "w", encoding="utf-8") as fh:
            for rec in trace_rows:
                fh.write(json.dumps(rec) + "\n")
    print(f"log Z oracle = {ref:.12g}")
    for n, (s, err) in enumerate(zip(sums, errors), 1):
        print(f"S_{n} = {s.real:.12g}{s.imag:+.3g}i   |S_{n} - oracle| = {err:.3e}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suites

    names = args.suite or None
    try:
        results = run_suites(names)
    except KeyError as exc:
        _fail_usage(str(exc.args[0]))
    exit_code = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"[{status}] {res.name}")
        for warning in res.warnings:
            print(f"  WARN: {warning}")
        for failure in res.failures:
            print(f"  FAIL: {failure}")
            exit_code = 1
    return exit_code


def cmd_enumerate(args) -> int:
    from . import combinatorics as cb

    n = args.n
    if args.kind == "trees":
        items = cb.enumerate_trees(n)
    elif args.kind == "forests":
        items = cb.enumerate_forests(n)
    else:
        items = cb.enumerate_jungles(n, spanning=args.spanning)
    count = 0
    try:
        for item in items:
            count += 1
            if args.edges:
                if args.kind == "jungles":
                    rec = {
                        "bosonic": sorted(item.bosonic.edges),
                        "fermionic": sorted(item.fermionic),
                    }
                else:
                    rec = {"edges": sorted(item.edges)}
                print(json.dumps(rec))
    except ValueError as exc:  # the generators refuse n < 1 or n past their budget on the first step
        _fail_usage(str(exc))
    print(f"{args.kind} n={n}: {count}")
    return 0


def cmd_oracle(args) -> int:
    from . import oracle
    from .errors import QuadratureUnreliableError

    cfg = load_config(args.config)
    params = _params(cfg)
    nodes = _int_setting(cfg, "oracle_nodes", oracle.MIN_NODES, oracle.MAX_NODES)
    _out_path(args)
    try:
        z, delta, reliable = oracle.z_reliable(params, nodes)
    except ValueError as exc:
        _fail_usage(f"no quadrature Z at this coupling: {exc}")
    out = _out_dir(args)
    try:
        logz = oracle.checked_logz(z, delta, reliable)
    except (QuadratureUnreliableError, ValueError):
        logz = None
    record = {
        **_window(params),
        "nodes": nodes,
        "Z": [z.real, z.imag],
        "node_doubling_delta": delta,
        "reliable": reliable,
        "logZ": None if logz is None else [logz.real, logz.imag],
    }
    _write_json(os.path.join(out, "oracle.json"), record)
    print(json.dumps(record, indent=2))
    return 0 if reliable else 1


def cmd_verify_bounds(args) -> int:
    from . import bounds

    if not (math.isfinite(args.M) and args.M > 1):
        _fail_usage(f"--M must be a finite number > 1, got {args.M!r}")
    if args.q_max < 1:
        _fail_usage(f"--q-max must be >= 1, got {args.q_max}")
    out = _out_dir(args)
    rows = bounds.stirling_chain_check(range(1, args.q_max + 1))
    chain = ([r.q, f"{r.log_lhs:.15e}", f"{r.log_rhs:.15e}", f"{r.margin:.15e}"] for r in rows)
    _write_csv(os.path.join(out, "stirling_chain.csv"), ["q", "log_lhs", "log_rhs", "margin"], chain)
    bad = [r for r in rows if not r.ok]
    thr = bounds.m_threshold_check(args.M, range(1, args.q_max + 1))
    threshold = ([r.q, f"{r.value:.15e}", int(r.ok)] for r in thr)
    _write_csv(os.path.join(out, "m_threshold.csv"), ["q", "value", "ok"], threshold)
    print(f"stirling chain: {len(rows)} rows, {len(bad)} violations")
    for r in thr:
        if not r.ok:
            print(f"WARN m-threshold: q={r.q} value={r.value:.4g} > 1")
    return 1 if bad else 0


def cmd_domain_map(args) -> int:
    from .bounds import borel_domain

    res = args.resolution
    if res < 2:
        _fail_usage(f"--resolution must be >= 2, got {res}")
    for axis in ("re", "im"):
        lo, hi = getattr(args, f"{axis}_min"), getattr(args, f"{axis}_max")
        # the grid is monotone in its index, so its points lie between lo and
        # the last one, and that is not finite when lo or hi is not
        try:
            last = lo + (hi - lo) * (res - 1) / (res - 1)
        except OverflowError:  # a resolution past the float range
            last = math.inf
        if not math.isfinite(last):
            _fail_usage(f"--{axis}-min {lo!r} and --{axis}-max {hi!r} give no finite grid of {res} points")

    def grid(lo, hi):
        return (lo + (hi - lo) * i / (res - 1) for i in range(res))

    path = os.path.join(_out_dir(args), "domain_map.csv")
    points = ((re, im) for re in grid(args.re_min, args.re_max) for im in grid(args.im_min, args.im_max))
    rows = ([f"{re:.17g}", f"{im:.17g}", int(borel_domain(g=complex(re, im)).inside)] for re, im in points)
    _write_csv(path, ["re_g", "im_g", "inside"], rows)
    print(f"domain map: {res * res} points -> {path}")
    return 0


def _monomer_set(value, key: str) -> frozenset:
    """A JSON list of distinct monomers, as a set."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON list, got {value!r}")
    monomers = frozenset(value)
    if len(monomers) != len(value):
        raise ValueError(f"{key} {value!r} lists a monomer twice")
    return monomers


def cmd_mayer(args) -> int:
    from . import mayer

    if args.n_max < 1:
        _fail_usage(f"--n-max must be >= 1, got {args.n_max}")
    if not os.path.isfile(args.gas):
        _fail_usage(f"gas file not found: {args.gas}")
    try:
        with open(args.gas, encoding="utf-8") as fh:
            spec = json.load(fh)
        monomers = _monomer_set(spec["monomers"], "monomers")
        acts = {}
        for entry in spec["activities"]:
            poly = _monomer_set(entry["polymer"], "polymer")
            if poly in acts:
                raise ValueError(f"polymer {entry['polymer']!r} listed twice")
            acts[poly] = _coupling(entry["activity"], f"the activity of polymer {entry['polymer']!r}")
        gas = mayer.PolymerGas(monomers, acts)
    except OSError as exc:  # a file that exists but cannot be read
        _fail_usage(f"cannot read gas file {args.gas}: {exc.strerror or exc}")
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        _fail_usage(f"malformed gas file {args.gas}: {exc!r}")
    try:
        z = mayer.partition_polynomial(gas)
        orders = mayer.log_coefficients(z, args.n_max)
    except ValueError as exc:  # a gas or order past the budgets
        _fail_usage(str(exc))
    direct, total = sum(z), sum(orders)
    # the record compares logarithms: both need a finite, nonzero partition function
    if direct == 0 or not cmath.isfinite(direct):
        _fail_usage(f"Z = {direct}, which has no finite logarithm")
    if not total.real < _LOG_FLOAT_MAX:  # also refuses NaN
        _fail_usage(f"the tree sum {total} through n = {args.n_max} has no finite exponential")
    record = {
        "schema_version": SCHEMA_VERSION,
        "monomers": sorted(monomers),
        "z_direct": [direct.real, direct.imag],
        "log_z_direct": math.log(abs(direct)),
        "orders": [[o.real, o.imag] for o in orders],
        "tree_sum": [total.real, total.imag],
        "abs_error": abs(cmath.rect(math.e**total.real, total.imag) - direct),
    }
    out = _out_dir(args)
    _write_json(os.path.join(out, "mayer.json"), record)
    print(json.dumps(record, indent=2))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: argparse's set-up is
    a large share of a small compare."""
    parser = argparse.ArgumentParser(prog="mlve", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("compare", help="expansion vs oracle")
    common(p)
    p.add_argument("--trace", action="store_true", help="emit per-term JSON lines")

    p = sub.add_parser("verify", help="invariant suites")
    p.add_argument("--suite", action="append", help="run only this suite (repeatable)")

    p = sub.add_parser("enumerate", help="combinatorial counts")
    p.add_argument("--kind", choices=["trees", "forests", "jungles"], default="trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spanning", action="store_true")
    p.add_argument("--edges", action="store_true", help="print edge lists as JSON lines")

    p = sub.add_parser("oracle", help="quadrature Z and log Z")
    common(p)

    p = sub.add_parser("verify-bounds", help="inequality margin tables")
    common(p, config=False)
    p.add_argument("--q-max", type=int, default=1000)
    p.add_argument("--M", type=float, default=1e8)

    p = sub.add_parser("domain-map", help="analyticity domain grid")
    common(p, config=False)
    p.add_argument("--re-min", type=float, default=-0.5)
    p.add_argument("--re-max", type=float, default=1.5)
    p.add_argument("--im-min", type=float, default=-1.0)
    p.add_argument("--im-max", type=float, default=1.0)
    p.add_argument("--resolution", type=int, default=41)

    p = sub.add_parser("mayer", help="polymer gas expansion")
    common(p, config=False)
    p.add_argument("--gas", required=True, help="gas spec JSON file")
    p.add_argument("--n-max", type=int, default=4)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "compare": cmd_compare,
        "verify": cmd_verify,
        "enumerate": cmd_enumerate,
        "oracle": cmd_oracle,
        "verify-bounds": cmd_verify_bounds,
        "domain-map": cmd_domain_map,
        "mayer": cmd_mayer,
    }
    return commands[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
