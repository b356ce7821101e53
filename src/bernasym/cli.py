"""Command-line front end.

Exit codes: 0 success, 2 refused input (any ValueError: from the arguments, a config or
Cartan file, a library check, or an --out path open() refuses), 3 identity-verification failure.
Vertices are 0-based everywhere (``--levi "0,2"``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys

from .asymptotics import (
    VerificationError,
    build_asymp_table,
    divisor_trace,
    gk_product_series,
    parse_divisor,
    trace_from_series,
    trace_grothendieck_oracle,
    trace_kostant_sum,
)
from .cartan import (
    ParabolicType,
    RootSystem,
    RootSystemSpec,
    build_root_system,
)
from .kostant import count_cache_load, count_cache_save
from .strata import (
    defect_poset,
    defect_poset_to_json,
    enumerate_local_strata,
    enumerate_parabolic_strata,
    local_strata_to_json,
    parabolic_strata_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3

CACHE_ENV_VAR = "BERNASYM_CACHE_DIR"
CACHE_FILE_NAME = "kostant_counts.json"

#: config spellings of ``verify=``, mapped to the flag they stand for
VERIFY_FLAGS = {
    **dict.fromkeys(("1", "true", "yes", "on"), "--verify"),
    **dict.fromkeys(("0", "false", "no", "off"), "--no-verify"),
}

#: the flag that each command, or strata kind, cannot run without; the library checks its value
REQUIRED_FLAGS = {"table": "height", "trace": "theta", "divisor": "divisor", "poset": "height"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


def int_list(text: str) -> tuple[int, ...]:
    """A comma-separated integer list; empty text is the empty tuple."""
    return tuple(int(tok) for tok in text.split(",")) if text.strip() else ()


def build_parser() -> _Parser:
    parser = _Parser(prog="bernasym", description=__doc__, add_help=True, allow_abbrev=False)
    parser.add_argument("--type", dest="series", help="series letter A..G")
    parser.add_argument("--rank", type=int, help="rank of the series")
    parser.add_argument("--cartan", metavar="FILE", help="JSON file with a Cartan matrix as a list of rows")
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    parser.add_argument("--height", type=int, help="height bound for tables, series, posets")
    parser.add_argument("--theta", type=int_list, help='coweight coordinates "n1,n2,..." (0-based vertices)')
    parser.add_argument("--levi", type=int_list, help='Levi vertices "i,j,..." (strata commands only)')
    parser.add_argument("--divisor", help='colored divisor "x:1,0;y:2,1"')
    parser.add_argument("--method", choices=["kostant", "series", "oracle", "all"], default="kostant")
    parser.add_argument("--format", dest="fmt", choices=["json", "csv", "text", "dot"], default=None)
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--verify", action=argparse.BooleanOptionalAction, default=True)
    parser.add_argument("--genus", type=int, default=None, help="curve genus for normalization metadata")
    parser.add_argument("command", choices=["table", "trace", "strata", "divisor"])
    parser.add_argument("kind", nargs="?", choices=["parabolic", "local", "poset"],
                        help="strata flavor (strata command only)")
    parser.set_defaults(label=None)
    return parser


def parse_key_values(text: str) -> dict[str, str]:
    """Parse `key=value` tokens, several per line, spaces allowed around `=`; `#` starts a comment line.

    A value cannot contain whitespace or `=`; later keys override earlier ones.
    """
    fields: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        for token in re.sub(r"\s*=\s*", "=", line).split():
            key, sep, value = token.partition("=")
            if not sep or not key or "=" in value:
                raise ValueError(f"expected key=value tokens, got {token!r}")
            fields[key] = value
    return fields


def _config_flag(key: str, value: str) -> str:
    if key == "config":  # argparse would read it as --config, and argv's --config wins
        raise ValueError(f"config field {key}={value}: a config file cannot name another config file")
    if key != "verify":
        return f"--{key}={value}"
    if value.lower() not in VERIFY_FLAGS:
        raise ValueError(f"config field verify={value}: expected one of {', '.join(VERIFY_FLAGS)}")
    return VERIFY_FLAGS[value.lower()]


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv, reading each ``--config`` field ``key=value`` as the flag ``--key=value``.

    The fields go before argv, so flags on the command line override them.
    ``label`` names the root system, from ``--type``/``--rank`` or ``--cartan``, and has no flag.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            fields = parse_key_values(fh.read())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config file {args.config!r}: {exc}") from exc
    parser.set_defaults(label=fields.pop("label", None))
    return parser.parse_args([_config_flag(key, value) for key, value in fields.items()] + argv)


def _root_system(args: argparse.Namespace) -> RootSystem:
    matrix = None
    if args.cartan is not None:
        try:
            with open(args.cartan, encoding="utf-8") as fh:
                matrix = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read Cartan matrix file {args.cartan!r}: {exc}") from exc
        if matrix is None:
            raise ValueError(f"Cartan matrix file {args.cartan!r} holds null, expected a list of rows")
    return build_root_system(RootSystemSpec(series=args.series, rank=args.rank, cartan=matrix, label=args.label))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# Each command returns its renderers, {format: () -> text}, default format first.


def _cmd_table(args: argparse.Namespace, rs: RootSystem) -> dict:
    table = build_asymp_table(rs, args.height, verify=args.verify, genus=args.genus)
    return {
        "json": lambda: _json_text(table.to_json_obj()),
        "csv": table.to_csv_text,
        "text": table.to_text,
    }


def _cmd_trace(args: argparse.Namespace, rs: RootSystem) -> dict:
    theta = rs.check_positive_coweight(args.theta)
    routes = {
        "kostant": lambda: trace_kostant_sum(rs, theta),
        "series": lambda: trace_from_series(gk_product_series(rs, sum(theta), box=theta), rs, theta),
        "oracle": lambda: trace_grothendieck_oracle(rs, theta),
    }
    values = {name: route() for name, route in routes.items() if args.method in (name, "all")}
    if args.method == "all":
        VerificationError.check(theta, **values)
    traces = {name: poly.to_pairs() for name, poly in values.items()}
    return {
        "text": lambda: "".join(f"{poly}\n" for poly in values.values()),
        "json": lambda: _json_text({"theta": list(theta), "method": args.method, "traces": traces}),
    }


def _cmd_divisor(args: argparse.Namespace, rs: RootSystem) -> dict:
    divisor = parse_divisor(args.divisor, rs.rank)
    poly = divisor_trace(rs, divisor)
    return {
        "text": lambda: f"{poly}\n",
        "json": lambda: _json_text({"divisor": divisor.points, "trace": poly.to_pairs()}),  # pairs dump as lists
    }


def _cmd_strata(args: argparse.Namespace, rs: RootSystem) -> dict:
    if args.kind is None:
        raise ValueError("strata needs a kind: parabolic, local, or poset")
    p = ParabolicType(args.levi or ())
    p.validate(rs)

    if args.kind == "parabolic":
        strata = enumerate_parabolic_strata(rs)
        return {
            "json": lambda: _json_text(parabolic_strata_to_json(strata)),
            "text": lambda: "".join(f"I_M={list(s.levi_vertices)} c_P={s.canonical_point}\n" for s in strata),
        }

    if args.kind == "local":
        if args.theta is None and rs.rank > len(p.levi_vertices):  # () is theta when every vertex is in the Levi
            raise ValueError("strata local needs --theta")
        strata = enumerate_local_strata(rs, p, args.theta or ())
        return {
            "json": lambda: _json_text(local_strata_to_json(strata)),
            "text": lambda: "".join(f"{s.parts[0]} + {s.parts[1]} + {s.parts[2]}\n" for s in strata),
        }

    poset = defect_poset(rs, p, args.height)
    return {"dot": poset.to_dot, "json": lambda: _json_text(defect_poset_to_json(poset))}


def _write_stdout(text: str) -> None:
    """Write and flush ``text``; on failure, point stdout at the null device and re-raise.

    A failed flush leaves the bytes buffered, and the interpreter's own flush
    at exit would fail on them again (exit status 120).
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def main(argv: list[str] | None = None) -> int:
    commands = {"table": _cmd_table, "trace": _cmd_trace, "divisor": _cmd_divisor, "strata": _cmd_strata}
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        if args.command != "strata" and args.kind is not None:
            raise ValueError(f"{args.command} takes no positional kind argument")
        if args.command != "strata" and args.levi:
            raise ValueError("only strata commands accept --levi")
        name = " ".join(filter(None, (args.command, args.kind)))
        flag = REQUIRED_FLAGS.get(args.kind or args.command)
        if flag and getattr(args, flag) is None:
            raise ValueError(f"{name} needs --{flag}")
        rs = _root_system(args)
        cache_dir = os.environ.get(CACHE_ENV_VAR)
        cache_file = os.path.join(cache_dir, CACHE_FILE_NAME) if cache_dir else None
        if cache_file:
            try:
                os.makedirs(cache_dir, exist_ok=True)
                count_cache_load(cache_file)
            except (OSError, ValueError):
                pass  # a missing or stale cache, or an unusable cache directory, must never break a run
        renderers = commands[args.command](args, rs)
        fmt = args.fmt or next(iter(renderers))
        if fmt not in renderers:
            raise ValueError(f"{name} supports --format {'|'.join(renderers)}")
        text = renderers[fmt]()
        try:
            if args.out is None:
                _write_stdout(text)
            else:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
        except (OSError, ValueError) as exc:  # open() refuses a path with a NUL byte by ValueError
            where = "to stdout" if args.out is None else f"output file {args.out!r}"
            raise ValueError(f"cannot write {where}: {exc}") from exc
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except VerificationError as exc:
        sys.stderr.write(json.dumps(exc.report()) + "\n")
        return EXIT_VERIFY

    if cache_file:
        try:
            count_cache_save(cache_file)
        except OSError:
            pass
    return EXIT_OK


def run() -> None:
    """Process entry (``python -m bernasym.cli``, the ``bernasym`` script): ``main()``, then exit.

    Freezing the heap first lets the exit-time collections skip it; ``main`` has flushed its output."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
