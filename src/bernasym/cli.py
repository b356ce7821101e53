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
    parser.add_argument("--height", type=int, help="height bound (table, strata poset)")
    parser.add_argument("--theta", type=int_list, help='coweight "n1,n2,...", vertex 0 first (trace, strata local)')
    parser.add_argument("--levi", type=int_list, help='Levi vertices "i,j,..." (strata local, strata poset)')
    parser.add_argument("--divisor", help='colored divisor "x:1,0;y:2,1" (divisor)')
    parser.add_argument("--method", choices=[*TRACE_ROUTES, "all"], help="default kostant (trace)")
    parser.add_argument("--format", dest="fmt", choices=dict.fromkeys(f for *_, out in COMMANDS.values() for f in out))
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--verify", action=argparse.BooleanOptionalAction, help="on unless --no-verify (table)")
    parser.add_argument("--genus", type=int, help="curve genus for normalization metadata (table)")
    parser.add_argument("command", choices=dict.fromkeys(name.partition(" ")[0] for name in COMMANDS))
    parser.add_argument("kind", nargs="?", choices=STRATA_KINDS, help="strata flavor (strata command only)")
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


def _table(args: argparse.Namespace, rs: RootSystem):
    return build_asymp_table(rs, args.height, verify=args.verify is not False, genus=args.genus)


#: trace's ``--method`` routes ``(rs, theta) -> trace``, reading their functions as ``cli`` globals at call time
TRACE_ROUTES = {
    "kostant": lambda rs, theta: trace_kostant_sum(rs, theta),
    "series": lambda rs, theta: trace_from_series(gk_product_series(rs, sum(theta), box=theta), rs, theta),
    "oracle": lambda rs, theta: trace_grothendieck_oracle(rs, theta),
}


def _trace(args: argparse.Namespace, rs: RootSystem) -> dict:
    theta = rs.check_positive_coweight(args.theta)
    method = args.method or "kostant"
    values = {name: route(rs, theta) for name, route in TRACE_ROUTES.items() if method in (name, "all")}
    if method == "all":
        VerificationError.check(theta, **values)
    return {"theta": list(theta), "method": method, "traces": values}


def _divisor(args: argparse.Namespace, rs: RootSystem) -> dict:
    divisor = parse_divisor(args.divisor, rs.rank)
    return {"divisor": divisor.points, "trace": divisor_trace(rs, divisor)}


def _parabolic(args: argparse.Namespace, rs: RootSystem) -> list:
    return enumerate_parabolic_strata(rs)


def _local(args: argparse.Namespace, rs: RootSystem) -> list:
    p = ParabolicType(args.levi or ())
    if args.theta is None and p.quotient_rank(rs):  # () is theta when every vertex is in the Levi
        raise ValueError("strata local needs --theta")
    return enumerate_local_strata(rs, p, args.theta or ())


def _poset(args: argparse.Namespace, rs: RootSystem):
    return defect_poset(rs, ParabolicType(args.levi or ()), args.height)


#: each command, or strata kind: (the function computing its result, the flags it reads besides --type, --rank,
#: --cartan, --config, --format and --out, the first required (strata local's --theta unless every vertex is in the
#: Levi), its renderers {format: result -> text}, the default first). Names are looked up at call time, so a
#: replaced ``cli`` global or method (as the traced benchmark pass makes) is the one that runs.
COMMANDS = {
    "table": (_table, ("height", "verify", "genus"), {"json": lambda table: _json_text(table.to_json_obj()),
                                                      "csv": lambda table: table.to_csv_text(),
                                                      "text": lambda table: table.to_text()}),
    "trace": (_trace, ("theta", "method"), {
        "text": lambda result: "".join(f"{poly}\n" for poly in result["traces"].values()),
        "json": lambda result: _json_text({**result, "traces": {k: v.to_pairs() for k, v in result["traces"].items()}}),
    }),
    "strata parabolic": (_parabolic, (), {
        "json": lambda strata: _json_text(parabolic_strata_to_json(strata)),
        "text": lambda strata: "".join(f"I_M={list(s.levi_vertices)} c_P={s.canonical_point}\n" for s in strata),
    }),
    "strata local": (_local, ("theta", "levi"), {
        "json": lambda strata: _json_text(local_strata_to_json(strata)),
        "text": lambda strata: "".join(f"{s.parts[0]} + {s.parts[1]} + {s.parts[2]}\n" for s in strata),
    }),
    "strata poset": (_poset, ("height", "levi"), {"dot": lambda poset: poset.to_dot(),
                                                  "json": lambda poset: _json_text(defect_poset_to_json(poset))}),
    "divisor": (_divisor, ("divisor",), {
        "text": lambda result: f"{result['trace']}\n",
        "json": lambda result: _json_text({**result, "trace": result["trace"].to_pairs()}),  # pairs dump as lists
    }),
}
#: the strata command's kinds, in table order
STRATA_KINDS = [name.partition(" ")[2] for name in COMMANDS if " " in name]


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
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        name = " ".join(filter(None, (args.command, args.kind)))
        if name not in COMMANDS:
            raise ValueError(f"{args.command} takes no positional kind argument" if args.kind
                             else f"strata needs a kind: {', '.join(STRATA_KINDS[:-1])}, or {STRATA_KINDS[-1]}")
        compute, flags, renderers = COMMANDS[name]
        for flag in dict.fromkeys(f for _, read, _ in COMMANDS.values() for f in read):
            if getattr(args, flag) is not None and flag not in flags:
                raise ValueError(f"{name} does not read --{flag}")
        if flags and name != "strata local" and getattr(args, flags[0]) is None:
            raise ValueError(f"{name} needs --{flags[0]}")
        fmt = args.fmt or next(iter(renderers))
        if fmt not in renderers:
            raise ValueError(f"{name} supports --format {'|'.join(renderers)}")
        rs = _root_system(args)
        cache_dir = os.environ.get(CACHE_ENV_VAR)
        cache_file = os.path.join(cache_dir, CACHE_FILE_NAME) if cache_dir else None
        if cache_file:
            try:
                os.makedirs(cache_dir, exist_ok=True)
                count_cache_load(cache_file)
            except (OSError, ValueError):
                pass  # a missing or stale cache, or an unusable cache directory, must never break a run
        text = renderers[fmt](compute(args, rs))
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
