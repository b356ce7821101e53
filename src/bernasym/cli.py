"""Command-line front end.

Exit codes: 0 success, 2 usage/config error, 3 identity-verification failure.
Vertices are 0-based everywhere (``--levi "0,2"``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .asymptotics import (
    KostantCountError,
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
    parse_key_values,
    parse_spec_text,
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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="bernasym", description=__doc__, add_help=True)
    parser.add_argument("--type", dest="series", help="series letter A..G")
    parser.add_argument("--rank", type=int, help="rank of the series")
    parser.add_argument("--cartan", metavar="FILE", help="JSON file with a row-major Cartan matrix")
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    parser.add_argument("--height", type=int, help="height bound for tables, series, posets")
    parser.add_argument("--theta", help='coweight coordinates "n1,n2,..." (0-based vertices)')
    parser.add_argument("--levi", help='Levi vertices "i,j,..." (strata commands only)')
    parser.add_argument("--divisor", help='colored divisor "x:1,0;y:2,1"')
    parser.add_argument("--method", choices=["kostant", "series", "oracle", "all"], default=None)
    parser.add_argument("--format", dest="fmt", choices=["json", "csv", "text", "dot"], default=None)
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--verify", action=argparse.BooleanOptionalAction, default=None)
    parser.add_argument("--genus", type=int, default=None, help="curve genus for normalization metadata")
    parser.add_argument("command", choices=["table", "trace", "strata", "divisor"])
    parser.add_argument("kind", nargs="?", choices=["parabolic", "local", "poset"],
                        help="strata flavor (strata command only)")
    return parser


@dataclass
class RunConfig:
    command: str
    kind: str | None
    spec: RootSystemSpec
    height: int | None
    theta: tuple[int, ...] | None
    levi: tuple[int, ...] | None
    divisor: str | None
    method: str
    fmt: str | None
    out: str | None
    verify: bool
    genus: int | None


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from exc


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_key_values(fh.read())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_fields = _read_config_file(args.config) if args.config else {}

    def pick(flag_value, key: str):
        if flag_value is not None:
            return flag_value
        return file_fields.get(key)

    series = pick(args.series, "type")
    rank = pick(args.rank, "rank")
    cartan_path = pick(args.cartan, "cartan")
    height = pick(args.height, "height")
    theta_text = pick(args.theta, "theta")
    levi_text = pick(args.levi, "levi")
    divisor_text = pick(args.divisor, "divisor")
    method = pick(args.method, "method") or "kostant"
    fmt = pick(args.fmt, "format")
    out = pick(args.out, "out")
    genus = pick(args.genus, "genus")
    verify = args.verify
    if verify is None and "verify" in file_fields:
        verify = file_fields["verify"].lower() in ("1", "true", "yes", "on")

    try:
        if cartan_path is not None:
            if series is not None or rank is not None:
                raise UsageError("give either --type/--rank or --cartan, not both")
            try:
                with open(cartan_path, encoding="utf-8") as fh:
                    spec = parse_spec_text(fh.read())
            except OSError as exc:
                raise UsageError(f"cannot read Cartan matrix file {cartan_path}: {exc}") from exc
        else:
            if series is None or rank is None:
                raise UsageError("a root system is required: --type and --rank, or --cartan FILE")
            spec = RootSystemSpec(series=str(series), rank=int(rank), label=file_fields.get("label"))
        height = int(height) if height is not None else None
        genus = int(genus) if genus is not None else None
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    if method not in ("kostant", "series", "oracle", "all"):
        raise UsageError(f"unknown method {method!r}")
    if fmt is not None and fmt not in ("json", "csv", "text", "dot"):
        raise UsageError(f"unknown format {fmt!r}")
    if args.command != "strata" and args.kind is not None:
        raise UsageError(f"{args.command} takes no positional kind argument")
    levi = _parse_int_list(levi_text) if levi_text is not None else None
    if args.command != "strata" and levi:
        raise UsageError("only strata commands accept --levi")

    return RunConfig(
        command=args.command,
        kind=args.kind,
        spec=spec,
        height=height,
        theta=_parse_int_list(theta_text) if theta_text is not None else None,
        levi=levi,
        divisor=str(divisor_text) if divisor_text is not None else None,
        method=str(method),
        fmt=fmt,
        out=str(out) if out is not None else None,
        verify=True if verify is None else bool(verify),
        genus=genus,
    )


def _build_system(cfg: RunConfig) -> RootSystem:
    try:
        return build_root_system(cfg.spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _require_theta(cfg: RunConfig, rank: int) -> tuple[int, ...]:
    if cfg.theta is None:
        raise UsageError("this command needs --theta")
    if len(cfg.theta) != rank:
        raise UsageError(f"--theta has {len(cfg.theta)} coordinates, expected {rank}")
    if any(x < 0 for x in cfg.theta):
        raise UsageError(f"--theta must be positive (all coordinates >= 0), got {cfg.theta}")
    return cfg.theta


def _cmd_table(cfg: RunConfig) -> str:
    if cfg.height is None or cfg.height < 0:
        raise UsageError("table needs --height N with N >= 0")
    rs = _build_system(cfg)
    table = build_asymp_table(rs, cfg.height, verify=cfg.verify, genus=cfg.genus)
    fmt = cfg.fmt or "json"
    if fmt == "json":
        return _json_text(table.to_json_obj())
    if fmt == "csv":
        return table.to_csv_text()
    if fmt == "text":
        return table.to_text()
    raise UsageError("table supports --format json|csv|text")


def _cmd_trace(cfg: RunConfig) -> str:
    rs = _build_system(cfg)
    theta = _require_theta(cfg, rs.rank)
    values: dict[str, object] = {}
    if cfg.method in ("kostant", "all"):
        values["kostant"] = trace_kostant_sum(rs, theta)
    if cfg.method in ("series", "all"):
        bound = max(1, sum(theta))
        series = gk_product_series(rs, bound)
        values["series"] = trace_from_series(series, rs, theta)
    if cfg.method in ("oracle", "all"):
        values["oracle"] = trace_grothendieck_oracle(rs, theta)
    if cfg.method == "all":
        polys = list(values.values())
        if not (polys[0] == polys[1] == polys[2]):
            raise VerificationError(theta, values["kostant"], values["series"], values["oracle"])

    fmt = cfg.fmt or "text"
    if fmt == "json":
        return _json_text(
            {
                "theta": list(theta),
                "method": cfg.method,
                "traces": {name: poly.to_pairs() for name, poly in values.items()},
            }
        )
    if fmt == "text":
        return "".join(f"{poly}\n" for poly in values.values())
    raise UsageError("trace supports --format json|text")


def _cmd_divisor(cfg: RunConfig) -> str:
    rs = _build_system(cfg)
    if cfg.divisor is None:
        raise UsageError("divisor needs --divisor \"label:coords;...\"")
    try:
        divisor = parse_divisor(cfg.divisor, rs.rank)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    poly = divisor_trace(rs, divisor)
    fmt = cfg.fmt or "text"
    if fmt == "json":
        return _json_text(
            {
                "divisor": [[label, list(theta)] for label, theta in divisor.points],
                "trace": poly.to_pairs(),
            }
        )
    if fmt == "text":
        return f"{poly}\n"
    raise UsageError("divisor supports --format json|text")


def _cmd_strata(cfg: RunConfig) -> str:
    if cfg.kind is None:
        raise UsageError("strata needs a kind: parabolic, local, or poset")
    rs = _build_system(cfg)
    p = ParabolicType(cfg.levi or ())
    try:
        p.validate(rs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    if cfg.kind == "parabolic":
        strata = enumerate_parabolic_strata(rs)
        fmt = cfg.fmt or "json"
        if fmt == "json":
            return _json_text(parabolic_strata_to_json(strata))
        if fmt == "text":
            return "".join(
                f"I_M={list(s.levi_vertices)} c_P={s.canonical_point}\n" for s in strata
            )
        raise UsageError("strata parabolic supports --format json|text")

    if cfg.kind == "local":
        theta = cfg.theta if cfg.theta is not None else ()
        try:
            strata = enumerate_local_strata(rs, p, theta)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        fmt = cfg.fmt or "json"
        if fmt == "json":
            return _json_text(local_strata_to_json(strata))
        if fmt == "text":
            return "".join(f"{s.parts[0]} + {s.parts[1]} + {s.parts[2]}\n" for s in strata)
        raise UsageError("strata local supports --format json|text")

    # poset
    if cfg.height is None or cfg.height < 0:
        raise UsageError("strata poset needs --height N with N >= 0")
    poset = defect_poset(rs, p, cfg.height)
    fmt = cfg.fmt or "dot"
    if fmt == "dot":
        return poset.to_dot()
    if fmt == "json":
        return _json_text(defect_poset_to_json(poset))
    raise UsageError("strata poset supports --format dot|json")


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cache_file() -> str | None:
    cache_dir = os.environ.get(CACHE_ENV_VAR)
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    return os.path.join(cache_dir, CACHE_FILE_NAME)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE

    cache_file = _cache_file()
    if cache_file and os.path.exists(cache_file):
        try:
            count_cache_load(cache_file)
        except (OSError, ValueError, json.JSONDecodeError):
            pass  # a stale cache must never break a run

    dispatch = {
        "table": _cmd_table,
        "trace": _cmd_trace,
        "divisor": _cmd_divisor,
        "strata": _cmd_strata,
    }
    try:
        text = dispatch[cfg.command](cfg)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except VerificationError as exc:
        report = {
            "error": "identity-verification-failure",
            "theta": list(exc.theta),
            "kostant": exc.kostant.to_pairs(),
            "series": exc.series.to_pairs(),
            "oracle": exc.oracle.to_pairs(),
        }
        sys.stderr.write(json.dumps(report) + "\n")
        return EXIT_VERIFY
    except KostantCountError as exc:
        report = {
            "error": "identity-verification-failure",
            "theta": list(exc.theta),
            "dp_count": exc.dp_count,
            "enumerated": exc.enumerated,
        }
        sys.stderr.write(json.dumps(report) + "\n")
        return EXIT_VERIFY

    _write_output(text, cfg.out)
    if cache_file:
        try:
            count_cache_save(cache_file)
        except OSError:
            pass
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
