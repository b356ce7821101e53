"""Output checks for the bernasym CLI that share no code with the library.

Nothing here imports ``bernasym``: every expectation is either a SHA-256
digest recorded from a *verified* run (``digests.json``, regenerated by
``record_digests.py``) or a closed form derived from the mathematics:

* a table over rank ``r`` and height ``h`` has C(h + r, r) entries, one per
  positive coweight of height <= h;
* every trace evaluated at q = 1 is 1 at theta = 0 and 0 elsewhere (each
  nonempty partition carries a factor (1 - q));
* the trace at a simple coroot is ``1 - q``;
* every trace has constant term 1 (only the all-simple partition reaches
  q^0), so a product of traces does too;
* the strata counts are 2^r (parabolic), prod C(n_i + 2, 2) (local) and
  C(h + k, k) elements with k * C(h - 1 + k, k) covers (poset).

Each function returns a list of human-readable errors; empty means correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from pathlib import Path
from typing import Mapping, Sequence

DIGESTS_FILE = Path(__file__).with_name("digests.json")
CACHE_ENV_VAR = "BERNASYM_CACHE_DIR"


def load_digests() -> dict[str, str]:
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table_errors(stdout: bytes, rank: int, height: int, digest: str | None) -> list[str]:
    """Check a JSON table against its recorded digest and the closed forms above."""
    errors: list[str] = []
    got = sha256(stdout)
    if digest is None:
        errors.append("no digest recorded for this table")
    elif got != digest:
        errors.append(f"stdout sha256 {got[:16]} differs from the verified run's {digest[:16]}")
    try:
        entries = json.loads(stdout)["entries"]
        thetas = [tuple(e["theta"]) for e in entries]
        traces = [[(int(x), int(c)) for x, c in e["trace"]] for e in entries]
    except (ValueError, KeyError, TypeError) as exc:
        return errors + [f"table is not well-formed JSON: {exc!r}"]
    expected = math.comb(height + rank, rank)
    if len(entries) != expected or len(set(thetas)) != expected:
        errors.append(f"{len(entries)} entries ({len(set(thetas))} distinct), expected C({height}+{rank},{rank}) = {expected}")
    for theta, pairs in zip(thetas, traces):
        if len(theta) != rank or min(theta, default=0) < 0 or sum(theta) > height:
            errors.append(f"theta {list(theta)} is outside the height-{height} region of rank {rank}")
            continue
        at_one = sum(c for _, c in pairs)
        want = 0 if any(theta) else 1
        if at_one != want:
            errors.append(f"trace at theta {list(theta)} is {at_one} at q=1, expected {want}")
        if sum(theta) == 1 and pairs != [(0, 1), (1, -1)]:
            errors.append(f"simple coroot {list(theta)} has trace {pairs}, expected 1 - q")
    return errors


_TERM = re.compile(r"(-|[+-] )?(\d*)(q(?:\^(-?\d+))?)?$")


def parse_poly_text(text: str) -> dict[int, int]:
    """Parse the CLI's text rendering (``1 - q - q^2 + 2q^-1``) into exponent -> coefficient."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[int, int] = {}
    for piece in re.split(r" (?=[+-] )", text):
        m = _TERM.match(piece)
        if not m or not (m.group(2) or m.group(3)):
            raise ValueError(f"cannot parse polynomial term {piece!r} in {text!r}")
        sign = -1 if m.group(1) and m.group(1).startswith("-") else 1
        coeff = int(m.group(2)) if m.group(2) else 1
        exp = 0 if not m.group(3) else int(m.group(4)) if m.group(4) else 1
        out[exp] = out.get(exp, 0) + sign * coeff
    return out


def trace_all_errors(stdout: bytes, theta: Sequence[int]) -> list[str]:
    """``trace --method all``: three equal lines, with the q = 1 and simple-coroot values."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    if len(lines) != 3:
        return [f"trace --method all printed {len(lines)} lines, expected 3"]
    if not lines[0] == lines[1] == lines[2]:
        return [f"trace routes printed different values: {lines}"]
    try:
        poly = parse_poly_text(lines[0])
    except ValueError as exc:
        return [str(exc)]
    errors = []
    want = 0 if any(theta) else 1
    if sum(poly.values()) != want:
        errors.append(f"trace {lines[0]!r} at theta {list(theta)} is {sum(poly.values())} at q=1, expected {want}")
    if sum(theta) == 1 and poly != {0: 1, 1: -1}:
        errors.append(f"simple coroot {list(theta)} has trace {lines[0]!r}, expected 1 - q")
    return errors


def divisor_errors(stdout: bytes, points: Sequence[tuple[str, Sequence[int]]]) -> list[str]:
    """``divisor --format json``: points echoed; the product has constant term 1 and vanishes at q = 1."""
    try:
        obj = json.loads(stdout)
        echoed = [(label, tuple(theta)) for label, theta in obj["divisor"]]
        pairs = [(int(e), int(c)) for e, c in obj["trace"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"divisor output is not well-formed JSON: {exc!r}"]
    errors = []
    if echoed != [(label, tuple(theta)) for label, theta in points]:
        errors.append(f"divisor echoed {echoed}, expected {list(points)}")
    if not pairs or pairs[0] != (0, 1):
        errors.append(f"divisor trace {pairs} does not start with the constant term 1")
    if sum(c for _, c in pairs) != 0:
        errors.append(f"divisor trace {pairs} does not vanish at q=1")
    return errors


def parabolic_errors(stdout: bytes, rank: int) -> list[str]:
    try:
        strata = [(tuple(s["levi_vertices"]), tuple(s["canonical_point"])) for s in json.loads(stdout)]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"parabolic strata output is not well-formed JSON: {exc!r}"]
    errors = []
    if len(strata) != 2**rank or len({p for _, p in strata}) != 2**rank:
        errors.append(f"{len(strata)} parabolic strata, expected 2^{rank} distinct ones")
    for levi, point in strata:
        if point != tuple(1 if i in levi else 0 for i in range(rank)):
            errors.append(f"stratum {list(levi)} has canonical point {list(point)}")
    return errors


def local_errors(stdout: bytes, theta: Sequence[int]) -> list[str]:
    try:
        triples = [[tuple(p) for p in s["parts"]] for s in json.loads(stdout)]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"local strata output is not well-formed JSON: {exc!r}"]
    expected = math.prod(math.comb(n + 2, 2) for n in theta)
    errors = []
    if len(triples) != expected or len(set(map(tuple, triples))) != expected:
        errors.append(f"{len(triples)} local strata, expected prod C(n+2,2) = {expected} distinct ones")
    for parts in triples:
        if len(parts) != 3 or [sum(c) for c in zip(*parts)] != list(theta):
            errors.append(f"local stratum {parts} does not sum to {list(theta)}")
    return errors


def poset_errors(stdout: bytes, quotient_rank: int, height: int) -> list[str]:
    lines = stdout.decode("utf-8", "replace").splitlines()
    nodes = sum(1 for line in lines if "[label=" in line)
    edges = sum(1 for line in lines if " -> " in line)
    k = quotient_rank
    want_nodes = math.comb(height + k, k)
    want_edges = k * math.comb(height - 1 + k, k) if height >= 1 else 0
    if lines[:1] != ["digraph defect_poset {"] or lines[-1:] != ["}"]:
        return ["poset output is not a DOT digraph"]
    if (nodes, edges) != (want_nodes, want_edges):
        return [f"poset has {nodes} nodes and {edges} covers, expected {want_nodes} and {want_edges}"]
    return []


def hermetic_errors(cwd: str | os.PathLike, env: Mapping[str, str]) -> list[str]:
    """A run is hermetic when no count cache is configured and it leaves its working directory empty."""
    errors = []
    if CACHE_ENV_VAR in env:
        errors.append(f"{CACHE_ENV_VAR} is set for the child")
    stray = sorted(os.listdir(cwd))
    if stray:
        errors.append(f"the run left files in its working directory: {stray}")
    return errors


def output_stats(stdout: bytes) -> tuple[int, int]:
    """(largest coefficient bit length, number of nonzero terms) over a JSON table."""
    entries = json.loads(stdout)["entries"]
    coeffs = [c for e in entries for _, c in e["trace"]]
    return max((abs(c).bit_length() for c in coeffs), default=0), len(coeffs)
