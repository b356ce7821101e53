"""Golden stdout digests for every CLI command and format.

Each case runs ``main`` in-process on a small input and compares the SHA-256
of its stdout with a recorded digest, so any change to option handling or
rendering that alters a single output byte fails here.
``{config}`` and ``{cartan}`` in an argv stand for the files written from
``CONFIG`` and ``CARTAN``.
"""

from __future__ import annotations

import hashlib

import pytest

from bernasym.cli import EXIT_OK, main

ARGV = {
    "table-json": ["--type", "B", "--rank", "2", "--height", "3", "--genus", "2", "table"],
    "table-csv": ["--type", "B", "--rank", "2", "--height", "3", "--genus", "2", "--format", "csv", "table"],
    "table-text": ["--type", "B", "--rank", "2", "--height", "3", "--genus", "2", "--format", "text", "table"],
    "table-g2-no-verify": ["--type", "G", "--rank", "2", "--height", "4", "--no-verify", "table"],
    "trace-all-text": ["--type", "A", "--rank", "2", "--theta", "1,1", "--method", "all", "trace"],
    "trace-all-json": ["--type", "A", "--rank", "2", "--theta", "1,1", "--method", "all", "--format", "json", "trace"],
    "trace-series-c2": ["--type", "C", "--rank", "2", "--theta", "2,1", "--method", "series", "trace"],
    "trace-oracle-json": ["--type", "G", "--rank", "2", "--theta", "1,2", "--method", "oracle", "--format", "json", "trace"],
    "divisor-text": ["--type", "A", "--rank", "2", "--divisor", "x:1,1;y:1,0", "divisor"],
    "divisor-json": ["--type", "A", "--rank", "2", "--divisor", "x:1,1;y:1,0", "--format", "json", "divisor"],
    "strata-parabolic-json": ["--type", "A", "--rank", "2", "strata", "parabolic"],
    "strata-parabolic-text": ["--type", "B", "--rank", "3", "--format", "text", "strata", "parabolic"],
    "strata-local-json": ["--type", "A", "--rank", "3", "--levi", "1", "--theta", "1,1", "strata", "local"],
    "strata-local-text": ["--type", "A", "--rank", "2", "--theta", "1,2", "--format", "text", "strata", "local"],
    "strata-poset-dot": ["--type", "A", "--rank", "2", "--height", "2", "strata", "poset"],
    "strata-poset-json": ["--type", "B", "--rank", "3", "--levi", "0", "--height", "2", "--format", "json", "strata", "poset"],
    "config": ["--config", "{config}", "table"],
    "cartan": ["--cartan", "{cartan}", "--height", "2", "--format", "text", "table"],
}

CONFIG = "type=G rank=2\nheight=3 format=json\nlabel=g2cfg genus=1\n"
CARTAN = "[[2, -2], [-1, 2]]"

DIGESTS = {
    "table-json": "98e2ebd8d7974bc06710ae70f1962431ae7a6e9bf9f9772e22a8418c4ee71571",  # 2468 bytes
    "table-csv": "a7f08ad78780f08457eb83b5bbd50c7b09f38a68b773dc39276bccbbed2cc652",  # 147 bytes
    "table-text": "4c87b112cb60cb5ef3fd5d58ae1d3423df353ccba5257f04b9330587a15ab40a",  # 186 bytes
    "table-g2-no-verify": "5f9236b5a5dae7f318846de02b460320ea01a33f0a5ea7de73f89bd91fbe2e46",  # 3482 bytes
    "trace-all-text": "12bd9f6fbffb29b9fb59d0c97cfe3ff1220b4c17c4734b68e4db0a6f69fcda4b",  # 18 bytes
    "trace-all-json": "435e0180ef906afd2b53cc126d21671f99b9f95404c667f01ab0159a60fdb68e",  # 369 bytes
    "trace-series-c2": "b8e3a477031ba8c63bee559d4957e1e766c042bcbf716de39433835fad831453",  # 18 bytes
    "trace-oracle-json": "2dc3d32df893b2e7a67af6c927c882d8086491a48b3d5cb6acdb86a593c26fef",  # 173 bytes
    "divisor-text": "ce11bc8bcb96a191af918986d147e5cfd56139cfd9ff88b7b4e8fcd448d78e42",  # 13 bytes
    "divisor-json": "e41d209a6d164957ca4da3b7953a6a2f55b412e268827e7c96a6dc5ffbcfe9cc",  # 252 bytes
    "strata-parabolic-json": "b958cc5fe608c2cc5e80551ae04bbc7b8aa8f74e371938ba4c7a81873d9c0f14",  # 379 bytes
    "strata-parabolic-text": "63b0fb0b4cb8fa9225c5577b382a411036415bfce777761c68152869599e82cc",  # 190 bytes
    "strata-local-json": "5c98f8f5461e2110d8083694f06342d683afb2d1339a1c20d7e2bf4e561f6a83",  # 2343 bytes
    "strata-local-text": "6f2b0137b83a9ccb646caad4f5848e308c12fab41cd8f93275b3ba4584f4f8ca",  # 450 bytes
    "strata-poset-dot": "329b842e64e359ed44f5310b81a81cab16474ef426a2ce633c1700601d0f9233",  # 357 bytes
    "strata-poset-json": "0aa99ec7235e6ef9c60f9a43676e0334ae23fb1d0c45ea7e52ebb9f95491962f",  # 763 bytes
    "config": "ee6f445fe82d1eafcd2f2b90fe2286597a7489deb21972c9a5f545ffc752af95",  # 2564 bytes
    "cartan": "3c9d3b8622809e3555dc485c622a32e3c54c169e202744953cf2a4a16401d7ae",  # 114 bytes
}


@pytest.mark.parametrize("name", sorted(ARGV))
def test_stdout_digest(capsys, tmp_path, name):
    paths = {"config": tmp_path / "run.cfg", "cartan": tmp_path / "b2.json"}
    paths["config"].write_text(CONFIG)
    paths["cartan"].write_text(CARTAN)
    argv = [arg.format(**paths) for arg in ARGV[name]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]
