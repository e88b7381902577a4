"""Golden artifacts: sha256 pins of CLI outputs below their headers.

A refactor must leave every artifact byte-identical for a fixed config and
seed.  Text files are hashed after their three '# ramspect / # seed /
# config' lines (later '#' lines, such as lo's slope line, are body); JSON
files are hashed with their "header" key removed, re-serialized the way the
CLI writes them.  The header is excluded because it echoes the config, whose
keys may change without the results changing.
"""
import hashlib
import json

import pytest

from ramspect import cli


def text_body(path) -> bytes:
    lines = path.read_text().splitlines(keepends=True)
    assert [l.split()[:2] for l in lines[:3]] == [
        ["#", "ramspect"], ["#", "seed"], ["#", "config"]]
    return "".join(lines[3:]).encode()


def json_body(path) -> bytes:
    doc = json.loads(path.read_text())
    del doc["header"]
    return json.dumps(doc, sort_keys=True).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


CASES = {
    "construct": (
        ["construct", "--gen", "gnp", "--n", "512", "--graph-seed", "1",
         "--seed", "3"],
        {"out.json": (json_body,
                      "e36355b174c61e182e603bba3653042c9ad95e4896d44abad30d891c8cad4a90")}),
    "per-m": (
        ["per-m", "--gen", "gnp", "--n", "256", "--graph-seed", "3",
         "--seed", "11"],
        {"out.csv": (text_body,
                     "43f88f37522f2a858ede7c45b52b99fd0ad2cebaa6fd3eeaadaacdf7b85305c5"),
         "dump.json": (json_body,
                       "dd83dfd5e3b289689d8d775121e4a92dbdd1f7acdec453176aef7bdbff33f02f")}),
    "audit": (
        ["audit", "--gen", "gnp", "--n", "40"],
        {"out.json": (json_body,
                      "c0e825bcce5bf03642c2a97981947eb870666cb79254c226966a079d46afb76c")}),
    "lo": (
        ["lo", "--model", "u3", "--n-list", "16,32,64,128", "--trials", "2000",
         "--seed", "9"],
        {"out.csv": (text_body,
                     "20fb5c1d4e66b85de019ab192b685812652057ade5f26451053130773f05e4a7")}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_digest_is_pinned(name, tmp_path):
    argv, files = CASES[name]
    argv = argv + ["--out", str(tmp_path / next(iter(files)))]
    if "dump.json" in files:
        argv += ["--dump", str(tmp_path / "dump.json")]
    assert cli.main(argv) == 0
    for fname, (body, want) in files.items():
        assert sha256(body(tmp_path / fname)) == want, fname
