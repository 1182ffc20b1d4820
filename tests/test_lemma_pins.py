"""Pinned outputs of every lemma, through the suite and through `sumprod verify`.

The suite pin runs all eight lemmas on ap/gp/random/subgroup at n = 16, 32
and compares, cell by cell and in row order, a digest of the suite.csv row,
the report JSON (both without elapsed_ms) and the manifest status. The CLI
pin runs `verify --lemma X` on fixed set files and compares stdout, stderr,
the exit code and a digest of the `--json` output without elapsed_ms.

The pins live in lemma_pins.json. To re-record them (only when an output is
meant to change), run from the repo root:

    PYTHONPATH=src python tests/test_lemma_pins.py
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import sys
import tempfile

import pytest

from sumprod import ExperimentConfig, run_suite
from sumprod.cli import main

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "lemma_pins.json")
P31 = 2**31 - 1

SUITE_LEMMAS = ["pluennecke", "cauchy-schwarz", "kmps", "sdz", "mixed",
                "rss", "regular", "main"]


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def suite_pins(out_dir: str) -> dict:
    run_suite(ExperimentConfig(lemmas=SUITE_LEMMAS,
                               families=["ap", "gp", "random", "subgroup"],
                               sizes=[16, 32], out_dir=out_dir))
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(out_dir, "suite.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(manifest["cells"])
    cells = []
    for row, status in zip(rows, manifest["cells"]):
        row.pop("elapsed_ms")
        path = os.path.join(out_dir, status["cell"] + ".json")
        report = None
        if os.path.exists(path):
            with open(path) as fh:
                report = json.load(fh)
            report.pop("elapsed_ms")
        cells.append([status["cell"], _digest([row, status, report])])
    totals = {k: manifest[k] for k in ("n_pass", "n_fail", "n_skip")}
    return {"cells": cells, "totals": totals}


def _set_file(directory: str, name: str, values, p: int = P31) -> str:
    path = os.path.join(directory, name + ".txt")
    with open(path, "w") as fh:
        fh.write(f"# field prime {p}\n")
        fh.write("".join(f"{v}\n" for v in sorted(set(values))))
    return path


def set_files(directory: str) -> dict:
    """Fixed inputs: an AP with and without 0, four random sets, a small U
    and a set too large for the kmps p-constraint in F_101."""
    files = {"ap": _set_file(directory, "ap", range(1, 49)),
             "ap0": _set_file(directory, "ap0", range(0, 40)),
             "u": _set_file(directory, "u",
                            random.Random(9).sample(range(1, P31), 12)),
             "small-p": _set_file(directory, "small-p", range(1, 33), p=101)}
    for i, name in enumerate(("r1", "r2", "r3", "r4")):
        files[name] = _set_file(directory, name,
                                random.Random(i + 1).sample(range(P31), 40))
    return files


# (case id, argv with set names in place of paths); every case runs with and
# without --json
CLI_CASES = [
    ("pluennecke-ap", ["--lemma", "pluennecke", "ap"]),
    ("pluennecke-r1-k1-l1", ["--lemma", "pluennecke", "r1", "--k", "1",
                             "--l", "1"]),
    ("pluennecke-r1-k2-l1", ["--lemma", "pluennecke", "r1", "--k", "2",
                             "--l", "1"]),
    ("cs-r1", ["--lemma", "cauchy-schwarz", "r1"]),
    ("cs-r1-mul", ["--lemma", "cauchy-schwarz", "r1", "--op", "mul"]),
    ("cs-ap0-mul", ["--lemma", "cauchy-schwarz", "ap0", "--op", "mul"]),
    ("kmps-r123", ["--lemma", "kmps", "r1", "r2", "r3"]),
    ("kmps-ap", ["--lemma", "kmps", "ap", "ap", "ap"]),
    ("kmps-small-p", ["--lemma", "kmps", "small-p", "small-p", "small-p"]),
    ("sdz-r1234", ["--lemma", "sdz", "r1", "r2", "r3", "r4"]),
    ("sdz-ap", ["--lemma", "sdz", "ap", "ap", "ap0", "ap0"]),
    ("mixed-r1-default", ["--lemma", "mixed", "r1", "u"]),
    ("mixed-r1-E4+E2x", ["--lemma", "mixed", "r1", "u", "--variant",
                         "E4+E2x"]),
    ("mixed-r1-E4xE2+", ["--lemma", "mixed", "r1", "u", "--variant",
                         "E4xE2+"]),
    ("mixed-r1-E4xE4+", ["--lemma", "mixed", "r1", "u", "--variant",
                         "E4xE4+"]),
    ("mixed-ap-E4+E4x", ["--lemma", "mixed", "ap", "u", "--variant",
                         "E4+E4x", "--slack-c", "8"]),
    ("mixed-r1-op-mul", ["--lemma", "mixed", "r1", "u", "--op", "mul"]),
    ("rss-ap-default", ["--lemma", "rss", "ap"]),
    ("rss-r1-additive", ["--lemma", "rss", "r1", "--variant", "additive"]),
    ("rss-r1-multiplicative", ["--lemma", "rss", "r1", "--variant",
                               "multiplicative"]),
    ("rss-ap-multiplicative-slack", ["--lemma", "rss", "ap", "--variant",
                                     "multiplicative", "--slack-c", "1"]),
    ("main-sweep", ["--lemma", "main"]),
    ("main-sweep-seed3", ["--lemma", "main", "--seed", "3"]),
]


def invoke(argv) -> dict:
    """Run the CLI in-process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            if isinstance(exc.code, int):
                code = exc.code
            else:
                code = 1
                print(exc.code, file=err)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_pin(files: dict, argv) -> dict:
    argv = ["verify"] + [files.get(a, a) for a in argv]
    plain = invoke(argv)
    js = invoke(argv + ["--json"])
    payload = None
    if js["stdout"]:
        payload = json.loads(js["stdout"])
        payload.pop("elapsed_ms", None)
    return {"code": plain["code"], "stdout": plain["stdout"],
            "stderr": plain["stderr"], "json_code": js["code"],
            "json": _digest(payload)}


@pytest.fixture(scope="module")
def pins():
    with open(PINS) as fh:
        return json.load(fh)


def test_suite_cells_match_pins(tmp_path, pins):
    got = suite_pins(str(tmp_path / "out"))
    want = pins["suite"]
    assert got["totals"] == want["totals"]
    assert [k for k, _ in got["cells"]] == [k for k, _ in want["cells"]]
    assert dict(got["cells"]) == dict(want["cells"])


@pytest.mark.parametrize("case", [c for c, _ in CLI_CASES])
def test_verify_cli_matches_pins(tmp_path, pins, case):
    files = set_files(str(tmp_path))
    assert cli_pin(files, dict(CLI_CASES)[case]) == pins["cli"][case]


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        suite = suite_pins(os.path.join(tmp, "out"))
        files = set_files(tmp)
        cli = {case: cli_pin(files, argv) for case, argv in CLI_CASES}
    return {"suite": suite, "cli": cli}


if __name__ == "__main__":
    with open(PINS, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
