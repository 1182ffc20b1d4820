"""Deterministic experiment harness: config in, CSV + JSON reports + manifest out.

Every cell derives its RNG seed from the master seed and the cell key, so two
runs of the same config produce byte-identical outputs apart from the
elapsed_ms column. The manifest is written last (atomically); an interrupted
run leaves no manifest and its partial cell files are simply overwritten on
rerun.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass, field as dc_field, asdict
from typing import List

from . import __version__
from .families import FamilySpec, gen_family, prime_with_subgroup
from .field import ElemSet, GroundField
from .repfn import BudgetExceeded
from .report import ConstraintViolation
from .verify import DEFAULT_P, LEMMAS, LemmaParams, run_lemma

CSV_COLUMNS = ("lemma", "family", "n", "p", "lhs", "rhs_shape",
               "fitted_constant", "slack", "pass", "elapsed_ms")

KNOWN_LEMMAS = tuple(LEMMAS)
KNOWN_FAMILIES = ("ap", "gp", "random", "subgroup")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Everything a suite run depends on; the digest pins it."""

    field: str = f"prime:{DEFAULT_P}"
    families: List[str] = dc_field(default_factory=lambda: ["ap", "random"])
    sizes: List[int] = dc_field(default_factory=lambda: [16, 32, 64])
    lemmas: List[str] = dc_field(
        default_factory=lambda: ["pluennecke", "cauchy-schwarz"])
    sets_per_cell: int = 1
    slack_c: float = 64.0
    table_budget: int = 100_000_000
    seed: int = 0
    fitted_ceiling: float = 16.0
    ratio_floor: float = 0.25
    out_dir: str = "suite-out"

    def validate(self) -> None:
        if self.table_budget <= 0:
            raise ConfigError("table_budget must be positive")
        if self.sets_per_cell < 1:
            raise ConfigError("sets_per_cell must be >= 1")
        for lem in self.lemmas:
            if lem not in KNOWN_LEMMAS:
                raise ConfigError(f"unknown lemma {lem!r}")
        for fam in self.families:
            if fam not in KNOWN_FAMILIES:
                raise ConfigError(f"unknown family {fam!r}")
        for n in self.sizes:
            if n < 1:
                raise ConfigError(f"bad size {n}")
        try:
            GroundField.from_string(self.field)
        except Exception as exc:
            raise ConfigError(f"bad field spec {self.field!r}: {exc}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()


def cell_seed(master_seed: int, *key) -> int:
    raw = f"{master_seed}:" + ":".join(str(k) for k in key)
    return int.from_bytes(hashlib.sha256(raw.encode()).digest()[:8], "big")


@dataclass
class RunManifest:
    version: str
    config_digest: str
    cells: List[dict]
    n_pass: int
    n_fail: int
    n_skip: int
    wall_ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @property
    def exit_code(self) -> int:
        return 1 if self.n_fail else 0


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _cell_field(config: ExperimentConfig, family: str, n: int) -> GroundField:
    fld = GroundField.from_string(config.field)
    if family == "subgroup":
        if not fld.is_prime_mode:
            raise ConstraintViolation("subgroup family needs prime mode")
        if (fld.p - 1) % n != 0:
            fld = GroundField.prime(prime_with_subgroup(n, near=fld.p))
    return fld


def _gen(family, n, fld, seed) -> ElemSet:
    return gen_family(FamilySpec(kind=family, n=n, field=fld, start=1,
                                 base=3, ratio=7, seed=seed))


def _run_cell(config: ExperimentConfig, lemma: str, family: str, n: int,
              idx: int) -> List[dict]:
    """One (lemma, family, n, idx) cell -> CSV row dicts + report payloads."""
    seed = cell_seed(config.seed, lemma, family, n, idx)
    fld = _cell_field(config, family, n)
    spec = LEMMAS[lemma]
    sets = spec.draw(_gen(family, n, fld, seed),
                     lambda size, offset: _gen("random", size, fld,
                                               seed + offset))
    params = LemmaParams(ceiling=config.fitted_ceiling,
                         slack_c=config.slack_c, floor=config.ratio_floor,
                         budget=config.table_budget, family=family)
    reports = [run_lemma(lemma, sets, variant, params)
               for variant in spec.variants]
    return [{
        "key": f"{lemma}-{family}-{n}-{idx}-{j}",
        "row": {
            "lemma": rep.lemma, "family": family, "n": n,
            "p": fld.p if fld.is_prime_mode else 0,
            "lhs": _fmt(rep.lhs), "rhs_shape": _fmt(rep.rhs_shape),
            "fitted_constant": _fmt(rep.fitted_constant),
            "slack": _fmt(rep.slack),
            "pass": "pass" if rep.passed else "fail",
            "elapsed_ms": _fmt(rep.elapsed_ms),
        },
        "report": rep.to_dict(),
    } for j, rep in enumerate(reports)]


def _unfinished(rows: list, statuses: list, lemma: str, family: str, n: int,
                key: str, status: str, exc: Exception) -> None:
    """Record a cell that produced no report as one empty CSV row whose
    manifest status carries the reason."""
    rows.append({"lemma": lemma, "family": family, "n": n, "p": 0,
                 "lhs": "", "rhs_shape": "", "fitted_constant": "",
                 "slack": "", "pass": status, "elapsed_ms": "0"})
    statuses.append({"cell": key, "status": status, "note": str(exc)})


def run_suite(config: ExperimentConfig) -> RunManifest:
    """Execute every selected cell; write CSV, per-cell JSON, manifest last."""
    config.validate()
    t0 = time.perf_counter()
    out = config.out_dir
    os.makedirs(out, exist_ok=True)

    rows = []
    statuses = []
    for lemma in config.lemmas:
        for family in config.families:
            for n in config.sizes:
                for idx in range(config.sets_per_cell):
                    key = f"{lemma}-{family}-{n}-{idx}"
                    try:
                        cell_rows = _run_cell(config, lemma, family, n, idx)
                    except (ConstraintViolation, BudgetExceeded) as exc:
                        # recorded in-row, never aborts the suite
                        _unfinished(rows, statuses, lemma, family, n, key,
                                    "skip", exc)
                        continue
                    except (ValueError, ArithmeticError) as exc:
                        _unfinished(rows, statuses, lemma, family, n, key,
                                    "error", exc)
                        continue
                    for item in cell_rows:
                        rows.append(item["row"])
                        path = os.path.join(out, item["key"] + ".json")
                        with open(path, "w") as fh:
                            json.dump(item["report"], fh, indent=2,
                                      sort_keys=True)
                        statuses.append({"cell": item["key"],
                                         "status": item["row"]["pass"]})

    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow(row)
    with open(os.path.join(out, "suite.csv"), "w") as fh:
        fh.write(buf.getvalue())

    n_pass = sum(1 for s in statuses if s["status"] == "pass")
    n_skip = sum(1 for s in statuses if s["status"] == "skip")
    n_fail = len(statuses) - n_pass - n_skip
    manifest = RunManifest(
        version=__version__, config_digest=config.digest(), cells=statuses,
        n_pass=n_pass, n_fail=n_fail, n_skip=n_skip,
        wall_ms=(time.perf_counter() - t0) * 1e3)

    # manifest last, atomically: a crash before this point leaves no manifest
    fd, tmp = tempfile.mkstemp(dir=out, prefix=".manifest-")
    with os.fdopen(fd, "w") as fh:
        fh.write(manifest.to_json())
    os.replace(tmp, os.path.join(out, "manifest.json"))
    return manifest
