import csv
import json
from unittest import mock

import numpy as np
import pytest

from sumprod import ExperimentConfig, repfn, run_suite, verify
from sumprod.cli import main
from sumprod.suite import CSV_COLUMNS, ConfigError, cell_seed


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_empty_lemma_selection(tmp_path):
    cfg = ExperimentConfig(lemmas=[], out_dir=str(tmp_path / "out"))
    m = run_suite(cfg)
    assert m.cells == [] and m.n_pass == m.n_fail == 0
    rows = _read_csv(tmp_path / "out" / "suite.csv")
    assert rows == []


def test_ten_pluennecke_rows(tmp_path):
    cfg = ExperimentConfig(lemmas=["pluennecke"], families=["random"],
                           sizes=[32], sets_per_cell=10,
                           out_dir=str(tmp_path / "out"))
    m = run_suite(cfg)
    rows = _read_csv(tmp_path / "out" / "suite.csv")
    assert len(rows) == 10
    assert all(r["pass"] == "pass" for r in rows)
    assert m.n_fail == 0
    assert list(rows[0].keys()) == list(CSV_COLUMNS)


def test_small_p_cells_skipped_not_fatal(tmp_path):
    cfg = ExperimentConfig(field="prime:101", lemmas=["kmps"],
                           families=["random"], sizes=[32],
                           out_dir=str(tmp_path / "out"))
    m = run_suite(cfg)
    assert m.n_skip >= 1 and m.n_fail == 0
    assert m.exit_code == 0
    rows = _read_csv(tmp_path / "out" / "suite.csv")
    assert rows[0]["pass"] == "skip"
    flagged = json.load(open(tmp_path / "out" / "manifest.json"))
    assert any(c["status"] == "skip" for c in flagged["cells"])


@pytest.mark.parametrize("overrides", [
    dict(lemmas=["pluennecke"], families=["random"], sizes=[256]),
    dict(lemmas=["cauchy-schwarz"], table_budget=1000),
])
def test_budget_overrun_is_a_skip_row(tmp_path, overrides):
    out = tmp_path / "out"
    m = run_suite(ExperimentConfig(out_dir=str(out), **overrides))
    cells = json.load(open(out / "manifest.json"))["cells"]
    skipped = [c for c in cells if c["status"] == "skip"]
    assert skipped and all("exceed budget" in c["note"] for c in skipped)
    assert not any(c["status"] == "error" for c in cells)
    assert m.n_skip == len(skipped) and m.n_fail == 0
    rows = _read_csv(out / "suite.csv")
    assert len(rows) == len(cells)
    assert sum(r["pass"] == "skip" for r in rows) == len(skipped)


def test_kernel_integrity_failure_is_an_error_row(tmp_path):
    # a level piece that writes other than its share raises RuntimeError in
    # the kernel: the cell is an error row, and the CSV and the manifest
    # are still written
    real = repfn._run_starts

    def drop_first(part, lo, hi):
        new = real(part, lo, hi)
        new[np.flatnonzero(new)[:1]] = False
        return new

    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lemmas": ["regular"], "families": ["random"],
                               "sizes": [64]}))
    with mock.patch.object(repfn, "_run_starts", drop_first):
        code = main(["suite", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 1
    cells = json.load(open(out / "manifest.json"))["cells"]
    assert [c["status"] for c in cells] == ["error"]
    assert "share" in cells[0]["note"]
    rows = _read_csv(out / "suite.csv")
    assert [r["pass"] for r in rows] == ["error"]


def test_memory_error_is_an_error_row(tmp_path):
    # a cell that runs out of memory is an error row; the other cells, the
    # CSV and the manifest are still written, and the run exits 1
    main_lemma = verify.LEMMAS["main"]

    def run(sets, variant, params):
        if params.family == "gp":
            raise MemoryError("unable to allocate the pair table")
        return main_lemma.run(sets, variant, params)

    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lemmas": ["main"], "families": ["ap", "gp"],
                               "sizes": [16]}))
    with mock.patch.dict(verify.LEMMAS,
                         {"main": main_lemma._replace(run=run)}):
        code = main(["suite", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 1
    cells = json.load(open(out / "manifest.json"))["cells"]
    assert [c["status"] for c in cells] == ["pass", "error"]
    assert cells[1]["note"] == "unable to allocate the pair table"
    rows = _read_csv(out / "suite.csv")
    assert [(r["family"], r["pass"]) for r in rows] == [("ap", "pass"),
                                                      ("gp", "error")]


def test_config_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json('{"lemmas": ["fermat"]}')
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json('{"table_budget": 0}')
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json('{"field": "prime:10"}')
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json('{"warp": 9}')


@pytest.mark.parametrize("name", ["slack_c", "fitted_ceiling",
                                  "ratio_floor"])
@pytest.mark.parametrize("value", [0, 0.0, -1.0])
def test_config_refuses_nonpositive_bounds(name, value):
    # ratio_floor = 0 divided every main cell by zero, and a negative
    # fitted_ceiling failed every kmps cell; both are refused up front
    with pytest.raises(ConfigError, match=f"{name} must be positive"):
        ExperimentConfig.from_json(json.dumps({name: value}))
    with pytest.raises(ConfigError, match=f"{name} must be positive"):
        ExperimentConfig(**{name: value}).validate()


def test_config_digest_of_the_defaults_is_pinned():
    # the bound checks add no field, so a config's digest stays as it was
    assert ExperimentConfig().digest() == (
        "14bdd28f4d19d44564cc2134d217c770bc6182da22bfc4357b05ef805495d73b")


def test_config_json_roundtrip_and_digest():
    cfg = ExperimentConfig(lemmas=["main"], sizes=[16])
    cfg2 = ExperimentConfig.from_json(cfg.to_json())
    assert cfg2 == cfg and cfg2.digest() == cfg.digest()
    assert cfg.digest() != ExperimentConfig(seed=1).digest()


def test_cell_seed_stability():
    assert cell_seed(0, "a", 1) == cell_seed(0, "a", 1)
    assert cell_seed(0, "a", 1) != cell_seed(1, "a", 1)
    assert cell_seed(0, "a", 1) != cell_seed(0, "b", 1)


def test_manifest_written_last(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(lemmas=["main"], families=["ap"], sizes=[16],
                           out_dir=str(out))
    m = run_suite(cfg)
    assert (out / "manifest.json").exists()
    data = json.load(open(out / "manifest.json"))
    assert data["config_digest"] == cfg.digest()
    assert data["n_pass"] == m.n_pass


def test_determinism_modulo_timing(tmp_path):
    def run(d):
        cfg = ExperimentConfig(
            lemmas=["pluennecke", "cauchy-schwarz", "main"],
            families=["ap", "gp", "random", "subgroup"], sizes=[16, 32],
            out_dir=str(tmp_path / d))
        run_suite(cfg)
        rows = _read_csv(tmp_path / d / "suite.csv")
        for r in rows:
            r.pop("elapsed_ms")
        with open(tmp_path / d / "manifest.json") as fh:
            # the digest pins what a run computes, not where it is written
            digest = json.load(fh)["config_digest"]
        return rows, digest

    assert run("a") == run("b")


def test_known_lemmas_are_the_registry_in_order():
    from sumprod import suite, verify
    assert suite.KNOWN_LEMMAS == tuple(verify.LEMMAS) == (
        "pluennecke", "cauchy-schwarz", "kmps", "sdz", "mixed", "rss",
        "regular", "main")


def test_cells_reach_checks_through_run_lemma(tmp_path):
    # every report of a cell comes from one `verify.run_lemma` call per
    # variant, in the registry's order
    from unittest import mock
    from sumprod import suite, verify
    with mock.patch.object(suite, "run_lemma",
                           wraps=verify.run_lemma) as spy:
        run_suite(ExperimentConfig(lemmas=list(suite.KNOWN_LEMMAS),
                                   families=["ap"], sizes=[16],
                                   out_dir=str(tmp_path / "out")))
    calls = [(c.args[0], c.args[2]) for c in spy.call_args_list]
    assert calls == [(name, v) for name, lem in verify.LEMMAS.items()
                     for v in lem.variants]
    rows = _read_csv(tmp_path / "out" / "suite.csv")
    assert len(rows) == len(calls)
