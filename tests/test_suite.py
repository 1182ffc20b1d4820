import csv
import json

import pytest

from sumprod import ExperimentConfig, run_suite
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
        return rows

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
