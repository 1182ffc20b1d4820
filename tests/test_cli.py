import json
import random
from unittest import mock

import pytest

from sumprod import (ElemSet, GroundField, dyadic_extract, energy_rep,
                     render_set, repfn)
from sumprod.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_gen_and_op(tmp_path, capsys):
    a = tmp_path / "a.txt"
    code, out = run(capsys, "gen", "ap", "-n", "4", "--start", "0")
    assert code == 0
    a.write_text(out)
    assert out.splitlines() == ["# field char0", "0", "1", "2", "3"]
    code, out = run(capsys, "op", "add", str(a), str(a))
    assert code == 0
    assert [l for l in out.splitlines() if not l.startswith("#")] == \
        [str(v) for v in range(7)]


def test_gen_prime_field(capsys):
    code, out = run(capsys, "--field", "prime:7", "gen", "ap", "-n", "3",
                    "--start", "5")
    assert code == 0
    assert out.splitlines() == ["# field prime 7", "0", "5", "6"]


def test_span_energy_json(tmp_path, capsys):
    a = tmp_path / "a.txt"
    run(capsys, "gen", "ap", "-n", "3", "--start", "0")
    a.write_text("# field char0\n0\n1\n2\n")
    code, out = run(capsys, "span", str(a), "--k", "1", "--l", "1")
    assert code == 0
    assert "-2" in out and "2" in out
    code, out = run(capsys, "energy", str(a), "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["value"] == "19"
    code, out = run(capsys, "energy", str(a), "--k", "2", "--dyadic")
    assert code == 0 and "t=2" in out and "cert=ok" in out


def test_count_and_verify(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("# field char0\n1\n2\n")
    code, out = run(capsys, "count", "kmps", str(a), str(a), str(a))
    assert code == 0 and out.strip() == "14"
    big = tmp_path / "b.txt"
    big.write_text("# field char0\n" + "\n".join(map(str, range(64))) + "\n")
    rpt = tmp_path / "r.json"
    code, out = run(capsys, "verify", "--lemma", "pluennecke", str(big),
                    "--k", "2", "--l", "2", "--out", str(rpt))
    assert code == 0 and "pass" in out
    assert json.loads(rpt.read_text())["pass"] is True


def test_regularize_cli(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("# field char0\n" + "\n".join(map(str, range(64))) + "\n")
    code, out = run(capsys, "regularize", str(a), "--k", "4", "--op", "add")
    assert code == 0 and "check=pass" in out


def test_search_cli(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("# field prime 1009\n" + "\n".join(map(str, range(1, 17))))
    code, out = run(capsys, "search", str(a), "--steps", "20", "--seed", "4")
    assert code == 0 and "best_ratio=" in out


def test_suite_cli_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lemmas": ["cauchy-schwarz"],
                               "families": ["ap"], "sizes": [16],
                               "out_dir": str(tmp_path / "out")}))
    code, out = run(capsys, "suite", "--config", str(cfg))
    assert code == 0 and "fail=0" in out

    bad = tmp_path / "bad.json"
    bad.write_text('{"lemmas": ["fermat"]}')
    assert main(["suite", "--config", str(bad)]) == 2
    assert main(["suite", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("op", ["add", "mul"])
@pytest.mark.parametrize("k", [4 / 3, 2.0, 4.0])
@pytest.mark.parametrize("pair", [False, True])
def test_energy_dyadic_is_one_table_build(tmp_path, capsys, op, k, pair):
    # `energy --dyadic` takes its slice from one kernel build and prints
    # what dyadic_extract of the full table gives
    F = GroundField.prime(101)
    A = ElemSet(F, random.Random(1).sample(range(101), 60))
    B = ElemSet(F, random.Random(2).sample(range(101), 40)) if pair else A
    files = []
    for name, S in (("a", A), ("b", B)):
        path = tmp_path / f"{name}.txt"
        path.write_text(render_set(S))
        files.append(str(path))
    argv = ["energy", *files[:1 + pair], "--k", str(k), "--op", op,
            "--dyadic"]
    want = dyadic_extract(energy_rep(A, B, op), k)
    with mock.patch.object(repfn, "_sort_reduce",
                           wraps=repfn._sort_reduce) as builds:
        code, out = run(capsys, *argv)
        assert code == 0 and builds.call_count == 1
        code, js = run(capsys, *argv, "--json")
        assert code == 0 and builds.call_count == 2
    assert out == (f"t={want.t} |D|={len(want.support)} "
                   f"E_k={want.energy_value} "
                   f"cert={'ok' if want.certificate_ok else 'VIOLATED'}\n")
    assert json.loads(js) == {"t": want.t, "support_size": len(want.support),
                              "energy": str(want.energy_value),
                              "certificate_ok": want.certificate_ok}
