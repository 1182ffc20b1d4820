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


def _fp_set(tmp_path, name, values):
    path = tmp_path / f"{name}.txt"
    path.write_text("# field prime 2147483647\n"
                    + "".join(f"{v}\n" for v in values))
    return str(path)


def test_verify_main_sweep_writes_out(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code, plain = run(capsys, "verify", "--lemma", "main", "--out", str(out))
    assert code == 0 and plain.startswith("min_ratio=")
    code, js = run(capsys, "verify", "--lemma", "main", "--json")
    assert code == 0
    assert json.loads(out.read_text()) == json.loads(js)


@pytest.mark.parametrize("lemma, sets, listed", [
    ("mixed", ["a", "u"], "E4+E2x, E4xE2+, E4xE4+, E4+E4x"),
    ("rss", ["a"], "additive, multiplicative"),
    ("cauchy-schwarz", ["a"], "add, mul"),
])
def test_verify_rejects_unknown_variant(tmp_path, capsys, lemma, sets,
                                        listed):
    files = {"a": _fp_set(tmp_path, "a", range(1, 41)),
             "u": _fp_set(tmp_path, "u", range(1, 9))}
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lemma", lemma, *map(files.get, sets),
              "--variant", "E2+E2x"])
    assert exc.value.code == (f"unknown variant 'E2+E2x' of lemma {lemma!r}; "
                              f"its variants: {listed}")
    assert capsys.readouterr().out == ""


def test_verify_rejects_variant_of_plain_lemma(tmp_path, capsys):
    a = _fp_set(tmp_path, "a", range(1, 41))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lemma", "pluennecke", a, "--variant", "add"])
    assert exc.value.code == ("unknown variant 'add' of lemma 'pluennecke'; "
                              "its variants: none")


@pytest.mark.parametrize("argv", [
    ["--budget", "10", "verify", "--lemma", "pluennecke", "a"],
    ["verify", "--lemma", "cauchy-schwarz", "a", "--budget", "10"],
    ["--budget", "10", "count", "kmps", "a", "a", "a"],
    ["--budget", "10", "op", "add", "a", "a"],
    ["--budget", "10", "span", "a"],
])
def test_budget_overrun_is_a_message_not_a_traceback(tmp_path, capsys, argv):
    a = _fp_set(tmp_path, "a", range(1, 41))
    code = main([a if x == "a" else x for x in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("budget exceeded: ")
    assert "exceed budget 10" in captured.err


def test_constraint_violation_outside_verify(tmp_path, capsys):
    # `regularize` reaches no p-constraint, `verify` does: both exit 1 with
    # the reason on stderr
    small = tmp_path / "s.txt"
    small.write_text("# field prime 101\n" + "\n".join(map(str, range(1, 33))))
    code = main(["verify", "--lemma", "kmps", str(small), str(small),
                 str(small)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("constraint violated: |X||Y||Z| << p^2: "
                            "32768 exceeds 10201/4\n")


@pytest.mark.parametrize("lemma, count, arity", [
    ("cauchy-schwarz", 2, 1), ("pluennecke", 0, 1), ("sdz", 5, 4),
    ("sdz", 3, 4), ("kmps", 4, 3), ("mixed", 3, 2), ("rss", 2, 1),
    ("regular", 2, 1), ("main", 2, 1),
])
def test_verify_needs_exactly_its_arity(tmp_path, capsys, lemma, count,
                                        arity):
    a = _fp_set(tmp_path, "a", range(1, 41))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lemma", lemma, *[a] * count])
    assert exc.value.code == (f"lemma {lemma!r} needs {arity} set file(s), "
                              f"got {count}")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("op", ["add", "mul"])
def test_verify_regular_runs_the_suite_check(tmp_path, capsys, op):
    from sumprod import check_regular, default_slack, read_set_file, \
        xue_regularize
    a = _fp_set(tmp_path, "a", random.Random(3).sample(range(1, 2**31 - 1),
                                                       48))
    A = read_set_file(a)[0]
    want = check_regular(xue_regularize(A, 4, op), A, 4, default_slack(48))
    code, js = run(capsys, "verify", "--lemma", "regular", a, "--op", op,
                   "--json")
    got = json.loads(js)
    assert code == (0 if want.passed else 1)
    got.pop("elapsed_ms")
    expected = json.loads(want.to_json())
    expected.pop("elapsed_ms")
    assert got == expected
    code, by_variant = run(capsys, "verify", "--lemma", "regular", a,
                           "--variant", op, "--op", "add")
    assert by_variant.startswith(f"regular-decomposition-{op}: ")


def test_verify_main_on_one_set(tmp_path, capsys):
    from sumprod import read_set_file, sum_product_ratio
    a = _fp_set(tmp_path, "a", range(1, 33))
    A = read_set_file(a)[0]
    lo = min(sum_product_ratio(A, ao, mo) for ao in ("add", "sub")
             for mo in ("mul", "div"))
    code, js = run(capsys, "verify", "--lemma", "main", a, "--json")
    rep = json.loads(js)
    assert code == 0 and rep["lemma"] == "main-theorem-ratio"
    assert rep["lhs"] == lo and rep["pass"] is (lo >= 0.25)
    assert rep["inputs"] == {"n": 32, "family": None,
                             "field": A.field.describe()}
