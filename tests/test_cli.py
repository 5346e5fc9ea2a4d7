"""Command-line interface: suites, eval, exit codes, canonical output."""

import ast
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from beauville_lab import cli, dr, llv, mukai, obstruction, report
from beauville_lab.cli import (main, run_k3_suite, run_llv_suite,
                               run_theta_suite, run_triple_suite)
from beauville_lab.mukai import MukaiSpace, llv_model_space
from beauville_lab.errors import OutsideModelError
from beauville_lab.report import (AXIOMS, Report, assume, assumptions,
                                  check_report, exit_code, render_json,
                                  render_text, report_to_dict)

GOLDEN = (Path(__file__).resolve().parent.parent / "benchmarks" / "golden"
          / "verify_all_seed0.json")
THETA_G16_GOLDEN = Path(__file__).resolve().parent / "golden" / "theta_obstruction_g16.json"
LLV_LARGEST_GOLDEN = Path(__file__).resolve().parent / "golden" / "llv_hdim10_trials100.json"
LLV_NEGATIVE_T_GOLDEN = (Path(__file__).resolve().parent / "golden"
                         / "llv_hdim10_t-3_2_trials24.json")
TRIPLE_G16_GOLDEN = Path(__file__).resolve().parent / "golden" / "triple_g16.json"
TEXT_GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_all.txt"
SRC = Path(__file__).resolve().parent.parent / "src" / "beauville_lab"

def space_file(path, middle):
    """Write a space whose middle gram is `middle` in the documented format."""
    k = len(middle)
    gram = [[Fraction(0)] * (k + 2) for _ in range(k + 2)]
    gram[0][k + 1] = gram[k + 1][0] = Fraction(-1)
    for r, row in enumerate(middle):
        gram[r + 1][1:k + 1] = map(Fraction, row)
    labels = ("alpha", *(f"m{i + 1}" for i in range(k)), "beta")
    path.write_text(MukaiSpace(labels, tuple(map(tuple, gram))).to_json(),
                    encoding="utf-8")
    return str(path)


UNEQUAL_NORMS = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]]


def run_cli(capsys, *argv):
    """main(argv) as (exit code, stdout, stderr), whether it returns or exits."""
    try:
        code = main(list(argv))
    except SystemExit as err:
        code = err.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- report layer -----------------------------------------------------------------------


def test_report_rejects_unknown_status():
    with pytest.raises(ValueError, match="unknown status"):
        Report(check="x", status="maybe")


def test_report_to_dict_canonicalizes():
    rep = Report(check="x", status="verified",
                 params={"t": Fraction(1, 2), "dims": (6, 7)},
                 assumptions=["b", "a"], witness="w", elapsed_ms=1.25)
    # render_json prints the Fraction as its text and the tuple as a list
    assert json.loads(render_json([rep]))["reports"] == [{
        "check": "x", "status": "verified",
        "params": {"t": "1/2", "dims": [6, 7]},
        "assumptions": ["a", "b"], "witness": "w",
    }]
    assert report_to_dict(rep, timings=True)["elapsed_ms"] == 1.25


def test_render_text_marks_and_assumptions():
    reports = [
        Report(check="b", status="refuted", witness="bad"),
        Report(check="a", status="verified", assumptions=["z", "y"]),
        Report(check="c", status="unsupported"),
    ]
    lines = render_text(reports).splitlines()
    assert lines[0].startswith("ok   a")
    assert lines[1].strip() == "assumes: y, z"
    assert lines[2].startswith("FAIL b -- bad")
    assert lines[3].startswith("SKIP c")
    assert exit_code(reports) == 1
    assert exit_code([reports[1]]) == 0
    assert exit_code([]) == 0


def test_render_json_sorts_reports():
    reports = [Report(check="z", status="verified"),
               Report(check="a", status="verified")]
    body = json.loads(render_json(reports))
    assert body["schema_version"] == 1
    assert [r["check"] for r in body["reports"]] == ["a", "z"]


def assuming(*names):
    """A work() that assumes names and returns one identity that holds."""
    def work():
        for name in names:
            assume(name)
        return [("holds", True, "")]
    return work


def test_inner_assumption_scopes_reach_the_outer_ones():
    with assumptions() as outer:
        assume("unit-relation")
        with assumptions() as inner:
            assume("delta-nonzero")
        assume("kappa1-nonzero")
    assert inner == {"delta-nonzero"}
    assert outer == {"unit-relation", "delta-nonzero", "kappa1-nonzero"}
    # a report's scope nests in an open one the same way
    with assumptions() as outer:
        rep = check_report("x", assuming("relbv-axiom"))
    assert rep.assumptions == ["relbv-axiom"] and outer == {"relbv-axiom"}


def test_sibling_reports_do_not_share_assumptions():
    first = check_report("a", assuming("unit-relation"))
    second = check_report("b", assuming())
    assert first.assumptions == ["unit-relation"]
    assert second.assumptions == []


def test_a_work_that_raises_leaves_no_scope_open(monkeypatch):
    def leaves_the_model():
        assume("unit-relation")
        raise OutsideModelError("stub pipeline")

    monkeypatch.setattr(obstruction, "genus3_obstruction", leaves_the_model)
    reports = run_theta_suite()
    assert reports[-1].status == "unsupported" and reports[-1].assumptions == []
    assert report._SCOPES.get() == ()
    assert check_report("b", assuming()).assumptions == []


def test_unknown_assumptions_raise_inside_and_outside_a_scope():
    with pytest.raises(KeyError, match="unknown assumption"):
        assume("unknown")
    with assumptions() as used:
        with pytest.raises(KeyError, match="unknown assumption"):
            assume("unknown")
    assert used == set()


def assumed_literals(source: str):
    """The string literals that source passes to assume(...), and the lines
    of the calls whose argument holds none, which a scan cannot check."""
    literals, opaque = set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "assume":
            found = {leaf.value for arg in node.args for leaf in ast.walk(arg)
                     if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)}
            literals |= found
            if not found:
                opaque.append(node.lineno)
    return literals, opaque


def test_the_engine_assumes_exactly_the_named_axioms():
    assert assumed_literals('assume("a" if g else "b")\nassume(name)\n') == ({"a", "b"}, [2])
    literals, opaque = set(), {}
    for path in sorted(SRC.glob("*.py")):
        found, lines = assumed_literals(path.read_text(encoding="utf-8"))
        literals |= found
        if lines:
            opaque[path.name] = lines
    assert opaque == {}
    assert literals == set(AXIOMS)


# -- suite runners ----------------------------------------------------------------------


def test_suite_runners_all_verify():
    llv_reports = run_llv_suite(trials=1)
    assert [r.check for r in llv_reports] == [
        "llv-verbitsky", "llv-isotropic-pairs", "llv-cross-triple",
        "llv-double-bracket-recovery"]
    triple_reports = run_triple_suite(genera=[2], c0_values=[1],
                                      c1_values=[1])
    assert [r.check for r in triple_reports] == [
        "triple-replay-sl2", "triple-fourier-conjugacy",
        "triple-fourier-isometry", "triple-fourier-compatibility"]
    k3_reports = run_k3_suite()
    assert len(k3_reports) == 6
    theta_reports = run_theta_suite()
    assert any(r.check == "theta-high-genus-g4" for r in theta_reports)
    for rep in (*llv_reports, *triple_reports, *k3_reports, *theta_reports):
        assert rep.status == "verified", rep
    mult = next(r for r in k3_reports if r.check == "k3-multiplicativity")
    assert mult.assumptions == ["relbv-axiom"]


def test_triple_suite_builds_one_triple_per_sign_pair(monkeypatch):
    # and one barred Fourier matrix per genus and c0
    calls = {"build_triple": 0, "primed_operators": 0, "barred_fourier_matrix": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(llv, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(llv, name, counted)
    reports = run_triple_suite(genera=[2, 3])
    assert all(r.status == "verified" for r in reports)
    assert calls == {"build_triple": 4, "primed_operators": 4, "barred_fourier_matrix": 4}


def test_triple_suite_builds_one_fourier_matrix_per_genus_and_c0(monkeypatch):
    # the isometry report builds it and the compatibility report reuses it
    calls = []
    original = mukai.fourier_matrix

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(mukai, "fourier_matrix", counted)
    monkeypatch.setattr(llv, "fourier_matrix", counted)
    reports = run_triple_suite()
    assert all(r.status == "verified" for r in reports)
    assert len(calls) == 22 and len(set(calls)) == 2


def test_llv_suite_runs_the_check_function_the_module_holds(monkeypatch):
    # a wrapper put on llv.verify_verbitsky, as a tracer puts one, is the
    # function the llv-verbitsky report runs, once per quadruple
    seen = []
    original = llv.verify_verbitsky

    def wrapped(ops):
        seen.append(ops.quad)
        return original(ops)

    monkeypatch.setattr(llv, "verify_verbitsky", wrapped)
    reports = run_llv_suite(trials=2)
    assert len(seen) == 3
    assert [r.check for r in reports][0] == "llv-verbitsky"
    assert all(r.status == "verified" for r in reports)


def test_byte_stable_json_across_runs():
    first = render_json(run_llv_suite(trials=2, seed=7))
    second = render_json(run_llv_suite(trials=2, seed=7))
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


# -- verify subcommand ------------------------------------------------------------------


def test_verify_k3_suite_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "k3-motive")
    assert code == 0
    body = json.loads(out)
    checks = [r["check"] for r in body["reports"]]
    assert checks == sorted(checks)
    assert "k3-projectors" in checks
    assert all(r["status"] == "verified" for r in body["reports"])


def test_verify_no_suites_is_empty_success(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert json.loads(out) == {"reports": [], "schema_version": 1}


def test_verify_deduplicates_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "k3-motive", "k3-motive")
    assert code == 0
    single = json.loads(out)
    code, out, _ = run_cli(capsys, "verify", "k3-motive")
    assert json.loads(out) == single


def test_verify_cli_output_is_byte_stable(capsys):
    code, first, _ = run_cli(capsys, "verify", "llv", "--trials", "2",
                             "--seed", "7")
    assert code == 0
    code, second, _ = run_cli(capsys, "verify", "llv", "--trials", "2",
                              "--seed", "7")
    assert first == second


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "k3-motive", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith(("ok  ", "     assumes:")) for line in lines)
    assert any("assumes: relbv-axiom" in line for line in lines)


def test_verify_all_times_every_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--timings")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 22
    assert all(r["elapsed_ms"] >= 0 for r in reports)


def test_verify_timings_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "llv", "--trials", "0")
    assert "elapsed_ms" not in out
    code, out, _ = run_cli(capsys, "verify", "llv", "--trials", "0",
                           "--timings")
    assert code == 0
    assert "elapsed_ms" in out


def test_verify_custom_space_file(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(llv_model_space(6, Fraction(2)).to_json(), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "llv", "--trials", "1",
                           "--space", str(path))
    assert code == 0
    body = json.loads(out)
    assert all(r["params"]["space"] == "custom" for r in body["reports"])


def test_verify_space_file_not_an_object_exits_two(tmp_path, capsys):
    space_json = llv_model_space(6, Fraction(2)).to_json()
    for name, text in (("double.json", json.dumps(space_json)),
                       ("list.json", "[1, 2]"),
                       ("rows.json", '{"labels": ["alpha", "beta"], "gram": 5}')):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            main(["verify", "llv", "--space", str(path)])
        assert err.value.code == 2, name
        assert "cannot load space" in capsys.readouterr().err


def test_refuted_witness_names_each_failing_check_once(tmp_path, capsys):
    path = space_file(tmp_path / "unequal.json", UNEQUAL_NORMS)
    code, out, _ = run_cli(capsys, "verify", "llv", "--trials", "0",
                           "--space", path, "--format", "json")
    assert code == 1
    refuted = [r for r in json.loads(out)["reports"]
               if r["status"] == "refuted"]
    assert {r["check"] for r in refuted} >= {"llv-verbitsky",
                                             "llv-cross-triple"}
    for report in refuted:
        for failure in report["witness"].split("; "):
            name, _, why = failure.partition(": ")
            assert why != name, failure


def test_a_failed_weight_deficit_certificate_refutes_the_power_push(capsys, monkeypatch):
    relation = dr.TOP_WEIGHT_RELATION
    broken = dr.ExclusionCertificate("never-short", dr.AffineInt(0, 0), "no deficit")
    monkeypatch.setattr(dr, "TOP_WEIGHT_RELATION", replace(
        relation, certificates=relation.certificates + (broken,)))
    code, out, _ = run_cli(capsys, "verify", "theta-obstruction", "--format", "json")
    assert code == 1
    reports = {r["check"]: r for r in json.loads(out)["reports"]}
    push = reports.pop("theta-power-push")
    assert push["status"] == "refuted"
    assert push["witness"] == "weight-deficit certificates: never-short"
    assert all(r["status"] == "verified" for r in reports.values())


def test_verify_all_matches_the_golden_output(capsys):
    golden = GOLDEN.read_bytes()
    assert main(["verify", "all", "--format", "json"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_verify_all_text_matches_the_golden_output(capsys):
    golden = TEXT_GOLDEN.read_bytes()
    assert main(["verify", "all", "--format", "text"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_every_assumption_of_verify_all_is_a_named_axiom(capsys):
    assert main(["verify", "all", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    named = {name for report in reports for name in report["assumptions"]}
    # verify all does not reach z-identification
    assert {"relbv-axiom", "bv-absolute-relation"} <= named
    assert named | {"z-identification"} <= set(AXIOMS)


def test_theta_obstruction_at_genus_16_matches_the_golden_output(capsys):
    # verify all reaches the high-genus pipeline only at g = 4, 5
    golden = THETA_G16_GOLDEN.read_bytes()
    assert main(["verify", "theta-obstruction", "--genus", "16", "--format", "json"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_triple_at_genus_16_matches_the_golden_output(capsys):
    # verify all sweeps the triple suite over g = 2..12 only
    golden = TRIPLE_G16_GOLDEN.read_bytes()
    assert main(["verify", "triple", "--genus", "16", "--format", "json"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_llv_suite_at_the_largest_allowed_work_matches_the_golden_output(capsys):
    golden = LLV_LARGEST_GOLDEN.read_bytes()
    argv = ["verify", "llv", "--hdim", "10", "--trials", str(cli.MAX_TRIALS), "--format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_llv_suite_at_a_negative_non_integer_t_matches_the_golden_output(capsys):
    # the other llv goldens take t = 2; the benchmark draws t from
    # +-{2, 3, 1/2, 3/2, 2/3, 5/2}, where entries have denominators
    golden = LLV_NEGATIVE_T_GOLDEN.read_bytes()
    argv = ["verify", "llv", "--hdim", "10", "--t=-3/2", "--trials", "24", "--seed", "1",
            "--format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden


def verify_usage_errors(tmp_path):
    """argv lists that `verify` rejects with exit code 2."""
    small = tmp_path / "three-middles.json"
    small.write_text(llv_model_space(5, Fraction(2)).to_json(), encoding="utf-8")
    unequal = space_file(tmp_path / "unequal.json", UNEQUAL_NORMS)
    isotropic = space_file(tmp_path / "isotropic.json", [
        [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    skew = space_file(tmp_path / "skew.json", [
        [2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    # nesting past the json decoder's recursion limit, and a Gram entry
    # that json reads as an infinite float
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="utf-8")
    huge = tmp_path / "huge.json"
    huge.write_text('{"labels": ["a"], "gram": [[1e400]]}', encoding="utf-8")
    return (["verify", "nonsense"],
            ["verify", "llv", "--hdim", "11"],
            ["verify", "llv", "--hdim", "12"],
            ["verify", "llv", "--trials", "-1"],
            ["verify", "llv", "--trials", "101"],
            ["verify", "llv", "--trials", "100000000"],
            ["verify", "triple", "--genus", "1"],
            ["verify", "llv", "--t", "abc"],
            ["verify", "llv", "--t", "0"],
            ["verify", "llv", "--space", "/no/such/file.json"],
            ["verify", "llv", "--space", str(small)],
            ["verify", "llv", "--space", unequal],
            ["verify", "llv", "--space", isotropic, "--trials", "0"],
            ["verify", "llv", "--space", skew, "--trials", "0"],
            ["verify", "llv", "--space", str(deep)],
            ["verify", "llv", "--space", str(huge)],
            ["verify", "theta-obstruction", "--genus", "17"],
            ["verify", "theta-obstruction", "--genus", "1"],
            ["verify", "triple", "--genus", "17"],
            ["verify", "llv", "--c0", "3"])


EVAL_USAGE_ERRORS = (["eval", "h", "--context", "galois"],
                     ["eval", "h", "--context", "llv", "--hdim", "5"],
                     ["eval", "h", "--context", "llv", "--hdim", "11"],
                     ["eval", "h", "--context", "llv", "--hdim", "800"])


def test_verify_usage_errors_exit_two(tmp_path, capsys):
    for argv in verify_usage_errors(tmp_path):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        capsys.readouterr()


def test_the_edges_of_the_cli_bounds_are_accepted(capsys):
    # one step past each edge is a usage error above
    for hdim in ("6", "10"):
        assert run_cli(capsys, "eval", "h", "--context", "llv", "--hdim", hdim)[0] == 0
    assert run_cli(capsys, "verify", "theta-obstruction", "--genus", "2")[0] == 0


def test_verify_genus_restricts_triple_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "triple", "--genus", "4",
                           "--c0", "1", "--c1", "-1")
    assert code == 0
    body = json.loads(out)
    replay = next(r for r in body["reports"]
                  if r["check"] == "triple-replay-sl2")
    assert replay["params"]["genus"] == [4]
    assert replay["params"]["c0"] == [1]
    assert replay["params"]["c1"] == [-1]


# -- eval subcommand --------------------------------------------------------------------


def test_eval_scalar_and_operator(capsys):
    code, out, _ = run_cli(capsys, "eval", "2 + 3/2", "--context", "llv")
    assert (code, out.strip()) == (0, "7/2")
    code, out, _ = run_cli(capsys, "eval", "s*s", "--context", "k3")
    assert (code, out.strip()) == (0, "-2*c")


def test_eval_json_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "Finv o (Delta(Theta) o F)",
                           "--context", "k3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "schema_version": 1,
        "context": "k3",
        "expr": "Finv o Delta(Theta) o F",
        "kind": "relative-cycle",
        "value": "-one",
    }


def test_eval_push_and_locus(capsys):
    code, out, _ = run_cli(capsys, "eval", "theta^2", "--context", "taut",
                           "--push", "2")
    assert code == 0
    assert "2" in out
    code, _, err = run_cli(capsys, "eval", "2 + 2", "--context", "taut",
                           "--push", "2")
    assert code == 1
    assert "tautological class" in err
    code, out, _ = run_cli(capsys, "eval", "theta", "--context", "taut",
                           "--locus", "boundary")
    assert code == 0
    assert "[boundary]" in out


def test_eval_parse_error_exits_two(capsys):
    code, _, err = run_cli(capsys, "eval", "e(", "--context", "llv")
    assert code == 2
    assert "parse error" in err
    assert "line 1, column 3" in err


def test_eval_reads_decimal_digits_only(capsys):
    # a superscript two is a digit but not a decimal digit: no number starts
    # there, so it is a character the grammar does not know
    code, out, err = run_cli(capsys, "eval", "theta+²", "--context", "taut")
    assert (code, out) == (2, "")
    assert err == "parse error: line 1, column 7: unexpected character '²'\n"
    # every decimal digit reads as its value, the Arabic-Indic three too
    code, out, _ = run_cli(capsys, "eval", "1/٣", "--context", "taut")
    assert (code, out.strip()) == (0, "1/3")


def test_eval_model_errors_exit_one(capsys):
    for expr, context in (("e(5)", "llv"), ("Delta(c)", "k3"),
                          ("F o F", "k3"), ("theta o delta", "taut")):
        code, _, err = run_cli(capsys, "eval", expr, "--context", context)
        assert code == 1, (expr, context)
        assert "evaluation error" in err
    # a literal past Python's digit limit for int() is refused by its place
    many = "7" * 5000
    for expr, where in ((many, "line 1, column 1"), (f"2^{many}", "line 1, column 3"),
                        (f"1/{many}", "line 1, column 1"), (f"h +\n {many}/3", "line 2, column 2")):
        code, _, err = run_cli(capsys, "eval", expr, "--context", "llv")
        assert (code, err) == (1, f"evaluation error: number at {where} has more than "
                                  "4300 digits\n"), expr
    code, out, _ = run_cli(capsys, "eval", "7" * 4300, "--context", "llv")
    assert (code, out.strip()) == (0, "7" * 4300)


def test_eval_division_by_zero_exits_one(capsys):
    for context in ("llv", "k3", "taut"):
        code, _, err = run_cli(capsys, "eval", "1/0", "--context", context)
        assert code == 1, context
        assert "evaluation error: division by zero" in err


def test_eval_refuses_huge_scalar_powers_at_once(capsys):
    start = time.perf_counter()
    for context in ("llv", "k3", "taut"):
        for expr in ("3^20000000", "(2/3)^20000000", "(3^5000)^2"):
            code, _, err = run_cli(capsys, "eval", expr, "--context", context)
            assert code == 1, (expr, context)
            assert "evaluation error" in err
        for expr, value in (("(-1)^1000000001", "-1"), ("0^1000000000", "0"),
                            ("1^1000000000", "1"), ("3^9000", str(3**9000))):
            code, out, _ = run_cli(capsys, "eval", expr, "--context", context)
            assert (code, out.strip()) == (0, value), (expr, context)
    for context in ("llv", "taut"):
        code, out, _ = run_cli(capsys, "eval", "i^1000000002", "--context", context)
        assert (code, out.strip()) == (0, "-1"), context
    assert time.perf_counter() - start < 1.0


def test_eval_bounds_taut_powers_by_their_coefficient_terms(capsys):
    # one monomial with a four-term coefficient: the coefficient terms count
    # toward the pairs of a product, so the power stops at once
    for fmt in ("text", "json"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", "(theta*(a+b+N+d))^80", "--context", "taut",
                                 "--format", fmt)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, ""), fmt
        assert err == ("evaluation error: the power ^80 would pair more than 20000 terms "
                       "in one product\n")


def test_eval_refuses_a_push_past_the_digit_limit(capsys):
    # 2000! has 5736 digits: the pushed value is checked as a power is
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "eval", "theta^2000", "--context", "taut",
                                 "--push", "2000", "--format", fmt)
        assert (code, out) == (1, ""), fmt
        assert err == ("evaluation error: the push along 2000 dimensions would pass "
                       "4300 digits\n")
    # 1000! has 2568 digits and prints
    code, out, _ = run_cli(capsys, "eval", "theta^1000", "--context", "taut",
                           "--push", "1000")
    assert (code, out.strip()) == (0, f"({factorial(1000)})*1 [base]")


def test_eval_refuses_a_huge_push_at_once(capsys):
    # n! is never computed: the bound on it refuses the push, or the push
    # cancels to zero
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "theta^3000000", "--context", "taut",
                             "--push", "3000000")
    assert (code, out) == (1, "")
    assert err == ("evaluation error: the push along 3000000 dimensions would pass "
                   "4300 digits\n")
    zero = "-2*theta^2999999*xi2^2 - theta^3000000*psi1 - theta^3000000*psi2"
    assert run_cli(capsys, "eval", zero, "--context", "taut", "--push", "3000000") == \
        (0, "0 [base]\n", "")
    assert time.perf_counter() - start < 2.0


def test_eval_usage_errors_exit_two(capsys):
    for argv in EVAL_USAGE_ERRORS:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        capsys.readouterr()
    # nesting past the parser's depth limit is a parse error, not a
    # RecursionError
    for expr in ("(" * 3000 + "h" + ")" * 3000, "h+" + "-" * 3000 + "h",
                 "[" * 3000 + "h", "e(" * 3000 + "1" + ")" * 3000):
        code, out, err = run_cli(capsys, "eval", expr, "--context", "llv")
        assert (code, out) == (2, ""), expr[:10]
        assert err.startswith("parse error: line 1, column "), err
        assert err.rstrip().endswith("nesting deeper than 100 levels"), err
    deep = "(" * 100 + "h" + ")" * 100
    assert run_cli(capsys, "eval", deep, "--context", "llv", "--format", "json")[0] == 0


# -- one parser per process ------------------------------------------------------------


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser.__wrapped__() is not cli._build_parser()


def test_usage_errors_repeat_and_match_a_fresh_parser(tmp_path, capsys, monkeypatch):
    argvs = (*verify_usage_errors(tmp_path), *EVAL_USAGE_ERRORS)
    shared = [(run_cli(capsys, *argv), run_cli(capsys, *argv))
              for argv in argvs]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    for argv, (first, second) in zip(argvs, shared):
        assert first[0] == 2 and first[2], argv
        assert first == second == run_cli(capsys, *argv), argv


def test_no_argument_leaks_into_the_next_call(tmp_path, capsys):
    plain = ["verify", "llv", "--trials", "1"]
    before = run_cli(capsys, *plain)
    space = tmp_path / "space.json"
    space.write_text(llv_model_space(7, Fraction(3)).to_json(), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "llv", "--trials", "1", "--seed", "5",
                           "--space", str(space), "--genus", "3", "--c0", "-1",
                           "--timings")
    assert code == 0 and "custom" in out and "elapsed_ms" in out
    assert run_cli(capsys, *plain) == before
    assert "space" not in json.loads(before[1])["reports"][0]["params"]
    args = vars(cli._build_parser().parse_args(plain))
    assert "space_obj" not in args
    assert args == vars(cli._build_parser.__wrapped__().parse_args(plain))


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["eval", "--help"]])
def test_help_is_unchanged_and_follows_columns(argv, capsys, monkeypatch):
    shared = {}
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        shared[columns] = run_cli(capsys, *argv)
        assert shared[columns][0::2] == (0, "")
        assert run_cli(capsys, *argv) == shared[columns]
    assert shared["40"] != shared["120"]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    for columns, streams in shared.items():
        monkeypatch.setenv("COLUMNS", columns)
        assert run_cli(capsys, *argv) == streams


# argv that main hands to a command's own parser and argv that only the
# top-level parser reads; argparse differs between Python versions in how it
# reads '--' and abbreviations, so the oracle is a full parse on the running one
ARGV_CORPUS = (
    [], ["-h"], ["--help"], ["verify", "-h"], ["eval", "-h"], ["-h", "verify"],
    ["ver"], ["ver", "all"], ["eva", "--context", "llv", "h"], ["-x"], ["--", "verify"],
    ["verify", "--bogus"], ["verify", "llv", "--trials", "0", "--bogus", "x"],
    ["eval", "--context", "llv", "h", "extra"], ["eval", "h", "--context", "llv", "--nope"],
    ["eval", "--context", "llv", "h", "extra", "-q", "--", "more"],
    ["verify", "--hdim", "5"], ["verify", "--c0", "2"], ["verify", "--trials", "-1"],
    ["eval", "--context", "llv", "h", "--hdim", "11"], ["eval", "h"], ["eval"], ["verify"],
    ["eval", "--context"], ["eval", "--context", "nope", "h"],
    ["eval", "--context", "llv", "h", "--t=-3/2"], ["eval", "--context", "llv", "h", "--t", "3/2"],
    ["eval", "--context", "llv", "h", "--t", "-3/2"], ["verify", "llv", "--trials", "0", "--t=-3/2"],
    ["eval", "--context", "llv", "--", "-h"], ["eval", "--context", "llv", "--", "-e(1)"],
    ["eval", "--", "-h", "--context", "llv"], ["eval", "--context", "llv", "--", "-h", "--", "x"],
    ["eval", "--context", "k3", "--context", "llv", "h"], ["eval", "--context", "llv", "h", "g"],
    ["verify", "llv", "--trials", "0", "--hdim", "7", "--hdim", "8"],
    ["verify", "--he"], ["eval", "--h", "llv"], ["eval", "--cont", "llv", "h"],
    ["eval", "--context=llv", "h", "--format=json"],
)


def test_main_reads_argv_as_a_full_parse_does(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = [run_cli(capsys, *argv) for argv in ARGV_CORPUS]
    monkeypatch.setattr(cli, "_parse", lambda parser, argv: parser.parse_args(argv))
    for argv, streams in zip(ARGV_CORPUS, got):
        assert streams == run_cli(capsys, *argv), argv
    assert got[ARGV_CORPUS.index(["eval", "--context", "llv", "h", "extra"])][2].endswith(
        "beauville-lab: error: unrecognized arguments: extra\n")


# the beauville_lab modules that importing cli loads: taut (with its own
# imports) gives the parser its --locus choices
CLI_IMPORTS = {"cli", "errors", "lincomb", "poly", "scalars", "taut"}
LLV = {"llv", "mukai", "sparse", "report"}
LOADS = {
    (): CLI_IMPORTS,
    ("verify", "llv", "--trials", "1"): CLI_IMPORTS | LLV,
    ("verify", "triple", "--genus", "2"): CLI_IMPORTS | LLV,
    ("verify", "k3-motive"): CLI_IMPORTS | {"k3", "k3_mult", "report"},
    ("verify", "theta-obstruction"): CLI_IMPORTS | {"obstruction", "dr", "report"},
    ("eval", "--context", "llv", "h"): CLI_IMPORTS | LLV | {"dsl"},
    ("eval", "--context", "k3", "Theta"): CLI_IMPORTS | {"dsl", "k3", "report"},
    ("eval", "--context", "taut", "theta"): CLI_IMPORTS | {"dsl"},
}


def checkout_env():
    """The environment of a subprocess that imports the engine from this
    checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_each_request_loads_only_the_modules_it_runs():
    script = ("import sys\nfrom beauville_lab import cli\n"
              "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
              "print(sorted(name for name in sys.modules if name.startswith('beauville_lab.')))\n"
              "sys.exit(code)\n")
    env = checkout_env()
    for argv, modules in LOADS.items():
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (argv, proc.stderr)
        loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
        assert loaded == sorted(f"beauville_lab.{name}" for name in modules), argv


def test_a_taut_eval_imports_neither_dataclasses_nor_inspect():
    script = ("import sys\nbefore = set(sys.modules)\nfrom beauville_lab import cli\n"
              "code = cli.main(['eval', '--context', 'taut', 'theta'])\n"
              "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
              "sys.exit(code)\n")
    env = checkout_env()
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_closed_stdout_ends_without_a_traceback():
    # `beauville-lab verify all | head -c 10`, with the reader gone before
    # the report is written
    env = checkout_env()
    proc = subprocess.Popen([sys.executable, "-m", "beauville_lab.cli", "verify", "all"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
