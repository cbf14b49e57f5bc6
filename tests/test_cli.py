import argparse
import json

import pytest

from ginshift.changes import CoordinateChange
from ginshift.cli import (EXIT_CERTIFICATION, EXIT_CHECK_FAILED,
                          EXIT_INVALID_INPUT, EXIT_PASS, EXIT_SIZE_LIMIT,
                          build_parser, main)


@pytest.fixture
def rei_file(tmp_path):
    path = tmp_path / "rei.ideal"
    path.write_text("ring=ext n=4\ne{1,2}\ne{1,3}\ne{3,4}\n")
    return str(path)


@pytest.fixture
def edges_file(tmp_path):
    path = tmp_path / "edges.ideal"
    path.write_text("ring=poly n=4\nx1*x2\nx3*x4\n")
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("n 4\n1 2\n1 3\n3 4\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gin_exterior(rei_file, capsys):
    code, out = run(capsys, ["gin", rei_file, "--order", "revlex"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["generators"] == ["e{1,2}", "e{1,3}", "e{2,3}"]
    assert doc["certificate"]["accepted"] is True


def test_gin_polynomial_adaptive(edges_file, capsys):
    code, out = run(capsys, ["gin", edges_file, "--order", "lex"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["generators"] == ["x1^2", "x1*x2", "x1*x3^2", "x2^4"]


def test_gin_prints_the_degree_cap_it_used(tmp_path, rei_file, capsys):
    empty = tmp_path / "empty.ideal"
    empty.write_text("ring=ext n=3\n")
    # without --degree-cap an exterior gin is certified up to n
    for path, n in ((empty, 3), (rei_file, 4)):
        code, out = run(capsys, ["gin", str(path)])
        assert code == EXIT_PASS
        assert json.loads(out)["degree_cap"] == n
    _, out = run(capsys, ["gin", rei_file, "--degree-cap", "2"])
    assert json.loads(out)["degree_cap"] == 2


def test_gin_deterministic_output(rei_file, capsys):
    _, out1 = run(capsys, ["gin", rei_file, "--seed", "7"])
    _, out2 = run(capsys, ["gin", rei_file, "--seed", "7"])
    assert out1 == out2


def test_shift(rei_file, capsys):
    code, out = run(capsys, ["shift", rei_file, "--pairs", "1,3"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["generators"] == ["e{1,2}", "e{1,3}", "e{1,4}", "e{2,3,4}"]


def test_witnesses(rei_file, capsys):
    code, out = run(capsys, ["witnesses", rei_file, "--budget", "50"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    gens = {tuple(w["generators"]) for w in doc["witnesses"]}
    assert ("e{1,2}", "e{1,3}", "e{2,3}") in gens
    assert ("e{1,2}", "e{1,3}", "e{1,4}", "e{2,3,4}") in gens


def test_shift_under_an_inverse_order_keeps_the_ideal(rei_file, capsys):
    code, out = run(capsys, ["shift", rei_file, "--order", "inv:lex",
                             "--pairs", "1,3;2,4"])
    assert code == EXIT_PASS
    assert out == ('{"generators": ["e{1,2}", "e{1,3}", "e{3,4}"], '
                   '"pairs": "1,3;2,4", "seed": 0}\n')


#: the gins of rei.ideal and edges.ideal under inv:lex and inv:revlex: the
#: revlex and lex gins under x_i -> x_{5-i}, each strongly stable with x4
#: ranked first
MIRRORED_GINS = {
    ("rei", "inv:lex"): ["e{2,3}", "e{2,4}", "e{3,4}"],
    ("rei", "inv:revlex"): ["e{1,4}", "e{2,4}", "e{3,4}", "e{1,2,3}"],
    ("edges", "inv:lex"): ["x3*x4", "x4^2", "x3^3"],
    ("edges", "inv:revlex"): ["x3*x4", "x4^2", "x2^2*x4", "x3^4"],
}


@pytest.mark.parametrize("command", ["gin", "witnesses"])
@pytest.mark.parametrize("order", ["inv:lex", "inv:revlex"])
def test_gin_and_witnesses_under_inverse_orders(command, order, rei_file,
                                                edges_file, capsys,
                                                monkeypatch,
                                                fresh_trial_sets):
    # a gin is certified in the order's ranking of the variables; the
    # witness search keeps standard strongly stable terminals, which no
    # shift of an inverse order reaches: it reports so, with no trial drawn
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    if command == "witnesses":
        monkeypatch.setattr(CoordinateChange, "random_set", no_trials)
        monkeypatch.setattr(CoordinateChange, "random_upper_triangular",
                            no_trials)
    for name, path in (("rei", rei_file), ("edges", edges_file)):
        code = main([command, path, "--order", order])
        out, err = capsys.readouterr()
        if command == "gin":
            doc = json.loads(out)
            assert code == EXIT_PASS
            assert doc["generators"] == MIRRORED_GINS[name, order]
            assert doc["certificate"]["strongly_stable"] is True
            assert doc["certificate"]["accepted"] is True
        else:
            assert (code, out) == (EXIT_CERTIFICATION, "")
            assert "no strongly stable ideal is reachable" in err


def test_a_gin_under_an_increasing_weight_order(rei_file, capsys):
    # weight:1,2,3,4 ranks x4 first, as inv:lex does
    code, out = run(capsys, ["gin", rei_file, "--order",
                             "weight:1,2,3,4:lex"])
    assert code == EXIT_PASS
    assert json.loads(out)["generators"] == \
        ["e{1,4}", "e{2,4}", "e{3,4}", "e{1,2,3}"]


def test_witnesses_under_an_inverse_unsorted_weight_order(rei_file, capsys):
    # e2 ranks first and e1 last: only the shifts (2, 3) and (2, 4) can
    # move a face, and (2, 4) reaches a standard strongly stable ideal
    code, out = run(capsys, ["witnesses", rei_file, "--order",
                             "inv:weight:4,1,3,2:lex", "--budget", "50"])
    assert code == EXIT_PASS
    assert out == ('{"budget": 50, "complete": true, "seed": 0, '
                   '"witnesses": [{"generators": ["e{1,2}", "e{1,3}", '
                   '"e{2,3}"], "sequence": [[2, 4]]}]}\n')


def test_witnesses_under_an_unsorted_weight_order(rei_file, capsys):
    # e2 ranks below e3 and e4: the shifts (2, 3) and (2, 4) are the identity
    code, out = run(capsys, ["witnesses", rei_file, "--order",
                             "weight:4,1,3,2:lex", "--budget", "50"])
    assert code == EXIT_PASS
    assert out == ('{"budget": 50, "complete": true, "seed": 0, '
                   '"witnesses": [{"generators": ["e{1,2}", "e{1,3}", '
                   '"e{1,4}", "e{2,3,4}"], "sequence": [[1, 3]]}]}\n')


def test_witnesses_drained_search_is_complete(rei_file, capsys):
    code, out = run(capsys, ["witnesses", rei_file, "--budget", "12"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["complete"] is True
    assert len(doc["witnesses"]) == 2


def test_witnesses_cut_search_says_so(rei_file, capsys):
    # six shifts reach one stable ideal; the second state is left unexpanded
    code, out = run(capsys, ["witnesses", rei_file, "--budget", "6"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["complete"] is False
    assert [w["generators"] for w in doc["witnesses"]] == [
        ["e{1,2}", "e{1,3}", "e{1,4}", "e{2,3,4}"]]


def test_classify(graph_file, capsys):
    code, out = run(capsys, ["classify", graph_file])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["condition_v"] is False
    assert doc["condition_vi"] is False
    assert doc["condition_v_witness"]["graph"] == "a"
    assert doc["chordal"] is True


def test_profile_closed_form(capsys):
    code, out = run(capsys, ["profile", "--closed-form", "2,3"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["bipartite_profile"] == [4, 6, 6, 6, 6]
    assert doc["two_cliques_profile"] == doc["two_cliques_profile_h_sum"]


@pytest.mark.parametrize("argv,chunk", [
    (["shift", "{rei}", "--pairs", "1;2"], "'1'"),
    (["shift", "{rei}", "--pairs", "1,3;1,2,3"], "'1,2,3'"),
    (["shift", "{rei}", "--pairs", "a,b"], "'a,b'"),
    (["profile", "--closed-form=2,3,4"], "'2,3,4'"),
    (["profile", "--closed-form=-1,3"], "-1 and 3"),
])
def test_unreadable_pairs_are_named(rei_file, capsys, argv, chunk):
    # Python's unpacking errors ("too many values to unpack") named no input
    code = main([arg.format(rei=rei_file) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INVALID_INPUT, "")
    assert chunk in captured.err
    assert "unpack" not in captured.err


def test_profile_requires_input(capsys):
    code, _ = run(capsys, ["profile"])
    assert code == EXIT_INVALID_INPUT


def test_betti_with_oracle(tmp_path, capsys):
    path = tmp_path / "stable.ideal"
    path.write_text("ring=poly n=2\nx1^2\nx1*x2\nx2^3\n")
    code, out = run(capsys, ["betti", str(path), "--oracle"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["oracle_matches"] is True
    assert doc["betti"]["entries"] == [[0, 2, 2], [0, 3, 1], [1, 2, 1], [1, 3, 1]]


def test_shifted_complex(tmp_path, capsys):
    path = tmp_path / "c4.complex"
    path.write_text(json.dumps(
        {"n": 4, "facets": [[1, 3], [1, 4], [2, 3], [2, 4]]}))
    code, out = run(capsys, ["shifted-complex", str(path)])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert sorted(map(tuple, doc["shifted"]["facets"])) == \
        [(1, 4), (2, 3), (2, 4), (3, 4)]
    assert doc["f_vector"] == [1, 4, 4]


@pytest.mark.parametrize("order", ["inv:revlex", "weight:1,2,3,4:lex"])
def test_shifted_complex_under_orders_ranking_the_last_vertex_first(
        order, tmp_path, capsys):
    path = tmp_path / "path.complex"
    path.write_text(json.dumps({"n": 4, "facets": [[1, 2], [1, 3], [3, 4]]}))
    code, out = run(capsys, ["shifted-complex", str(path), "--order", order])
    assert code == EXIT_PASS
    assert json.loads(out)["shifted"]["facets"] == \
        [[1, 2], [1, 3], [2, 3], [4]]


def test_sweep_thm1(capsys):
    code, out = run(capsys, ["sweep", "thm1", "--n", "3"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["summary"]["passed"] is True
    assert doc["summary"]["classes"] == 7


def test_sweep_thm2(capsys):
    code, out = run(capsys, ["sweep", "thm2", "--n", "3"])
    assert code == EXIT_PASS
    assert json.loads(out)["summary"]["passed"] is True


def test_sweep_table_prints_the_summary_lines(capsys):
    code, out = run(capsys, ["sweep", "thm1", "--n", "3", "--format", "table"])
    assert code == EXIT_PASS
    assert out.splitlines() == ["classes: 7", "condition_v_true: 7",
                                "passed: True", "seed: 0"]


def test_a_failed_sweep_exits_1(misread_class, capsys):
    code, out = run(capsys, ["sweep", "thm2", "--n", "4"])
    assert code == EXIT_CHECK_FAILED
    assert '"passed": false' in out
    assert json.loads(out)["summary"]["passed"] is False


def test_properties_subcommand(capsys):
    code, out = run(capsys, ["properties", "--samples", "8"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["passed"] is True


def test_invalid_input_exit_codes(tmp_path, capsys, rei_file):
    code, _ = run(capsys, ["gin", str(tmp_path / "missing.ideal")])
    assert code == EXIT_INVALID_INPUT
    bad = tmp_path / "bad.ideal"
    bad.write_text("ring=ext n=4\ne{1;2}\n")
    code, _ = run(capsys, ["gin", str(bad)])
    assert code == EXIT_INVALID_INPUT
    for argv in (["sweep", "thm1", "--n", "0"], ["sweep", "thm1", "--n", "9"],
                 ["sweep", "thm2", "--n", "-1"], ["sweep", "thm2", "--n", "0"],
                 ["gin", rei_file, "--degree-cap", "-1"],
                 ["shift", rei_file, "--pairs", "1,3", "--degree-cap", "-1"],
                 ["witnesses", rei_file, "--degree-cap", "-1"],
                 ["witnesses", rei_file, "--budget", "-1"],
                 ["properties", "--samples", "-5"],
                 ["properties", "--samples", "0"],
                 # composite, a strong pseudoprime to the bases up to 37
                 ["gin", rei_file, "--field",
                  "prime:318665857834031151167461"]):
        code, out = run(capsys, argv)
        assert (code, out) == (EXIT_INVALID_INPUT, ""), argv


@pytest.mark.parametrize("command,text", [
    ("classify", "n\n1 2\n"),
    ("classify", '{"edges": [[1, 2]]}'),
    ("shifted-complex", '{"n": 3}'),
    ("shifted-complex", "[1, 2]"),
], ids=["graph-header-without-n", "graph-json-without-n",
        "complex-without-facets", "complex-not-an-object"])
def test_malformed_graph_and_complex_files_exit_2(command, text, tmp_path,
                                                  capsys):
    path = tmp_path / "input"
    path.write_text(text)
    code, out = run(capsys, [command, str(path)])
    assert (code, out) == (EXIT_INVALID_INPUT, "")


@pytest.mark.parametrize("command,text,n", [
    ("gin", "ring=poly n=-1\n1\n", -1),
    ("gin", "ring=ext n=-2\n", -2),
    ("classify", "n -2\n", -2),
    ("classify", '{"n": -1, "edges": []}', -1),
    ("shifted-complex", '{"n": -3, "facets": []}', -3),
], ids=["poly-ideal", "ext-ideal", "graph", "graph-json", "complex"])
def test_a_negative_n_in_a_file_exits_2(command, text, n, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text)
    assert main([command, str(path)]) == EXIT_INVALID_INPUT
    out, err = capsys.readouterr()
    assert out == "" and f"n={n}" in err


def test_the_unit_ideal_and_degree_0_profiles(tmp_path, capsys):
    path = tmp_path / "unit.ideal"
    path.write_text("ring=poly n=3\n1\n")
    code, out = run(capsys, ["betti", str(path), "--oracle"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["betti"]["entries"] == doc["oracle"]["entries"] == [[0, 0, 1]]
    assert doc["oracle_matches"] is True
    code, out = run(capsys, ["betti", str(path)])
    assert (code, json.loads(out)["betti"]) == (EXIT_PASS, doc["betti"])
    stable = tmp_path / "stable.ideal"
    stable.write_text("ring=poly n=2\nx1^2\nx1*x2\nx2^3\n")
    for ideal in (path, stable):
        code, out = run(capsys, ["profile", str(ideal), "--degree", "0"])
        assert (code, out) == (EXIT_INVALID_INPUT, "")


@pytest.mark.parametrize("text,unit", [("ring=poly n=0\n1\n", "1"),
                                       ("ring=ext n=0\ne{}\n", "e{}")],
                         ids=["poly", "ext"])
def test_the_unit_ideal_on_no_variables_is_its_own_gin(text, unit, tmp_path,
                                                       capsys):
    path = tmp_path / "unit.ideal"
    path.write_text(text)
    code, out = run(capsys, ["gin", str(path)])
    doc = json.loads(out)
    assert (code, doc["generators"]) == (EXIT_PASS, [unit])
    assert doc["certificate"]["accepted"] is True


def test_a_complex_past_the_vertex_limit_exits_4(tmp_path, capsys):
    path = tmp_path / "c21.complex"
    path.write_text(json.dumps(
        {"n": 21, "facets": [[i, i + 1] for i in range(1, 21)]}))
    code, out = run(capsys, ["shifted-complex", str(path)])
    assert (code, out) == (EXIT_SIZE_LIMIT, "")


def test_a_prime_past_int64_gives_the_default_prime_results(
        rei_file, edges_file, tmp_path, capsys):
    # 2**89 - 1: numpy cannot draw its elements in one call
    big = ["--field", "prime:618970019642690137449562111"]
    complex_path = tmp_path / "c4.complex"
    complex_path.write_text(json.dumps(
        {"n": 4, "facets": [[1, 3], [1, 4], [2, 3], [2, 4]]}))
    for argv in (["gin", rei_file], ["gin", edges_file],
                 ["shifted-complex", str(complex_path)],
                 ["sweep", "thm1", "--n", "4"], ["sweep", "thm2", "--n", "4"]):
        code, out = run(capsys, argv + big)
        assert code == EXIT_PASS, argv
        assert out == run(capsys, argv)[1], argv


def test_prime2_field_is_restricted(rei_file, capsys):
    code, _ = run(capsys, ["gin", rei_file, "--field", "prime:2"])
    assert code == EXIT_INVALID_INPUT


def test_size_limit_exit_code(tmp_path, capsys):
    n = 13
    path = tmp_path / "big.ideal"
    path.write_text(f"ring=ext n={n}\ne{{1,2}}\n")
    code, _ = run(capsys, ["gin", str(path), "--degree-cap", "2"])
    assert code == EXIT_SIZE_LIMIT


def test_table_format(rei_file, capsys):
    code, out = run(capsys, ["gin", rei_file, "--format", "table"])
    assert code == EXIT_PASS
    assert "generators:" in out


def test_truncated_adaptive_gin_exits_with_size_limit(edges_file, capsys,
                                                      monkeypatch):
    import functools

    from ginshift import cli
    # the lex gin of (x1x2, x3x4) has a generator in degree 4 and needs cap 5
    monkeypatch.setattr(cli, "gin_adaptive",
                        functools.partial(cli.gin_adaptive, max_cap=4))
    code, out = run(capsys, ["gin", edges_file, "--order", "lex"])
    assert code == EXIT_SIZE_LIMIT
    assert out == ""


@pytest.fixture
def unstable_file(tmp_path):
    path = tmp_path / "unstable.ideal"
    path.write_text("ring=poly n=3\nx1^2\nx1*x2^2\nx2*x3\nx3^2\n")
    return str(path)


def test_betti_oracle_on_an_ideal_that_is_not_strongly_stable(unstable_file,
                                                              capsys):
    code, out = run(capsys, ["betti", unstable_file, "--oracle"])
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert "betti" not in doc and "oracle_matches" not in doc
    assert doc["oracle"]["entries"] == [[0, 2, 3], [0, 3, 1], [1, 2, 1],
                                        [1, 3, 4], [2, 3, 2]]


def test_betti_closed_form_refuses_an_ideal_that_is_not_strongly_stable(
        unstable_file, capsys):
    code, out = run(capsys, ["betti", unstable_file])
    assert code == EXIT_INVALID_INPUT
    assert out == ""


@pytest.mark.parametrize("text, flavor", [
    # x1^2 has no squarefree exchange to miss
    ("ring=poly n=3\nx1^2\nx1*x2\n", "squarefree"),
    # a principal exterior ideal is stable only under the squarefree rule
    ("ring=ext n=3\ne{1,2}\n", "stable")])
def test_betti_refuses_a_flavour_that_does_not_fit_the_ideal(text, flavor,
                                                            tmp_path, capsys):
    path = tmp_path / "misfit.ideal"
    path.write_text(text)
    argv = ["betti", str(path), "--flavor", flavor]
    assert run(capsys, argv) == (EXIT_INVALID_INPUT, "")
    code, out = run(capsys, argv + ["--oracle"])
    if text.startswith("ring=ext"):
        # the oracle works in the polynomial ring only
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        return
    # the polynomial ideal gets the oracle alone, as an unstable one does
    doc = json.loads(out)
    assert code == EXIT_PASS
    assert "betti" not in doc and "oracle_matches" not in doc
    assert doc["oracle"]["entries"] == [[0, 2, 2], [1, 2, 1]]


#: the options each subcommand reads besides its own: --seed and --format
#: everywhere, and the engine options it passes on
SUBCOMMAND_OPTIONS = {
    "gin": {"--order", "--field", "--degree-cap", "--trials"},
    "shift": {"--order", "--field", "--degree-cap"},
    "witnesses": {"--order", "--field", "--degree-cap"},
    "classify": set(),
    "profile": set(),
    "betti": set(),
    "shifted-complex": {"--order", "--field", "--trials"},
    "sweep": {"--field", "--trials"},
    "properties": set(),
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(SUBCOMMAND_OPTIONS)
    shared = {"--order", "--field", "--degree-cap", "--trials", "--seed",
              "--format", "--ring"}
    slots = 0
    for name, sub in commands.items():
        options = {s for a in sub._actions for s in a.option_strings} & shared
        assert options == SUBCOMMAND_OPTIONS[name] | {"--seed", "--format"}
        slots += len(options)
    assert slots == 33


def test_an_option_a_subcommand_does_not_read_exits_2(graph_file, capsys):
    for argv in (["classify", graph_file, "--ring", "ext"],
                 ["properties", "--field", "prime:2"],
                 ["sweep", "thm1", "--order", "lex"],
                 ["shift", graph_file, "--pairs", "1,2", "--trials", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INVALID_INPUT, argv
        assert capsys.readouterr().out == ""


def test_sweep_stdout_is_identical_across_runs(capsys):
    code1, out1 = run(capsys, ["sweep", "thm1", "--n", "4"])
    code2, out2 = run(capsys, ["sweep", "thm1", "--n", "4"])
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2
    assert set(json.loads(out1)) == {"theorem", "n_max", "records",
                                     "summary", "seed"}
