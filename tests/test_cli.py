import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from posetmatrix import (
    cli,
    diamond,
    dimension,
    dump_matrix,
    enumerate_patterns,
    ex_exact,
    extremal,
    identity_matrix,
    realizer_to_matrix,
)
from posetmatrix.cache import ResultCache
from posetmatrix.cli import build_parser, run
from posetmatrix.verify import CHECKS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_poset_info(capsys):
    obj = invoke_json(capsys, "poset", "info", "diamond")
    assert obj["schema"] == 1
    assert obj["size"] == 4 and obj["height"] == 3
    assert obj["relations"] == 5 and obj["incomparable_pairs"] == 1


def test_poset_dimension_and_matrix(capsys):
    obj = invoke_json(capsys, "poset", "dimension", "diamond")
    assert obj["dimension"] == 2
    assert obj["realizer"] == [["a", "b", "c", "d"], ["a", "c", "b", "d"]]
    obj = invoke_json(capsys, "poset", "matrix", "diamond")
    assert obj["matrix"]["dims"] == [4, 4]
    assert obj["matrix"]["ones"] == [[1, 1], [2, 3], [3, 2], [4, 4]]


def test_patterns_command(capsys):
    obj = invoke_json(capsys, "patterns", "--poset", "diamond")
    assert obj["count"] == 16
    assert len(obj["patterns"]) == 16


def test_ex_command(tmp_path, capsys):
    pat = tmp_path / "id2.json"
    dump_matrix(identity_matrix(2), pat)
    obj = invoke_json(capsys, "--no-cache", "ex", "--dims", "3,3", "--pattern", str(pat))
    assert obj["value"] == 5
    assert obj["pattern_count"] == 1
    assert len(obj["witness"]["ones"]) == 5


def test_ex_pattern_set_directory(tmp_path, capsys):
    d = tmp_path / "pats"
    d.mkdir()
    dump_matrix(identity_matrix(2), d / "a.json")
    dump_matrix(identity_matrix(3), d / "b.json")
    obj = invoke_json(capsys, "--no-cache", "ex", "--dims", "3,3", "--pattern-set", str(d))
    assert obj["pattern_count"] == 2
    assert obj["value"] == 5


def test_ex_pattern_set_must_hold_patterns(tmp_path, capsys):
    pat = tmp_path / "id2.json"
    dump_matrix(identity_matrix(2), pat)
    (tmp_path / "empty").mkdir()
    for where in (tmp_path / "no_such_dir", pat, tmp_path / "empty"):
        code, out, err = invoke(
            capsys, "--no-cache", "ex", "--dims", "3,3", "--pattern", str(pat),
            "--pattern-set", str(where),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(where) in err


def test_ex_requires_patterns(capsys):
    code, out, err = invoke(capsys, "--no-cache", "ex", "--dims", "3,3")
    assert code == 2
    assert err.startswith("error:")


def test_ex_malformed_pattern_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, out, err = invoke(capsys, "ex", "--dims", "2,2", "--pattern", str(bad))
    assert code == 2
    assert "valid JSON" in err


def test_input_file_errors_name_the_file(tmp_path, capsys):
    # a pattern set is many files: each error says which one is bad, on one
    # line, whether the JSON, a field's type or an invariant is at fault
    cases = [
        (("ex", "--dims", "3,3", "--pattern-set"), "{oops", "matrix file is valid JSON: "),
        (("ex", "--dims", "3,3", "--pattern-set"), b"\xff\xfe", "matrix file is valid JSON: "),
        (("ex", "--dims", "3,3", "--pattern-set"), {"dims": 5, "ones": []}, "matrix file field types: "),
        (
            ("ex", "--dims", "3,3", "--pattern-set"),
            {"elements": ["a"], "covers": []},
            'matrix object shape: need "dims" and "ones" keys',
        ),
        (
            ("ex", "--dims", "3,3", "--pattern-set"),
            {"dims": [2, 2], "ones": [[3, 1]]},
            "coordinate within dims: (3, 1) outside (2, 2)",
        ),
        (("poset", "info"), {"elements": ["a"], "covers": [["a", "b"]]}, ""),
        (("lubell", "--family"), {"n": 2, "sets": [[3]]}, ""),
    ]
    for i, (argv, content, message) in enumerate(cases):
        where = tmp_path / str(i)
        where.mkdir()
        dump_matrix(identity_matrix(2), where / "a.json")
        bad = where / "b.json"
        if isinstance(content, dict):
            content = json.dumps(content)
        if isinstance(content, str):
            content = content.encode()
        bad.write_bytes(content)
        target = where if argv[-1] == "--pattern-set" else bad
        code, out, err = invoke(capsys, "--no-cache", *argv, str(target))
        assert (code, out) == (2, ""), (argv, content)
        assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1, err


def test_wrongly_typed_input_fields_exit_two(tmp_path, capsys):
    cases = [
        (("poset", "info"), {"elements": ["a", "b"], "covers": [[["a"], "b"]]}),
        (("poset", "info"), {"elements": 5, "covers": []}),
        # a string is a sequence, so these read as elements a, b, c and the
        # cover (a, b); numeric labels would not match their own covers
        (("poset", "info"), {"elements": "abc", "covers": []}),
        (("poset", "info"), {"elements": ["a", "b"], "covers": ["ab"]}),
        (("poset", "info"), {"elements": [1, 2], "covers": [[1, 2]]}),
        (("poset", "info"), {"elements": ["a", "b"], "covers": [["a", "b", "a"]]}),
        (("poset", "info"), {"elements": ["a", "b"], "covers": {"a": "b"}}),
        (("ex", "--dims", "2,2", "--pattern"), {"dims": 5, "ones": []}),
        (("ex", "--dims", "2,2", "--pattern"), {"dims": [2, 2], "ones": [5]}),
        (("lubell", "--family"), {"n": 3, "sets": [5]}),
        (("lubell", "--family"), {"n": None, "sets": []}),
        # int() would truncate each of these into a valid input
        (("ex", "--dims", "2,2", "--pattern"), {"dims": [2.7, 2], "ones": [[1.2, 1]]}),
        (("lubell", "--family"), {"n": 3, "sets": [[True], [2.9]]}),
        (("lubell", "--family"), {"n": 3.9, "sets": [[3]]}),
    ]
    for i, (argv, obj) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(obj))
        code, out, err = invoke(capsys, "--no-cache", *argv, str(path))
        assert (code, out) == (2, ""), (argv, obj)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_la_command(capsys):
    obj = invoke_json(
        capsys, "--no-cache", "la", "--n", "2", "--poset", "diamond", "--mode", "induced"
    )
    assert obj["value"] == 3
    assert obj["mode"] == "induced"
    assert len(obj["witness"]["sets"]) == 3


def test_la_over_cap_reports_override(capsys):
    code, out, err = invoke(capsys, "--no-cache", "la", "--n", "6", "--poset", "chain:7")
    assert code == 2
    assert "--cap-override" in err
    obj = invoke_json(
        capsys,
        "--no-cache",
        "--cap-override",
        "la",
        "--n",
        "6",
        "--poset",
        "chain:7",
    )
    # dropping any one size level of the 6-cube kills every 7-chain
    assert obj["value"] == 63


def test_lubell_command(tmp_path, capsys):
    fam = tmp_path / "f.json"
    fam.write_text(json.dumps({"n": 2, "sets": [[], [1], [1, 2]]}))
    obj = invoke_json(capsys, "lubell", "--family", str(fam))
    assert obj["lubell"] == "5/2"
    obj = invoke_json(capsys, "lubell", "--family", str(fam), "--shifted", "2")
    assert obj["shifted_lubell"] == "2/3"


def test_lubell_refuses_an_element_listed_twice_in_one_set(tmp_path, capsys):
    # refused like a duplicate set: merged, [1, 1] would read as {1} and the
    # family as {1}, {1, 2}
    fam = tmp_path / "f.json"
    fam.write_text(json.dumps({"n": 3, "sets": [[1, 1], [2, 1]]}))
    code, out, err = invoke(capsys, "--no-cache", "lubell", "--family", str(fam))
    assert (code, out) == (2, "")
    assert err == f"error: {fam}: duplicate set element: 1 twice in [1, 1]\n"
    # an unsorted set is still one set
    fam.write_text(json.dumps({"n": 3, "sets": [[1], [2, 1]]}))
    assert invoke_json(capsys, "lubell", "--family", str(fam))["lubell"] == "2/3"


def test_bounds_command_stable_bytes(capsys):
    code1 = run(["--no-cache", "bounds", "--poset", "diamond"])
    first = capsys.readouterr().out
    code2 = run(["--no-cache", "bounds", "--poset", "diamond"])
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second
    obj = json.loads(first)
    assert obj["chen_li_m1"] == "5/2"


@pytest.mark.parametrize(
    "cmd",
    [
        pytest.param(("ex", "--dims", "4,4", "--pattern", "{pat}/id2.json"), id="ex-4x4-id2"),
        # the ex and la commands of the benchmark's cli-session workload
        pytest.param(("ex", "--dims", "4,5", "--pattern", "{pat}/id2.json"), id="ex-4x5-id2"),
        pytest.param(("ex", "--dims", "4,4", "--pattern", "{pat}/id3.json"), id="ex-4x4-id3"),
        pytest.param(("ex", "--dims", "2,2,3", "--pattern", "{pat}/id2-3d.json"), id="ex-2x2x3-id2"),
        pytest.param(("ex", "--dims", "3,4", "--pattern-set", "{pat}/diamond"), id="ex-3x4-diamond-set"),
        pytest.param(("la", "--n", "4", "--poset", "diamond"), id="la-4-diamond"),
        pytest.param(("la", "--n", "4", "--poset", "vee:2", "--mode", "induced"), id="la-4-vee2-induced"),
        pytest.param(("la", "--n", "4", "--poset", "butterfly", "--mode", "induced"), id="la-4-butterfly-induced"),
    ],
)
def test_cache_reuse_is_transparent(tmp_path, capsys, cmd):
    pat = tmp_path / "patterns"
    (pat / "diamond").mkdir(parents=True)
    dump_matrix(identity_matrix(2), pat / "id2.json")
    dump_matrix(identity_matrix(3), pat / "id3.json")
    dump_matrix(identity_matrix(2, 3), pat / "id2-3d.json")
    for i, a in enumerate(enumerate_patterns(diamond(), 2)):
        dump_matrix(a, pat / "diamond" / f"d{i:02d}.json")
    argv = ["--cache-dir", str(tmp_path / "cache"), *(a.format(pat=pat) for a in cmd)]
    code1 = run(argv)
    cold = capsys.readouterr().out
    assert code1 == 0
    assert list((tmp_path / "cache").glob("*.json"))
    [entry] = (tmp_path / "cache").glob("*.json")
    stored = entry.read_bytes()
    code2 = run(argv)
    warm = capsys.readouterr().out
    assert code2 == 0
    assert cold == warm
    # the hit is served as it is stored, not rewritten
    assert entry.read_bytes() == stored


def test_failed_cache_recheck_is_a_miss(tmp_path, capsys):
    pat = tmp_path / "id2.json"
    dump_matrix(identity_matrix(2), pat)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    forged = {
        "ex": [[1, 1], [2, 2]],  # holds the identity pattern
        "la": [[], [1], [2], [1, 2]],  # holds an induced diamond
    }
    for argv in (
        ["ex", "--dims", "3,3", "--pattern", str(pat)],
        ["la", "--n", "3", "--poset", "diamond", "--mode", "induced"],
    ):
        code, cold, _ = invoke(capsys, *cache, *argv)
        assert code == 0
        [entry] = (tmp_path / "cache").glob("*.json")
        record = json.loads(entry.read_text())
        entry.write_text(json.dumps(dict(record, witness=forged[argv[0]])))
        code, again, err = invoke(capsys, *cache, *argv)
        assert (code, again, err) == (0, cold, "")
        assert json.loads(entry.read_text()) == record
        entry.unlink()


def forge_short_entry(root, dims, pattern):
    """Cache ex_exact(dims, [pattern]) under root, then drop the last 1 of
    the stored witness: still free, so the cache's re-check accepts it, but
    one below the optimum."""
    ex_exact(dims, [pattern], cache=ResultCache(root))
    [entry] = root.glob("*.json")
    record = json.loads(entry.read_text())
    entry.write_text(json.dumps(dict(record, value=record["value"] - 1, witness=record["witness"][:-1])))


def test_verify_ignores_a_suboptimal_cache_entry(tmp_path, capsys):
    # the forged 5x5 witness is row 1 plus column 1 down to row 4: 8 ones
    forge_short_entry(tmp_path / "cache", (5, 5), identity_matrix(2))
    obj = invoke_json(capsys, "--cache-dir", str(tmp_path / "cache"), "verify", "mt")
    assert obj["values"][-1] == {"n": 5, "value": 9, "bound": 960}


def test_bounds_ignores_a_suboptimal_cache_entry(tmp_path, capsys):
    # K is the max of ex/n over n <= 4, reached at n=4 with 15 ones
    p = diamond()
    forge_short_entry(tmp_path / "cache", (4, 4), realizer_to_matrix(p, dimension(p)[1]))
    obj = invoke_json(capsys, "--cache-dir", str(tmp_path / "cache"), "bounds", "--poset", "diamond")
    assert obj["induced_pipeline"]["exact"]["K"] == "15/4"


def test_verify_and_bounds_write_no_cache(tmp_path, capsys):
    root = str(tmp_path / "cache")
    for argv in (["verify", "all"], ["bounds", "--poset", "diamond"]):
        invoke_json(capsys, "--cache-dir", root, *argv)
        assert not (tmp_path / "cache").exists(), argv


def test_no_cache_without_cache_dir(tmp_path, capsys, monkeypatch):
    # the cache is on only under --cache-dir: no default directory is
    # read or written, whatever HOME and XDG_CACHE_HOME say
    home, xdg = tmp_path / "home", tmp_path / "xdg"
    home.mkdir()
    xdg.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
    pat = tmp_path / "id2.json"
    dump_matrix(identity_matrix(2), pat)
    for argv in (
        ["ex", "--dims", "3,3", "--pattern", str(pat)],
        ["la", "--n", "3", "--poset", "diamond", "--mode", "induced"],
    ):
        invoke_json(capsys, *argv)
        assert not any(home.iterdir()) and not any(xdg.iterdir()), argv
    # an empty name is refused rather than read as the working directory
    code, out, err = invoke(capsys, "--cache-dir", "", *argv)
    assert (code, out, err) == (2, "", "error: --cache-dir needs a directory name\n")


def test_cache_dir_that_is_not_a_directory_is_refused_before_any_search(tmp_path, capsys, monkeypatch):
    # a search ran to the end before its result was lost at the first cache
    # write; now the directory is checked first, and no search may run
    def no_search(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(extremal, "_mask_search", no_search)
    pat = tmp_path / "id2.json"
    dump_matrix(identity_matrix(2), pat)
    for root in (pat, pat / "cache"):
        for argv in (
            ["ex", "--dims", "3,3", "--pattern", str(pat)],
            ["la", "--n", "3", "--poset", "diamond"],
        ):
            code, out, err = invoke(capsys, "--cache-dir", str(root), *argv)
            assert (code, out, err) == (2, "", f"error: --cache-dir {root}: not a directory\n")


def test_no_cache_cancels_cache_dir(tmp_path, capsys):
    root = tmp_path / "cache"
    invoke_json(capsys, "--cache-dir", str(root), "--no-cache", "la", "--n", "3", "--poset", "diamond")
    assert not root.exists()


def test_cap_override_leaves_verify_bytes(capsys):
    # no verify check runs past a size cap, so lifting the caps changes nothing
    plain = invoke(capsys, "--no-cache", "verify", "tardos-diamond")
    lifted = invoke(capsys, "--no-cache", "--cap-override", "verify", "tardos-diamond")
    assert plain[0] == 0 and lifted == plain


def test_tsv_format(capsys):
    # one line per leaf, sorted by path; true, false and None print as JSON
    cases = [
        (("poset", "info", "chain:2"), {"size": "2", "poset.elements[0]": "a1"}),
        (("verify", "mt"), {"ok": "true"}),
        (("bounds", "--poset", "diamond"), {"bukh_tree.applies": "false"}),
        (("bounds", "--poset", "vee:2"), {"diamond_direct": "null"}),
    ]
    for argv, want in cases:
        code, out, err = invoke(capsys, "--no-cache", "--format", "tsv", *argv)
        assert code == 0
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        assert {path: lines[path] for path in want} == want
        assert lines == dict(sorted(lines.items()))


def test_unknown_poset_is_input_error(capsys):
    code, out, err = invoke(capsys, "poset", "info", "zigzag")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "spec",
    [
        "chain:99999999999999",
        "boolean:12",
        "vee:2048",
        pytest.param("chain:" + "9" * 5000, id="chain:<5000 nines>"),
        pytest.param("boolean:" + "0" * 5000 + "12", id="boolean:<5000 zeros>12"),
    ],
)
def test_oversized_builtin_poset_is_input_error(capsys, spec):
    # refused before anything is built: chain:99999999999999 once ran out
    # of memory, and boolean:12 has 4,096 elements, vee:2048 has 2,049; a
    # size of over 4,300 digits once reached int()'s digit limit
    code, out, err = invoke(capsys, "--no-cache", "poset", "info", spec)
    assert code == 2 and out == ""
    assert err == f"error: poset {spec} has more than 2048 elements\n"


def test_bad_usage_exits_two(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_one_parser_serves_every_run(tmp_path, capsys):
    # the parser is built once per process; an argparse error and then two
    # --pattern lists give a fresh parser's bytes: no list carries over
    assert build_parser() is build_parser()
    pats = {}
    for k in (2, 3):
        pats[k] = str(tmp_path / f"id{k}.json")
        dump_matrix(identity_matrix(k), pats[k])
    code, out, err = invoke(capsys, "ex", "--pattern", pats[2], "--dims")
    assert (code, out) == (2, "")
    assert err.endswith("\nposetmatrix ex: error: argument --dims: expected one argument\n")
    for ks, digest in (
        ((2, 3), "f3a460dbf358ac0ca9054bcea251dbbd2bbf6490e5c3ed05c31d56bc4cbcd110"),
        ((3,), "8c88731724470bc49c8a2d7076f08b466dc9b6defbfa78f3245241dfa100a237"),
    ):
        argv = ["--no-cache", "ex", "--dims", "3,3"]
        for k in ks:
            argv += ["--pattern", pats[k]]
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["pattern_count"] == len(ks)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_commands_pass(capsys):
    for check, trials in (
        ("countp", None),
        ("doublecount", "5"),
        ("lw", "50"),
        ("blocks", "10"),
        ("counta", "5"),
        ("mt", None),
        ("tardos-diamond", None),
    ):
        argv = ["--no-cache", "verify", check]
        if trials:
            argv += ["--trials", trials]
        obj = invoke_json(capsys, *argv)
        assert obj["ok"] is True, check
        assert obj["seed"] == 0


def test_grid_budget_reports_are_frozen(capsys):
    # exact ex values against their linear budgets: 192n for the 2x2
    # identity (Marcus-Tardos, k=2) and 4n for the diamond pattern set
    assert invoke_json(capsys, "--no-cache", "verify", "mt") == {
        "schema": 1,
        "seed": 0,
        "check": "density-constant",
        "ok": True,
        "values": [
            {"n": 1, "value": 1, "bound": 192},
            {"n": 2, "value": 3, "bound": 384},
            {"n": 3, "value": 5, "bound": 576},
            {"n": 4, "value": 7, "bound": 768},
            {"n": 5, "value": 9, "bound": 960},
        ],
    }
    assert invoke_json(capsys, "--no-cache", "verify", "tardos-diamond") == {
        "schema": 1,
        "seed": 0,
        "check": "diamond-pattern-set",
        "ok": True,
        "values": [
            {"n": 1, "value": 1, "bound": 4},
            {"n": 2, "value": 3, "bound": 8},
            {"n": 3, "value": 6, "bound": 12},
        ],
    }


def test_verify_rejects_bad_trials(capsys):
    bad = (("lw", "0"), ("lw", "-5"), ("blocks", "0"))
    # checks that take no trials refuse a trial count
    bad += (("countp", "5"), ("mt", "5"), ("tardos-diamond", "5"))
    for check, trials in bad:
        code, out, err = invoke(capsys, "--no-cache", "verify", check, "--trials", trials)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_verify_all_aggregates(capsys):
    obj = invoke_json(
        capsys, "--no-cache", "--seed", "3", "verify", "all", "--trials", "5"
    )
    assert obj["ok"] is True
    assert set(obj["checks"]) == {
        "countp",
        "counta",
        "doublecount",
        "lw",
        "blocks",
        "mt",
        "tardos-diamond",
    }
    assert obj["seed"] == 3
    checks = obj["checks"]
    for name in ("doublecount", "lw", "blocks"):
        assert checks[name]["trials"] == 5, name
    assert [run["trials"] for run in checks["counta"]["runs"]] == [5, 5, 5]


def test_verify_all_frozen_bytes(capsys):
    code, out, err = invoke(capsys, "--no-cache", "--seed", "3", "verify", "all", "--trials", "5")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "03a1cd352d905d35af634918c55642976fdcec57029b3e07ce6160e015c424b6"
    )


@pytest.mark.parametrize(
    "seed, digest",
    [
        ("0", "890491a034baddc802acd97ff462c740ff18087b070e6f88e54072952f05d565"),
        ("3", "a2c99d5d51e1436d61d132065ba0ab65b16798e133edcd5a444b155e54374276"),
    ],
)
def test_verify_counta_frozen_bytes(capsys, seed, digest):
    # each deletion draws from the first live copy of the cube's table, so a
    # table that gave another first copy would change these bytes
    code, out, err = invoke(capsys, "--no-cache", "--seed", seed, "verify", "counta", "--trials", "334")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "seed, digest",
    [
        ("0", "744ec67a668356c1c8d23fe859c7f05914bba106079e5cf8542d325bf79a565d"),
        ("3", "5c725eff84466c5a917fa890f30632b36a21a2ce9c805c3e6d4296a130154be6"),
    ],
)
def test_verify_counta_frozen_bytes_at_2000_trials(capsys, seed, digest):
    # at 2000 trials hundreds of `vee:2` matrices fit its 3x3 pattern, so
    # these bytes hold the draws of many trials that build their matrix
    code, out, err = invoke(capsys, "--no-cache", "--seed", seed, "verify", "counta", "--trials", "2000")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_default_trials(capsys):
    obj = invoke_json(capsys, "--no-cache", "verify", "doublecount")
    assert obj["trials"] == 50
    checks = invoke_json(capsys, "--no-cache", "verify", "all")["checks"]
    assert checks["doublecount"]["trials"] == 25
    assert [run["trials"] for run in checks["counta"]["runs"]] == [50, 50, 50]
    assert (checks["lw"]["trials"], checks["blocks"]["trials"]) == (1000, 100)


def test_verify_failure_exits_one(capsys, monkeypatch):
    def failing(trials, seed):
        return {"check": "forced", "ok": False}

    monkeypatch.setitem(CHECKS, "mt", (failing, None, None))
    for check in ("mt", "all"):
        code, out, err = invoke(capsys, "--no-cache", "verify", check)
        assert code == 1, check
        assert json.loads(out)["ok"] is False and err == ""


def test_instance_that_does_not_fit_in_memory_exits_two(tmp_path, capsys, monkeypatch):
    # an oversized --cap-override run (la n=40, ex on a 10^11 x 10^11 host)
    # fails to allocate; the searches are stood in for, nothing is allocated
    def too_large(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "la_exact", too_large)
    monkeypatch.setattr(cli, "ex_exact", too_large)
    pat = tmp_path / "id2.json"
    dump_matrix(identity_matrix(2), pat)
    for argv in (
        ["la", "--n", "40", "--poset", "diamond"],
        ["ex", "--dims", "99999999999,99999999999", "--pattern", str(pat)],
    ):
        code, out, err = invoke(capsys, "--no-cache", "--cap-override", *argv)
        assert (code, out) == (2, "")
        assert err == "error: out of memory: the instance is too large to hold\n", err


def source_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["--no-cache", "verify", "countp"]
    code, want, _ = invoke(capsys, *argv)
    assert code == 0
    for module in ("posetmatrix", "posetmatrix.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True,
            text=True,
            env=source_env(),
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, want), (module, proc.stderr)


def test_closed_stdout_exits_quietly():
    # `posetmatrix ... | head` when head is gone before the CLI writes: no
    # traceback, and not exit 1, which means "verify found violations"
    with subprocess.Popen(
        [sys.executable, "-m", "posetmatrix.cli", "--no-cache", "verify", "countp"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=source_env(),
    ) as proc:
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""


def test_closed_stdout_exits_141_in_process(monkeypatch):
    # as above, in this process: stdout is a pipe whose reader is gone, so
    # the flush raises BrokenPipeError and `run` returns the SIGPIPE status
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert run(["--no-cache", "verify", "countp"]) == 141
