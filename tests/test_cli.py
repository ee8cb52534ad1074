"""End-to-end command-line behavior through main(argv)."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import artifact
import artifact.cli as cli
from artifact.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    @pytest.mark.parametrize(
        "label, count", [("g24", "3"), ("g25", "6"), ("spin5w1", "2")]
    )
    def test_count_only(self, capsys, label, count):
        code, out, err = run(capsys, "enumerate", label, "--count-only")
        assert (code, out, err) == (0, count + "\n", "")

    def test_type_a_count_only_builds_no_tableau(self, capsys, monkeypatch):
        import artifact.verifier as verifier

        def refuse(*args, **kwargs):
            raise AssertionError("--count-only enumerated")

        monkeypatch.setattr(verifier, "enumerate_standard", refuse)
        code, out, err = run(capsys, "enumerate", "g37", "-k", "3", "--count-only")
        assert (code, out, err) == (0, "32425\n", "")

    def test_type_b_count_only_builds_no_tableau(self, capsys, monkeypatch):
        import artifact.verifier as verifier

        def refuse(*args, **kwargs):
            raise AssertionError("--count-only enumerated")

        monkeypatch.setattr(verifier, "enumerate_standard_b", refuse)
        code, out, err = run(capsys, "enumerate", "spin7w2", "-k", "4", "--count-only")
        assert (code, out, err) == (0, "225\n", "")

    def test_instance_flag_matches_positional(self, capsys):
        code_a, out_a, _ = run(capsys, "enumerate", "g24", "-k", "2")
        code_b, out_b, _ = run(capsys, "enumerate", "--instance", "g24", "-k", "2")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_conflicting_instance_spellings(self, capsys):
        code, out, err = run(capsys, "enumerate", "g24", "--instance", "g25")
        assert code == 2
        assert err.startswith("error:")
        assert "twice" in err

    def test_table_output_shape(self, capsys):
        code, out, _ = run(capsys, "enumerate", "g24")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# instance: g24, degree: 1, count: 3"
        assert lines[1] == ""
        assert lines[2:6] == ["1,2", "1,2", "3,4", "3,4"]

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "enumerate", "g24", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["instance"] == "g24"
        assert payload["count"] == 3
        assert len(payload["tableaux"]) == 3

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "enumerate", "g24", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "index,rows"
        assert len(lines) == 4
        assert lines[1].startswith('0,"')

    def test_type_b_rows_carry_the_header(self, capsys):
        code, out, _ = run(capsys, "enumerate", "spin5w2", "-k", "2")
        assert code == 0
        assert "type: B, n: 2" in out

    def test_type_b_table_bytes(self, capsys):
        code, out, err = run(capsys, "enumerate", "spin5w2", "-k", "1")
        assert (code, err) == (0, "")
        assert out == (
            "# instance: spin5w2, degree: 1, count: 2\n"
            "\n"
            "type: B, n: 2\n1,2\n3,4\n"
            "\n"
            "type: B, n: 2\n1,3\n2,4\n"
        )

    def test_type_b_degree_zero_is_a_bare_header(self, capsys):
        # the one empty tableau prints its header and no rows
        code, out, err = run(capsys, "enumerate", "spin7w2", "-k", "0")
        assert (code, err) == (0, "")
        assert out == "# instance: spin7w2, degree: 0, count: 1\n\ntype: B, n: 3\n"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["spin9w4", "-k", "2"],
             "03c7c0d19bc7138aa00616d8c0d50c5850ce71562bbf1295760fc5d9c7904b55"),
            (["spin7w2", "-k", "3", "--format", "json"],
             "fdf428ca77424e5f9fb59fe8446ada65140770b36dca2660773a5c8965f4de2d"),
            (["spin7w3", "-k", "2", "--format", "csv"],
             "37e770f0eb3eb7d0a211486af414c1916221a1f144c020c83aaedb73357dfdbe"),
        ],
    )
    def test_type_b_listing_is_pinned(self, capsys, argv, digest):
        # the listing order is the search order, so the bytes are pinned
        code, out, err = run(capsys, "enumerate", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_unknown_label(self, capsys):
        code, out, err = run(capsys, "enumerate", "zzz", "--count-only")
        assert code == 2
        assert err.startswith("error:")


class TestStraighten:
    def test_classic_exchange(self, capsys):
        code, out, _ = run(capsys, "straighten", "-n", "4", "p[1,4] p[2,3]")
        assert code == 0
        assert out == "-1 * p[1,2] p[3,4]\n+1 * p[1,3] p[2,4]\n"

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("p[1,4] p[2,3]  # exchange me\n")
        code, out, _ = run(capsys, "straighten", "-n", "4", "--input", str(path))
        assert code == 0
        assert out == "-1 * p[1,2] p[3,4]\n+1 * p[1,3] p[2,4]\n"

    def test_expression_and_input_conflict(self, capsys, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("p[1,2]")
        code, out, err = run(
            capsys, "straighten", "-n", "4", "p[1,2]", "--input", str(path)
        )
        assert (code, out, err) == (2, "", "error: give an expression or --input, not both\n")
        code, out, err = run(
            capsys, "factorize", "g24", "p[1,2]^4 p[3,4]^4", "--input", str(path)
        )
        assert (code, out, err) == (2, "", "error: give a monomial or --input, not both\n")

    def test_missing_expression(self, capsys):
        code, out, err = run(capsys, "straighten", "-n", "4")
        assert (code, out, err) == (2, "", "error: missing expression\n")

    def test_json_terms(self, capsys):
        code, out, _ = run(
            capsys, "straighten", "-n", "4", "p[1,4] p[2,3]", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["terms"] == [
            {"coeff": "-1", "monomial": "p[1,2] p[3,4]"},
            {"coeff": "1", "monomial": "p[1,3] p[2,4]"},
        ]

    def test_zero_denominator_is_a_clean_error(self, capsys):
        code, out, err = run(capsys, "straighten", "-n", "4", "1/0 * p[1,2]")
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "zero denominator" in err

    def test_standard_input_is_a_fixed_point(self, capsys):
        code, out, _ = run(capsys, "straighten", "-n", "5", "p[1,3] p[4,5]")
        assert code == 0
        assert out == "+1 * p[1,3] p[4,5]\n"


class TestFactorize:
    def test_divisible_monomial_verifies(self, capsys):
        code, out, _ = run(capsys, "factorize", "g24", "p[1,2]^4 p[3,4]^4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# g24: p[1,2]^4 p[3,4]^4"
        assert lines[1] == "+1 * [p[1,2]^2 p[3,4]^2] * [p[1,2]^2 p[3,4]^2]"
        assert lines[-1] == "verified: yes"

    def test_json_certificate_is_verified(self, capsys):
        code, out, _ = run(
            capsys, "factorize", "g24", "p[1,2]^4 p[3,4]^4", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["verified"] is True
        assert payload["instance"] == "g24"

    def test_emit_dot_writes_the_multigraph(self, capsys, tmp_path):
        path = tmp_path / "graph.dot"
        code, _, _ = run(
            capsys, "factorize", "g24", "p[1,2]^4 p[3,4]^4",
            "--emit-dot", str(path),
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("graph G {")
        assert "1 -- 2;" in text

    def test_seed_option_does_not_change_the_verdict(self, capsys):
        code, out, _ = run(
            capsys, "factorize", "g24", "p[1,2]^4 p[3,4]^4", "--seed", "5"
        )
        assert code == 0
        assert out.splitlines()[-1] == "verified: yes"

    def test_seed_is_a_factorize_option_only(self):
        code, out, err = outcome(["verify", "g24", "-k", "2", "--seed", "3"])
        assert (code, out) == (("SystemExit", 2), "")
        assert "unrecognized arguments: --seed 3" in err

    def test_ungenerated_monomial_is_a_clean_error(self, capsys):
        stuck = "p[1,2,3] p[1,4,5] p[2,4,6] p[3,5,6]"
        code, _, err = run(capsys, "factorize", "g36", stuck)
        assert code == 2
        assert "not generated in degree one" in err

    def test_missing_monomial(self, capsys):
        code, out, err = run(capsys, "factorize", "g24")
        assert (code, out, err) == (2, "", "error: missing monomial\n")

    def test_oversized_fallback_is_refused_before_any_listing(self, capsys, monkeypatch):
        # no unit divides this g37 element and its rows are too long for the
        # graph route: the fallback would solve 225 x 225 products x 4411 rows
        import artifact.verifier as verifier

        def refuse(*args, **kwargs):
            raise AssertionError("listed or straightened before the guard")

        monkeypatch.setattr(verifier, "basis", refuse)
        monkeypatch.setattr(verifier, "straighten", refuse)
        stuck = "p[1,2,3]^5 p[1,4,5] p[2,4,5] p[3,4,5] p[4,6,7]^3 p[5,6,7]^3"
        code, out, err = run(capsys, "factorize", "g37", stuck)
        assert (code, out) == (2, "")
        assert "exceeds the budget of 10000000 matrix entries" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("factorize", "g24", "p[2,1] p[3,4]"), "row (2, 1) is not strictly increasing"),
        (("factorize", "g24", "p[1,7] p[2,3]"), "row (1, 7) leaves the range 1..4"),
        (("straighten", "-n", "4", "p[2,1] p[3,4]"), "row (2, 1) is not strictly increasing"),
    ],
)
def test_rows_from_the_command_line_are_checked(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


class TestVerify:
    def test_passing_bound(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--instance", "g24", "--k", "2", "--gen-degree", "1"
        )
        assert code == 0
        assert "pass" in out

    def test_failing_bound_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "g36", "-k", "2", "-d", "1")
        assert code == 1
        lines = out.splitlines()
        assert lines[-1].split() == ["g36", "2", "1", "16", "15", "fail"]

    def test_default_generation_degree_comes_from_the_instance(self, capsys):
        code, out, _ = run(capsys, "verify", "g36", "-k", "2")
        assert code == 0
        assert out.splitlines()[-1].split() == ["g36", "2", "2", "16", "16", "pass"]

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("label", ["g24", "spin5w1"])
    def test_negative_generation_degree_is_a_usage_error(self, capsys, label, fmt):
        code, out, err = run(capsys, "verify", label, "-k", "2", "-d", "-1", "--format", fmt)
        assert (code, out, err) == (2, "", "error: generation degree must be non-negative\n")

    def test_generation_degree_zero_is_a_certified_fail(self, capsys):
        code, out, _ = run(capsys, "verify", "g24", "-k", "2", "-d", "0", "--format", "csv")
        assert code == 1
        assert out.splitlines()[1] == "g24,2,0,5,0,fail"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "g24", "-k", "2", "-d", "1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == [
            "instance,k,d,dim,rank,verdict",
            "g24,2,1,5,5,pass",
        ]


class TestDuality:
    def test_table_verdict(self, capsys):
        code, out, _ = run(capsys, "duality", "2", "5")
        assert code == 0
        assert out.splitlines()[0].split() == ["k", "left", "right"]
        assert out.rstrip().endswith("verdict: pass")

    def test_json_structure(self, capsys):
        code, out, _ = run(
            capsys, "duality", "2", "6", "--k-max", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["left"] == "g26"
        assert payload["right"] == "g46"
        assert payload["verdict"] == "pass"
        # g36 is a catalog entry: its multiple 2 gives (5, 16), where multiple 6 gives (40, 280)
        code, out, _ = run(
            capsys, "duality", "3", "6", "--k-max", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert (code, payload["left"], payload["right"]) == (0, "g36", "g36")
        assert [(d["left"], d["right"]) for d in payload["degrees"]] == [(5, 5), (16, 16)]

    def test_two_digit_n(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "duality", "1", "10", "--k-max", "1", "--format", "json")
        assert time.perf_counter() - start < 0.1
        payload = json.loads(out)
        assert code == 0
        assert payload["degrees"] == [{"k": 1, "left": 1, "right": 1}]
        assert payload["verdict"] == "pass"

    def test_cubic_seven_passes(self, capsys):
        code, out, _ = run(
            capsys, "duality", "3", "7", "--k-max", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["degrees"] == [
            {"k": 1, "left": 225, "right": 225},
            {"k": 2, "left": 4411, "right": 4411},
            {"k": 3, "left": 32425, "right": 32425},
        ]
        assert payload["verdict"] == "pass"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("k_max", ["0", "-1"])
    def test_empty_degree_range_is_a_usage_error(self, capsys, k_max, fmt):
        code, out, err = run(capsys, "duality", "2", "4", "--k-max", k_max, "--format", fmt)
        assert (code, out, err) == (2, "", "error: k_max must be at least 1\n")

    def test_two_digit_labels_read_back(self, capsys):
        _, out, _ = run(capsys, "duality", "1", "10", "--k-max", "1", "--format", "json")
        payload = json.loads(out)
        assert (payload["left"], payload["right"]) == ("g1_10", "g9_10")
        for label in (payload["left"], payload["right"]):
            code, out, _ = run(capsys, "enumerate", label, "-k", "1", "--count-only")
            assert code == 0
            assert out.split() == ["1"]
        # a side outside 1 <= r < n is refused under its own label
        for r in ("0", "5", "6"):
            code, out, err = run(capsys, "duality", r, "5")
            assert (code, out, err) == (2, "", f"error: bad Grassmannian label 'g{r}5'\n")


G24_ENTRY = '{"family": "A", "n": 4, "parabolic": [2], "weight": [0, 1, 0], "multiple": 4}'


class TestSuite:
    def test_default_catalog_passes(self, capsys):
        code, out, _ = run(capsys, "suite")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert all(line.endswith("pass") for line in lines[1:])

    def test_custom_manifest(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([
            {"family": "A", "n": 4, "parabolic": [2], "weight": [0, 1, 0],
             "multiple": 4, "label": "g24", "k": 2, "genDegree": 1},
        ]))
        code, out, _ = run(capsys, "suite", "--manifest", str(path))
        assert code == 0
        assert out.splitlines()[1].split() == ["g24", "2", "1", "5", "5", "pass"]

    def test_negative_manifest_degree_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([
            {"family": "A", "n": 4, "parabolic": [2], "weight": [0, 1, 0],
             "multiple": 4, "label": "g24", "k": 2, "genDegree": -1},
        ]))
        code, out, err = run(capsys, "suite", "--manifest", str(path))
        assert (code, out, err) == (2, "", "error: generation degree must be non-negative\n")

    def test_bad_manifest_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"not": "a list"}')
        code, _, err = run(capsys, "suite", "--manifest", str(path))
        assert code == 2
        assert "JSON array" in err

    @pytest.mark.parametrize(
        "text, named",
        [
            ('[1]', "JSON object"),
            ('[{"family": "A"}]', "'n'"),
            ('[{"family": "A", "n": 4, "parabolic": [2], "weight": 5, "multiple": 4}]',
             "'weight'"),
            ('[{"family": "A", "n": 4, "parabolic": null, "weight": [0, 1, 0], "multiple": 4}]',
             "'parabolic'"),
            (f'[{G24_ENTRY[:-1]}, "k": null}}]', "'k'"),
            (f'[{G24_ENTRY[:-1]}, "k": 1e400}}]', "'k'"),
            (f'[{G24_ENTRY[:-1]}, "k": 2.7}}]', "'k'"),
        ],
    )
    def test_malformed_entry_is_a_usage_error(self, capsys, tmp_path, text, named):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        code, out, err = run(capsys, "suite", "--manifest", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: manifest ") and named in err
        assert err.count("\n") == 1

    def test_repeat_runs_are_byte_identical(self, capsys):
        first = run(capsys, "suite", "--format", "csv")
        second = run(capsys, "suite", "--format", "csv")
        assert first == second


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "g1_990", "--count-only"), ("duality", "1", "1100", "--k-max", "1")],
)
def test_stack_overflow_is_a_problem_too_large(capsys, argv):
    # the strip table recurses once per value, past the interpreter's limit here
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: problem too large: maximum recursion depth exceeded")


def test_internal_check_failure_exits_three(capsys, monkeypatch):
    import artifact.verifier as verifier

    def broken(*args, **kwargs):
        raise AssertionError("tableau count out of range")

    monkeypatch.setattr(verifier, "count_standard", broken)
    code, out, err = run(capsys, "duality", "2", "5")
    assert (code, out) == (3, "")
    assert err == "internal error: tableau count out of range\n"


@pytest.mark.parametrize(
    "raised, code, message",
    [
        (KeyError("lost"), 3, "internal error: KeyError: 'lost'\n"),
        (MemoryError("no room"), 2, "error: problem too large: no room\n"),
    ],
)
def test_other_exceptions_keep_the_exit_code_contract(capsys, monkeypatch, raised, code, message):
    # an internal error must never pass for a failed check (exit 1)
    def broken(args):
        raise raised

    monkeypatch.setattr(cli, "_cmd_verify", broken)
    assert run(capsys, "verify", "g24") == (code, "", message)


def outcome(argv):
    """(exit code, stdout, stderr) of one main call; argparse exits count too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


class TestSharedParser:
    CALLS = [
        ("verify", "g24", "-k", "2", "-d", "1", "--format", "csv"),
        ("verify", "g24", "-k", "2", "-d", "1"),
        ("verify", "g24", "--format", "xml"),
        ("enumerate", "g99"),
        ("verify", "g36", "-k", "2", "-d", "1", "--format", "csv"),
    ]

    def test_parser_is_built_once(self):
        outcome(["enumerate", "g24", "--count-only"])
        built = cli._build_parser.cache_info().misses
        for argv in self.CALLS:
            outcome(argv)
        assert cli._build_parser.cache_info().misses == built

    def test_repeated_calls_match_fresh_parsers(self):
        shared = [outcome(argv) for argv in self.CALLS]
        fresh = []
        for argv in self.CALLS:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, ("SystemExit", 2), 2, 1]
        assert shared[2][2].endswith("invalid choice: 'xml' (choose from 'json', 'table', 'csv')\n")
        assert shared[3][2] == "error: bad Grassmannian label 'g99'\n"


_LABELS = ["g24", "g26", "g36", "fl311", "spin5w1", "spin7w2", "g99", "g3_6", "fl5_1_1", "x", ""]
_MONOMIALS = [
    "p[1,2]^2 p[3,4]^2", "p[1,2] p[3,4]", "p[1,2", "p[0,9]", "p[1,2]^",
    "2 * p[1,2]", "p[1,2] - p[1,2]", "0", "1/0 * p[1,2]",
]
_STRAY = ["--bogus", "-k", "-d", "--count-only", "--format", "xml", "--seed", "--k-max", "2", "5"]
_OPTION = st.one_of(
    st.integers(1, 3).map(lambda k: ["-k", str(k)]),
    st.integers(-1, 2).map(lambda d: ["-d", str(d)]),
    st.sampled_from(["csv", "json", "table"]).map(lambda f: ["--format", f]),
    st.sampled_from(_MONOMIALS).map(lambda m: [m]),
    st.sampled_from(_STRAY).map(lambda x: [x]),
)
_ARGV = st.one_of(
    st.tuples(
        st.sampled_from(["enumerate", "factorize", "verify", "bogus"]),
        st.sampled_from(_LABELS),
        st.lists(_OPTION, max_size=3),
    ).map(lambda t: [t[0], t[1], *(x for piece in t[2] for x in piece)]),
    st.tuples(
        st.sampled_from(_MONOMIALS + _LABELS), st.lists(_OPTION, max_size=2)
    ).map(lambda t: ["straighten", "-n", "4", t[0], *(x for piece in t[1] for x in piece)]),
    st.tuples(
        st.lists(st.sampled_from(["0", "1", "2", "3", "5", "-1", "x"]), min_size=2, max_size=3),
        st.lists(
            st.one_of(
                st.sampled_from(["-1", "0", "1", "2"]).map(lambda k: ["--k-max", k]),
                st.sampled_from(["csv", "json", "table"]).map(lambda f: ["--format", f]),
            ),
            max_size=2,
        ),
    ).map(lambda t: ["duality", *t[0], *(x for piece in t[1] for x in piece)]),
)


@settings(max_examples=80, deadline=None)
@given(_ARGV)
@example(["duality", "2", "4", "--k-max", "0"])
@example(["duality", "1", "3", "--k-max", "-1", "--format", "json"])
def test_exit_code_contract_on_random_argv(argv):
    code, _, _ = outcome(argv)
    assert code in (0, 1, 2, ("SystemExit", 2)), argv


NO_NUMPY = textwrap.dedent(
    """
    import contextlib, io, sys
    import artifact.cli
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [artifact.cli.main(["enumerate", "g24", "--count-only"]),
                 artifact.cli.main(["verify", "g36", "-k", "2", "-d", "1"])]
    print(codes, "numpy" in sys.modules)
    """
)


def test_cli_never_imports_numpy():
    # the mod-p rank screen is pure Python, so no process pays numpy's import
    src = str(Path(artifact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "[0, 1] False\n"
