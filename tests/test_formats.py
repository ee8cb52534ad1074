"""Text, JSON and CSV serialization round trips and frozen layouts."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.formats import (
    certificate_json,
    duality_csv,
    duality_table,
    format_coeff,
    format_poly,
    load_manifest,
    parse_monomial,
    parse_poly,
    reports_csv,
    reports_json_text,
    reports_table,
    tableau_text,
)
from artifact.plucker import PluckerMonomial, PluckerPoly, straighten
from artifact.verifier import (
    GenerationReport,
    basis_monomials,
    factor_by_linear_algebra,
)
from artifact.weights import instance_by_label


class TestCoefficients:
    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(1), "1"),
            (Fraction(-1), "-1"),
            (Fraction(4, 2), "2"),
            (Fraction(-3, 2), "-3/2"),
            (Fraction(0), "0"),
        ],
    )
    def test_format_coeff(self, value, text):
        assert format_coeff(value) == text


class TestFormatPoly:
    def test_straightened_exchange_layout(self):
        out = straighten(PluckerMonomial(4, ((1, 4), (2, 3))))
        assert format_poly(out) == "-1 * p[1,2] p[3,4]\n+1 * p[1,3] p[2,4]"

    def test_zero_polynomial(self):
        assert format_poly(PluckerPoly(4)) == "0"

    def test_fractional_coefficients_spelled_out(self):
        p = PluckerPoly(4, {PluckerMonomial(4, ((1, 2),)): Fraction(3, 2)})
        assert format_poly(p) == "+3/2 * p[1,2]"


class TestParsePoly:
    def test_round_trip_through_format(self):
        p = straighten(PluckerMonomial(5, ((1, 4), (2, 3), (5,))))
        assert parse_poly(format_poly(p), 5) == p

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        row = st.lists(
            st.integers(1, n), min_size=1, max_size=min(n, 3), unique=True
        ).map(lambda r: tuple(sorted(r)))
        mono = st.lists(row, min_size=1, max_size=4).map(
            lambda rows: PluckerMonomial(n, tuple(rows))
        )
        coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
        terms = data.draw(st.dictionaries(mono, coeff, max_size=5), label="terms")
        p = PluckerPoly(n, terms)
        assert parse_poly(format_poly(p), n) == p

    def test_powers_expand(self):
        assert parse_poly("p[1,2]^3", 4) == PluckerPoly(
            4, {PluckerMonomial(4, ((1, 2),) * 3): Fraction(1)}
        )

    def test_fractions_comments_and_minus(self):
        text = "3/2 * p[1,2] p[3,4]  # a comment\n- p[1,3] p[2,4]"
        p = parse_poly(text, 4)
        assert dict(p.items()) == {
            PluckerMonomial(4, ((1, 2), (3, 4))): Fraction(3, 2),
            PluckerMonomial(4, ((1, 3), (2, 4))): Fraction(-1),
        }

    def test_whitespace_inside_brackets(self):
        p = parse_poly("p[ 1 , 2 ]", 4)
        assert p == PluckerPoly(4, {PluckerMonomial(4, ((1, 2),)): Fraction(1)})

    def test_like_terms_cancel(self):
        assert parse_poly("p[1,2] - p[1,2]", 4).is_zero()

    def test_zero_reads_back(self):
        assert parse_poly(format_poly(PluckerPoly(4)), 4) == PluckerPoly(4)
        assert parse_poly(" 0  # the zero polynomial\n", 4).is_zero()

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_poly("p[1,2] + q[3]", 4)

    def test_coefficient_without_factors_rejected(self):
        with pytest.raises(ValueError, match="no factors"):
            parse_poly("2 *", 4)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_poly("   # nothing here", 4)


class TestParseMonomial:
    def test_plain_product(self):
        m = parse_monomial("p[1,2] p[3,4]^2", 4)
        assert m == PluckerMonomial(4, ((1, 2), (3, 4), (3, 4)))

    def test_scaled_term_rejected(self):
        with pytest.raises(ValueError, match="coefficient 1"):
            parse_monomial("2 * p[1,2]", 4)

    def test_sum_rejected(self):
        with pytest.raises(ValueError, match="single monomial"):
            parse_monomial("p[1,2] + p[3,4]", 4)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="single monomial"):
            parse_monomial("0", 4)


class TestTableauText:
    def test_type_a_rows(self):
        assert tableau_text(((1, 2, 4), (1, 3, 5))) == "1,2,4\n1,3,5"
        assert tableau_text(()) == ""

    def test_type_b_header(self):
        rows = ((1, 2), (1, 3), (4,))
        assert tableau_text(rows, ("type: B, n: 3",)) == "type: B, n: 3\n1,2\n1,3\n4"
        assert tableau_text((), ("type: B, n: 3",)) == "type: B, n: 3"


class TestCertificateJson:
    def test_terms_and_optional_verdict(self):
        inst = instance_by_label("g24")
        f = basis_monomials(inst, 2)[0]
        terms = factor_by_linear_algebra(inst, f)
        data = certificate_json("g24", f, terms, False)
        assert list(data.keys()) == ["instance", "monomial", "terms", "verified"]
        assert data["monomial"] == str(f)
        assert all(
            list(t.keys()) == ["coeff", "generator", "cofactor"]
            for t in data["terms"]
        )
        assert data["verified"] is False
        assert certificate_json("g24", f, terms, True)["verified"] is True


class TestReportRendering:
    def _reports(self):
        return [
            GenerationReport("g24", 2, 1, 5, 5, "pass"),
            GenerationReport("g36", 2, 1, 16, 15, "fail"),
        ]

    def test_table_layout(self):
        assert reports_table(self._reports()) == (
            "instance  k  d  dim  rank  verdict\n"
            "g24       2  1  5    5     pass\n"
            "g36       2  1  16   15    fail"
        )

    def test_empty_table_is_just_the_header(self):
        assert reports_table([]) == "instance  k  d  dim  rank  verdict"

    def test_csv_layout(self):
        assert reports_csv(self._reports()) == (
            "instance,k,d,dim,rank,verdict\n"
            "g24,2,1,5,5,pass\n"
            "g36,2,1,16,15,fail"
        )
        assert reports_csv([]) == "instance,k,d,dim,rank,verdict"

    def test_json_layout(self):
        assert reports_json_text(self._reports()[:1]) == (
            "[\n"
            "  {\n"
            '    "instance": "g24",\n'
            '    "k": 2,\n'
            '    "d": 1,\n'
            '    "dim": 5,\n'
            '    "rank": 5,\n'
            '    "verdict": "pass"\n'
            "  }\n"
            "]"
        )


class TestDualityRendering:
    _result = {
        "left": "g25",
        "right": "g35",
        "degrees": [
            {"k": 1, "left": 6, "right": 6},
            {"k": 2, "left": 16, "right": 16},
        ],
        "verdict": "pass",
    }

    def test_table(self):
        assert duality_table(self._result) == (
            "k  left  right\n1  6     6\n2  16    16\nverdict: pass"
        )

    def test_csv(self):
        assert duality_csv(self._result) == (
            "k,left,right,verdict\n1,6,6,pass\n2,16,16,pass"
        )


class TestManifest:
    def test_loads_entry_array(self, tmp_path):
        path = tmp_path / "manifest.json"
        entries = [{"label": "g24", "k": 3}]
        path.write_text(json.dumps(entries))
        assert load_manifest(str(path)) == entries

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"label": "g24"}')
        with pytest.raises(ValueError, match="JSON array"):
            load_manifest(str(path))

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_manifest(str(tmp_path / "absent.json"))
