import enum
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import OrderedDict
from contextlib import redirect_stdout
from pathlib import Path
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import load_workloads, swinnerton_dyer
from oracles import filtration_mismatches, parse_matrix_by_entry
from wmtrop import cli
from wmtrop import monodromy as mono
from wmtrop import polyfactor as pf
from wmtrop import tropbundle as tb
from wmtrop import troplattice as tl
from wmtrop.cli import (
    _HANDLERS,
    JobSpec,
    Report,
    SchemaError,
    main,
    parse_bundle,
    parse_lattice,
    parse_matrix,
    parse_rational,
    parse_section,
    render,
    render_json,
    run,
    serialize_filtration,
    serialize_matrix,
    serialize_section,
    serialize_subspace,
)
from wmtrop.ratlin import Matrix, RatPoly, Subspace, char_poly, format_ratio


def _parsed(parse, value):
    """parse(value, "m"), or the type, text and field of what it raises."""
    try:
        m = parse(value, "m")
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return type(err), str(err), getattr(err, "fieldname", None)
    return type(m), m, m.rows, m.cols


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


TATE_WMC = {"n": [[0, 1], [0, 0]], "phi": [[1, 0], [0, 5]], "q": 5, "i": 1}
TATE_MODEL = {"lattice": {"rank": 1, "generators": [["2"]]}, "alpha": "1"}
TATE_BUNDLE = {"lattice": {"rank": 1, "generators": [["2"]]}, "sigma": [[0]], "chi": ["1/5"]}
RANK2_MODEL = {"lattice": {"rank": 2, "generators": [["2", "0"], ["0", "2"]]}, "alpha": "1"}
RANK2_BUNDLE = {
    "lattice": RANK2_MODEL["lattice"],
    "sigma": [[0, 0], [0, 0]],
    "chi": ["0", "0"],
}


# Well-formed structure with zero, negative and huge values in the
# rational fields.  p, level, steps and cell stay small: the cost of
# the primality test grows with p, and preimages lists p**steps cells.
_extreme = st.one_of(
    st.sampled_from(["0", "-1/2", "-3", str(10**40), str(-(10**40)), f"{10**40 + 1}/3"]),
    st.fractions(-4, 4, max_denominator=6).map(str),
)


def _square(size, entries):
    return st.lists(st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size)


_small_matrix = st.integers(1, 2).flatmap(lambda d: _square(d, st.integers(-6, 6)))
_lattice = st.integers(1, 2).flatmap(
    lambda r: st.fixed_dictionaries({
        "rank": st.just(r),
        "generators": _square(r, st.sampled_from(["0", "1", "2", "-2", "3", "1/2"])),
    })
)
_bundle = _lattice.flatmap(
    lambda lat: st.fixed_dictionaries({
        "lattice": st.just(lat),
        "sigma": _square(lat["rank"], st.integers(-2, 2)),
        "chi": st.lists(_extreme, min_size=lat["rank"], max_size=lat["rank"]),
    })
)
_well_formed_input = st.fixed_dictionaries({
    "n": _small_matrix,
    "phi": _small_matrix,
    "q": st.integers(-1, 7),
    "i": st.integers(-3, 3),
    "lattice": _lattice,
    "alpha": _extreme,
    "p": st.integers(-1, 13),
    "level": st.integers(-1, 3),
    "op": st.sampled_from(["project", "preimages", "sideways"]),
    "cell": st.integers(-1, 30),
    "steps": st.integers(-1, 3),
    "bundle": _bundle,
    "section": st.fixed_dictionaries({
        "alpha": _extreme,
        "slopes": st.lists(st.integers(-3, 3), max_size=6),
        "base_value": _extreme,
        "slope_increment": st.integers(-3, 3),
        "value_increment": _extreme,
    }),
})
# a batch runs every command on the same input
_well_formed = _well_formed_input.map(
    lambda inp: {**inp, "jobs": [{"command": c, "input": inp} for c in _HANDLERS]}
)


class TestParsing:
    def test_rational_forms(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("6/8") == F(3, 4)
        assert parse_rational(-7) == F(-7)
        assert parse_rational(" 2/3 ") == F(2, 3)

    def test_rational_rejects(self):
        for bad in ("1/0", "a", 1.5, True, None, "1.5"):
            with pytest.raises(SchemaError):
                parse_rational(bad)

    def test_rational_roundtrip_normalizes(self):
        assert str(parse_rational("6/8")) == "3/4"
        assert str(parse_rational(5)) == "5"

    def test_matrix_roundtrip(self):
        m = parse_matrix([[1, "1/2"], ["-3", 0]])
        assert m == Matrix([[1, F(1, 2)], [-3, 0]])
        assert parse_matrix(serialize_matrix(m)) == m

    def test_matrix_ragged_rejected(self):
        with pytest.raises(SchemaError):
            parse_matrix([[1, 2], [3]])

    def test_row_match_reads_as_the_entry_loop(self):
        # a row of integer strings is read in one match; every other row, and
        # every error, must come out as when each entry was read on its own
        class Text(str):
            def __int__(self):
                return 99

        past_limit = "7" * 4301
        rows = [
            ["1", "-2", "+5", "-0", "+0", "007"], [" 5", "6"], ["5 ", "6"], ["\t7", "1"],
            ["1/2", "3"], ["3", "-4/6"], ["+4/2", "1"], ["\u0663", "\uff15"], ["1\u0663", "-\u07c2"],
            ["1_000", "2"], ["1_0"], ["1\x002"], ["1\x00", "2"], ["\x00"], ["1", "\x002"],
            [past_limit, "1"], ["1", "-" + past_limit], ["1/" + past_limit], ["9" * 4300, "1"],
            [True, "1"], ["1", False], [1, 2], ["1", 2], [10**50, "-3"], [Text("5"), "6"],
            [Text("5/2"), "6"], ["", "1"], ["-", "1"], ["+"], ["1/0"], ["1/-2"], ["/2"],
            ["1.5"], [1.5], [None], ["0x1f"], ["1e3"], [],
        ]  # fmt: skip
        cases = [[row] for row in rows] + [[row, row] for row in rows]
        cases += [[["1", "2"], row] for row in rows if len(row) == 2]
        cases += [[], "1", [[1], 2], [["1"], ["1", "2"]], [["1"]] * 65]
        for value in cases:
            assert _parsed(parse_matrix, value) == _parsed(parse_matrix_by_entry, value), value

    def test_integer_rows_are_read_in_one_match(self, monkeypatch):
        entries, read = [], cli._rational_ints
        monkeypatch.setattr(cli, "_rational_ints", lambda x, name: entries.append(x) or read(x, name))
        assert parse_matrix([["1", "-2"], ["+3", "40"]]) == Matrix([[1, -2], [3, 40]])
        assert entries == []
        # only the row that does not match is read entry by entry
        assert parse_matrix([["1", "-2"], ["1/3", 4]]) == Matrix([[1, -2], [F(1, 3), 4]])
        assert entries == ["1/3", 4]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.text("0123456789+-/ _\x00\u0663", max_size=5),
                    st.integers(-(10**30), 10**30),
                    st.booleans(),
                    st.sampled_from(["1", "-7", "+3", "2/3", "1" * 4301]),
                ),
                min_size=3,
                max_size=3,
            ),
            max_size=3,
        )
    )
    def test_row_match_reads_as_the_entry_loop_on_random_rows(self, value):
        assert _parsed(parse_matrix, value) == _parsed(parse_matrix_by_entry, value)

    def test_lattice_roundtrip_and_rank_deficiency(self):
        lat = parse_lattice({"rank": 1, "generators": [["2"]]})
        with pytest.raises(SchemaError):
            parse_lattice({"rank": 1, "generators": [["0"]]})
        with pytest.raises(SchemaError):
            parse_lattice({"rank": 2, "generators": [["1"]]})
        with pytest.raises(SchemaError, match="lattice.rank"):  # a boolean is not a rank
            parse_lattice({"rank": True, "generators": [["2"]]})

    def test_bundle_roundtrip_and_asymmetry(self):
        b = parse_bundle(TATE_BUNDLE)
        bad = {
            "lattice": {"rank": 2, "generators": [["1", "0"], ["0", "2"]]},
            "sigma": [[2, 1], [1, 1]],
            "chi": ["0", "0"],
        }
        with pytest.raises(SchemaError):
            parse_bundle(bad)

    def test_section_roundtrip(self):
        s = parse_section(
            {"alpha": "1/5", "slopes": [1, 0], "base_value": "0",
             "slope_increment": 0, "value_increment": "1/5"}
        )
        assert parse_section(serialize_section(s)) == s

    @given(st.integers(), st.integers().filter(bool))
    def test_format_ratio_spells_like_fraction(self, num, den):
        assert format_ratio(num, den) == str(F(num, den))

    def test_format_ratio_edges(self):
        big = 7**200
        pairs = [(0, 1), (0, -5), (6, -4), (-6, -4), (big * 3, -big), (-1, 1), (10**30, 10**29)]
        for num, den in pairs + [(True, 1), (True, 2), (4, True), (-3, True)]:
            assert format_ratio(num, den) == str(F(num, den)), (num, den)
        for num in (3, 0, True):
            with pytest.raises(ZeroDivisionError) as want:
                F(num, 0)
            with pytest.raises(ZeroDivisionError) as got:
                format_ratio(num, 0)
            assert str(got.value) == str(want.value)

    def test_serialize_matrix_spells_like_fraction(self):
        rng = random.Random(233)
        for _ in range(50):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            entries = [F(rng.randint(-40, 40), rng.choice((1, 2, 6, -9, 35))) for _ in range(rows * cols)]
            m = Matrix([entries[i * cols : (i + 1) * cols] for i in range(rows)])
            assert serialize_matrix(m) == [[str(x) for x in row] for row in m.row_tuples]

    def test_section_slopes_checked_as_before(self):
        class Slope(enum.IntEnum):
            UP = 1

        section = {"alpha": "1", "base_value": "0", "slope_increment": 0, "value_increment": "0"}
        cases = [[0, -2, 2], [Slope.UP, -1], [], [True, -1], [1, False], [1.0, -1], [1, "-1"]]
        for slopes in cases + [[None], [[1]], (1, -1), "12", 3, None]:
            # the rule parse_section always kept, ahead of every other field
            accepted = isinstance(slopes, list) and all(
                isinstance(x, int) and not isinstance(x, bool) for x in slopes
            )
            payload = {**section, "slopes": slopes, "alpha": "x"}
            with pytest.raises(SchemaError) as err:
                parse_section(payload)
            assert (err.value.fieldname == "section.slopes") != accepted, slopes
            if accepted and slopes:
                assert parse_section({**payload, "alpha": "1"}).slopes == tuple(slopes)
            elif not accepted:
                assert str(err.value) == "field 'section.slopes': expected an array of integers"


class TestCommands:
    def test_wmc_pass(self):
        code, out = run_cli(["wmc-check", "--json", json.dumps(TATE_WMC)])
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "pass"
        assert rep["payload"]["graded_weights"] == {"-1": [[0, 1]], "1": [[2, 1]]}

    def test_wmc_fail_with_diagnostics(self):
        payload = dict(TATE_WMC, n=[[0, 0], [0, 0]])
        code, out = run_cli(["wmc-check", "--json", json.dumps(payload)])
        assert code == 1
        rep = json.loads(out)
        assert rep["status"] == "fail"
        assert any("filtration_mismatch" in d for d in rep["diagnostics"])

    def test_monodromy_filtration(self):
        code, out = run_cli(["monodromy-filtration", "--json", json.dumps({"n": [[0, 1], [0, 0]]})])
        assert code == 0
        rep = json.loads(out)
        assert rep["payload"]["jumps"] == [-1, 1]

    def test_weight_filtration(self):
        code, out = run_cli(
            ["weight-filtration", "--json", json.dumps({"phi": [[1, 0], [0, 5]], "q": 5})]
        )
        assert code == 0
        rep = json.loads(out)
        assert sorted(rep["payload"]["weights"]) == ["0", "2"]

    def test_weight_filtration_not_pure_is_error(self):
        code, out = run_cli(["weight-filtration", "--json", json.dumps({"phi": [[3]], "q": 5})])
        assert code == 2
        assert json.loads(out)["diagnostics"]

    def test_trop_model(self):
        code, out = run_cli(["trop-model", "--json", json.dumps(TATE_MODEL)])
        assert code == 0
        rep = json.loads(out)
        assert rep["payload"]["components"] == 2
        assert rep["payload"]["dual_graph"]["edges"] == [[0, 1, 2]]

    def test_trop_model_dot(self):
        code, out = run_cli(["trop-model", "--format", "dot", "--json", json.dumps(TATE_MODEL)])
        assert code == 0
        assert out == (
            "graph special_fiber {\n"
            '  v0 [label="P1 0"];\n'
            '  v1 [label="P1 1"];\n'
            "  v0 -- v1;\n"
            "  v0 -- v1;\n"
            "}\n"
        )

    def test_dot_unavailable_elsewhere(self):
        code, out = run_cli(["wmc-check", "--format", "dot", "--json", json.dumps(TATE_WMC)])
        assert code == 2

    def test_trop_tower(self):
        payload = dict(TATE_MODEL, p=3, level=0, op="preimages", cell=0, steps=1)
        code, out = run_cli(["trop-tower", "--json", json.dumps(payload)])
        assert code == 0
        assert json.loads(out)["payload"]["preimages"] == [0, 2, 4]
        payload = dict(TATE_MODEL, p=3, level=0, op="project", cell=5)
        code, out = run_cli(["trop-tower", "--json", json.dumps(payload)])
        assert json.loads(out)["payload"]["projected"] == 1

    def test_bundle_extend_suggests_level(self):
        payload = {"bundle": TATE_BUNDLE, "alpha": "1", "p": 5}
        code, out = run_cli(["bundle-extend", "--json", json.dumps(payload)])
        assert code == 1
        rep = json.loads(out)
        assert rep["status"] == "fail"
        assert rep["diagnostics"] == ["minimal level 1"]

    def test_bundle_extend_pass(self):
        bundle = dict(TATE_BUNDLE, chi=["0"])
        code, out = run_cli(["bundle-extend", "--json", json.dumps({"bundle": bundle, "alpha": "1"})])
        assert code == 0

    def test_bundle_minlevel(self):
        payload = {"bundle": TATE_BUNDLE, "alpha": "1", "p": 5}
        code, out = run_cli(["bundle-minlevel", "--json", json.dumps(payload)])
        assert code == 0
        assert json.loads(out)["payload"] == {"level": 1, "width": "1/5"}

    def test_bundle_minlevel_no_p_level(self):
        bundle = dict(TATE_BUNDLE, chi=["1/3"])
        payload = {"bundle": bundle, "alpha": "1", "p": 2}
        code, out = run_cli(["bundle-minlevel", "--json", json.dumps(payload)])
        assert code == 1
        assert json.loads(out)["payload"]["offending_primes"] == [3]

    def test_bundle_construct_and_verify(self):
        payload = {"bundle": TATE_BUNDLE, "alpha": "1/5"}
        code, out = run_cli(["bundle-construct-f", "--json", json.dumps(payload)])
        assert code == 0
        section = json.loads(out)["payload"]["section"]
        assert section["slopes"] == [1] + [0] * 9
        code, out = run_cli(
            ["bundle-verify-f", "--json", json.dumps({"bundle": TATE_BUNDLE, "section": section})]
        )
        assert code == 0

    def test_bundle_verify_reports_failure(self):
        bundle = dict(TATE_BUNDLE, chi=["0"])
        section = {"alpha": "1", "slopes": [1, 0], "base_value": "0",
                   "slope_increment": 0, "value_increment": "0"}
        code, out = run_cli(
            ["bundle-verify-f", "--json", json.dumps({"bundle": bundle, "section": section})]
        )
        assert code == 1
        assert any("slopes sum" in d for d in json.loads(out)["diagnostics"])

    def test_bundle_ample(self):
        bundle = {"lattice": {"rank": 1, "generators": [["2"]]}, "sigma": [[1]], "chi": ["0"]}
        code, out = run_cli(["bundle-ample", "--json", json.dumps({"bundle": bundle})])
        assert code == 0
        rep = json.loads(out)
        assert rep["payload"] == {"ample": True, "form": [["2"]], "leading_minors": ["2"]}
        bundle["sigma"] = [[0]]
        code, out = run_cli(["bundle-ample", "--json", json.dumps({"bundle": bundle})])
        assert code == 1

    def test_bundle_ample_takes_each_minor_once(self, monkeypatch):
        minors = []
        original = Matrix.leading_minor

        def counted(m, k):
            minors.append(k)
            return original(m, k)

        monkeypatch.setattr(Matrix, "leading_minor", counted)
        bundle = dict(RANK2_BUNDLE, sigma=[[1, 0], [0, 1]])
        report = run(JobSpec("bundle-ample", {"bundle": bundle}))
        assert (report.exit_code, report.payload["leading_minors"]) == (0, ["2", "4"])
        assert minors == [1, 2]

    def test_bundle_verify_at_two_thousand_cells(self):
        # the face loop is linear in the cells; a quadratic one took about 27 s at this size
        k = 2000
        bundle = {"lattice": {"rank": 1, "generators": [["2"]]}, "sigma": [[1]], "chi": ["1"]}
        alpha = f"1/{k // 2}"
        section = run(JobSpec("bundle-construct-f", {"bundle": bundle, "alpha": alpha}))
        section = section.payload["section"]
        start = time.perf_counter()
        report = run(JobSpec("bundle-verify-f", {"bundle": bundle, "section": section}))
        render(report, "json")
        assert time.perf_counter() - start < 2.0
        assert (report.exit_code, len(report.to_dict()["payload"]["faces"])) == (0, 2 * k)
        section["slopes"][0] += 1  # the slopes sum one past the value increment
        report = run(JobSpec("bundle-verify-f", {"bundle": bundle, "section": section}))
        faces = report.to_dict()["payload"]["faces"]
        broken = [face["position"] for face in faces if not face["continuous"]]
        assert (report.exit_code, broken) == (1, ["2", "4"])  # k * alpha and 2k * alpha

    def test_batch_order_and_worst_status(self):
        jobs = {
            "jobs": [
                {"command": "trop-model", "input": TATE_MODEL},
                {"command": "bundle-extend", "input": {"bundle": TATE_BUNDLE, "alpha": "1"}},
            ]
        }
        code, out = run_cli(["batch", "--json", json.dumps(jobs)])
        assert code == 1
        rep = json.loads(out)
        assert [r["command"] for r in rep["payload"]["reports"]] == ["trop-model", "bundle-extend"]
        assert [r["status"] for r in rep["payload"]["reports"]] == ["pass", "fail"]


class TestErrorContract:
    def test_missing_field_named(self):
        code, out = run_cli(["wmc-check", "--json", json.dumps({"phi": [[1]]})])
        assert code == 2
        rep = json.loads(out)
        assert rep["status"] == "error"
        assert rep["diagnostics"] == ["field 'n': missing required field"]

    def test_malformed_rational_named(self):
        code, out = run_cli(["monodromy-filtration", "--json", json.dumps({"n": [["1/0"]]})])
        assert code == 2
        assert "n[0][0]" in json.loads(out)["diagnostics"][0]

    def test_bad_matrix_entry_named(self):
        # the first bad entry in row order is named, whatever follows it
        phi = [["1", "0"], ["2/x", "5"], [True, "0"]]
        report = run(JobSpec("weight-filtration", {"phi": phi, "q": 5}))
        assert report.diagnostics == (
            "field 'phi[1][0]': malformed rational '2/x' (want 'a' or 'a/b')",
        )

    def test_invalid_json(self):
        code, out = run_cli(["wmc-check", "--json", "{not json"])
        assert code == 2

    def test_schema_version_rejected(self):
        for version, shown in ((2, "2"), (True, "True")):
            payload = dict(TATE_WMC, schema_version=version)
            code, out = run_cli(["wmc-check", "--json", json.dumps(payload)])
            assert code == 2
            assert json.loads(out)["diagnostics"] == [
                f"field 'schema_version': unsupported version {shown}"
            ]

    def test_error_reports_have_diagnostics(self):
        no_model = "alpha does not divide the lattice; no model at this width"
        bad_inputs = [
            ("wmc-check", {}, 2, "field 'n': missing required field"),
            ("wmc-check", dict(TATE_WMC, n=[[1, 0], [0, 0]]), 2, "matrix is not nilpotent"),
            ("wmc-check", dict(TATE_WMC, phi=[[0, 0], [0, 5]]), 2,
             "Frobenius matrix must be invertible"),
            ("wmc-check", dict(TATE_WMC, phi=[[1]]), 2, "operator dimensions differ"),
            ("monodromy-filtration", {"n": [[1, 0], [0, 0]]}, 2, "matrix is not nilpotent"),
            ("weight-filtration", {"phi": [[0, 0], [0, 5]], "q": 5}, 2,
             "Frobenius matrix must be invertible"),
            ("weight-filtration", {"phi": [[3]], "q": 5}, 2,
             "RatPoly(x - 3) is not weight-pure for q=5: "
             "constant term squared is not a power of q"),
            ("trop-model", {"lattice": {"rank": 1, "generators": [["0"]]}, "alpha": "1"}, 2,
             "field 'lattice.generators': generator matrix must have full rank"),
            ("trop-model", {"lattice": {"rank": True, "generators": [["2"]]}, "alpha": "1"}, 2,
             "field 'lattice.rank': expected a positive integer"),
            ("trop-model", dict(TATE_MODEL, alpha="3/4"), 2,
             "field 'alpha': alpha / p^level must divide the lattice"),
            ("trop-model", dict(TATE_MODEL, p=4), 2, "field 'p': p must be prime"),
            ("trop-tower", dict(TATE_MODEL, op="sideways", cell=0), 2,
             "field 'op': expected 'project' or 'preimages'"),
            ("trop-tower", dict(TATE_MODEL, op="preimages", cell=9), 2,
             "cell index 9 invalid at level 0"),
            ("trop-tower", dict(TATE_MODEL, op="project", cell=99, p=3), 2,
             "cell index 99 invalid at level 1"),
            ("trop-tower", dict(RANK2_MODEL, op="project", cell=0), 2,
             "tower index maps are only computed for rank 1"),
            ("trop-model", dict(TATE_MODEL, alpha="1/10000000"), 2,
             "20000000 components are above the cell limit 1000000"),
            ("trop-tower", dict(TATE_MODEL, op="preimages", cell=0, steps=10**9), 2,
             "2**1000000000 preimages are above the cell limit 1000000"),
            *[("trop-model", dict(TATE_MODEL, p=3, level=level), 2,
               "field 'level': level is above the level limit 64")
              for level in (10**4, 10**7, 10**100)],
            ("bundle-extend", {"bundle": TATE_BUNDLE, "alpha": "3/4"}, 2, no_model),
            ("bundle-extend", {"bundle": dict(TATE_BUNDLE, chi=["1/3"]), "alpha": "1", "p": 2}, 1,
             "valuation denominators contain primes coprime to p (3); choose a finer base width"),
            ("bundle-minlevel", {"bundle": TATE_BUNDLE, "alpha": "3/4", "p": 5}, 2, no_model),
            # 2 divides 4 and 6, so no composite p may report it as a coprime prime
            *[(command, {"bundle": dict(TATE_BUNDLE, chi=["1/2"]), "alpha": "1", "p": p}, 2,
               "field 'p': p must be prime")
              for command in ("bundle-extend", "bundle-minlevel") for p in (4, 6)],
            ("bundle-construct-f", {"bundle": TATE_BUNDLE, "alpha": "3/4"}, 2, no_model),
            ("bundle-construct-f", {"bundle": RANK2_BUNDLE, "alpha": "1"}, 2,
             "explicit witnesses are only constructed for rank 1"),
            ("bundle-construct-f", {"bundle": TATE_BUNDLE, "alpha": "1/10000000"}, 2,
             "20000000 cells per period are above the cell limit 1000000"),
            ("bundle-verify-f", {"bundle": RANK2_BUNDLE, "section": {"alpha": "1", "slopes": [0]}},
             2, "rank-1 bundle required"),
        ]
        # a non-positive cell width is named like any other rejected field
        for alpha in ("0", "-1/2"):
            for command, payload in (
                ("trop-model", dict(TATE_MODEL, alpha=alpha)),
                ("trop-tower", dict(TATE_MODEL, alpha=alpha, op="project", cell=0)),
                ("bundle-extend", {"bundle": TATE_BUNDLE, "alpha": alpha}),
                ("bundle-minlevel", {"bundle": TATE_BUNDLE, "alpha": alpha, "p": 5}),
                ("bundle-construct-f", {"bundle": TATE_BUNDLE, "alpha": alpha}),
            ):
                bad_inputs.append((command, payload, 2, "field 'alpha': cell width must be positive"))
        for command, payload, code, diagnostic in bad_inputs:
            report = run(JobSpec(command, payload))
            assert (report.exit_code, report.diagnostics) == (code, (diagnostic,)), (command, payload)

    def test_trial_division_is_bounded(self):
        # 2**61 - 1 is prime; trial division up to its square root would hang
        mersenne = 2**61 - 1
        code, out = run_cli(["trop-model", "--json", json.dumps(dict(TATE_MODEL, p=mersenne))])
        assert code == 2
        assert json.loads(out)["diagnostics"] == [
            "field 'p': p is above the primality-test limit 10**12"
        ]
        bundle = dict(TATE_BUNDLE, chi=[f"1/{mersenne}"])
        payload = {"bundle": bundle, "alpha": "1", "p": 5}
        code, out = run_cli(["bundle-minlevel", "--json", json.dumps(payload)])
        assert code == 2
        assert json.loads(out)["diagnostics"] == [
            f"cannot factor {mersenne}: trial division stops at 10**12"
        ]
        for command in ("bundle-extend", "bundle-minlevel"):
            payload = {"bundle": dict(TATE_BUNDLE, chi=["1/2"]), "alpha": "1", "p": mersenne}
            code, out = run_cli([command, "--json", json.dumps(payload)])
            assert code == 2
            assert json.loads(out)["diagnostics"] == [
                "field 'p': p is above the primality-test limit 10**12"
            ]

    def test_numbers_past_the_int_string_limit(self):
        # Python converts at most 4300 digits between int and str; its advice
        # to raise that limit in the interpreter is cut from the diagnostics
        digits = "1" + "0" * 5000
        code, out = run_cli(["trop-model", "--json", f'{{"level": {digits}}}'])
        assert code == 2
        diagnostic = json.loads(out)["diagnostics"][0]
        assert diagnostic.startswith("invalid JSON: Exceeds the limit")
        assert "set_int_max_str_digits" not in diagnostic
        for command, payload, name in (
            ("trop-model", dict(TATE_MODEL, alpha=f"1/{digits}"), "alpha"),
            ("wmc-check", dict(TATE_WMC, phi=[[digits, 0], [0, 5]]), "phi[0][0]"),
        ):
            code, out = run_cli([command, "--json", json.dumps(payload)])
            assert code == 2
            diagnostic = json.loads(out)["diagnostics"][0]
            assert diagnostic.startswith(f"field '{name}': Exceeds")
            assert "set_int_max_str_digits" not in diagnostic

    def test_degree_is_bounded(self, monkeypatch):
        over = f"field 'i': |i| is above the degree limit {mono.DEGREE_LIMIT}"
        # rejected before check_wmc lists one mismatch per index
        for i in (mono.DEGREE_LIMIT + 1, -mono.DEGREE_LIMIT - 1, 10**9, -(10**100)):
            assert run(JobSpec("wmc-check", dict(TATE_WMC, i=i))).diagnostics == (over,)
        for i in (mono.DEGREE_LIMIT, -mono.DEGREE_LIMIT):
            report = run(JobSpec("wmc-check", dict(TATE_WMC, i=i)))
            assert report.exit_code == 1
            assert len(report.payload["violations"]) > mono.DEGREE_LIMIT
        monkeypatch.setattr(mono, "DEGREE_LIMIT", 3)
        for i, code in ((3, 1), (-3, 1), (4, 2), (-4, 2)):
            assert run(JobSpec("wmc-check", dict(TATE_WMC, i=i))).exit_code == code

    def test_mismatches_outside_the_ranges_build_no_piece(self, monkeypatch):
        # no Matrix is built per mismatch, so the count is the same at every i.
        # The Tate pair commutes, and its report comes from N's strings: 7
        # counts the two parsed matrices, the three row spaces of N's powers
        # (the full one from the identity) and Phi's matrix on the two pieces
        # ker N, ker N^2 / ker N; the test N Phi = q Phi N compares integer
        # rows, with no Matrix.  With Phi diag(1, 25) the pair does not
        # commute, and the full comparison reads dimensions outside a
        # filtration's stored range; the weight filtration's two pieces are
        # its lowest component and Q^2, so it builds no zero start and no
        # sum at the top
        for phi, count in (([[1, 0], [0, 5]], 7), ([[1, 0], [0, 25]], 17)):
            payload = dict(TATE_WMC, phi=phi, i=mono.DEGREE_LIMIT)
            op = mono.NilpotentOperator(Matrix(payload["n"]))
            frob = mono.FrobeniusData(Matrix(phi), payload["q"])
            expected = filtration_mismatches(op, frob, payload["i"])
            built = []
            original = Matrix._over
            monkeypatch.setattr(
                Matrix, "_over", classmethod(lambda cls, *args: built.append(1) or original(*args))
            )
            violations = run(JobSpec("wmc-check", payload)).payload["violations"]
            mismatches = [v for v in violations if v["kind"] == "filtration_mismatch"]
            assert len(expected) == 1001 and mismatches == expected
            assert len(built) == count, phi
            for i in (3, 50, -1000):
                built.clear()
                run(JobSpec("wmc-check", dict(payload, i=i)))
                assert len(built) == count, (phi, i)
            monkeypatch.undo()

    def test_dimension_is_bounded(self):
        def identity(d):
            return [[int(i == j) for j in range(d)] for i in range(d)]

        def jobs(d):
            """A cheap job for each matrix field, with that field d x d."""
            lattice = {"rank": d, "generators": identity(d)}
            bundle = {"lattice": {"rank": 64, "generators": identity(64)}, "chi": [0] * 64}
            return {
                "n": JobSpec("monodromy-filtration", {"n": [[0] * d] * d}),
                "phi": JobSpec("weight-filtration", {"phi": identity(d), "q": 5}),
                "lattice.generators": JobSpec("trop-model", {"lattice": lattice, "alpha": "1"}),
                "bundle.sigma": JobSpec(
                    "bundle-extend", {"bundle": dict(bundle, sigma=[[0] * d] * d), "alpha": "1"}
                ),
            }

        for job in jobs(64).values():
            assert run(job).exit_code == 0, job.command
        for name, job in jobs(65).items():
            assert run(job).diagnostics == (
                f"field '{name}': 65 rows are above the dimension limit 64",
            )
        assert run(JobSpec("monodromy-filtration", {"n": [[0] * 65]})).diagnostics == (
            "field 'n': 65 columns are above the dimension limit 64",
        )
        # checked before any entry is parsed
        with pytest.raises(SchemaError, match="^field 'm': 65 rows are above"):
            parse_matrix([["x"]] * 65, "m")

    def test_recombination_is_bounded(self, monkeypatch):
        # the degree-16 Swinnerton-Dyer polynomial has 8 modular factors, and
        # recombination tries 162 subsets before it finds it irreducible
        sd4 = swinnerton_dyer([2, 3, 5, 7])
        n = sd4.degree
        phi = [[int(i == j + 1) for j in range(n - 1)] + [str(-sd4.coeffs[i])]
               for i in range(n)]
        jobs = (JobSpec("weight-filtration", {"phi": phi, "q": 5}),
                JobSpec("wmc-check", {"n": [[0] * n] * n, "phi": phi, "q": 5, "i": 0}))
        monkeypatch.setattr(pf, "RECOMBINATION_LIMIT", 162)
        for job, code in zip(jobs, (2, 1)):  # wmc-check lists impurity as a violation
            report = run(job)
            assert report.exit_code == code
            assert "is not weight-pure for q=5" in report.diagnostics[0]
        monkeypatch.setattr(pf, "RECOMBINATION_LIMIT", 161)
        for job in jobs:
            assert run(job).diagnostics == (
                "field 'phi': recombining 8 modular factors of a degree-16 factor of the "
                "characteristic polynomial needs more than 161 trials, the recombination limit",
            )

    def test_pure_input_needs_no_recombination(self, monkeypatch):
        # weights are split without factoring over Q, so a pure characteristic
        # polynomial passes at any RECOMBINATION_LIMIT: Phi_35 with its roots
        # times 5 splits into 2 modular factors, which factoring cannot
        # recombine within one trial
        workloads = load_workloads()
        phi = workloads._companion(workloads._weil_cyclotomic(35, 2))
        monkeypatch.setattr(pf, "RECOMBINATION_LIMIT", 1)
        report = run(JobSpec("weight-filtration", {"phi": phi, "q": 5}))
        assert report.exit_code == 0
        assert list(report.to_dict()["payload"]["weights"]) == ["2"]
        with pytest.raises(pf.RecombinationLimitError):
            pf.factor_rational(char_poly(Matrix(phi)))

    def test_split_prime_dividing_q_takes_the_other(self, monkeypatch):
        # q = 2^61 - 1 is prime, so a valid residue field size, and it and
        # 2(2^61 - 1) are split mod 2^127 - 1: the companion of
        # Phi_35 Phi_120, pure of weight 0, is never factored (factoring it
        # would recombine 24 modular factors, past the limit) and reports
        # as at q = 5
        workloads = load_workloads()
        poly = RatPoly(workloads._cyclotomic(35)) * RatPoly(workloads._cyclotomic(120))
        phi = workloads._companion(list(poly._num))
        zero = [[0] * len(phi)] * len(phi)
        jobs = [("weight-filtration", {"phi": phi}), ("wmc-check", {"phi": phi, "n": zero, "i": 0})]
        expected = [render_json(run(JobSpec(command, {**payload, "q": 5}))) for command, payload in jobs]
        assert all('"status": "pass"' in text for text in expected)

        def no_factoring(p):
            raise AssertionError(f"factored {p}")

        monkeypatch.setattr(mono, "factor_rational", no_factoring)
        for q in (2**61 - 1, 2 * (2**61 - 1)):
            got = [render_json(run(JobSpec(command, {**payload, "q": q}))) for command, payload in jobs]
            assert got == expected, q

    def test_impure_rest_is_factored_alone(self, monkeypatch):
        # only the rest that the split cannot place is factored: times the
        # impure x^2 - 7x + 5, irreducible modulo its Zassenhaus prime, the
        # Phi_35 part above comes off at weight 2 first, so factoring sees
        # the quadratic alone and the limit 1 is never reached; factoring
        # the whole polynomial would recombine 3 modular factors
        workloads = load_workloads()
        impure = RatPoly([5, -7, 1])
        poly = impure * RatPoly(workloads._weil_cyclotomic(35, 2))
        phi = workloads._companion(list(poly._num))
        monkeypatch.setattr(pf, "RECOMBINATION_LIMIT", 1)
        detail = (
            "RatPoly(x^2 - 7*x + 5) is not weight-pure for q=5: "
            "a root has squared modulus other than q^1"
        )
        report = run(JobSpec("weight-filtration", {"phi": phi, "q": 5}))
        assert (report.exit_code, report.diagnostics) == (2, (detail,))
        report = run(JobSpec("wmc-check", {"n": [[0] * 26] * 26, "phi": phi, "q": 5, "i": 0}))
        assert report.exit_code == 1
        assert report.to_dict()["payload"]["violations"][0] == {"kind": "not_pure", "detail": detail}
        assert pf.factor_rational(impure) == [(impure, 1)]
        with pytest.raises(pf.RecombinationLimitError, match="recombining 3 modular factors"):
            pf.factor_rational(poly)

    def test_impure_companion_at_a_large_q(self):
        # the companion of (x^2 - 7x + 5)(x^2 + 3x + q^9)(x^2 + q^12)(x^2 + x + q^2)
        # at q = 2^61 - 1: its weight range comes from base-q logarithms of
        # ratios of its coefficients, integers far above q, and the report
        # names the impure quadratic
        q = 2**61 - 1
        poly = RatPoly([5, -7, 1]) * RatPoly([q**9, 3, 1]) * RatPoly([q**12, 0, 1])
        phi = load_workloads()._companion(list((poly * RatPoly([q**2, 1, 1]))._num))
        report = run(JobSpec("weight-filtration", {"phi": phi, "q": q}))
        assert render_json(report) == (
            '{\n  "command": "weight-filtration",\n  "diagnostics": [\n    "RatPoly(x^2 - 7*x + 5) '
            'is not weight-pure for q=2305843009213693951: constant term squared is not a power '
            'of q"\n  ],\n  "payload": {},\n  "schema_version": 1,\n  "status": "error"\n}\n'
        )

    def test_component_count_past_the_digit_limit(self, monkeypatch):
        unit_square = {"lattice": {"rank": 2, "generators": [["1", "0"], ["0", "1"]]}}
        drawn = ["dual graph omitted: only rank-1 special fibers are drawn"]
        too_long = ["field 'alpha': the component count has more than 4300 digits"]
        # the count is 10**(2 * zeros): 4299 digits, then 4301 and 4401
        for zeros, code, diagnostics in (
            (2149, 0, drawn), (2150, 2, too_long), (2200, 2, too_long)
        ):
            payload = dict(unit_square, alpha="1/1" + "0" * zeros)
            got, out = run_cli(["trop-model", "--json", json.dumps(payload)])
            assert (got, json.loads(out)["diagnostics"]) == (code, diagnostics)
        monkeypatch.setattr(tl, "COUNT_DIGIT_LIMIT", 3)
        for alpha, code in (("1/31", 0), ("1/32", 2)):  # 961 and 1024 components
            assert run(JobSpec("trop-model", dict(unit_square, alpha=alpha))).exit_code == code

    def test_batch_nesting_is_bounded(self, tmp_path):
        leaf = {"command": "trop-model", "input": TATE_MODEL}

        def nested(depth):
            payload = {"jobs": [leaf]}
            for _ in range(depth - 1):
                payload = {"jobs": [{"command": "batch", "input": payload}]}
            return payload

        too_deep = ("field 'jobs': batches nest deeper than the limit 100",)
        assert run(JobSpec("batch", nested(100))).status == "pass"
        for depth in (101, 2000):
            report = run(JobSpec("batch", nested(depth)))
            assert (report.exit_code, report.diagnostics) == (2, too_deep)
        # 1000 levels are 3000 JSON containers: the decoder itself recurses too deep
        text = '{"jobs":[{"command":"batch","input":' * 999 + json.dumps(nested(1)) + "}]}" * 999
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out = run_cli(["batch", "--input", str(path)])
        assert code == 2
        assert json.loads(out)["diagnostics"] == ["invalid JSON: nested too deeply to decode"]
        path.write_text(json.dumps(nested(100)))
        code, out = run_cli(["batch", "--input", str(path)])
        assert code == 0

    def test_pure_check_never_imports_mpmath(self):
        # every factor of the Tate pair is decided pure exactly, and so is the
        # impurity of x^2 - 3x + 1, which passes the constant-term and
        # reciprocity conditions for q = 5
        impure = {"n": [[0, 0], [0, 0]], "phi": [[0, -1], [1, 3]], "q": 5, "i": 0}
        jobs = [json.dumps(job) for job in (TATE_WMC, impure)]
        script = (
            "import sys; from wmtrop.cli import main; "
            f"codes = [main(['wmc-check', '--json', job]) for job in {jobs!r}]; "
            "assert codes == [0, 1] and 'mpmath' not in sys.modules, codes"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr

    def test_unknown_command(self):
        report = run(JobSpec("no-such-thing", {}))
        assert report.status == "error"
        # a batch entry can name its command with an unhashable JSON value
        report = run(JobSpec("batch", {"jobs": [{"command": ["wmc-check"], "input": {}}]}))
        assert report.status == "error"
        assert report.payload["reports"][0]["diagnostics"] == ["unknown command '['wmc-check']'"]

    def test_error_batch_names_its_error_entries(self):
        jobs = [
            {"command": "nope"},
            {"command": "trop-model", "input": TATE_MODEL},
            {"command": "wmc-check", "input": {}},
            {"command": "bundle-extend", "input": {"bundle": TATE_BUNDLE, "alpha": "1"}},
        ]
        code, out = run_cli(["batch", "--json", json.dumps({"jobs": jobs})])
        assert code == 2
        assert json.loads(out)["diagnostics"] == [
            "jobs[0]: unknown command 'nope'",
            "jobs[2]: field 'n': missing required field",
        ]
        nested = {"jobs": [{"command": "batch", "input": {"jobs": jobs[1:3]}}]}
        report = run(JobSpec("batch", nested))
        assert report.diagnostics == ("jobs[0]: jobs[1]: field 'n': missing required field",)
        # a batch without error entries carries no diagnostics
        report = run(JobSpec("batch", {"jobs": [jobs[1], jobs[3]]}))
        assert (report.status, report.diagnostics) == ("fail", ())

    _json_scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-50, 50), st.text(max_size=8)
    )
    _json_values = st.recursive(
        _json_scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=6), children, max_size=4),
        ),
        max_leaves=12,
    )

    @given(
        command=st.sampled_from(list(_HANDLERS)),
        payload=st.one_of(
            st.dictionaries(st.text(max_size=8), _json_values, max_size=4),
            _well_formed,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_malformed_inputs_never_crash(self, command, payload):
        reports = [run(JobSpec(command, payload)).to_dict()]
        while reports:
            report = reports.pop()
            assert report["status"] in ("pass", "fail", "error")
            if report["status"] == "error":
                assert report["diagnostics"]
            reports.extend(report["payload"].get("reports", []))

    def test_input_file(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(TATE_MODEL))
        code, out = run_cli(["trop-model", "--input", str(path)])
        assert code == 0
        code, _ = run_cli(["trop-model", "--input", str(tmp_path / "missing.json")])
        assert code == 2
        path.write_bytes(b"\xff{}")
        code, out = run_cli(["trop-model", "--input", str(path)])
        assert code == 2
        assert json.loads(out)["diagnostics"][0].startswith("cannot read input:")


class TestDeterminism:
    FIXTURES = [
        ("wmc-check", TATE_WMC),
        ("monodromy-filtration", {"n": [[0, 1], [0, 0]]}),
        ("weight-filtration", {"phi": [[1, 0], [0, 5]], "q": 5}),
        ("trop-model", TATE_MODEL),
        ("trop-tower", dict(TATE_MODEL, p=3, op="preimages", cell=0)),
        ("bundle-extend", {"bundle": TATE_BUNDLE, "alpha": "1", "p": 5}),
        ("bundle-minlevel", {"bundle": TATE_BUNDLE, "alpha": "1", "p": 5}),
        ("bundle-construct-f", {"bundle": TATE_BUNDLE, "alpha": "1/5"}),
        (
            "bundle-verify-f",
            {
                "bundle": TATE_BUNDLE,
                "section": {"alpha": "1/5", "slopes": [1] + [0] * 9, "base_value": "0",
                            "slope_increment": 0, "value_increment": "1/5"},
            },
        ),
        ("bundle-ample", {"bundle": TATE_BUNDLE}),
    ]

    def test_byte_identical_reruns(self):
        for command, payload in self.FIXTURES:
            args = [command, "--json", json.dumps(payload)]
            code1, out1 = run_cli(args)
            code2, out2 = run_cli(args)
            assert (code1, out1) == (code2, out2)
            assert out1.encode() == out2.encode()

    def test_reports_parse_and_reserialize(self):
        for command, payload in self.FIXTURES:
            report = run(JobSpec(command, payload))
            text, _ = render(report, "json")
            doc = json.loads(text)
            assert doc["schema_version"] == 1
            assert doc["command"] == command
            assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text

    def test_text_format(self):
        code, out = run_cli(["trop-model", "--format", "text", "--json", json.dumps(TATE_MODEL)])
        assert code == 0
        assert out.startswith("trop-model: pass")


class TestGoldenReports:
    """Reports compared byte for byte with stored ones, exit codes too.

    The inputs are conjugated, so the reported canonical bases are dense
    and a change of canonical form shows.  They cover wmc-check passes and
    failures (one with graded_not_phi_stable), monodromy-filtration and
    weight-filtration at dimensions 6 to 12.  Rewrite the file only for a
    deliberate change of the reports.
    """

    CASES = json.loads((Path(__file__).parent / "golden_reports.json").read_text())

    @pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
    def test_report_bytes(self, case):
        code, out = run_cli([case["command"], "--json", json.dumps(case["input"])])
        assert (code, out) == (case["exit_code"], case["report"])

    def test_cases_cover_the_commands_and_outcomes(self):
        kinds = {
            v["kind"]
            for c in self.CASES
            for v in json.loads(c["report"])["payload"].get("violations", [])
        }
        assert "graded_not_phi_stable" in kinds
        assert {c["command"] for c in self.CASES} == {
            "wmc-check", "monodromy-filtration", "weight-filtration"
        }
        assert {c["exit_code"] for c in self.CASES} == {0, 1}


LONG = "1" + "0" * 4300  # 4301 digits, one past what int() converts

PARSE_BOUNDARY_ENTRIES = {
    "zero_denominator": "1/0",
    "negative_zero": "-0/3",
    "padded_sign": " +4 ",
    "negative_denominator": "4/-2",
    "underscore": "1_0",
    "boolean": True,
    "float": 1.5,
    "long_numerator": LONG,
    "long_denominator": "1/" + LONG,
}


def parse_boundary_input(command: str, entry) -> dict:
    """A small input of the command with `entry` at [0][1] of a matrix field."""
    if command == "wmc-check":
        return {"n": [[0, entry], [0, 0]], "phi": [[1, 0], [0, 5]], "q": 5, "i": 1}
    return {"phi": [[5, entry], [0, 25]], "q": 5}


class TestParseBoundary:
    """Matrix entries at the edges of the rational syntax give the same
    report bytes and exit codes as when every entry went through
    parse_rational; the reports in parse_boundary_reports.json were
    recorded that way.  Rewrite the file only for a deliberate change of
    the reports."""

    REPORTS = json.loads((Path(__file__).parent / "parse_boundary_reports.json").read_text())
    CASES = [(c, name) for c in ("wmc-check", "weight-filtration") for name in PARSE_BOUNDARY_ENTRIES]

    @pytest.mark.parametrize("command,name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
    def test_report_bytes(self, command, name):
        payload = parse_boundary_input(command, PARSE_BOUNDARY_ENTRIES[name])
        code, out = run_cli([command, "--json", json.dumps(payload)])
        expected = self.REPORTS[f"{command}/{name}"]
        assert (code, out) == (expected["exit_code"], expected["report"])

    def test_cases_cover_every_outcome(self):
        assert set(self.REPORTS) == {f"{c}/{n}" for c, n in self.CASES}
        assert {r["exit_code"] for r in self.REPORTS.values()} == {0, 1, 2}


def witness_features(payload: dict) -> set[str]:
    """What a bundle-verify-f input exercises: its lattice generator, alpha,
    base value, cell count, and how its section differs from the canonical
    witness construct_f returns."""
    section = payload["section"]
    try:
        b, s = parse_bundle(payload["bundle"]), parse_section(section)
    except SchemaError:
        return {"rejected"}
    found = set()
    if b.lattice.generators[0, 0] < 0:
        found.add("negative generator")
    if s.alpha.denominator > 1:
        found.add("alpha denominator > 1")
    if s.base_value.denominator == 7:
        found.add("base value over 7")
    canonical = tb.construct_f(b, tl.CellWidth(s.alpha))
    if canonical.period_cells == 1:
        found.add("k = 1")
    if s.period_cells != canonical.period_cells:
        found.add("period")
    elif s.slopes != canonical.slopes:
        found.add("slope")
    if s.slope_increment != canonical.slope_increment:
        found.add("slope_increment")
    if s.value_increment != canonical.value_increment:
        found.add("value_increment")
    return found


class TestWitnessReports:
    """bundle-verify-f reports byte for byte, face positions and values
    spelled as str(Fraction) spells them, over witnesses that exercise each
    part of verify_section.  Rewrite witness_reports.json only for a
    deliberate change of the reports."""

    REPORTS = json.loads((Path(__file__).parent / "witness_reports.json").read_text())

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_report_bytes(self, name):
        case = self.REPORTS[name]
        code, out = run_cli(["bundle-verify-f", "--json", json.dumps(case["input"])])
        assert (code, out) == (case["exit_code"], case["report"])

    def test_cases_cover_the_witness_features(self):
        found = set().union(*(witness_features(c["input"]) for c in self.REPORTS.values()))
        assert found == {
            "negative generator", "alpha denominator > 1", "base value over 7", "k = 1",
            "slope", "slope_increment", "value_increment", "period", "rejected",
        }
        assert {c["exit_code"] for c in self.REPORTS.values()} == {0, 1, 2}


class TestTextReports:
    """--format text byte for byte: bundle-verify-f on a passing and on a
    slope-perturbed witness, bundle-construct-f, and a batch of the three.
    Rewrite text_reports.json only for a deliberate change of the reports."""

    REPORTS = json.loads((Path(__file__).parent / "text_reports.json").read_text())

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_report_bytes(self, name):
        case = self.REPORTS[name]
        argv = [case["command"], "--format", "text", "--json", json.dumps(case["input"])]
        assert run_cli(argv) == (case["exit_code"], case["report"])


def json_dumps_oracle(report: Report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


class TestRenderContract:
    """render_json writes exactly json.dumps(report.to_dict(), sort_keys=True,
    indent=2) plus a newline, and raises TypeError where json would have to
    convert or guess."""

    @pytest.mark.parametrize(
        "case", TestGoldenReports.CASES, ids=[c["name"] for c in TestGoldenReports.CASES]
    )
    def test_golden_cases(self, case):
        report = run(JobSpec(case["command"], case["input"]))
        assert render_json(report) == json_dumps_oracle(report)

    @pytest.mark.parametrize(
        "command,name",
        TestParseBoundary.CASES,
        ids=[f"{c}-{n}" for c, n in TestParseBoundary.CASES],
    )
    def test_parse_boundary_cases(self, command, name):
        report = run(JobSpec(command, parse_boundary_input(command, PARSE_BOUNDARY_ENTRIES[name])))
        assert render_json(report) == json_dumps_oracle(report)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workload", ["wmc_tate", "weights_mix", "trop_witness"])
    def test_seeded_workload_reports(self, workload, seed):
        for job in load_workloads().generate(workload, seed):
            report = run(JobSpec(job.command, job.payload))
            assert render_json(report) == json_dumps_oracle(report), (job.command, job.rung)

    def test_batch_echoes_any_json_command(self):
        # an unknown command is echoed as given, and JSON input can hold any value
        commands = [
            1.5, -0.0, 1e300, float("nan"), float("inf"), float("-inf"), 'é☃\u0000\n"',
            {"zeta": [2, {"b": None, "a": True}], "alpha": False}, [], {},
        ]
        report = run(JobSpec("batch", {"jobs": [{"command": c} for c in commands]}))
        text = render_json(report)
        assert text == json_dumps_oracle(report)
        for spelling in ("1.5", "-0.0", "1e+300", "NaN", "Infinity", "-Infinity",
                         '"\\u00e9\\u2603\\u0000\\n\\""'):
            assert f'"command": {spelling},\n' in text
        assert text.isascii()

    def test_deep_nesting(self):
        deep = []
        for _ in range(899):
            deep = [deep]
        report = run(JobSpec("batch", {"jobs": [{"command": deep}]}))
        assert render_json(report) == json_dumps_oracle(report)

    def test_face_lists_in_batches(self):
        # verify reports in a batch, and in a batch of a batch, at a non-zero indent
        cases = TestWitnessReports.REPORTS
        jobs = [
            {"command": "bundle-verify-f", "input": cases[name]["input"]}
            for name in ("thirds_base_value_sevenths", "thirds_slope", "k1_period")
        ]
        inner = {"command": "batch", "input": {"jobs": jobs}}
        for payload in ({"jobs": jobs}, {"jobs": [inner]}, {"jobs": [jobs[0], inner]}):
            report = run(JobSpec("batch", payload))
            assert render_json(report) == json_dumps_oracle(report)
        assert report == run(JobSpec("batch", payload))
        # a batch of a batch: every sub-report is the bytes the job renders alone
        doc = json.loads(render_json(report))
        nested = [doc["payload"]["reports"][0], *doc["payload"]["reports"][1]["payload"]["reports"]]
        assert [json.dumps(r, sort_keys=True, indent=2) + "\n" for r in nested] == [
            render_json(run(JobSpec(job["command"], job["input"]))) for job in [jobs[0], *jobs]
        ]

    def test_faces_expand_to_the_recorded_dicts(self):
        for case in TestWitnessReports.REPORTS.values():
            report = run(JobSpec("bundle-verify-f", case["input"]))
            assert report.to_dict() == json.loads(case["report"])

    class Slope(enum.IntEnum):
        DOWN = -1
        UP = 1

    def test_int_subclass_slopes(self):
        # a Python caller's IntEnum slopes render as json spells them, as
        # int.__repr__ (TropicalSection takes no bool)
        bundle = TestWitnessReports.REPORTS["thirds_canonical"]["input"]["bundle"]
        up, down = self.Slope.UP, self.Slope.DOWN
        section = {"alpha": "1/3", "slopes": [up, up, up, 2], "slope_increment": down,
                   "value_increment": "5/3"}  # fmt: skip
        report = run(JobSpec("bundle-verify-f", {"bundle": bundle, "section": section}))
        assert report.exit_code == 0
        assert render_json(report) == json_dumps_oracle(report)
        assert '"left_slope": 1,' in render_json(report)
        for slopes in ((up, down, 3), (down,)):
            section = tb.TropicalSection(F(1, 3), slopes, F(0), up, F(0))
            report = Report("bundle-construct-f", "pass", {"section": serialize_section(section)})
            assert render_json(report) == json_dumps_oracle(report)

    def test_subclasses_render_as_their_base(self):
        class Name(str):
            pass

        class Count(int):
            pass

        class Ratio(float):
            pass

        payload = {
            "name": Name("x"), "count": Count(3), "ratio": Ratio(0.5), "nan": Ratio("nan"),
            "pair": (1, (2, [])), "ordered": OrderedDict(b=1, a=2), Name("key"): [Count(-1)],
        }
        report = Report("batch", "pass", payload=payload)
        assert render_json(report) == json_dumps_oracle(report)

    def test_matrix_rows(self):
        # bases with rational and negative entries, and integers over a
        # denominator other than 1 (the pivot of each fractional RREF row),
        # alone and in a batch; the CLI refuses Q^0 and rational forms, so
        # those reports, and one with a 0-dimensional piece and rows of no
        # entry, are built from what the handlers serialize
        p = Matrix([[2, 1, 0], [-3, 1, 4], [1, 0, 5]])
        phi = p * Matrix.diagonal([1, 5, 25]) * p.inverse()
        job = {"phi": serialize_matrix(phi), "q": 5}
        bundle = {"lattice": {"rank": 2, "generators": [[2, 0], [0, 1]]}, "sigma": [[1, -3], [-6, 2]],
                  "chi": ["1/3", "-2"]}  # fmt: skip
        reports = [
            run(JobSpec("weight-filtration", job)),
            run(JobSpec("bundle-ample", {"bundle": bundle})),
            run(JobSpec("batch", {"jobs": [{"command": "weight-filtration", "input": job}]})),
        ]
        for phi in (phi, Matrix([], cols=0)):
            decomp = mono.weight_decomposition(mono.FrobeniusData(phi, 5))
            weights = {str(j): serialize_subspace(s) for j, s in decomp.components.items()}
            fil = serialize_filtration(mono.weight_filtration(decomp))
            reports.append(Report("weight-filtration", "pass", {"weights": weights, "filtration": fil}))
        form = Matrix([[F(1, 2), F(-3, 4), F(8, 4)], [F(-3, 4), F(5, 6), 0]])
        zero = serialize_subspace(Subspace.zero(3))
        reports.append(Report("bundle-ample", "fail", {"form": serialize_matrix(form), "zero": zero,
                                                       "empty_rows": serialize_matrix(Matrix([[], []]))}))
        texts = [render_json(report) for report in reports]
        for report, text in zip(reports, texts):
            assert text == json_dumps_oracle(report)
            assert json.loads(text) == report.to_dict()
        assert [report.status for report in reports] == ["pass", "fail", "pass", "pass", "pass", "fail"]
        empty_rows = '"empty_rows": [\n      [],\n      []\n    ]'
        for spelling in ('"-3/2",', '"1",', '"-3/4",', '"2"\n', '"basis": []', empty_rows):
            assert any(spelling in text for text in texts), spelling
        assert '"basis": []' in texts[4]  # Q^0

    @pytest.mark.parametrize("payload", [{"x": F(1, 2)}, {"x": {1, 2}}, {1: "a"}])
    def test_unknown_types_raise(self, payload):
        with pytest.raises(TypeError):
            render_json(Report("batch", "pass", payload=payload))
