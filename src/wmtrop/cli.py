"""Command-line surface: JSON in, deterministic JSON/text/DOT out.

Every command reads one JSON document (inline via --json or from a file
via --input), runs the corresponding computation, and prints a report

    {"schema_version": 1, "command": ..., "status": ..., "payload": ...,
     "diagnostics": [...]}

with keys sorted and no timestamps, so identical inputs give identical
bytes.  Exit code 0 means the check passed, 1 means it ran and failed,
2 means the input was malformed or the computation was inapplicable.

Handlers do not build error reports: parsers and the computations raise
ValueError (SchemaError names the offending field), and run() alone turns
any ValueError into an error report with exit code 2.  Other exceptions
are defects and are left to surface.

Rationals travel as decimal-free strings "a/b" (or "a"); matrices are
row-major arrays of arrays.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from . import monodromy as mono
from . import tropbundle as tb
from . import troplattice as tl
from .polyfactor import RecombinationLimitError
from .ratlin import Matrix, Subspace

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Input does not match the command schema; names the offending field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"field '{fieldname}': {message}")


# ---------------------------------------------------------------------------
# rationals and core types <-> JSON


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _int_limit_message(err: ValueError) -> str:
    """The message of err without the advice Python appends to its int/str
    digit-limit error, to call sys.set_int_max_str_digits(), which a CLI
    user cannot act on."""
    return str(err).split("; use sys.set_int_max_str_digits()")[0]


def _rational_ints(value: Any, fieldname: str) -> tuple[int, int]:
    """(a, b) with value == a/b and b > 0, for an int or an 'a'/'a/b' string;
    a SchemaError naming fieldname for anything else.

    The numerator is read before the denominator, and a zero denominator
    is checked last, in the order `Fraction(text)` keeps.
    """
    if type(value) is int:
        return value, 1
    if not isinstance(value, str):
        if isinstance(value, bool):
            raise SchemaError(fieldname, "expected a rational, got a boolean")
        if isinstance(value, int):
            return int(value), 1
        raise SchemaError(fieldname, f"expected int or 'a/b' string, got {type(value).__name__}")
    text = value.strip()
    if not _RATIONAL_RE.match(text):
        raise SchemaError(fieldname, f"malformed rational {value!r} (want 'a' or 'a/b')")
    num, _, den = text.partition("/")
    try:
        a, b = int(num), int(den or 1)
    except ValueError as err:  # more digits than int() converts
        raise SchemaError(fieldname, _int_limit_message(err)) from None
    if not b:
        raise SchemaError(fieldname, f"malformed rational {value!r}")
    return a, b


def parse_rational(value: Any, fieldname: str = "value") -> Fraction:
    return Fraction(*_rational_ints(value, fieldname))


#: most rows, and most entries per row, of an input matrix; time grows about
#: as d**4, from 0.4 s at 64 to about half an hour at 512
DIMENSION_LIMIT = 64


def parse_matrix(value: Any, fieldname: str = "matrix") -> Matrix:
    """The matrix of an array of arrays of rationals, read into integer
    numerators and denominators with no Fraction per entry."""
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SchemaError(fieldname, "expected an array of arrays")
    if value and any(len(r) != len(value[0]) for r in value):
        raise SchemaError(fieldname, "ragged matrix")
    for count, what in ((len(value), "rows"), (len(value[0]) if value else 0, "columns")):
        if count > DIMENSION_LIMIT:
            raise SchemaError(
                fieldname, f"{count} {what} are above the dimension limit {DIMENSION_LIMIT}"
            )
    rows = [_matrix_row(r, i, fieldname) for i, r in enumerate(value)]
    if not rows:
        raise SchemaError(fieldname, "matrix must have at least one row")
    den = math.lcm(*[b for _, b in rows])
    return Matrix._over(
        [row if b == den else [a * (den // b) for a in row] for row, b in rows], den, len(value[0])
    )


#: a row of integer strings joined by NUL, a character no integer string holds
_INT_ROW_RE = re.compile(r"[+-]?\d+(?:\x00[+-]?\d+)*")


def _matrix_row(row: list, i: int, fieldname: str) -> tuple[list[int], int]:
    """(nums, den) with row i of a matrix == nums / den.

    A row of integer strings with no padding is tested in one match of
    its entries joined by NUL and read with int(), over den 1.  Every
    other row, and one with more digits than int() converts, is read
    entry by entry, so that a SchemaError names the first bad entry.
    """
    try:
        text = "\x00".join(row)
    except TypeError:  # an entry that is not a string: an int, a bool, ...
        pass
    else:
        # as many parts as entries: no entry holds a NUL, and each part is a plain str
        if _INT_ROW_RE.fullmatch(text) and len(parts := text.split("\x00")) == len(row):
            try:
                return list(map(int, parts)), 1
            except ValueError:  # more digits than int() converts
                pass
    pairs = []
    for j, x in enumerate(row):
        try:
            pairs.append(_rational_ints(x, fieldname))
        except SchemaError:
            _rational_ints(x, f"{fieldname}[{i}][{j}]")  # raises again, naming the entry
    den = math.lcm(*[b for _, b in pairs])
    return [a * (den // b) for a, b in pairs], den


class _RatRow(list):
    """A matrix row of `serialize_matrix`'s strings, which hold only digits,
    "-" and "/": `render_json` writes it with one join and no escaping."""

    __slots__ = ()


def serialize_matrix(m: Matrix) -> list[list[str]]:
    """Each row as a `_RatRow` of its entries spelled as `str(Fraction)`
    spells them, one gcd per entry when the denominator is not 1."""
    den = m._den
    if den == 1:
        return [_RatRow(map(str, row)) for row in m._num]
    return [
        _RatRow([f"{a // g}" if g == den else f"{a // g}/{den // g}"
                 for a, g in zip(row, map(math.gcd, row, itertools.repeat(den)))])
        for row in m._num
    ]  # fmt: skip


def parse_lattice(value: Any, fieldname: str = "lattice") -> tl.TropicalLattice:
    if not isinstance(value, dict):
        raise SchemaError(fieldname, "expected an object with 'rank' and 'generators'")
    rank = value.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise SchemaError(f"{fieldname}.rank", "expected a positive integer")
    gens = parse_matrix(value.get("generators"), f"{fieldname}.generators")
    if gens.rows != rank or gens.cols != rank:
        raise SchemaError(f"{fieldname}.generators", f"expected a {rank}x{rank} matrix")
    try:
        return tl.TropicalLattice(gens)
    except ValueError as err:
        raise SchemaError(f"{fieldname}.generators", str(err)) from None


def parse_bundle(value: Any, fieldname: str = "bundle") -> tb.BundleData:
    if not isinstance(value, dict):
        raise SchemaError(fieldname, "expected an object")
    lat = parse_lattice(value.get("lattice"), f"{fieldname}.lattice")
    sigma = parse_matrix(value.get("sigma"), f"{fieldname}.sigma")
    chi = value.get("chi")
    if not isinstance(chi, list):
        raise SchemaError(f"{fieldname}.chi", "expected an array of rationals")
    chi_vals = [parse_rational(x, f"{fieldname}.chi[{i}]") for i, x in enumerate(chi)]
    flag = value.get("abelian_part_ample", True)
    if not isinstance(flag, bool):
        raise SchemaError(f"{fieldname}.abelian_part_ample", "expected a boolean")
    try:
        return tb.BundleData(lat, sigma, chi_vals, flag)
    except ValueError as err:
        raise SchemaError(fieldname, str(err)) from None


def parse_section(value: Any, fieldname: str = "section") -> tb.TropicalSection:
    if not isinstance(value, dict):
        raise SchemaError(fieldname, "expected an object")
    slopes = value.get("slopes")
    if not isinstance(slopes, list) or (
        bool in (kinds := set(map(type, slopes)))
        or not all(map(issubclass, kinds, itertools.repeat(int)))
    ):
        raise SchemaError(f"{fieldname}.slopes", "expected an array of integers")
    inc = value.get("slope_increment", 0)
    if not isinstance(inc, int) or isinstance(inc, bool):
        raise SchemaError(f"{fieldname}.slope_increment", "expected an integer")
    try:
        return tb.TropicalSection(
            alpha=parse_rational(value.get("alpha"), f"{fieldname}.alpha"),
            slopes=tuple(slopes),
            base_value=parse_rational(value.get("base_value", 0), f"{fieldname}.base_value"),
            slope_increment=inc,
            value_increment=parse_rational(
                value.get("value_increment", 0), f"{fieldname}.value_increment"
            ),
        )
    except ValueError as err:
        raise SchemaError(fieldname, str(err)) from None


class _IntList(list):
    """A list of ints that `render_json` writes in one call, marked by the
    code that builds it so that the renderer need not scan lists."""

    __slots__ = ()


def serialize_section(s: tb.TropicalSection) -> dict:
    return {
        "alpha": str(s.alpha),
        "slopes": _IntList(s.slopes),
        "base_value": str(s.base_value),
        "slope_increment": s.slope_increment,
        "value_increment": str(s.value_increment),
    }


def serialize_subspace(s: Subspace) -> dict:
    return {"dim": s.dim, "basis": serialize_matrix(s.basis)}


def serialize_filtration(f: mono.Filtration) -> dict:
    return {
        "ambient_dim": f.ambient_dim,
        "lo": f.lo,
        "hi": f.hi,
        "pieces": {str(j): serialize_subspace(p) for j, p in enumerate(f.pieces, f.lo)},
    }


def serialize_dual_graph(g: tl.DualGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[a, b, m] for a, b, m in g.edges],
    }


# ---------------------------------------------------------------------------
# jobs and reports


class JobSpec(NamedTuple):
    command: str
    payload: dict


class _FaceList(NamedTuple):
    """The faces of a `verify_section` report, left as its integer tuples.

    `Report.to_dict()` expands them into one dict per face; `render_json`
    writes them through one template, with no dict.
    """

    faces: tuple[tb.FaceTransition, ...]

    def dicts(self) -> list[dict]:
        return [
            {
                "position": f"{pos_num}" if pos_den == 1 else f"{pos_num}/{pos_den}",
                "left_slope": left_slope,
                "right_slope": right_slope,
                "slope_difference": left_slope - right_slope,
                "value": f"{left_num}" if left_den == 1 else f"{left_num}/{left_den}",
                "continuous": left_num == right_num and left_den == right_den,
            }
            for pos_num, pos_den, left_slope, right_slope, left_num, left_den, right_num, right_den
            in self.faces
        ]


def _expanded(payload: dict) -> dict:
    """The payload with its face list expanded.

    Only the `faces` slot holds unexpanded data, so nothing else is walked:
    a batch can echo a command nested 900 deep.
    """
    faces = payload.get("faces")
    if type(faces) is _FaceList:
        return {**payload, "faces": faces.dicts()}
    return payload


class Report(NamedTuple):
    command: str
    status: str  # pass | fail | error
    payload: dict
    diagnostics: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """The report as plain JSON data, its face list expanded into dicts:
        what every reader, and `json.dumps` as the oracle of `render_json`, sees."""
        return self._document(_expanded(self.payload))

    def _document(self, payload: dict) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "status": self.status,
            "payload": payload,
            "diagnostics": list(self.diagnostics),
        }

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "error": 2}[self.status]


def _get(payload: dict, key: str):
    if key not in payload:
        raise SchemaError(key, "missing required field")
    return payload[key]


def _get_int(payload: dict, key: str, minimum: int | None = None, default=None) -> int:
    if key not in payload:
        if default is not None:
            return default
        raise SchemaError(key, "missing required field")
    v = payload[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(key, "expected an integer")
    if minimum is not None and v < minimum:
        raise SchemaError(key, f"expected an integer >= {minimum}")
    return v


def parse_width(payload: dict) -> tl.CellWidth:
    alpha = parse_rational(_get(payload, "alpha"), "alpha")
    if alpha <= 0:
        raise SchemaError("alpha", "cell width must be positive")
    return tl.CellWidth(alpha)


def _bundle(payload: dict) -> tb.BundleData:
    return parse_bundle(_get(payload, "bundle"), "bundle")


# ---------------------------------------------------------------------------
# command handlers


def _cmd_monodromy_filtration(payload: dict) -> Report:
    op = mono.NilpotentOperator(parse_matrix(_get(payload, "n"), "n"))
    fil = mono.monodromy_filtration(op)
    return Report(
        "monodromy-filtration",
        "pass",
        payload={
            "nilpotency_index": op.nilpotency_index,
            "jumps": fil.jump_indices(),
            "filtration": serialize_filtration(fil),
        },
    )


def _cmd_weight_filtration(payload: dict) -> Report:
    phi = parse_matrix(_get(payload, "phi"), "phi")
    q = _get_int(payload, "q", minimum=2)
    try:
        decomp = mono.weight_decomposition(mono.FrobeniusData(phi, q))
    except RecombinationLimitError as err:
        raise SchemaError("phi", str(err)) from None
    fil = mono.weight_filtration(decomp)
    return Report(
        "weight-filtration",
        "pass",
        payload={
            "weights": {str(j): serialize_subspace(s) for j, s in sorted(decomp.components.items())},
            "filtration": serialize_filtration(fil),
        },
    )


def _cmd_wmc_check(payload: dict) -> Report:
    n_mat = parse_matrix(_get(payload, "n"), "n")
    phi = parse_matrix(_get(payload, "phi"), "phi")
    q = _get_int(payload, "q", minimum=2)
    i = _get_int(payload, "i")
    if abs(i) > mono.DEGREE_LIMIT:
        raise SchemaError("i", f"|i| is above the degree limit {mono.DEGREE_LIMIT}")
    op = mono.NilpotentOperator(n_mat)
    frob = mono.FrobeniusData(phi, q, op)
    try:
        report = mono.check_wmc(op, frob, i)
    except RecombinationLimitError as err:
        raise SchemaError("phi", str(err)) from None
    diags = tuple(json.dumps(v, sort_keys=True) for v in report.violations)
    return Report(
        "wmc-check",
        "pass" if report.passed else "fail",
        payload={
            "commutation_ok": report.commutation_ok,
            "filtrations_equal": report.filtrations_equal,
            "graded_weights": {
                str(j): [[w, m] for w, m in pairs]
                for j, pairs in sorted(report.graded_weights.items())
            },
            "violations": report.violations,
        },
        diagnostics=diags,
    )


def _parse_quotient_model(payload: dict) -> tl.QuotientModel:
    lat = parse_lattice(_get(payload, "lattice"), "lattice")
    alpha = parse_width(payload)
    p = _get_int(payload, "p", minimum=2, default=2)
    level = _get_int(payload, "level", minimum=0, default=0)
    try:
        return tl.QuotientModel(lat, alpha, p, level)
    except tl.NotPrimeError as err:
        raise SchemaError("p", str(err)) from None
    except tl.LevelLimitError as err:
        raise SchemaError("level", str(err)) from None
    except ValueError as err:
        raise SchemaError("alpha", str(err)) from None


def _cmd_trop_model(payload: dict) -> Report:
    model = _parse_quotient_model(payload)
    count = tl.quotient_components(model)
    desc = tl.descriptor(model)
    out: dict[str, Any] = {
        "components": count,
        "descriptor": desc.canonical_string(),
    }
    diags: tuple[str, ...] = ()
    if model.lattice.rank == 1:
        out["dual_graph"] = serialize_dual_graph(tl.dual_graph(model))
    else:
        diags = ("dual graph omitted: only rank-1 special fibers are drawn",)
    return Report("trop-model", "pass", payload=out, diagnostics=diags)


def _cmd_trop_tower(payload: dict) -> Report:
    model = _parse_quotient_model(payload)
    op = _get(payload, "op")
    cell = _get_int(payload, "cell", minimum=0)
    if op == "project":
        projected = tl.tower_project(cell, model)
        out = {
            "op": "project",
            "cell": cell,
            "level_from": model.level + 1,
            "level_to": model.level,
            "projected": projected,
        }
    elif op == "preimages":
        steps = _get_int(payload, "steps", minimum=0, default=1)
        pre = tl.tower_preimages(cell, model, steps)
        out = {
            "op": "preimages",
            "cell": cell,
            "level_from": model.level,
            "level_to": model.level + steps,
            "preimages": pre,
        }
    else:
        raise SchemaError("op", "expected 'project' or 'preimages'")
    return Report("trop-tower", "pass", payload=out)


def _cmd_bundle_ample(payload: dict) -> Report:
    b = _bundle(payload)
    s = tb.form_matrix(b)
    minors = tb.leading_minors(s)
    ample = tb.ample_check(b, minors)
    return Report(
        "bundle-ample",
        "pass" if ample else "fail",
        payload={
            "ample": ample,
            "form": serialize_matrix(s),
            "leading_minors": [str(m) for m in minors],
        },
        diagnostics=() if ample else ("induced form is not positive definite",),
    )


def _cmd_bundle_extend(payload: dict) -> Report:
    b = _bundle(payload)
    alpha = parse_width(payload)
    ok = tb.extends_to(b, alpha)
    diags: tuple[str, ...] = ()
    if not ok and "p" in payload:
        p = _get_int(payload, "p", minimum=2)
        try:
            level = tb.minimal_level(b, alpha, p)
            diags = (f"minimal level {level}",)
        except tb.NoPLevelError as err:
            diags = (str(err),)
        except tl.NotPrimeError as err:
            raise SchemaError("p", str(err)) from None
    return Report(
        "bundle-extend",
        "pass" if ok else "fail",
        payload={"extends": ok, "alpha": str(alpha.alpha)},
        diagnostics=diags,
    )


def _cmd_bundle_minlevel(payload: dict) -> Report:
    b = _bundle(payload)
    alpha = parse_width(payload)
    p = _get_int(payload, "p", minimum=2)
    try:
        level = tb.minimal_level(b, alpha, p)
    except tl.NotPrimeError as err:
        raise SchemaError("p", str(err)) from None
    except tb.NoPLevelError as err:
        return Report(
            "bundle-minlevel",
            "fail",
            payload={"offending_primes": list(err.offending_primes)},
            diagnostics=(str(err),),
        )
    return Report(
        "bundle-minlevel",
        "pass",
        payload={"level": level, "width": str(alpha.alpha / p**level)},
    )


def _cmd_bundle_construct_f(payload: dict) -> Report:
    section = tb.construct_f(_bundle(payload), parse_width(payload))
    return Report("bundle-construct-f", "pass", payload={"section": serialize_section(section)})


def _cmd_bundle_verify_f(payload: dict) -> Report:
    b = _bundle(payload)
    section = parse_section(_get(payload, "section"), "section")
    report = tb.verify_section(b, section)
    return Report(
        "bundle-verify-f",
        "pass" if report.ok else "fail",
        payload={"ok": report.ok, "faces": _FaceList(report.faces)},
        diagnostics=report.failures,
    )


#: deepest nesting of batches a batch accepts; a level is three JSON
#: containers deep, to decode and to render, against Python's recursion
#: limit of 1000 frames
BATCH_DEPTH_LIMIT = 100


def _batch_depth(payload: dict) -> int:
    """Levels of batch nesting in a batch payload, counted without recursing."""
    depth, level = 0, [payload]
    while level:
        depth += 1
        level = [
            entry.get("input")
            for p in level
            if isinstance(p, dict) and isinstance(p.get("jobs"), list)
            for entry in p["jobs"]
            if isinstance(entry, dict) and entry.get("command") == "batch"
        ]
    return depth


def _cmd_batch(payload: dict) -> Report:
    jobs = _get(payload, "jobs")
    if not isinstance(jobs, list):
        raise SchemaError("jobs", "expected an array of job objects")
    if _batch_depth(payload) > BATCH_DEPTH_LIMIT:
        raise SchemaError("jobs", f"batches nest deeper than the limit {BATCH_DEPTH_LIMIT}")
    reports = []
    diagnostics = []  # the causes of the error entries, so an error batch names them
    worst = "pass"
    rank = {"pass": 0, "fail": 1, "error": 2}
    for idx, entry in enumerate(jobs):
        if not isinstance(entry, dict) or "command" not in entry:
            raise SchemaError(f"jobs[{idx}]", "expected an object with 'command' and 'input'")
        sub = run(JobSpec(entry["command"], entry.get("input", {})))
        reports.append(sub.to_dict())
        if sub.status == "error":
            diagnostics.extend(f"jobs[{idx}]: {d}" for d in sub.diagnostics)
        if rank[sub.status] > rank[worst]:
            worst = sub.status
    return Report("batch", worst, payload={"reports": reports}, diagnostics=tuple(diagnostics))


_HANDLERS: dict[str, Callable[[dict], Report]] = {
    "wmc-check": _cmd_wmc_check,
    "monodromy-filtration": _cmd_monodromy_filtration,
    "weight-filtration": _cmd_weight_filtration,
    "trop-model": _cmd_trop_model,
    "trop-tower": _cmd_trop_tower,
    "bundle-extend": _cmd_bundle_extend,
    "bundle-minlevel": _cmd_bundle_minlevel,
    "bundle-construct-f": _cmd_bundle_construct_f,
    "bundle-verify-f": _cmd_bundle_verify_f,
    "bundle-ample": _cmd_bundle_ample,
    "batch": _cmd_batch,
}


def run(job: JobSpec) -> Report:
    """Dispatch a job to its handler; any ValueError it raises becomes an error report."""
    # a batch entry may name its command with any JSON value, hashable or not
    if not isinstance(job.command, str) or job.command not in _HANDLERS:
        return Report(job.command, "error", {}, diagnostics=(f"unknown command '{job.command}'",))
    if not isinstance(job.payload, dict):
        return Report(job.command, "error", {}, diagnostics=("field 'input': expected an object",))
    version = job.payload.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        return Report(
            job.command,
            "error",
            {},
            diagnostics=(f"field 'schema_version': unsupported version {version!r}",),
        )
    try:
        return _HANDLERS[job.command](job.payload)
    except ValueError as err:
        return Report(job.command, "error", {}, diagnostics=(str(err),))


# ---------------------------------------------------------------------------
# rendering


_encode_str = json.encoder.encode_basestring_ascii  # the C function json.dumps uses


def _encode_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


#: JSON text of a scalar by its exact type, spelled as json.dumps spells it
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: _encode_str,
    int: int.__repr__,
    float: _encode_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


#: the fields of a face's JSON object, in sorted key order, as `%` conversions
_FACE_FIELDS = (
    '"continuous": %s',
    '"left_slope": %d',
    '"position": "%s"',
    '"right_slope": %d',
    '"slope_difference": %d',
    '"value": "%s"',
)


def _face_list_json(faces: _FaceList, newline: str) -> str:
    """The JSON text of `faces.dicts()` at the indent `newline`, one `%`
    template per face.  Positions and values are digits, "-" and "/", which
    need no escaping; the slopes come from a `TropicalSection`, which takes
    no bool, so `%d` spells them as `json` does."""
    if not faces.faces:
        return "[]"
    inner = newline + "  "
    template = "{" + inner + "  " + ("," + inner + "  ").join(_FACE_FIELDS) + inner + "}"
    body = ("," + inner).join([
        template % (
            "true" if left_num == right_num and left_den == right_den else "false", left_slope,
            pos_num if pos_den == 1 else f"{pos_num}/{pos_den}", right_slope,
            left_slope - right_slope, left_num if left_den == 1 else f"{left_num}/{left_den}",
        )
        for pos_num, pos_den, left_slope, right_slope, left_num, left_den, right_num, right_den
        in faces.faces
    ])  # fmt: skip
    return "[" + inner + body + newline + "]"


def _int_list_json(values: _IntList, newline: str) -> str:
    """The JSON text of a list of ints at the indent `newline`, from json's
    own C encoder, which spells each item as the oracle does (bools too)."""
    if not values:
        return "[]"
    inner = newline + "  "
    return "[" + inner + json.dumps(values, separators=("," + inner, ": "))[1:-1] + newline + "]"


def _rat_row_json(row: _RatRow, newline: str) -> str:
    """The JSON text of a matrix row at the indent `newline`, one join."""
    if not row:
        return "[]"
    inner = newline + "  "
    return "[" + inner + '"' + ('",' + inner + '"').join(row) + '"' + newline + "]"


#: JSON text of a list whose producer marked it by its type, at the indent `newline`
_LISTS: dict[type, Callable[[Any, str], str]] = {
    _FaceList: _face_list_json,
    _IntList: _int_list_json,
    _RatRow: _rat_row_json,
}


def _emit(value: Any, out: list[str], newline: str) -> None:
    """Append the JSON text of `value` to `out`; `newline` is "\\n" plus the current indent.

    Containers look their items' types up in `_SCALARS` themselves, so a
    scalar item costs no call of `_emit`: `_emit` sees only containers and
    the subclasses of scalars.
    """
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            encode = _SCALARS.get(type(item))
            if encode is None:
                out.append(sep + _encode_str(key) + ": ")
                _emit(item, out, inner)
            else:
                out.append(sep + _encode_str(key) + ": " + encode(item))
            sep = comma
        out.append(newline + "}")
    elif (write := _LISTS.get(type(value))) is not None:
        out.append(write(value, newline))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            encode = _SCALARS.get(type(item))
            if encode is None:
                out.append(sep)
                _emit(item, out, inner)
            else:
                out.append(sep + encode(item))
            sep = comma
        out.append(newline + "]")
    else:  # subclasses render as their base does, as in json
        for kind in (str, int, float):
            if isinstance(value, kind):
                out.append(_SCALARS[kind](value))
                return
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(report: Report) -> str:
    """The report exactly as `json.dumps(report.to_dict(), sort_keys=True, indent=2)`
    writes it, plus a newline: ASCII only, keys sorted, tuples as lists,
    non-finite floats as `NaN`, `Infinity` and `-Infinity`.

    One recursive pass appends to one list, where `json.dumps` with an
    indent runs its pure-Python encoder; each list type in `_LISTS` is
    written in one piece, a face list with no dict per face.  Any type
    `json` does not encode, and any key that is not a `str`, raises
    `TypeError` (a `json.dumps` caller would see an int key turned into a
    string); only a Python caller can build such a report, never JSON input.
    """
    out: list[str] = []
    _emit(report._document(report.payload), out, "\n")
    out.append("\n")
    return "".join(out)


def render_text(report: Report) -> str:
    payload = report.to_dict()["payload"]
    lines = [f"{report.command}: {report.status}"]
    for key in sorted(payload):
        lines.append(f"  {key}: {json.dumps(payload[key], sort_keys=True)}")
    for d in report.diagnostics:
        lines.append(f"  ! {d}")
    return "\n".join(lines) + "\n"


def render_dot(report: Report) -> str | None:
    graph = report.to_dict()["payload"].get("dual_graph")
    if graph is None:
        return None
    lines = ["graph special_fiber {"]
    for v in graph["vertices"]:
        lines.append(f'  v{v} [label="P1 {v}"];')
    for a, b, mult in graph["edges"]:
        for _ in range(mult):
            lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render(report: Report, fmt: str) -> tuple[str, Report]:
    if fmt == "json":
        return render_json(report), report
    if fmt == "text":
        return render_text(report), report
    if fmt == "dot":
        dot = render_dot(report)
        if dot is None:
            err = Report(
                report.command,
                "error",
                {},
                diagnostics=("dot output is only available for commands returning a dual graph",),
            )
            return render_json(err), err
        return dot, report
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmtrop",
        description="Exact weight/monodromy filtration checks and tropical models",
    )
    parser.add_argument("command", choices=tuple(_HANDLERS))
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="path to a JSON input file")
    source.add_argument("--json", dest="inline", help="inline JSON input")
    parser.add_argument(
        "--format", choices=("json", "dot", "text"), default="json", help="output format"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.inline is not None:
            raw = args.inline
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                raw = handle.read()
        payload = json.loads(raw)
    except (OSError, UnicodeDecodeError) as err:
        diagnostic = f"cannot read input: {err}"
    except RecursionError:
        diagnostic = "invalid JSON: nested too deeply to decode"
    except ValueError as err:  # json.loads: bad syntax, or an integer too long for int()
        diagnostic = f"invalid JSON: {_int_limit_message(err)}"
    else:
        text, report = render(run(JobSpec(args.command, payload)), args.format)
        sys.stdout.write(text)
        return report.exit_code
    # the command line itself is malformed: always a JSON error report
    report = Report(args.command, "error", {}, diagnostics=(diagnostic,))
    sys.stdout.write(render_json(report))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
