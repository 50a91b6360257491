"""Machine-readable catalog of the classified systems, their symmetry
operators, restrictions and connecting substitutions."""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources

import sympy as sp

from . import expr as ex
from .expr import Expression, T, U, V, X
from .invariance import (_PARAM_KEYS, PointTransformation, SKTSystem,
                         check_invariance, closure_check)
from .jet import VectorField

ENV_CATALOG = "SYMKIT_CATALOG"

_OPERATOR_KEYS = ("xi0", "xi1", "eta1", "eta2")
_ENTRY_KEYS = ("table", "case", "restrictions", "operators",
               "substitutions") + _PARAM_KEYS


class CatalogError(ex.ExprError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    table: int
    case_id: int
    system: SKTSystem
    restrictions: tuple      # Expressions asserted nonzero
    operators: tuple         # operator names
    substitutions: tuple     # substitution ids, e.g. "37a:1"

    @property
    def key(self):
        return (self.table, self.case_id)


def _unknown_key(block, known):
    """The first key of the block that is not in known, or None."""
    return next((k for k in block if k not in known), None)


def _parse_blocks(text):
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = {"__head__": line[1:-1].strip()}
            blocks.append(current)
        elif "=" in line:
            if current is None:
                raise CatalogError(f"line {lineno}: key outside a block")
            key, _, val = line.partition("=")
            current[key.strip()] = val.strip()
        else:
            raise CatalogError(f"line {lineno}: cannot parse {raw!r}")
    return blocks


class Catalog:
    def __init__(self, operators, entries):
        self.operators = operators          # name -> VectorField
        self.entries = {e.key: e for e in entries}

    # -- loading ----------------------------------------------------------
    @classmethod
    def load(cls, path=None):
        if path is None:
            path = os.environ.get(ENV_CATALOG)
        if path is None:
            text = (resources.files("sktsym") / "data" / "catalog.cfg").read_text()
        else:
            with open(path) as fh:
                text = fh.read()
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text):
        """The catalog in a config text.  Every expression, on an entry line
        or an operator line, is read by the toolkit grammar; a block that
        does not read, or that has a key its kind does not know, raises
        CatalogError naming the block."""
        operators, entries = {}, []
        for block in _parse_blocks(text):
            head = block.pop("__head__")
            if head.startswith("operator"):
                name = head[len("operator"):].strip()
                if not name:
                    raise CatalogError(f"malformed [{head}] block: no name")
                unknown = _unknown_key(block, _OPERATOR_KEYS)
                if unknown is not None:
                    raise CatalogError(
                        f"malformed [{head}] block: unknown key {unknown!r}")
                try:
                    operators[name] = VectorField.make(
                        block.get("xi0", "0"), block.get("xi1", "0"),
                        block.get("eta1", "0"), block.get("eta2", "0"),
                        name=name)
                except ex.ExprError as exc:
                    raise CatalogError(f"malformed [{head}] block: {exc}")
            elif head == "entry":
                try:
                    entries.append(cls._entry_from_block(block))
                except (KeyError, ValueError, ex.ExprError) as exc:
                    raise CatalogError(f"malformed [entry] block: {exc}")
            else:
                raise CatalogError(f"unknown block [{head}]")
        cat = cls(operators, entries)
        for e in entries:
            for op in e.operators:
                if op not in operators:
                    raise CatalogError(f"entry {e.key}: unknown operator {op}")
        return cat

    @staticmethod
    def _entry_from_block(block):
        unknown = _unknown_key(block, _ENTRY_KEYS)
        if unknown is not None:
            raise ValueError(f"unknown key {unknown!r}")
        table = int(block.pop("table"))
        case_id = int(block.pop("case"))
        restrictions = tuple(ex.parse(s) for s in
                             _split(block.pop("restrictions", "")))
        operators = tuple(_split(block.pop("operators")))
        substitutions = tuple(_split(block.pop("substitutions", "")))
        system = SKTSystem.make(**{k: ex.parse(v) for k, v in block.items()})
        return CatalogEntry(table=table, case_id=case_id, system=system,
                            restrictions=restrictions, operators=operators,
                            substitutions=substitutions)

    # -- access -----------------------------------------------------------
    def entry(self, table, case_id):
        try:
            return self.entries[(table, case_id)]
        except KeyError:
            raise CatalogError(f"no entry for table {table} case {case_id}")

    def operator(self, name):
        try:
            return self.operators[name]
        except KeyError:
            raise CatalogError(f"unknown operator {name!r}")

    def instantiate(self, table, case_id, bindings=None):
        """Concrete system plus resolved operator list; unbound parameters
        stay symbolic.  Numeric bindings violating a restriction raise."""
        entry = self.entry(table, case_id)
        bindings = {ex.symbol(k): v for k, v in (bindings or {}).items()}
        for r in entry.restrictions:
            val = ex.substitute(r, bindings)
            if val.sym.is_Number and val.sym == 0:
                raise CatalogError(
                    f"binding violates restriction {ex.render(r)} != 0 "
                    f"for table {table} case {case_id}")
        system = entry.system.subs(bindings) if bindings else entry.system
        ops = []
        for name in entry.operators:
            fld = self.operator(name)
            if bindings:
                fld = VectorField.make(*[ex.substitute(c, bindings)
                                         for c in fld.coeffs()], name=name)
            ops.append(fld)
        return system, ops

    # -- validation -------------------------------------------------------
    def validate_all(self, keys=None, mutate=None):
        """Run invariance checks for every (entry, operator) pair and a
        closure check per entry.  `mutate` maps an entry key to a parameter
        override (negative-control hook)."""
        rows = []
        notes = []
        keys = sorted(keys if keys is not None else self.entries)
        for key in keys:
            entry = self.entries[key]
            system = entry.system
            if mutate and key in mutate:
                system = SKTSystem.make(**{**{k: v for k, v in system.params().items()},
                                           **mutate[key]})
            ops = []
            for name in entry.operators:
                if name == "R":
                    fld, note, verdict = self._select_r(system)
                    if note:
                        notes.append((key, note))
                else:
                    fld = self.operator(name)
                    verdict = check_invariance(system, fld)
                rows.append(ValidationRow(
                    table=entry.table, case_id=entry.case_id, operator=name,
                    invariant=verdict.invariant,
                    witness_count=len(verdict.witnesses),
                    assumptions=tuple(str(a) for a in verdict.assumptions_used)))
                ops.append(fld)
            closure = closure_check(ops)
            rows.append(ValidationRow(
                table=entry.table, case_id=entry.case_id, operator="<closure>",
                invariant=closure.closes,
                witness_count=len(closure.failures),
                assumptions=()))
        return ValidationReport(rows=rows, notes=notes)

    def _select_r(self, system):
        """Resolve the printed-vs-repaired encoding of the operator R by
        machine check; returns (field, note, verdict of the field)."""
        repaired = self.operator("R")
        printed = self.operators.get("R_printed")
        verdict = check_invariance(system, repaired)
        if verdict.invariant:
            return (repaired, "operator R: repaired encoding (second group on v-slot) selected",
                    verdict)
        if printed is not None:
            alt = check_invariance(system, printed)
            if alt.invariant:
                return printed, "operator R: printed encoding selected", alt
        return repaired, None, verdict


@dataclass(frozen=True)
class ValidationRow:
    table: int
    case_id: int
    operator: str
    invariant: bool
    witness_count: int
    assumptions: tuple


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple
    notes: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "notes", tuple(self.notes))

    @property
    def ok(self):
        return all(r.invariant for r in self.rows)

    def entry_count(self):
        return len({(r.table, r.case_id) for r in self.rows})

    def failures(self):
        return [r for r in self.rows if not r.invariant]


def _split(s):
    return [part.strip() for part in s.split(",") if part.strip()]


# ---------------------------------------------------------------------------
# substitution registry

def _pt(name, **kw):
    return PointTransformation.make(name=name, **kw)


def _build_substitutions():
    d1, d2, d11, d12, d21 = [ex.parameter(k) for k in
                             ("d1", "d2", "d11", "d12", "d21")]
    a, b, c = ex.parameter("a"), ex.parameter("b"), ex.parameter("c")
    a1, a2 = ex.parameter("a1"), ex.parameter("a2")
    e1, e2 = ex.parameter("e1"), ex.parameter("e2")
    subs = {
        "37a:1": _pt("37a:1", u_map="v", v_map="u"),
        "37a:2": _pt("37a:2", u_map=e1 * U, v_map=e2 * V),
        "37a:3": _pt("37a:3", u_map=U + d1 / (2 * d11)),
        "37a:4": _pt("37a:4", v_map=V + d1 / d12),
        "37a:5": _pt("37a:5", u_map=U + (d1 - d2) / d11),
        "37a:6": _pt("37a:6", v_map=V + (d2 - d1) / d12),
        "37a:7": _pt("37a:7", v_map=b * U + c * V),
        "37a:8": _pt("37a:8", v_map=d11 * U + d12 * V),
        "37a:9": _pt("37a:9", u_map=b * U + c * V, v_map=d11 * U + d12 * V),
        "37a:10": _pt("37a:10", t_map=sp.exp(a * T) / a,
                      u_map=sp.exp(-a * T) * U, v_map=sp.exp(-a * T) * V),
        "37a:11": _pt("37a:11", u_map=sp.exp(-a1 * T) * U),
        "37a:12": _pt("37a:12", v_map=sp.exp(-a2 * T) * V),
        "112:2": _pt("112:2", t_map=b * T, x_map=sp.sqrt(b) * X),
        "110": _pt("110", u_map=d21 * U, v_map=d12 * V),
        "115:1": _pt("115:1", u_map="v", v_map="u"),
        "115:2": _pt("115:2", v_map=V + d1 / d12),
        "115:3": _pt("115:3", u_map=d21 * U),
        "115:4": _pt("115:4", u_map=d11 * U, v_map=d12 * V),
        "115:5": _pt("115:5", t_map=d1 * T, u_map=(d11 * U + d12 * V) / d1),
        "115:6": _pt("115:6", t_map=(2 * d2 - d1) * T,
                     u_map=(d11 * U + d1 - d2) / (2 * d2 - d1)),
        "115:7": _pt("115:7", u_map=d1 + d21 * U),
        "identity": _pt("identity"),
    }
    subs["112:1"] = subs["37a:10"]
    return subs


_SUBSTITUTIONS = None


def substitution(sub_id):
    global _SUBSTITUTIONS
    if _SUBSTITUTIONS is None:
        _SUBSTITUTIONS = _build_substitutions()
    try:
        return _SUBSTITUTIONS[sub_id]
    except KeyError:
        raise CatalogError(f"unknown substitution id {sub_id!r}")

