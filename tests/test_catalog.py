import os

import pytest

from sktsym import catalog as cg
from sktsym import invariance as inv


class TestLoading:
    def test_shipped_catalog_counts(self, catalog):
        assert len(catalog.entries) == 27
        assert len(catalog.operators) == 26
        by_table = {}
        for (t, c) in catalog.entries:
            by_table.setdefault(t, set()).add(c)
        assert len(by_table[1]) == 16
        assert len(by_table[2]) == 4
        assert len(by_table[3]) == 7

    def test_unknown_entry_raises(self, catalog):
        with pytest.raises(cg.CatalogError):
            catalog.entry(1, 99)
        with pytest.raises(cg.CatalogError):
            catalog.operator("no-such-operator")

    def test_env_override(self, tmp_path, catalog, monkeypatch):
        mini = tmp_path / "mini.cfg"
        mini.write_text(
            "[operator P_t]\nxi0 = 1\nxi1 = 0\neta1 = 0\neta2 = 0\n\n"
            "[entry]\ntable = 1\ncase = 1\nd12 = 1\nd21 = 1\nc1 = 1\nb2 = 1\n"
            "restrictions =\noperators = P_t\nsubstitutions =\n")
        monkeypatch.setenv(cg.ENV_CATALOG, str(mini))
        small = cg.Catalog.load()
        assert len(small.entries) == 1
        assert small.entry(1, 1).system.params()["d12"].sym == 1

    def test_malformed_text_raises(self):
        with pytest.raises(cg.CatalogError):
            cg.Catalog.from_text("[entry]\ntable = not-a-number\n")


class TestInstantiate:
    def test_binding_violating_restriction_rejected(self, catalog):
        with pytest.raises(cg.CatalogError):
            catalog.instantiate(1, 1, {"a": 0, "b": 1, "c": 1})

    def test_valid_binding(self, catalog):
        system, ops = catalog.instantiate(1, 1, {"a": 2, "b": 1, "c": 3})
        assert system.params()["a1"].sym == 2
        assert len(ops) == 3


class TestValidation:
    def test_all_entries_invariant(self, full_validation):
        report, _elapsed = full_validation
        assert report.ok
        assert not report.failures()

    def test_closure_row_per_entry(self, full_validation):
        report, _elapsed = full_validation
        closure_rows = [r for r in report.rows if r.operator == "<closure>"]
        assert len(closure_rows) == 27
        assert all(r.invariant for r in closure_rows)

    def test_sign_mutation_flips_verdict(self, catalog):
        report = catalog.validate_all(keys=[(2, 3)],
                                      mutate={(2, 3): {"c1": "-1"}})
        assert not report.ok
        assert report.failures()


class TestSubstitutions:
    def test_swap_substitution(self, catalog):
        entry = catalog.entry(1, 1)
        out = catalog.apply_substitution(entry.system, "37a:1")
        assert out.system.equals(entry.system.swap_uv())

    def test_scaling_substitution_preserves_shape(self, catalog):
        entry = catalog.entry(3, 7)
        out = catalog.apply_substitution(entry.system, "115:4")
        params = out.system.params()
        # purely cross-diffusive shape is preserved
        for zero in ("d1", "d2", "d11", "d22", "a1", "a2", "b1", "b2",
                     "c1", "c2"):
            assert params[zero].is_zero
        assert not params["d12"].is_zero and not params["d21"].is_zero

    def test_unknown_substitution_raises(self, catalog):
        with pytest.raises(cg.CatalogError):
            catalog.substitution("999:9")


def test_operator_r_is_checked_once_per_row(catalog, monkeypatch):
    calls = []

    def counting_check(system, field):
        calls.append(field.name)
        return inv.check_invariance(system, field)

    monkeypatch.setattr(cg, "check_invariance", counting_check)
    keys = [k for k, e in catalog.entries.items() if "R" in e.operators]
    assert keys
    report = catalog.validate_all(keys=keys)
    r_rows = [r for r in report.rows if r.operator == "R"]
    assert len(r_rows) == len(keys) and all(r.invariant for r in r_rows)
    # _select_r's check of the repaired encoding is the row's verdict
    assert calls.count("R") == len(keys)
    assert len(calls) == sum(len(catalog.entries[k].operators) for k in keys)
