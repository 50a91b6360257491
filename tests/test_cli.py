import re

import numpy as np
import pytest

from sktsym import cli
from sktsym import simulator as sim
from sktsym.invariance import SKTSystem


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_usage_error_without_selection(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 2
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["bogus"]) == 2

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "simulate", "--config", "/no/such/file.cfg")
        assert code == 3
        assert "not found" in err

    def test_malformed_bind(self, capsys):
        code, _, _ = run(capsys, "verify-solution", "--family", "3-6",
                         "--bind", "alpha1")
        assert code == 2


class TestValidate:
    def test_single_entry_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--table", "1", "--case", "1")
        assert code == 0
        assert "verdict: pass" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "validate", "--table", "1", "--case", "1",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "table,case,operator,invariant,witnesses"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "validate", "--table", "2", "--case", "3")
        _, out2, _ = run(capsys, "validate", "--table", "2", "--case", "3")
        assert out1 == out2

    def test_injected_failure_exits_one(self, capsys, tmp_path, monkeypatch):
        # a catalog whose only entry lists an operator that is not a symmetry
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "[operator P_t]\nxi0 = 1\nxi1 = 0\neta1 = 0\neta2 = 0\n\n"
            "[operator BAD]\nxi0 = 0\nxi1 = 0\neta1 = u^2\neta2 = 0\n\n"
            "[entry]\ntable = 1\ncase = 1\nd12 = 1\nd21 = 1\nc1 = 1\nb2 = 1\n"
            "restrictions =\noperators = P_t, BAD\nsubstitutions =\n")
        monkeypatch.setenv("SYMKIT_CATALOG", str(bad))
        code, out, _ = run(capsys, "validate", "--all")
        assert code == 1
        assert "FAIL" in out


class TestDetermining:
    def test_generic_prints_seventeen(self, capsys):
        code, out, _ = run(capsys, "determining", "--generic")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip().startswith("(")]
        assert len(lines) == 17


class TestCheckAndCommutators:
    def test_single_operator(self, capsys):
        code, out, _ = run(capsys, "check", "--table", "2", "--case", "3",
                           "--operator", "Z1")
        assert code == 0 and "pass" in out

    def test_operator_not_listed(self, capsys):
        code, _, _ = run(capsys, "check", "--table", "2", "--case", "3",
                         "--operator", "Z3")
        assert code == 2

    def test_commutator_table(self, capsys):
        code, out, _ = run(capsys, "commutators", "--table", "1", "--case", "1")
        assert code == 0
        assert "closes: yes" in out
        assert "[P_t, Q1]" in out

    def test_commutator_outside_the_span_exits_one(self, capsys, tmp_path):
        # [P_x, sqrt(x)*P_x] = P_x/(2*sqrt(x)) is not in the span
        cfg = tmp_path / "sqrt.cfg"
        cfg.write_text(
            "[operator P_x]\nxi1 = 1\n\n[operator S]\nxi1 = sqrt(x)\n\n"
            "[entry]\ntable = 1\ncase = 1\nd12 = 1\nd21 = 1\n"
            "operators = P_x, S\n")
        code, out, err = run(capsys, "commutators", "--catalog", str(cfg),
                             "--table", "1", "--case", "1")
        assert code == 1
        assert "closes: yes" not in out
        assert "not polynomial" in err


class TestMalformedOperatorLine:
    """An operator line is read by the toolkit grammar, as an entry line is:
    it is never evaluated as Python, and a line outside the grammar exits 1
    with one error line naming its block."""

    def _list(self, capsys, tmp_path, line, head="operator P_t"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{head}]\n{line}\n\n"
                       "[entry]\ntable = 1\ncase = 1\nd12 = 1\nd21 = 1\n"
                       "operators = P_t\n")
        return run(capsys, "catalog", "list", "--catalog", str(cfg))

    def test_python_code_is_not_executed(self, capsys, tmp_path):
        code, out, err = self._list(
            capsys, tmp_path,
            "xi0 = __import__('builtins').print('EVALUATED-FROM-CATALOG') or 0")
        assert code == 1
        assert "EVALUATED-FROM-CATALOG" not in out + err
        assert re.fullmatch(r"error: malformed \[operator P_t\] block: .*\n", err)

    def test_incomplete_line_exits_one_without_traceback(self, capsys,
                                                         tmp_path):
        code, _, err = self._list(capsys, tmp_path, "xi0 = t^")
        assert code == 1
        assert "Traceback" not in err
        assert re.fullmatch(r"error: malformed \[operator P_t\] block: .*\n", err)

    def test_block_without_a_name_exits_one(self, capsys, tmp_path):
        code, _, err = self._list(capsys, tmp_path, "xi0 = 1", head="operator")
        assert code == 1
        assert err == "error: malformed [operator] block: no name\n"


class TestUnknownCatalogKey:
    """A key that its block does not know exits 1 with one error line, for
    an operator block and for an entry block."""

    def _list(self, capsys, tmp_path, operator_line="", entry_line=""):
        cfg = tmp_path / "unknown.cfg"
        cfg.write_text(f"[operator P_t]\nxi0 = 1\n{operator_line}\n\n"
                       "[entry]\ntable = 1\ncase = 1\nd12 = 1\nd21 = 1\n"
                       f"{entry_line}\noperators = P_t\n")
        return run(capsys, "catalog", "list", "--catalog", str(cfg))

    def test_unknown_operator_key_exits_one(self, capsys, tmp_path):
        code, out, err = self._list(capsys, tmp_path, operator_line="zeta = 1")
        assert code == 1
        assert out == ""
        assert err == "error: malformed [operator P_t] block: unknown key 'zeta'\n"

    def test_unknown_entry_key_exits_one(self, capsys, tmp_path):
        code, out, err = self._list(capsys, tmp_path, entry_line="d13 = 1")
        assert code == 1
        assert out == ""
        assert err == "error: malformed [entry] block: unknown key 'd13'\n"


class TestVerifySolution:
    def test_builtin_family_passes(self, capsys):
        code, out, _ = run(capsys, "verify-solution", "--family", "3-6",
                           "--system", "3-1")
        assert code == 0
        assert "symbolic residual: 0" in out

    def test_csv_report(self, capsys):
        code, out, _ = run(capsys, "verify-solution", "--family", "3-5",
                           "--bind", "alpha1=0.8", "--bind", "alpha2=1.5",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == \
            "family,system,max_residual,points,verdict"

    def test_unknown_bind_name_changes_nothing(self, capsys):
        argv = ("verify-solution", "--family", "3-5",
                "--bind", "alpha1=0.8", "--bind", "alpha2=1.5")
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert (code, out, err) == run(capsys, *argv, "--bind", "zzz=1")

    def test_broken_solution_file_fails(self, capsys, tmp_path):
        f = tmp_path / "broken.sol"
        f.write_text("[solution]\nname = broken\nsystem = 3-1\n"
                     "branch = upper\nu = t + x\nv = t - x\n"
                     "constraints =\n")
        code, out, _ = run(capsys, "verify-solution", "--family", "ignored",
                           "--file", str(f))
        assert code == 1
        assert "FAIL" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, "verify-solution", "--family", "3-5",
                           "--output", str(target))
        assert code == 0
        assert out == ""
        assert "verdict: pass" in target.read_text()


class TestOtherSubcommands:
    def test_flux_check_pass_and_fail(self, capsys):
        code, _, _ = run(capsys, "flux-check", "--family", "3-7",
                         "--bind", "lambda2=0")
        assert code == 0
        code, _, _ = run(capsys, "flux-check", "--family", "3-7",
                         "--bind", "lambda2=0", "--x1", "pi/2")
        assert code == 1

    def test_orbit(self, capsys):
        code, out, _ = run(capsys, "orbit", "--family", "3-5",
                           "--generator", "X1")
        assert code == 0
        assert "verdict: pass" in out

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "--system", "3-2")
        assert code == 0
        assert "reduced ODE system:" in out
        assert "satisfies ODEs" in out

    def test_catalog_list_and_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert len([l for l in out.splitlines() if l.startswith("table")]) == 27
        code, out, _ = run(capsys, "catalog", "show", "--table", "3",
                           "--case", "7")
        assert code == 0
        assert "operators:" in out

    def test_catalog_show_needs_selection(self, capsys):
        code, _, _ = run(capsys, "catalog", "show")
        assert code == 2

    def test_simulate_writes_trajectory(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[simulate]\ngrid.x0 = 0\ngrid.x1 = 3.141592653589793\n"
            "grid.n = 16\nbc = zero-neumann\ncfl = 0.2\nt_end = 0.01\n"
            "init = seed-ode\noutput_stride = 100\n"
            "bind.alpha1 = 1.0\nbind.alpha2 = 2.0\n")
        out_file = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "simulate", "--config", str(cfg),
                         "--output", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "t,x,u,v"
        assert len(lines) > 16

    def test_simulate_reports_steps_and_dt_range(self, capsys, tmp_path,
                                                 monkeypatch):
        real_run, runs = sim.run, []

        def kept(system, grid, init, bc, config, bindings=None):
            runs.append((real_run(system, grid, init, bc, config, bindings),
                         system, bindings))
            return runs[-1][0]

        monkeypatch.setattr(cli.sim, "run", kept)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SIMULATE_BASE)
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        assert out.startswith("t,x,u,v\n")
        m = re.fullmatch(r"(\d+) steps, dt min (\S+) max (\S+), "
                         r"max diffusivity (\S+), mass drift (\S+)\n", err)
        assert m and int(m[1]) > 0
        assert 0 < float(m[2]) <= float(m[3])
        [(traj, system, bindings)] = runs
        c = sim._numeric_params(system, bindings)
        dmax = max(sim.max_diffusivity(c, st.u, st.v) for st in traj.states)
        assert float(m[4]) == pytest.approx(dmax, rel=1e-5)
        (u0, v0), (u1, v1) = traj.mass(0), traj.mass()
        drift = max(abs(u1 - u0) / abs(u0), abs(v1 - v0) / abs(v0))
        assert 0 < drift < 1
        assert float(m[5]) == pytest.approx(drift, rel=1e-5)

    def test_simulate_reports_the_abort_reason(self, capsys, tmp_path,
                                               monkeypatch):
        # the run from the config, with u_t = u_xx + u^2 from u = 1e100
        # stepped instead: it overflows in its first step
        real_run = sim.run

        def overflowing(system, grid, init, bc, config, bindings=None):
            return real_run(SKTSystem.make(d1="1", b1="-1"), grid,
                            (np.full(grid.n, 1e100), np.ones(grid.n)), bc,
                            config)

        monkeypatch.setattr(cli.sim, "run", overflowing)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SIMULATE_BASE)
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert out.startswith("t,x,u,v\n")
        assert re.fullmatch(r"aborted: non-finite state at step 1 "
                            r"\(t = \S+, dt = \S+\)\n", err)

    def test_convergence_small(self, capsys):
        code, out, _ = run(capsys, "convergence", "--family", "3-7",
                           "--bind", "alpha1=-1", "--bind", "alpha2=-3",
                           "--bind", "p=0.05", "--bind", "lambda1=1",
                           "--bind", "lambda2=0", "--sizes", "32,64",
                           "--t-end", "0.05")
        assert code == 0
        assert "verdict: pass" in out

    def test_convergence_negative_radicand_is_a_usage_error(self, capsys):
        # p < 0 makes the radicand 1 - 2 cos(x) negative on part of [0, pi]:
        # the exact family cannot give finite initial data there
        code, _, err = run(capsys, "convergence", "--family", "3-7",
                           "--bind", "alpha1=-1", "--bind", "alpha2=-3",
                           "--bind", "p=-0.5", "--bind", "lambda1=1",
                           "--bind", "lambda2=0")
        assert code == 2
        assert "sqrt radicand" in err
        assert "alpha1**2 + 4*lambda1*p*cos(x)" in err


SIMULATE_BASE = ("[simulate]\ngrid.n = 16\nt_end = 0.01\ninit = seed-ode\n"
                 "bind.alpha1 = 1.0\nbind.alpha2 = 2.0\n")
TRIG_BINDS = ("--bind", "alpha1=-1", "--bind", "alpha2=-3", "--bind", "p=0.05",
              "--bind", "lambda1=1", "--bind", "lambda2=0")


class TestBadInputIsAUsageError:
    @pytest.mark.parametrize("argv, config", [
        (("convergence", "--family", "3-7", "--sizes", "8,x"), None),
        # the scheme reproduces these cases exactly: every error is 0
        (("convergence", "--family", "steady-upper", "--sizes", "16,32",
          "--t-end", "0.01"), None),
        (("convergence", "--family", "3-7", *TRIG_BINDS, "--sizes", "16,32",
          "--t-end", "0"), None),
        (("simulate",), SIMULATE_BASE.replace("alpha1 = 1.0", "alpha1 = abc")),
        (("simulate",), SIMULATE_BASE + "output_stride = x\n"),
        (("simulate",), SIMULATE_BASE + "output_stride = 0\n"),
        (("simulate",), SIMULATE_BASE + "bc = foo\n"),
        (("simulate",), SIMULATE_BASE + "system = 9-9\n"),
        (("simulate",), SIMULATE_BASE.replace("seed-ode", "no-such-family")),
    ], ids=["sizes-not-integers", "steady-family-exact", "t-end-zero",
            "bind-not-a-number", "stride-not-an-integer", "stride-zero",
            "unknown-bc", "unknown-system", "unknown-init"])
    def test_exits_two_without_traceback(self, capsys, tmp_path, argv, config):
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv = (*argv, "--config", str(cfg))
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err
        if argv[0] == "simulate":
            assert "bad [simulate] config" in err

    @pytest.mark.parametrize("value", ["1/0", "nan", "oo", "-oo"])
    def test_bind_value_that_is_not_finite(self, capsys, value):
        code, _, err = run(capsys, "orbit", "--family", "family-trig",
                           "--generator", "X2", "--bind", f"p={value}")
        assert code == 2
        assert err.splitlines() == [
            f"error: binding value {value!r} is not finite"]

    @pytest.mark.parametrize("value", ["1/0", "nan", "oo", "-oo"])
    def test_endpoint_that_is_not_finite(self, capsys, value):
        for flag in ("--x0", "--x1"):
            code, out, err = run(capsys, "flux-check", "--family", "3-7",
                                 "--bind", "lambda2=0", f"{flag}={value}")
            assert (code, out) == (2, "")
            assert err.splitlines() == ["error: --x0/--x1 is not finite"]

    def test_negative_symbolic_endpoint_in_the_equals_form(self, capsys):
        # argparse reads "--x0 -pi/2" as two options; "--x0=-pi/2" is one
        code, out, err = run(capsys, "flux-check", "--family", "3-7",
                             "--bind", "lambda2=0", "--x0=-pi/2")
        assert code != 2
        assert out.startswith("flux check for family-trig on (-pi/2, pi):")
        assert err == ""

    def test_argv_value_is_not_evaluated_as_python(self, capsys):
        payload = "__import__('builtins').print('EVALUATED') or 1"
        for argv, message in (
                (("--x1", payload), "cannot parse --x0/--x1"),
                (("--bind", f"p={payload}"),
                 f"cannot parse binding value {payload!r}")):
            code, out, err = run(capsys, "flux-check", "--family", "3-7",
                                 "--bind", "lambda2=0", *argv)
            assert (code, out) == (2, "")
            assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("name", ["x", "t", "u_x"])
    def test_bind_of_a_variable(self, capsys, tmp_path, name):
        # binding x would make the family x-free and pass the flux check
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SIMULATE_BASE + f"bind.{name} = 0.5\n")
        for argv in (("flux-check", "--family", "3-7", "--bind", "lambda2=0",
                      "--bind", f"{name}=0.5", "--x1", "pi/2"),
                     ("simulate", "--config", str(cfg))):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert err.splitlines() == [
                f"error: binding names a variable, not a parameter: {name!r}"]

    def test_catalog_option_only_where_the_catalog_is_loaded(self, capsys):
        code, _, err = run(capsys, "verify-solution", "--family", "3-5",
                           "--catalog", "x")
        assert code == 2
        assert "unrecognized arguments: --catalog" in err
