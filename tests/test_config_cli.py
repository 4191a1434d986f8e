import csv
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from firstloss import ConfigError, RunConfig, SolveError, load_config, pareto, valuation
from firstloss.cli import main
from firstloss.contract import in_fee_box

from conftest import failing_cell


def test_defaults_are_base_case():
    cfg = load_config(None)
    assert cfg.market.r == 0.02
    assert cfg.market.gamma == 0.40
    assert cfg.market.v0 == 1.0
    assert cfg.market.horizon_T == 1.0
    assert cfg.manager.a == 0.3 and cfg.manager.b == 0.65
    assert cfg.investor.a == 0.3 and cfg.investor.b == 0.65
    assert cfg.steps.dm == 0.0025 and cfg.steps.dalpha == 0.005 and cfg.steps.dc == 0.005
    assert cfg.steps.n_phi == 200


def test_run_config_is_the_base_case():
    cfg = RunConfig()
    assert cfg == load_config(None)
    assert cfg.market.sigma == 0.2
    assert [key for key, _ in cfg.as_items()] == [
        "market.r", "market.gamma", "market.sigma", "market.horizon", "market.v0",
        "manager.a", "manager.b", "investor.a", "investor.b",
        "sweep.dm", "sweep.dalpha", "sweep.dc", "sweep.n_phi",
        "run.seed", "run.mc_draws", "run.outdir",
    ]


@pytest.mark.parametrize("item", ["market.r", "r=0.04", "=0.04"])
def test_override_syntax_errors(item):
    with pytest.raises(ConfigError, match=f"override {item!r} must look like section.key=value"):
        load_config(None, [item])


def test_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[market]\nr = 0.04\ngamma = 0.5\n\n[manager]\nb = 2.5\n")
    cfg = load_config(path, ["market.r=0.01", "run.seed = 7"])
    assert cfg.market.r == 0.01          # override beats the file
    assert cfg.market.gamma == 0.5
    assert cfg.manager.b == 2.5
    assert cfg.seed == 7


def test_config_errors_carry_field_path(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.cfg")
    path = tmp_path / "bad.cfg"
    path.write_text("[market]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="market.foo"):
        load_config(path)
    path.write_text("[market]\ngamma = -0.4\n")
    with pytest.raises(ConfigError, match="gamma"):
        load_config(path)


def test_cli_value_golden(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--set", f"run.outdir={out}", "value", "--fee", "0,20,0"])
    assert code == 0
    doc = json.loads((out / "value.json").read_text())
    assert doc["phi_M"] == pytest.approx(2.2489, abs=1e-4)
    assert doc["config"]["market.r"] == "0.02"


def test_cli_missing_config_exits_1(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.cfg"), "value", "--fee", "0,20,0"])
    assert code == 1
    assert "nope.cfg" in capsys.readouterr().err


def test_cli_unreadable_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("[market]\n# taux sans risque \u00e0 2%\nr = 0.02\n".encode("latin-1"))
    assert main(["--config", str(cfg), "value", "--fee", "0,20,0"]) == 1
    assert f"config error: cannot read {cfg}" in capsys.readouterr().err


@pytest.mark.parametrize("outdir", ["a_file", "a_file/out"])
def test_cli_outdir_at_or_under_a_file_exits_1(outdir, tmp_path, capsys):
    (tmp_path / "a_file").write_text("not a directory\n")
    assert main(["--set", f"run.outdir={tmp_path / outdir}", "value", "--fee", "0,20,0"]) == 1
    assert f"config error: cannot write {tmp_path / outdir / 'value.json'}" in capsys.readouterr().err
    assert (tmp_path / "a_file").read_text() == "not a directory\n"


def test_cli_bad_fee_exits_1(tmp_path):
    code = main(["--set", f"run.outdir={tmp_path}", "value", "--fee", "1,2"])
    assert code == 1


@pytest.mark.parametrize("config,argv,message", [
    (None, ["--set", "market.r=abc", "value", "--fee", "0,20,0"], "bad value for market.r: 'abc'"),
    ("[market]\nr = abc\n", ["value", "--fee", "0,20,0"], "bad value for market.r: 'abc'"),
    ("r = 0.04\n", ["value", "--fee", "0,20,0"], "cannot parse"),
    ("[foo]\nx = 1\n", ["value", "--fee", "0,20,0"], "unknown config section [foo]"),
    (None, ["value", "--fee", "a,b,c"], "fee must be numeric percentages"),
    (None, ["--set", "sweep.n_phi=0", "grid"], "n_phi must be at least 1 (got 0)"),
], ids=["override-value", "file-value", "no-section", "unknown-section", "fee-text", "no-level"])
def test_cli_config_and_fee_errors_exit_1(config, argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = ["--config", str(tmp_path / "run.cfg"), *argv]
    assert main(["--set", f"run.outdir={out}", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_cli_envelope_and_wealth(tmp_path):
    out = tmp_path / "out"
    assert main(["--set", f"run.outdir={out}", "envelope", "--fee", "0,20,0"]) == 0
    lines = (out / "envelope.csv").read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "v,utility,envelope"
    assert main(["--set", f"run.outdir={out}", "wealth", "--fee", "5,10,26"]) == 0
    doc = json.loads((out / "wealth.json").read_text())
    assert doc["case"] == "B"
    assert doc["theta1"] == pytest.approx(1.05, abs=1e-12)


@pytest.mark.parametrize("flags,name", [
    (["--vmax", "nan"], "--vmax"),
    (["--vmax", "inf"], "--vmax"),
    (["--vmax", "-1"], "--vmax"),
    (["--vmax", "0"], "--vmax"),
    (["--grid-n", "-5"], "--grid-n"),
    (["--grid-n", "1"], "--grid-n"),
])
def test_cli_envelope_bad_grid_exits_1(flags, name, tmp_path, capsys):
    assert main(["--set", f"run.outdir={tmp_path}", "envelope", "--fee", "0,20,0", *flags]) == 1
    assert f"config error: {name} must be" in capsys.readouterr().err
    assert not (tmp_path / "envelope.csv").exists()


def test_cli_benchmark(tmp_path):
    out = tmp_path / "out"
    assert main(["--set", f"run.outdir={out}", "benchmark", "--fee", "5,35.5,26", "--pi", "1,0"]) == 0
    rows = [l for l in (out / "benchmark.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "pi,sharpe,phi_M,phi_I,degenerate"
    assert rows[2].endswith(",1")        # pi = 0 row flagged degenerate


def test_cli_benchmark_bad_pi_exits_1(tmp_path, capsys):
    code = main(["--set", f"run.outdir={tmp_path}", "benchmark", "--fee", "5,35.5,26", "--pi", "x"])
    assert code == 1
    assert "--pi" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--set", "market.r=nan", "value", "--fee", "5,35.5,26"],
    ["--set", "market.r=inf", "value", "--fee", "5,35.5,26"],
    ["sensitivity", "--axis", "r", "--values", "nan"],
])
def test_cli_non_finite_market_exits_1(argv, tmp_path, capsys):
    assert main(["--set", f"run.outdir={tmp_path}", *argv]) == 1
    assert "r must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("override,name", [("investor.a=inf", "a"), ("manager.b=inf", "b"), ("investor.b=inf", "b")])
def test_cli_non_finite_hara_exits_1(override, name, tmp_path, capsys):
    assert main(["--set", f"run.outdir={tmp_path}", "--set", override, "value", "--fee", "5,35.5,26"]) == 1
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "value.json").exists()


def test_cli_frontier_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\ndm = 0.025\ndalpha = 0.05\ndc = 0.05\nn_phi = 4\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg), "--set", f"run.outdir={out1}", "frontier"]) == 0
    assert main(["--config", str(cfg), "--set", f"run.outdir={out2}", "frontier"]) == 0

    def strip_outdir(path):
        # the provenance header echoes run.outdir, which differs by design
        return [l for l in path.read_text().splitlines() if not l.startswith("# run.outdir")]

    assert strip_outdir(out1 / "frontier.csv") == strip_outdir(out2 / "frontier.csv")


def test_cli_preferred_with_floor(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\ndm = 0.025\ndalpha = 0.05\ndc = 0.05\nn_phi = 4\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--set", f"run.outdir={out}", "preferred", "--floor", "0,20,0"]) == 0
    doc = json.loads((out / "preferred.json").read_text())
    assert doc["found"] is True
    assert doc["phi_M"] >= 2.2489 - 1e-6


def test_cli_grid(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\ndm = 0.025\ndalpha = 0.1\ndc = 0.1\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--set", f"run.outdir={out}", "grid"]) == 0
    rows = [l for l in (out / "grid.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows[0].startswith("m_pct,alpha_pct,c_pct")
    assert len(rows) - 1 == 3 * 5 * 4


# a step that does not divide its fee axis, and an alpha step below the
# box's 0.1%: each axis keeps only its points inside the box, so 0.06, 0.501,
# 0.315 and 0.0005 are not fees of the lattice
@pytest.mark.parametrize("key,value,fees", [("sweep.dm", "0.03", 2 * 5 * 4), ("sweep.dalpha", "0.003", 3 * 166 * 4),
                                            ("sweep.dc", "0.035", 3 * 5 * 9), ("sweep.dalpha", "0.0005", 3 * 999 * 4)])
def test_cli_grid_keeps_the_lattice_inside_the_box(key, value, fees, tmp_path):
    steps = {"sweep.dm": "0.025", "sweep.dalpha": "0.1", "sweep.dc": "0.1", key: value}
    args = [arg for item in steps.items() for arg in ("--set", "=".join(item))]
    assert main(["--set", f"run.outdir={tmp_path}", *args, "grid"]) == 0
    rows = [l.split(",") for l in (tmp_path / "grid.csv").read_text().splitlines() if not l.startswith("#")][1:]
    pct = np.array([[float(x) for x in r[:3]] for r in rows])
    assert len(pct) == fees
    assert in_fee_box(*(pct / 100.0).T).all()


@pytest.mark.parametrize("axis,values", [("r", "x"), ("ba", "0.65")])
def test_cli_sensitivity_bad_values_exits_1(axis, values, tmp_path, capsys):
    code = main(["--set", f"run.outdir={tmp_path}", "sensitivity", "--axis", axis, "--values", values])
    assert code == 1
    assert "--values" in capsys.readouterr().err


def test_cli_workers_is_an_unknown_field(tmp_path, capsys):
    # every frontier level is solved in one batched search: no worker count
    assert main(["--set", f"run.outdir={tmp_path}", "--set", "run.workers=2", "frontier"]) == 1
    assert "unknown override field run.workers" in capsys.readouterr().err


# an investor shift 1e-13 short of the management fee: her worst payoff at
# (m, c) = (5%, 0) is below her utility domain, so those fees are inadmissible
EDGE_SHIFT = ["--set", "investor.a=0.0499999999999", "--set", "sweep.dm=0.025"]


def test_cli_grid_marks_fees_outside_the_domain_infeasible(tmp_path):
    assert main(["--set", f"run.outdir={tmp_path}", *EDGE_SHIFT, "grid"]) == 0
    rows = [l.split(",") for l in (tmp_path / "grid.csv").read_text().splitlines() if not l.startswith("#")][1:]
    infeasible = {(r[0], r[2]) for r in rows if r[-1] == "0"}
    assert infeasible == {("5.0", "0.0")}


def test_cli_value_outside_the_domain_exits_1(tmp_path, capsys):
    assert main(["--set", f"run.outdir={tmp_path}", *EDGE_SHIFT, "value", "--fee", "5,20,0"]) == 1
    assert "leave a party's worst payoff outside the utility domain" in capsys.readouterr().err


def test_cli_lattice_with_no_admissible_fee_exits_2(tmp_path, capsys):
    # with no shifts and b > 1 for both parties, the utility bases at their
    # worst payoffs, v0 (m - c) and v0 (c - m), are never both positive: no
    # fee is admissible
    argv = ["--set", f"run.outdir={tmp_path}", "--set", "manager.a=0", "--set", "manager.b=2.5",
            "--set", "investor.a=0", "--set", "investor.b=2.5", *COARSE, "grid"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    assert capsys.readouterr().err == "numerical failure: no admissible fee on the lattice; check utility shifts\n"
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("command", [["value", "--fee", "5,50,30"], ["wealth", "--fee", "5,50,30"], ["grid"]])
def test_cli_moment_beyond_double_range_exits_2(command, tmp_path, capsys):
    # E[Z^k] at k = -2/b_M = -20 over 30 years is exp(1020)
    argv = ["--set", f"run.outdir={tmp_path}", "--set", "market.horizon=30", "--set", "manager.b=0.1",
            "--set", "sweep.dm=0.025", "--set", "sweep.dalpha=0.1", "--set", "sweep.dc=0.1", *command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "k=-20" in err and "exp(1020)" in err


def test_cli_grid_solve_error_exits_2(tmp_path, monkeypatch, capsys):
    # a failure inside the lattice keeps its type, so the CLI reports it as
    # a numerical failure that names the fee; a payoff worth nothing in
    # every state cannot meet the budget at any multiplier
    real = valuation.envelope_lanes

    def worthless(m, alpha, c, *args):
        env = real(m, alpha, c, *args)
        hit = (m == 0.025) & (alpha == 0.3) & (c == 0.1)
        return env._replace(coef=np.where(hit, 0.0, env.coef), const=np.where(hit, 0.0, env.const))

    monkeypatch.setattr(valuation, "envelope_lanes", worthless)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\ndm = 0.025\ndalpha = 0.1\ndc = 0.1\n")
    # the bracket stops growing at its reach, short of overflowing exp
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--config", str(cfg), "--set", f"run.outdir={tmp_path}", "grid"]) == 2
    err = capsys.readouterr().err
    assert "budget bracket expansion failed" in err
    assert err.count("(2.5000%, 30.0000%, 10.0000%)") == 1


def test_cli_frontier_search_failure_exits_2(tmp_path, monkeypatch, capsys):
    # a coverage root that does not converge inside the batched frontier
    # search raises, naming the fee, instead of becoming a failed level
    real = pareto.newton_root

    def stalled(*args):
        x, fx, warm, ok = real(*args)
        return x, fx, warm, np.zeros_like(ok)

    monkeypatch.setattr(pareto, "newton_root", stalled)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\ndm = 0.025\ndalpha = 0.1\ndc = 0.1\nn_phi = 4\n")
    assert main(["--config", str(cfg), "--set", f"run.outdir={tmp_path}", "frontier"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: root of phi_M" in err and "frontier search failed at fee (" in err
    assert not (tmp_path / "frontier.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["value"], "firstloss value: the following arguments are required: --fee"),
    (["sensitivity", "--axis", "foo"], "firstloss sensitivity: argument --axis: invalid choice: 'foo'"),
])
def test_cli_usage_error_exits_1(argv, message, capsys):
    # argparse's own exit code, 2, would read as a numerical failure
    assert main(argv) == 1
    assert f"config error: {message}" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert "usage: firstloss" in capsys.readouterr().out


def test_cli_verify(tmp_path, capsys):
    assert main(["--set", f"run.outdir={tmp_path}", "--set", "run.mc_draws=20000", "verify"]) == 0
    report = [l for l in (tmp_path / "verify.txt").read_text().splitlines() if not l.startswith("#")]
    assert len(report) == 13 and all(l.startswith("PASS  ") for l in report)
    assert capsys.readouterr().out.count("PASS  ") == 13


def test_cli_sensitivity_ba(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\ndm = 0.025\ndalpha = 0.1\ndc = 0.1\nn_phi = 4\n")
    argv = ["--config", str(cfg), "--set", f"run.outdir={tmp_path}", "sensitivity", "--axis", "ba",
            "--values", "0.65,0.65;2.5,0.65"]
    assert main(argv) == 0
    with open(tmp_path / "sensitivity_ba.csv", newline="") as handle:
        rows = list(csv.reader(l for l in handle if not l.startswith("#")))
    assert rows[0] == ["cell", "m_pct", "alpha_pct", "c_pct", "sharpe", "error"]
    assert [row[0] for row in rows[1:]] == ["bM=0.65,bI=0.65", "bM=2.5,bI=0.65"]
    assert all(row[-1] == "" and math.isfinite(float(row[4])) for row in rows[1:])


def test_cli_sensitivity_records_a_failed_cell(tmp_path, monkeypatch):
    # run_pipeline fails in the cell r = 0.03 alone: its row carries the
    # typed error and no fee, and the sweep goes on and exits 0
    failing_cell(monkeypatch, SolveError("budget bracket expansion failed"))
    argv = ["--set", f"run.outdir={tmp_path}", *COARSE, "--set", "sweep.n_phi=4",
            "sensitivity", "--axis", "r", "--values", "0.02,0.03"]
    assert main(argv) == 0
    lines = [l for l in (tmp_path / "sensitivity_r.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "cell,m_pct,alpha_pct,c_pct,sharpe,error"
    filled = lines[1].split(",")
    assert filled[0] == "r=0.02" and filled[-1] == "" and all(math.isfinite(float(x)) for x in filled[1:5])
    assert lines[2] == "r=0.03,,,,,SolveError: budget bracket expansion failed"
    assert len(lines) == 3


FUZZ_KEYS = ["market.r", "market.gamma", "market.sigma", "market.horizon", "market.v0",
             "manager.a", "manager.b", "investor.a", "investor.b"]
EDGES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e-300, -1e-300, 1e300])
FUZZ_NUMBERS = st.one_of(st.floats(0.01, 3.0), EDGES, st.floats())


def _fee_text(m, alpha, c):
    return f"{m!r},{alpha!r},{c!r}"


FUZZ_FEES = st.one_of(
    st.builds(_fee_text, st.floats(0.0, 5.0), st.floats(0.1, 50.0), st.floats(0.0, 30.0)),
    st.builds(_fee_text, FUZZ_NUMBERS, FUZZ_NUMBERS, FUZZ_NUMBERS),
    st.text(max_size=12),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), FUZZ_NUMBERS), max_size=3), fee=FUZZ_FEES)
@example(overrides=[("market.gamma", 1e300)], fee="0,1,0")    # gamma**2 overflowed in log_drift
@example(overrides=[("manager.b", 1e-300)], fee="0,1,5")      # (k log_vol)**2 overflowed, k = 1 - 1/b
@example(overrides=[("market.v0", 0.5), ("investor.b", 1e300)], fee="0,1,0")   # math.exp in _power
def test_cli_fuzz_exits_0_1_or_2(overrides, fee, tmp_path):
    # every config the CLI accepts either succeeds with finite values or
    # fails with a typed error: never a traceback
    (tmp_path / "value.json").unlink(missing_ok=True)
    argv = ["--set", f"run.outdir={tmp_path}"]
    for key, value in overrides:
        argv += ["--set", f"{key}={value!r}"]
    code = main([*argv, "value", f"--fee={fee}"])    # a fee may start with '-'
    assert code in (0, 1, 2)
    if code == 0:
        doc = json.loads((tmp_path / "value.json").read_text())
        assert all(math.isfinite(doc[key]) for key in ("phi_M", "phi_I", "sharpe"))


COARSE = ["--set", "sweep.dm=0.025", "--set", "sweep.dalpha=0.1", "--set", "sweep.dc=0.1"]


@pytest.mark.parametrize("key, v0", [("manager.b", 1.0), ("investor.b", 1.0), ("investor.b", 0.5)],
                         ids=["manager.b", "investor.b", "investor.b-v0=0.5"])
@pytest.mark.parametrize("command", [["value", "--fee=0,20,0"], ["wealth", "--fee=0,20,0"], [*COARSE, "grid"]],
                         ids=["value", "wealth", "grid"])
def test_cli_utility_overflow_exits_without_runtime_warning(key, v0, command, tmp_path, capsys):
    # b = 1e300 takes a utility power beyond double range: a typed error
    # naming the fee, not a numpy warning on the way to it (the investor's
    # utility is not evaluated by `wealth`); at v0 = 0.5 the investor's
    # powers at the ruin payoff and at v0 are both infinite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["--set", f"run.outdir={tmp_path}", "--set", f"market.v0={v0}", "--set", f"{key}=1e300",
                     *command])
    if key == "investor.b" and command[0] == "wealth":
        assert code == 0
    else:
        assert code == 2
        assert "for fee (" in capsys.readouterr().err


EXTREME = {
    "gamma=1e-300": (["market.gamma=1e-300"], 2),                              # the budget's slope overflows
    "a=1e300,b=1e-05": (["manager.a=1e300", "manager.b=1e-05"], 2),            # the tangency bracket overflows
    "a=1e300,b=1e5": (["manager.a=1e300", "manager.b=100000.0"], 2),           # the envelope's slope is 0
    "gamma=1e-150,r=1e300": (["market.gamma=1e-150", "market.r=1e300"], 1),    # drift / volatility overflows
}


@pytest.mark.parametrize("overrides, code", EXTREME.values(), ids=EXTREME.keys())
@pytest.mark.parametrize("command", [["value", "--fee=0,20,0"], ["wealth", "--fee=0,20,0"], [*COARSE, "grid"]],
                         ids=["value", "wealth", "grid"])
def test_cli_extreme_config_fails_once_without_runtime_warning(overrides, code, command, tmp_path, capsys):
    # a typed error with no numpy warning on the way to it; a numerical
    # failure names its fee once, as the stage that failed quotes it
    argv = ["--set", f"run.outdir={tmp_path}"]
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, *command]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert len(re.findall(r"\(\d+\.\d{4}%, \d+\.\d{4}%, \d+\.\d{4}%\)", err)) == 1, err
        assert "lattice" not in err


@pytest.mark.parametrize("command", [["value", "--fee=0,1,0"], ["wealth", "--fee=0,1,0"], [*COARSE, "grid"]],
                         ids=["value", "wealth", "grid"])
def test_cli_tiny_manager_shift_runs_without_runtime_warning(command, tmp_path):
    # manager.a = 1e-300: at the tangency bracket's lower end, the upper
    # kink, s v + X cancels to 0 and its log is -inf, of which only the sign
    # of the residual is read
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--set", f"run.outdir={tmp_path}", "--set", "manager.a=1e-300", *command]) == 0
    if command[0] == "value":
        doc = json.loads((tmp_path / "value.json").read_text())
        assert all(math.isfinite(doc[key]) for key in ("phi_M", "phi_I", "sharpe"))


@pytest.mark.parametrize("key,value", [(key, value) for key in ("sweep.dalpha", "sweep.dc", "sweep.dm")
                                       for value in ("1e-300", "5e-20", "inf", "nan")] + [("sweep.dalpha", "0.6")])
def test_cli_unusable_sweep_step_exits_1(key, value, tmp_path, capsys):
    # np.arange cannot size the axis of a NaN, infinite or vanishing step,
    # nor numpy the (n, 3) fee array of a lattice of 1e18 and more fees; an
    # alpha axis starts at its step, so a step above 50% leaves it empty
    assert main(["--set", f"run.outdir={tmp_path}", "--set", f"{key}={value}", "grid"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: lattice step ") and f"step {key.split('.')[1]} " in err
