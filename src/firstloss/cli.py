"""Command-line interface.

Exit codes: 0 success; 1 on an InputError (configuration, usage or model
input; the message names the field); 2 on a NumericalError (the message
names the failing stage).  Every typed error of the package derives from
one of these two bases, defined in contract.  Structured output is CSV for
tables and JSON for single results, written atomically; every file carries
the effective configuration for provenance.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .concavify import build_envelope, envelope_eval
from .config import ConfigError, RunConfig, load_config
from .contract import ContractError, FeeStructure, InputError, NumericalError, error_message
from .oracle import brute_pointwise, mc_budget, mc_value
from .pareto import Frontier, grid_scan, sweep_frontier
from .selection import (
    constant_mix_benchmark,
    constrained_preferred_fee,
    run_pipeline,
    sensitivity_sweep,
)
from .valuation import evaluate_fee, investor_value, manager_value
from .wealth import SolveError, moments, sharpe_ratio, solve_y_star

CONFIG_ENV = "FIRSTLOSS_CONFIG"


def _parse_fee(text: str) -> FeeStructure:
    """Fees arrive as comma-separated percentages, e.g. '5,37.5,26'."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ContractError(f"fee must be m,alpha,c in percent (got {text!r})")
    try:
        m, alpha, c = (float(p) / 100.0 for p in parts)
    except ValueError:
        raise ContractError(f"fee must be numeric percentages (got {text!r})") from None
    return FeeStructure(m, alpha, c)


def _atomic_write(path: Path, text: str) -> None:
    # an outdir that is a file, or lies under one, is a config error
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _config_header_lines(config: RunConfig) -> list[str]:
    return [f"# {key} = {value}" for key, value in config.as_items()]


def _write_csv(path: Path, config: RunConfig, columns: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    for line in _config_header_lines(config):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _atomic_write(path, buf.getvalue())


def _write_json(path: Path, config: RunConfig, payload: dict) -> None:
    doc = {"config": dict(config.as_items()), **payload}
    _atomic_write(path, json.dumps(doc, indent=2, allow_nan=True) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _out(config: RunConfig, name: str) -> Path:
    return Path(config.outdir) / name


def _fee_percent_fields(fee: FeeStructure) -> dict:
    m, a, c = fee.as_percent()
    return {"m_pct": round(m, 4), "alpha_pct": round(a, 4), "c_pct": round(c, 4)}


def cmd_envelope(config: RunConfig, args) -> str:
    if not (math.isfinite(args.vmax) and args.vmax > 0.0):
        raise ConfigError(f"--vmax must be a finite number > 0 (got {args.vmax})")
    if args.grid_n < 2:
        raise ConfigError(f"--grid-n must be at least 2 (got {args.grid_n})")
    fee = _parse_fee(args.fee)
    env = build_envelope(fee, config.manager, config.market.v0)
    grid = np.linspace(0.0, args.vmax, args.grid_n)
    rows = np.column_stack([grid, env.utility(grid), envelope_eval(env, grid)]).tolist()
    path = _out(config, "envelope.csv")
    _write_csv(path, config, ["v", "utility", "envelope"], rows)
    return (
        f"envelope: case={env.case} theta1={env.theta1:.12g} "
        f"slope={env.slope:.12g} -> {path}"
    )


def cmd_wealth(config: RunConfig, args) -> str:
    fee = _parse_fee(args.fee)
    sol = solve_y_star(fee, config.manager, config.market)
    ev, ev2 = moments(sol)
    payload = {
        "fee": _fee_percent_fields(fee),
        "case": sol.case,
        "y_star": sol.y_star,
        "theta1": sol.theta1,
        "z_thresholds": list(sol.thresholds()),
        "expected_value": ev,
        "variance": ev2 - ev * ev,
        "sharpe": sharpe_ratio(sol),
    }
    path = _out(config, "wealth.json")
    _write_json(path, config, payload)
    return f"wealth: case={payload['case']} y*={sol.y_star:.12g} SR={payload['sharpe']:.6f} -> {path}"


def cmd_value(config: RunConfig, args) -> str:
    fee = _parse_fee(args.fee)
    metrics = evaluate_fee(fee, config.market, config.manager, config.investor)
    payload = {
        "fee": _fee_percent_fields(fee),
        "case": metrics.case,
        "phi_M": metrics.phi_M,
        "phi_I": metrics.phi_I,
        "sharpe": metrics.sharpe,
    }
    path = _out(config, "value.json")
    _write_json(path, config, payload)
    return f"value: phi_M={metrics.phi_M:.6f} phi_I={metrics.phi_I:.6f} -> {path}"


def cmd_grid(config: RunConfig, args) -> str:
    scan = grid_scan(config.market, config.manager, config.investor, config.steps)
    # Python's round and float repr: np.round and np.float64's repr would change the CSV
    rows = [
        [round(100 * m, 4), round(100 * a, 4), round(100 * c, 4), pm, pi, sr, case, int(ok)]
        for (m, a, c), pm, pi, sr, case, ok in zip(*(x.tolist() for x in (
            scan.fees, scan.phi_M, scan.phi_I, scan.sharpe, scan.case, scan.feasible)))
    ]
    path = _out(config, "grid.csv")
    _write_csv(path, config, ["m_pct", "alpha_pct", "c_pct", "phi_M", "phi_I", "sharpe", "case", "feasible"], rows)
    return f"grid: {len(rows)} fee points, phi_M in [{scan.phi_M_min:.6f}, {scan.phi_M_max:.6f}] -> {path}"


def _frontier_rows(frontier: Frontier) -> list[list]:
    rows = []
    for p in frontier.points:
        m, a, c = p.fee.as_percent()
        rows.append([
            p.phi_min, round(m, 6), round(a, 6), round(c, 6),
            p.phi_M, p.phi_I, p.sharpe, "|".join(p.bound_flags),
        ])
    return rows


def cmd_frontier(config: RunConfig, args) -> str:
    frontier = sweep_frontier(config.market, config.manager, config.investor, config.steps)
    path = _out(config, "frontier.csv")
    _write_csv(
        path, config,
        ["phi_min", "m_pct", "alpha_pct", "c_pct", "phi_M", "phi_I", "sharpe", "bound_flags"],
        _frontier_rows(frontier),
    )
    return f"frontier: {len(frontier.points)} points -> {path}"


def cmd_preferred(config: RunConfig, args) -> str:
    result = run_pipeline(config.market, config.manager, config.investor, config.steps)
    chosen = result.preferred
    if args.floor is not None:
        floor_fee = _parse_fee(args.floor)
        chosen = constrained_preferred_fee(
            result.frontier, config.market, config.manager, config.investor, floor_fee
        )
    payload = {
        "found": chosen.found,
        "fee": None if chosen.fee is None else _fee_percent_fields(chosen.fee),
        "sharpe": chosen.sharpe,
        "phi_M": chosen.phi_M,
        "phi_I": chosen.phi_I,
        "phi_min": chosen.phi_min,
        "provenance": chosen.provenance,
    }
    path = _out(config, "preferred.json")
    _write_json(path, config, payload)
    if not chosen.found:
        return f"preferred: no improving frontier point ({chosen.provenance}) -> {path}"
    return f"preferred: fee={chosen.fee} SR={chosen.sharpe:.6f} -> {path}"


_AXIS_DEFAULTS = {
    "ba": [(bm, bi) for bm in (0.35, 0.45, 0.55, 0.65, 0.75, 1.25, 2.5, 5.0)
           for bi in (0.35, 0.45, 0.55, 0.65, 0.75, 1.25, 2.5, 5.0)],
    "r": [-0.02, 0.0, 0.02, 0.04, 0.06],
    "gamma": [0.30, 0.40, 0.50, 0.60, 0.70],
}


def _parse_numbers(option: str, text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{option} must be comma-separated numbers (got {text!r})") from None


def _parse_axis_values(axis: str, text: str) -> list:
    """'bm,bi;bm,bi' pairs for the ba axis, comma-separated floats otherwise."""
    if axis != "ba":
        return _parse_numbers(f"--values for axis {axis}", text)
    try:
        pairs = [pair.split(",") for pair in text.split(";")]
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError
        return [(float(bm), float(bi)) for bm, bi in pairs]
    except ValueError:
        raise ConfigError(f"--values for axis ba must be 'bm,bi;bm,bi' pairs (got {text!r})") from None


def cmd_sensitivity(config: RunConfig, args) -> str:
    values = _parse_axis_values(args.axis, args.values) if args.values else _AXIS_DEFAULTS[args.axis]
    cells = sensitivity_sweep(args.axis, values, config.market, config.manager, config.investor, config.steps)
    rows = []
    for cell in cells:
        if cell.preferred is None or cell.preferred.fee is None:
            rows.append([cell.label, "", "", "", "", cell.error])
            continue
        m, a, c = cell.preferred.fee.as_percent()
        rows.append([cell.label, round(m, 4), round(a, 4), round(c, 4), cell.preferred.sharpe, ""])
    path = _out(config, f"sensitivity_{args.axis}.csv")
    _write_csv(path, config, ["cell", "m_pct", "alpha_pct", "c_pct", "sharpe", "error"], rows)
    return f"sensitivity({args.axis}): {len(rows)} cells -> {path}"


def cmd_benchmark(config: RunConfig, args) -> str:
    fee = _parse_fee(args.fee)
    rows = []
    for pi in _parse_numbers("--pi", args.pi):
        res = constant_mix_benchmark(pi, config.market, fee, config.manager, config.investor)
        rows.append([res.pi, res.sharpe, res.phi_M, res.phi_I, int(res.degenerate)])
    path = _out(config, "benchmark.csv")
    _write_csv(path, config, ["pi", "sharpe", "phi_M", "phi_I", "degenerate"], rows)
    return f"benchmark: {len(rows)} constant-mix points -> {path}"


def cmd_verify(config: RunConfig, args) -> str:
    """Oracle suite: closed forms against Monte Carlo and brute force."""
    market, manager, investor = config.market, config.manager, config.investor
    n = config.mc_draws
    checks: list[tuple[str, float, float, float]] = []   # name, value, reference, z-score

    for fee_pct in ((0.0, 20.0, 0.0), (2.0, 20.0, 0.0), (5.0, 37.5, 26.0), (0.0, 30.0, 10.0)):
        fee = FeeStructure(fee_pct[0] / 100, fee_pct[1] / 100, fee_pct[2] / 100)
        sol = solve_y_star(fee, manager, market)
        est = mc_budget(sol, market, config.seed, n)
        checks.append((f"budget {fee}", est.mean, market.v0, (est.mean - market.v0) / est.std_error))
        pm = manager_value(sol)
        est_m = mc_value(sol, fee, manager, investor, market, "M", config.seed + 1, n)
        checks.append((f"phi_M {fee}", est_m.mean, pm, (est_m.mean - pm) / est_m.std_error))
        pi_val = investor_value(sol, investor)
        est_i = mc_value(sol, fee, manager, investor, market, "I", config.seed + 2, n)
        checks.append((f"phi_I {fee}", est_i.mean, pi_val, (est_i.mean - pi_val) / est_i.std_error))

    fee = FeeStructure(0.02, 0.30, 0.10)
    env = build_envelope(fee, manager, market.v0)
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    from .concavify import pointwise_argmax
    for _ in range(200):
        y = math.exp(rng.uniform(-2.0, 2.0))
        z = math.exp(rng.uniform(-2.0, 2.0))
        a = pointwise_argmax(env, y, z)
        b = brute_pointwise(env, y, z, v_max=1e4)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    # scaled so that the 4-sigma gate matches the 1e-6 relative tolerance
    checks.append(("pointwise argmax vs brute force", worst, 0.0, worst / 2.5e-7))

    lines = []
    ok = True
    for name, value, ref, zscore in checks:
        passed = abs(zscore) <= 4.0
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name}: value={value:.8f} ref={ref:.8f} z={zscore:+.2f}")
    report = "\n".join(lines)
    print(report)
    path = _out(config, "verify.txt")
    _atomic_write(path, "\n".join(_config_header_lines(config)) + "\n" + report + "\n")
    if not ok:
        raise SolveError("oracle verification failed; see report")
    return f"verify: {len(checks)} checks -> {path}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's 2 (a numerical failure here)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="firstloss",
        description="Optimal first-loss hedge-fund fee structures",
    )
    parser.add_argument("--config", help=f"config file path (or ${CONFIG_ENV})")
    parser.add_argument(
        "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override a config field, e.g. --set market.r=0.04",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("envelope", help="dump the utility and its concave envelope")
    p.add_argument("--fee", required=True, help="m,alpha,c in percent")
    p.add_argument("--vmax", type=float, default=5.0)
    p.add_argument("--grid-n", type=int, default=501)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("wealth", help="optimal terminal value summary for a fee")
    p.add_argument("--fee", required=True)
    p.set_defaults(func=cmd_wealth)

    p = sub.add_parser("value", help="both parties' expected utilities for a fee")
    p.add_argument("--fee", required=True)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("grid", help="full lattice of (phi_M, phi_I, SR)")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("frontier", help="Pareto frontier sweep")
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("preferred", help="Sharpe-maximal frontier fee")
    p.add_argument("--floor", help="traditional floor fee m,alpha,0 (percent)")
    p.set_defaults(func=cmd_preferred)

    p = sub.add_parser("sensitivity", help="preferred fee across a parameter axis")
    p.add_argument("--axis", choices=("ba", "r", "gamma"), required=True)
    p.add_argument("--values", help="'bm,bi;bm,bi' pairs for ba, or comma floats")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("benchmark", help="constant-mix comparison")
    p.add_argument("--fee", required=True)
    p.add_argument("--pi", default="1,0.75,0.5,0.25")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("verify", help="run the Monte Carlo / brute-force oracle suite")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config or os.environ.get(CONFIG_ENV), args.set)
        summary = args.func(config, args)
    except InputError as exc:
        print(f"config error: {error_message(exc)}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {error_message(exc)}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
