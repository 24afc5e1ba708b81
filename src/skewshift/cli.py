"""Command-line front end.

One subcommand per library operation; JSON for configs and records, CSV
for tabular plot data, static SVG for figures.  Exit codes: 0 success,
2 validation error (machine-readable JSON on stderr), 3 budget or noise
refusal.  SKEWSHIFT_THREADS overrides --threads.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .avalanche import avalanche_check, avalanche_on_cocycle
from .deviation import DeviationError, deviation_measure, initial_scale_check
from .lyapunov import (
    DEFAULT_WORK_BUDGET,
    KINDS,
    BudgetError,
    Sampler,
    charge,
    counter_uniform,
    env_threads,
    lyapunov_profile,
)
from .model import ModelAdmissionError, default_theorem_model, load_model
from .multiscale import (
    EstimatorNoiseError,
    RunStageError,
    continuity_probe,
    induction_step,
    resolve_config,
    theorem_mode_run,
)
from .torus import Frequency, TorusPoint, diophantine_check

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _threads(args) -> int | None:
    env = env_threads()
    return env if env is not None else args.threads


def _sampler(args) -> Sampler:
    if args.mc:
        count = float(args.mc)  # 1e3 is a count too
        if not count.is_integer():
            raise ValueError(f"--mc must be a whole number of samples, got {args.mc!r}")
        return Sampler.monte_carlo(int(count), args.seed)
    return Sampler.grid(args.grid)


def _emit(obj, out_path: str | None):
    # JSON has no infinities or NaN: a non-finite float goes out as null
    obj = json.loads(json.dumps(obj, sort_keys=True), parse_constant=lambda _: None)
    if isinstance(obj, list):
        text = "".join(json.dumps(rec, allow_nan=False) + "\n" for rec in obj)
    else:
        text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_list(text: str) -> list[int]:
    return [int(s) for s in _items(text)]


def _float_list(text: str) -> list[float]:
    return [float(s) for s in _items(text)]


def _items(text: str) -> list[str]:
    items = [s for s in text.split(",") if s]
    if not items:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    return items


def cmd_diophantine(args) -> int:
    f = Frequency(args.omega, args.epsilon)
    passes, worst_n, worst_margin = diophantine_check(f, args.nmax)
    _emit({"omega": args.omega, "epsilon": args.epsilon, "nmax": args.nmax,
           "passes": passes, "worst_n": worst_n, "worst_margin": worst_margin},
          args.out)
    return EXIT_OK


def cmd_lyapunov(args) -> int:
    m = load_model(args.model)
    s = _sampler(args)
    ests, running = lyapunov_profile(m, args.E, _int_list(args.scales), s,
                                     kind=args.kind, budget=args.budget,
                                     threads=_threads(args))
    records = []
    for est, inf_val in zip(ests, running):
        rec = est.to_json()
        rec["running_inf"] = inf_val
        records.append(rec)
    _emit(records, args.out)
    return EXIT_OK


def cmd_deviation(args) -> int:
    m = load_model(args.model)
    s = _sampler(args)
    records = []
    for n in _int_list(args.scales):
        thr = (args.threshold if args.threshold is not None
               else m.scaling_factor(args.E) * n ** (-args.tau))
        rep = deviation_measure(m, args.E, n, thr, s, kind=args.kind,
                                budget=args.budget, threads=_threads(args))
        records.append(rep.to_json())
    _emit(records, args.out)
    return EXIT_OK


def _demo_matrices(kind: str, mu: float, n: int, seed: int):
    if not 0 < mu < math.inf:
        raise ValueError(f"--mu must be finite and positive, got {mu!r}")
    if kind == "diag":
        return [np.diag([mu, 1.0 / mu]) for _ in range(n)]
    if kind == "hyperbolic":
        idx = np.arange(3 * n, dtype=np.uint64)
        u = counter_uniform(seed, idx).reshape(n, 3)
        mats = []
        for j in range(n):
            mu_j = mu * (1.0 + u[j, 0])
            th1 = (u[j, 1] - 0.5) / mu
            th2 = (u[j, 2] - 0.5) / mu
            r1 = np.array([[math.cos(th1), -math.sin(th1)],
                           [math.sin(th1), math.cos(th1)]])
            r2 = np.array([[math.cos(th2), -math.sin(th2)],
                           [math.sin(th2), math.cos(th2)]])
            mats.append(r1 @ np.diag([mu_j, 1.0 / mu_j]) @ r2)
        return mats
    raise ValueError(f"unknown demo family '{kind}'")


def cmd_avalanche(args) -> int:
    if args.demo:
        mats = _demo_matrices(args.demo, args.mu, args.n, args.seed)
        rep = avalanche_check(mats, mu=args.mu, C=args.C)
    else:
        if not args.model:
            raise ValueError("either --demo or --model is required")
        try:
            bx, by = _float_list(args.base)
        except ValueError:
            raise ValueError(f"--base must be two numbers x,y, got {args.base!r}") from None
        m = load_model(args.model)
        charge(float(args.n) * args.blocks, Sampler.monte_carlo(1, 0), args.budget)  # one base point
        rep = avalanche_on_cocycle(m, TorusPoint(bx, by), args.E, args.n,
                                   args.blocks, gamma=args.gamma, C=args.C)
    _emit(rep.to_json(), args.out)
    return EXIT_OK


def cmd_induction(args) -> int:
    m = load_model(args.model)
    rec = induction_step(m, args.E, args.n, args.N, args.gamma, Sampler.grid(args.grid),
                         deviation_sampler=_sampler(args), budget=args.budget,
                         threads=_threads(args))
    _emit(rec.to_json(), args.out)
    return EXIT_OK


def cmd_continuity(args) -> int:
    m = load_model(args.model)
    probe = continuity_probe(m, args.E, _float_list(args.deltas), args.N,
                             Sampler.grid(args.grid), budget=args.budget,
                             threads=_threads(args))
    _emit(probe.to_json(), args.out)
    return EXIT_OK


def cmd_initial_scale(args) -> int:
    m = load_model(args.model)
    rep = initial_scale_check(m, args.E, args.n, _sampler(args),
                              budget=args.budget, threads=_threads(args))
    _emit(rep.to_json(), args.out)
    return EXIT_OK


def cmd_run(args) -> int:
    with open(args.config) as fh:
        cfg = resolve_config(json.load(fh))
    model_path = cfg.get("model_path")
    if model_path:
        if not os.path.isabs(model_path):
            model_path = os.path.join(os.path.dirname(os.path.abspath(args.config)),
                                      model_path)
        m = load_model(model_path)
    else:
        m = default_theorem_model()
    out_dir = args.out or cfg.get("output_dir") or "archive"
    theorem_mode_run(m, cfg, out_dir, threads=_threads(args))
    _emit({"archive": out_dir}, None)
    return EXIT_OK


def _svg_polyline(xs, ys, title: str, xlabel: str, ylabel: str) -> str:
    W, H, pad = 480, 320, 50
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (W - 2 * pad)

    def sy(v):
        return H - pad - (v - y0) / (y1 - y0) * (H - 2 * pad)

    points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(xs, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">\n'
        f'<rect width="{W}" height="{H}" fill="white"/>\n'
        f'<line x1="{pad}" y1="{H-pad}" x2="{W-pad}" y2="{H-pad}" stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H-pad}" stroke="black"/>\n'
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>\n'
        f'<text x="{W/2:.0f}" y="20" text-anchor="middle">{title}</text>\n'
        f'<text x="{W/2:.0f}" y="{H-10}" text-anchor="middle">{xlabel}</text>\n'
        f'<text x="15" y="{H/2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 15 {H/2:.0f})">{ylabel}</text>\n'
        f'<text x="{pad}" y="{H-pad+15}" font-size="10">{x0:.4g}</text>\n'
        f'<text x="{W-pad}" y="{H-pad+15}" font-size="10" text-anchor="end">{x1:.4g}</text>\n'
        f'<text x="{pad-5}" y="{H-pad}" font-size="10" text-anchor="end">{y0:.4g}</text>\n'
        f'<text x="{pad-5}" y="{pad}" font-size="10" text-anchor="end">{y1:.4g}</text>\n'
        f"</svg>\n"
    )


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def cmd_plotdata(args) -> int:
    tables = {
        "lyapunov": os.path.join(args.archive, "tables", "lyapunov.csv"),
        "deviation": os.path.join(args.archive, "tables", "deviation.csv"),
        "continuity": os.path.join(args.archive, "tables", "continuity.csv"),
    }
    missing = [name for name, path in tables.items() if not os.path.isfile(path)]
    if missing:
        raise ValueError(f"archive missing tables: {', '.join(sorted(missing))}")
    os.makedirs(args.out, exist_ok=True)

    # L vs n
    _, rows = _read_csv(tables["lyapunov"])
    ns = [float(r[1]) for r in rows]
    lu = [float(r[3]) for r in rows]
    _write_fig(args.out, "fig_lyapunov", ["n", "L_u"], list(zip(ns, lu)),
               "finite-scale Lyapunov exponent", "n", "L_u")

    # deviation measure vs n, log scale on the measure
    _, rows = _read_csv(tables["deviation"])
    ns = [float(r[0]) for r in rows]
    meas = [math.log10(max(float(r[3]), 1e-12)) for r in rows]
    _write_fig(args.out, "fig_deviation", ["n", "log10_measure"],
               list(zip(ns, meas)), "deviation measure", "n", "log10 measure")

    # |dL| vs delta, log-log
    _, rows = _read_csv(tables["continuity"])
    ld = [math.log10(float(r[0])) for r in rows]
    dl = [math.log10(max(float(r[1]), 1e-300)) for r in rows]
    _write_fig(args.out, "fig_continuity", ["log10_delta", "log10_dL"],
               list(zip(ld, dl)), "energy continuity", "log10 |dE|", "log10 |dL|")
    _emit({"figures": ["fig_lyapunov", "fig_deviation", "fig_continuity"],
           "out": args.out}, None)
    return EXIT_OK


def _write_fig(out_dir, name, header, rows, title, xlabel, ylabel):
    with open(os.path.join(out_dir, name + ".csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    with open(os.path.join(out_dir, name + ".svg"), "w") as fh:
        fh.write(_svg_polyline(xs, ys, title, xlabel, ylabel))


class _Parser(argparse.ArgumentParser):
    """Reports a usage error (a missing or unknown flag) as JSON on stderr,
    exit 2, like every other validation error; subparsers inherit it."""

    def error(self, message):
        sys.stderr.write(json.dumps({"error": "ArgumentError", "message": message}) + "\n")
        sys.exit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="skewshift", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, mc=True):
        # the flags of every command that sweeps a model's cocycle
        sp.add_argument("--model", required=True)
        sp.add_argument("--E", type=float, required=True)
        sp.add_argument("--grid", type=int, default=64)
        sp.add_argument("--out", default=None)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--budget", type=float, default=DEFAULT_WORK_BUDGET)
        if mc:
            sp.add_argument("--mc", default=None)
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("diophantine", help="Diophantine frequency scan")
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--nmax", type=int, default=10_000)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_diophantine)

    sp = sub.add_parser("lyapunov", help="finite-scale Lyapunov profile")
    common(sp)
    sp.add_argument("--scales", required=True)
    sp.add_argument("--kind", default="plain", choices=KINDS)
    sp.set_defaults(fn=cmd_lyapunov)

    sp = sub.add_parser("deviation", help="large-deviation measure")
    common(sp)
    sp.add_argument("--scales", required=True)
    sp.add_argument("--tau", type=float, default=0.25)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--kind", default="plain", choices=KINDS)
    sp.set_defaults(fn=cmd_deviation)

    sp = sub.add_parser("avalanche", help="avalanche-principle check")
    sp.add_argument("--model", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=float, default=DEFAULT_WORK_BUDGET)
    sp.add_argument("--demo", choices=["diag", "hyperbolic"], default=None)
    sp.add_argument("--mu", type=float, default=1e4)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--C", type=float, default=20.0)
    sp.add_argument("--E", type=float, default=0.0)
    sp.add_argument("--blocks", type=int, default=10)
    sp.add_argument("--base", default="0.31,0.17")
    sp.add_argument("--gamma", type=float, default=0.5)
    sp.set_defaults(fn=cmd_avalanche)

    sp = sub.add_parser("induction", help="multiscale induction step")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--gamma", type=float, default=0.5)
    sp.set_defaults(fn=cmd_induction)

    sp = sub.add_parser("continuity", help="energy-continuity probe")
    common(sp, mc=False)
    sp.add_argument("--deltas", required=True)
    sp.add_argument("--N", type=int, default=8)
    sp.set_defaults(fn=cmd_continuity)

    sp = sub.add_parser("initial-scale", help="large-disorder diagnostics")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(fn=cmd_initial_scale)

    sp = sub.add_parser("run", help="full theorem-mode pipeline")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("plotdata", help="emit per-figure CSV and SVG")
    sp.add_argument("--archive", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_plotdata)
    return p


def _is_refusal(exc: BaseException) -> bool:
    if isinstance(exc, (BudgetError, DeviationError, EstimatorNoiseError)):
        return True
    cause = exc.__cause__
    return cause is not None and _is_refusal(cause)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BudgetError, DeviationError, EstimatorNoiseError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_BUDGET
    except RunStageError as exc:
        code = EXIT_BUDGET if _is_refusal(exc) else EXIT_VALIDATION
        sys.stderr.write(json.dumps(
            {"error": "RunStageError", "stage": exc.stage,
             "message": str(exc)}) + "\n")
        return code
    except (ModelAdmissionError, ValueError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
