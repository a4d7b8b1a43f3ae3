"""Command-line front end: variance reports, simulations, tuning, sweeps."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .closed_loop import KIND_DAPI, assemble, parse_gains_config
from .errors import CoherenceError, InvalidParameterError
from .graphs import (
    build_complete,
    build_path,
    build_ring,
    build_torus,
    from_edge_list,
    spectrum,
)
from .scaling import FAMILIES, run_scaling, write_scaling_csv
from .simulate import (
    SCENARIOS,
    SimConfig,
    empirical_variance,
    run_scenario,
    simulate_em,
    write_trajectory_csv,
)
from .tuning import (
    ScalarSearchConfig,
    c_star_numeric,
    classify_c_star,
    default_bracket_hi,
)
from .variance import dapi_variance, full_variance, modal_variance, variance_by_kind


def _build_graph(args):
    if args.graph:
        return from_edge_list(Path(args.graph).read_text())
    if not args.family:
        raise InvalidParameterError("provide --graph FILE or --family NAME with --n")
    if args.n is None:
        raise InvalidParameterError("--family requires --n")
    weight = args.l
    if args.family == "path":
        return build_path(args.n, weight)
    if args.family == "ring":
        return build_ring(args.n, weight)
    if args.family == "complete":
        return build_complete(args.n, weight)
    if args.family in ("torus1", "torus2", "torus3"):
        return build_torus(args.n, int(args.family[-1]), weight)
    raise InvalidParameterError(f"unknown family {args.family!r}")


def _load_gains(args):
    if not args.gains_file:
        raise InvalidParameterError("--gains-file is required here")
    kind, gains = parse_gains_config(Path(args.gains_file).read_text())
    declared = getattr(args, "controller", None)
    if declared and declared != kind:
        raise InvalidParameterError(
            f"--controller {declared} conflicts with gains file controller {kind}"
        )
    return kind, gains


def _open_out(args):
    if args.out and args.out != "-":
        return open(args.out, "w"), True
    return sys.stdout, False


def _add_graph_args(parser):
    parser.add_argument("--graph", help="edge-list file (see README for the format)")
    parser.add_argument("--family", choices=FAMILIES, help="generated graph family")
    parser.add_argument("--n", type=int, help="node count (torus: lattice side)")
    parser.add_argument("--l", type=float, default=1.0, help="uniform edge weight")


def cmd_variance(args) -> int:
    graph = _build_graph(args)
    kind, gains = _load_gains(args)
    spec = spectrum(graph)
    if args.method == "closed":
        report = variance_by_kind(spec, kind, gains)
    elif args.method == "modal":
        report = modal_variance(spec, kind, gains)
    else:
        report = full_variance(assemble(graph, kind, gains))
    stream, close = _open_out(args)
    stream.write(report.to_csv())
    if close:
        stream.close()
    return 0


def cmd_simulate(args) -> int:
    if args.scenario:
        traj = run_scenario(
            args.scenario,
            seed=args.seed,
            dt=args.dt,
            horizon=args.horizon,
            burn_in=args.burn_in,
            noise_intensity=args.noise_intensity,
            record_every=args.record_every,
        )
    else:
        graph = _build_graph(args)
        kind, gains = _load_gains(args)
        if args.dt is None or args.horizon is None:
            raise InvalidParameterError("--dt and --horizon are required without --scenario")
        system = assemble(graph, kind, gains)
        cfg = SimConfig(
            dt=args.dt,
            horizon=args.horizon,
            seed=args.seed,
            burn_in=args.burn_in,
            noise_intensity=args.noise_intensity,
            record_every=args.record_every or 1,
        )
        traj = simulate_em(system, cfg)
    print(f"empirical_vn,{empirical_variance(traj)!r}")
    if args.out:
        with open(args.out, "w") as stream:
            write_trajectory_csv(
                traj, stream, include_velocity=args.with_velocity, include_aux=args.with_aux
            )
    return 0


def cmd_tune(args) -> int:
    graph = _build_graph(args)
    kind, gains = _load_gains(args)
    if kind != KIND_DAPI:
        raise InvalidParameterError("tune optimizes the DAPI averaging gain; use dapi gains")
    spec = spectrum(graph)
    cfg = ScalarSearchConfig(
        bracket_hi=args.bracket_hi,
        abs_tolerance=args.tol,
        grid_points=args.grid_points,
    )
    verdict = classify_c_star(spec, gains).verdict
    c_star, v_star = c_star_numeric(spec, gains, cfg)

    hi = cfg.bracket_hi if cfg.bracket_hi is not None else default_bracket_hi(spec, gains)
    grid = np.concatenate([[0.0], np.geomspace(hi * 1e-4, hi, cfg.grid_points - 1)])
    stream, close = _open_out(args)
    stream.write("c,gridscan_vn\n")
    for c in grid.tolist():
        value = dapi_variance(spec, replace(gains, c=c)).v_n
        stream.write(f"{c!r},{value!r}\n")
    stream.write(f"c_star,{c_star!r},v_star,{v_star!r},verdict,{verdict}\n")
    if close:
        stream.close()
    return 0


def cmd_scale(args) -> int:
    kind, gains = _load_gains(args)
    sizes = _parse_sizes(args.sizes)
    window = None
    if args.window:
        lo, hi = args.window.split(":")
        window = (int(lo), int(hi))
    result = run_scaling(args.family, kind, gains, sizes, weight=args.l, window=window)
    stream, close = _open_out(args)
    write_scaling_csv(result, stream)
    if close:
        stream.close()
    return 0


def _parse_sizes(text: str) -> list[int]:
    if text.startswith("geometric:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise InvalidParameterError("use geometric:start:stop:factor")
        start, stop, factor = int(parts[1]), int(parts[2]), float(parts[3])
        if start < 1 or stop < start or factor <= 1.0:
            raise InvalidParameterError("need start >= 1, stop >= start, factor > 1")
        sizes = []
        value = float(start)
        while round(value) <= stop:
            sizes.append(int(round(value)))
            value *= factor
        return sizes
    try:
        sizes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidParameterError(f"bad --sizes value {text!r}") from None
    if not sizes:
        raise InvalidParameterError("empty --sizes list")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcoh",
        description="Coherence analysis of double-integrator consensus networks",
    )
    parser.add_argument("--version", action="version", version=f"netcoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_var = sub.add_parser("variance", help="per-node variance report as CSV")
    _add_graph_args(p_var)
    p_var.add_argument("--gains-file", required=True)
    p_var.add_argument("--method", choices=("closed", "modal", "full"), default="closed")
    p_var.add_argument("--out", help="output CSV path (default stdout)")
    p_var.set_defaults(func=cmd_variance)

    p_sim = sub.add_parser("simulate", help="stochastic time-domain simulation")
    _add_graph_args(p_sim)
    p_sim.add_argument("--controller", choices=("p", "dapi", "fdpd"))
    p_sim.add_argument("--gains-file")
    p_sim.add_argument("--scenario", choices=sorted(SCENARIOS))
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--horizon", type=float)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--burn-in", type=float, dest="burn_in")
    p_sim.add_argument("--noise-intensity", type=float, default=1.0)
    p_sim.add_argument("--record-every", type=int, dest="record_every")
    p_sim.add_argument("--with-velocity", action="store_true")
    p_sim.add_argument("--with-aux", action="store_true")
    p_sim.add_argument("--out", help="trajectory CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_tune = sub.add_parser("tune", help="optimal DAPI averaging gain")
    _add_graph_args(p_tune)
    p_tune.add_argument("--gains-file", required=True)
    p_tune.add_argument("--bracket-hi", type=float, dest="bracket_hi")
    p_tune.add_argument("--tol", type=float, default=1e-6)
    p_tune.add_argument("--grid-points", type=int, default=64, dest="grid_points")
    p_tune.add_argument("--out", help="output CSV path (default stdout)")
    p_tune.set_defaults(func=cmd_tune)

    p_scale = sub.add_parser("scale", help="variance sweep across sizes")
    p_scale.add_argument("--family", choices=FAMILIES, required=True)
    p_scale.add_argument("--controller", choices=("p", "dapi", "fdpd"))
    p_scale.add_argument("--gains-file", required=True)
    p_scale.add_argument("--sizes", required=True, help="'a,b,c' or geometric:start:stop:factor")
    p_scale.add_argument("--l", type=float, default=1.0, help="uniform edge weight")
    p_scale.add_argument("--window", help="exponent fit window 'lo:hi'")
    p_scale.add_argument("--out", help="output CSV path (default stdout)")
    p_scale.set_defaults(func=cmd_scale)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CoherenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
