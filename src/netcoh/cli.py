"""Command-line front end: variance reports, simulations, tuning, sweeps."""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from pathlib import Path

from . import __version__
from .closed_loop import CONTROLLERS, KIND_DAPI, assemble, parse_gains_config
from .errors import CoherenceError, InvalidParameterError
from .graphs import FAMILIES, _ascii_number, build_family, family_spectrum, from_edge_list, spectrum
from .scaling import run_scaling, write_scaling_csv
from .simulate import (
    SCENARIOS,
    SimConfig,
    empirical_variance,
    scenario_config,
    simulate_em,
    write_trajectory_csv,
)
from .tuning import ScalarSearchConfig, _search, classify_c_star
from .variance import _check_oracle_size, full_variance, modal_variance, variance_by_kind


def _ascii(convert):
    """``convert`` for numbers spelled in ASCII without digit-group underscores, as the file formats read them."""
    def read(text: str):
        return _ascii_number(text, convert)
    read.__name__ = convert.__name__  # argparse names the type in its message: "invalid int value"
    return read


_INT, _FLOAT = _ascii(int), _ascii(float)


def _member(args):
    """``(family, n, weight)`` of ``--family``, read when no ``--graph`` is given."""
    if not args.family:
        raise InvalidParameterError("provide --graph FILE or --family NAME with --n")
    if args.n is None:
        raise InvalidParameterError("--family requires --n")
    return args.family, args.n, args.l


def _build_graph(args):
    return from_edge_list(Path(args.graph).read_text()) if args.graph else build_family(*_member(args))


def _spectrum(args):
    """A family's closed-form spectrum, or the dense spectrum of a ``--graph`` file."""
    return spectrum(_build_graph(args)) if args.graph else family_spectrum(*_member(args))


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


def _output(args):
    return open(args.out, "w") if args.out and args.out != "-" else nullcontext(sys.stdout)


def _add_graph_args(parser):
    parser.add_argument("--graph", help="edge-list file (see README for the format)")
    parser.add_argument("--family", choices=FAMILIES, help="generated graph family")
    parser.add_argument("--n", type=_INT, help="node count (torus: lattice side)")
    parser.add_argument("--l", type=_FLOAT, default=1.0, help="uniform edge weight")


def cmd_variance(args) -> int:
    source = _build_graph(args) if args.method == "full" else _spectrum(args)
    kind, gains = _load_gains(args)
    if args.method == "closed":
        report = variance_by_kind(source, kind, gains)
    elif args.method == "modal":
        report = modal_variance(source, kind, gains)
    else:
        _check_oracle_size(source.node_count)  # before the N x N blocks are built
        report = full_variance(assemble(source, kind, gains))
    with _output(args) as stream:
        stream.write(report.to_csv())
    return 0


def cmd_simulate(args) -> int:
    if (args.with_velocity or args.with_aux) and not args.out:
        raise InvalidParameterError("--with-velocity and --with-aux write to the --out trajectory CSV; give --out")
    if args.scenario:
        system, cfg = scenario_config(
            args.scenario, args.seed, dt=args.dt, horizon=args.horizon, burn_in=args.burn_in,
            noise_intensity=args.noise_intensity, record_every=args.record_every,
        )
    else:
        graph = _build_graph(args)
        kind, gains = _load_gains(args)
        if args.dt is None or args.horizon is None:
            raise InvalidParameterError("--dt and --horizon are required without --scenario")
        system = assemble(graph, kind, gains)
        cfg = SimConfig(args.dt, args.horizon, args.seed, args.burn_in, args.noise_intensity,
                        record_every=1 if args.record_every is None else args.record_every)
    if args.with_aux and system.state_dim < 3 * system.n:
        raise InvalidParameterError("--with-aux needs an auxiliary state; P control and ideal PD (F-DPD at tau = 0) "
                                    "have none")
    traj = simulate_em(system, cfg)
    print(f"empirical_vn,{empirical_variance(traj)!r}")
    if args.out:
        with open(args.out, "w") as stream:
            write_trajectory_csv(
                traj, stream, include_velocity=args.with_velocity, include_aux=args.with_aux
            )
    return 0


def cmd_tune(args) -> int:
    spec = _spectrum(args)
    kind, gains = _load_gains(args)
    if kind != KIND_DAPI:
        raise InvalidParameterError("tune optimizes the DAPI averaging gain; use dapi gains")
    verdict = classify_c_star(spec, gains).verdict
    grid, values, c_star, v_star = _search(spec, gains, ScalarSearchConfig(args.bracket_hi, args.grid_points))
    with _output(args) as stream:
        stream.write("c,gridscan_vn\n")
        for c, value in zip(grid.tolist(), values.tolist()):
            stream.write(f"{c!r},{value!r}\n")
        stream.write(f"c_star,{c_star!r},v_star,{v_star!r},verdict,{verdict}\n")
    return 0


def cmd_scale(args) -> int:
    kind, gains = _load_gains(args)
    sizes = _parse_sizes(args.sizes)
    window = _fields(args.window, "--window", "lo:hi", _INT, _INT) if args.window else None
    result = run_scaling(args.family, kind, gains, sizes, weight=args.l, window=window)
    with _output(args) as stream:
        write_scaling_csv(result, stream)
    return 0


def _fields(text: str, option: str, form: str, *types) -> tuple:
    """The ':'-separated fields of ``text``, one per type and converted by it."""
    parts = text.split(":")
    try:
        if len(parts) == len(types):
            return tuple(kind(part) for kind, part in zip(types, parts))
    except ValueError:
        pass
    raise InvalidParameterError(f"bad {option} value {text!r}; use {form}")


_MAX_SIZES = 10_000


def _parse_sizes(text: str) -> list[int]:
    if text.startswith("geometric:"):
        _, start, stop, factor = _fields(text, "--sizes", "geometric:start:stop:factor", str, _INT, _INT, _FLOAT)
        if start < 1 or stop < start or not 1.0 < factor < math.inf:
            raise InvalidParameterError("need start >= 1, stop >= start, finite factor > 1")
        sizes = []
        value = float(start)
        while round(value) <= stop:
            if sizes and round(value) == sizes[-1]:  # a factor this close to 1 could repeat it for ever
                raise InvalidParameterError(f"factor {factor!r} repeats size {sizes[-1]}; use a larger factor")
            if len(sizes) == _MAX_SIZES:  # a factor this close to 1 could list billions of sizes
                raise InvalidParameterError(f"geometric sweep lists more than {_MAX_SIZES} sizes; use a larger factor")
            sizes.append(int(round(value)))
            value *= factor
        return sizes
    try:
        sizes = [_INT(tok) for tok in text.split(",") if tok.strip()]
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
    p_sim.add_argument("--controller", choices=CONTROLLERS)
    p_sim.add_argument("--gains-file")
    p_sim.add_argument("--scenario", choices=sorted(SCENARIOS))
    p_sim.add_argument("--dt", type=_FLOAT)
    p_sim.add_argument("--horizon", type=_FLOAT)
    p_sim.add_argument("--seed", type=_INT, default=0)
    p_sim.add_argument("--burn-in", type=_FLOAT, dest="burn_in")
    p_sim.add_argument("--noise-intensity", type=_FLOAT, default=1.0)
    p_sim.add_argument("--record-every", type=_INT, dest="record_every")
    p_sim.add_argument("--with-velocity", action="store_true")
    p_sim.add_argument("--with-aux", action="store_true")
    p_sim.add_argument("--out", help="trajectory CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_tune = sub.add_parser("tune", help="optimal DAPI averaging gain")
    _add_graph_args(p_tune)
    p_tune.add_argument("--gains-file", required=True)
    p_tune.add_argument("--bracket-hi", type=_FLOAT, dest="bracket_hi")
    p_tune.add_argument("--grid-points", type=_INT, default=64, dest="grid_points")
    p_tune.add_argument("--out", help="output CSV path (default stdout)")
    p_tune.set_defaults(func=cmd_tune)

    p_scale = sub.add_parser("scale", help="variance sweep across sizes")
    p_scale.add_argument("--family", choices=FAMILIES, required=True)
    p_scale.add_argument("--controller", choices=CONTROLLERS)
    p_scale.add_argument("--gains-file", required=True)
    p_scale.add_argument("--sizes", required=True, help="'a,b,c' or geometric:start:stop:factor")
    p_scale.add_argument("--l", type=_FLOAT, default=1.0, help="uniform edge weight")
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
