"""Command-line entry point.

Subcommands: scan, meridian, decay, tomo, bounds, render.  Each reads a
YAML config, optionally overriding the seed and output directory, and
writes CSV/PGM artifacts plus a manifest.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .config import load_config
from .errors import ConfigError, OamemError
from .harness import RUNNERS

SUBCOMMANDS = {
    "scan": ("interference_scan", "equator interference scan and visibility fit, "
             "writes scan.csv (basis_id, beta_or_label, counts, background, "
             "acquisition_s) and fit.csv (n0, delta, visibility, residual_rms, phase)"),
    "meridian": ("meridian_sweep", "polar-angle retrieval sweep, writes meridian.csv "
                 "(gamma_w, n_l, n_r, gamma_r)"),
    "decay": ("storage_decay", "fidelity/efficiency decay over storage time, writes "
              "decay.csv (t_s, eta, f_rel, f_abs, f_classical, band_low, band_high)"),
    "tomo": ("tomography", "state tomography per storage time, writes counts_*.csv, "
             "rho_*.csv, report_*.txt and summary.csv (t_s, eta, f_rel, f_abs)"),
    "bounds": ("bounds_table", "classical limit table, writes bounds.csv "
               "(t_s, eta, f_classical, band_low, band_high)"),
    "render": ("field_render", "field exports, writes input/retrieved PGM maps and "
               "input.csv (x, y, re, im)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oamem",
                                     description="OAM qudit storage simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--parallel", type=int, default=1,
                       help="threads for the storage points of decay and tomo "
                       "(the other subcommands ignore it), at most one per point and per "
                       "CPU; 1, the default, runs the points in the main thread, and every "
                       "value writes the same bytes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kind, _ = SUBCOMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        if cfg.experiment is not None and cfg.experiment != kind:
            raise ConfigError(
                f"config declares experiment {cfg.experiment!r}, subcommand runs {kind!r}")
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.parallel < 1:
            raise ConfigError("--parallel must be >= 1")
        result = RUNNERS[kind](cfg, out=args.out, parallel=args.parallel)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    except (OamemError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"{kind}: wrote {len(result.files)} files to {result.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
