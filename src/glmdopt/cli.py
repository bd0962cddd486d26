"""Command-line front end.

One JSON config document describes the problem (design matrix, family,
beta or prior, options); subcommands run the optimizers and emit either
a human-readable report or machine-readable JSON (--out json).  JSON
output is byte-identical across runs with the same config and seed.

Exit codes: 0 success, 2 configuration or input error, 3 numerical
failure (singular design, domain violation), 4 optimizer did not
converge (the report is still printed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .certify import verify_optimal
from .errors import ConfigError, DesignError, UnsupportedCombination
from .ew import PointPrior, UniformPrior, ew_optimize, expected_weights
from .exchange import optimize_exact
from .liftone import LiftOneOptions, lift_one_optimize
from .objective import (design_matrix, is_integer, objective, relative_efficiency, require_spans,
                        validated)
from .weights import FAMILY_LINKS, GlmModel, compute_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGE = 4

_OPTION_KEYS = ("max_rounds", "tol")
_EW_KEYS = ("method", "samples")


def _load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    cfg["_dir"] = Path(path).resolve().parent
    return cfg


def _load_matrix(cfg: dict) -> np.ndarray:
    src = cfg.get("matrix")
    if src is None:
        raise ConfigError("config needs 'matrix': a CSV path or inline rows")
    if isinstance(src, str):
        path = Path(src)
        if not path.is_absolute():
            path = cfg["_dir"] / path
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read matrix CSV {path}: {exc}")
        rows = [r for r in csv.reader(io.StringIO(text)) if any(c.strip() for c in r)]
        if not rows:
            raise ConfigError(f"matrix CSV {path} is empty")
        data = []
        for k, row in enumerate(rows):
            try:
                data.append([float(c) for c in row])
            except ValueError:
                if k == 0:
                    continue  # header line auto-detected and skipped
                raise ConfigError(f"matrix CSV {path}, line {k + 1}: non-numeric cell")
        if not data:
            raise ConfigError(f"matrix CSV {path} has a header but no data rows")
    elif isinstance(src, list):
        data = src
    else:
        raise ConfigError("'matrix' must be a CSV path string or a list of rows")
    try:
        return design_matrix(np.asarray(data, dtype=float))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad matrix: {exc}")


def _spanning(X, p=None) -> np.ndarray:
    """X once the rows carrying mass under p (every row by default) span
    R^d.  The library calls below run under ``validated`` on the X that
    ``_load_matrix`` checked and on weights that ``compute_weights`` or
    ``expected_weights`` checked, so this rank test is the one check left."""
    if p is None:
        require_spans(X, np.ones(len(X)), "design matrix has rank below its column count")
    else:
        require_spans(X, p, "allocation has a singular information matrix")
    return X


def _parse_prior(spec) -> tuple:
    if not isinstance(spec, list) or not spec:
        raise ConfigError("'prior' must be a non-empty list of components")
    comps = []
    for j, item in enumerate(spec):
        if not isinstance(item, dict) or "dist" not in item:
            raise ConfigError(
                f"prior component {j} must be an object with 'dist' and 'params'"
            )
        dist = item["dist"]
        params = item.get("params")
        if dist == "uniform":
            if not (isinstance(params, list) and len(params) == 2):
                raise ConfigError(
                    f"prior component {j}: uniform needs params [lo, hi]"
                )
            comps.append(UniformPrior(float(params[0]), float(params[1])))
        elif dist == "point":
            if isinstance(params, list):
                if len(params) != 1:
                    raise ConfigError(
                        f"prior component {j}: point needs params [value]"
                    )
                params = params[0]
            if params is None:
                raise ConfigError(f"prior component {j}: point needs a value")
            comps.append(PointPrior(float(params)))
        else:
            raise ConfigError(
                f"prior component {j}: unknown dist {dist!r} "
                "(supported: 'uniform', 'point')"
            )
    return tuple(comps)


def _check_exactly_one(cfg: dict):
    if ("beta" in cfg) == ("prior" in cfg):
        raise ConfigError("config must contain exactly one of 'beta' or 'prior'")


def _family(cfg: dict) -> str:
    fam = cfg.get("family_link")
    if fam not in FAMILY_LINKS:
        raise ConfigError(
            f"config needs 'family_link', one of {', '.join(FAMILY_LINKS)}"
        )
    return fam


def _model(cfg: dict) -> GlmModel:
    fam = _family(cfg)
    if "beta" not in cfg:
        raise ConfigError(
            "this command needs 'beta' in the config; "
            "prior-based designs go through the 'ew' subcommand"
        )
    try:
        beta = np.asarray(cfg["beta"], dtype=float)
    except (ValueError, TypeError):
        raise ConfigError("'beta' must be a list of numbers")
    try:
        return GlmModel(fam, beta, shape=cfg.get("shape"), variance=cfg.get("variance"))
    except DesignError as exc:
        raise ConfigError(f"bad model: {exc}")


def _options(cfg: dict, seed: int) -> LiftOneOptions:
    opts = cfg.get("options", {})
    if not isinstance(opts, dict):
        raise ConfigError("'options' must be an object")
    extra = set(opts) - set(_OPTION_KEYS)
    if extra:
        raise ConfigError(
            f"unknown option keys {sorted(extra)}; supported: {list(_OPTION_KEYS)}"
        )
    try:
        return LiftOneOptions(seed=seed, **opts)
    except (DesignError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad options: {exc}")


def _resolve_seed(cfg: dict, args) -> tuple[int, bool]:
    """Effective seed and whether the user set one explicitly."""
    if args.seed is not None:
        return int(args.seed), True
    if "seed" in cfg:
        seed = cfg["seed"]
        if not is_integer(seed):
            raise ConfigError("'seed' must be an integer")
        return seed, True
    return 0, False


def _ew_settings(cfg: dict, fam: str, seed: int, seed_given: bool):
    block = cfg.get("ew", {})
    if not isinstance(block, dict):
        raise ConfigError("'ew' must be an object")
    extra = set(block) - set(_EW_KEYS)
    if extra:
        raise ConfigError(
            f"unknown ew keys {sorted(extra)}; supported: {list(_EW_KEYS)}"
        )
    method = block.get(
        "method", "closed-form-poisson" if fam == "poisson-log" else "monte-carlo"
    )
    samples = block.get("samples", 100_000)
    if not (is_integer(samples) and samples >= 1):
        raise ConfigError("'ew.samples' must be a positive integer")
    if method == "monte-carlo" and not seed_given:
        raise ConfigError(
            "monte-carlo expected weights need an explicit seed "
            "(config 'seed' or --seed)"
        )
    return method, samples


def _expected_weights(cfg: dict, X, seed: int, seed_given: bool):
    fam = _family(cfg)
    prior = _parse_prior(cfg["prior"])
    method, samples = _ew_settings(cfg, fam, seed, seed_given)
    ew = validated(
        expected_weights,
        X,
        fam,
        prior,
        method=method,
        samples=samples,
        seed=seed if method == "monte-carlo" else None,
        shape=cfg.get("shape"),
        variance=cfg.get("variance"),
    )
    return ew, method


def _weight_vector(cfg: dict, X, seed: int, seed_given: bool) -> np.ndarray:
    """w from beta if present, else expected weights from the prior."""
    _check_exactly_one(cfg)
    if "beta" in cfg:
        return validated(compute_weights, X, _model(cfg))
    return _expected_weights(cfg, X, seed, seed_given)[0]


def _load_allocation(path: str, m: int) -> np.ndarray:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read allocation file {path}: {exc}")
    vals = []
    for k, line in enumerate(lines):
        s = line.strip()
        if not s:
            continue
        try:
            vals.append(float(s))
        except ValueError:
            raise ConfigError(
                f"allocation file {path}, line {k + 1}: expected one number"
            )
    if len(vals) != m:
        raise ConfigError(
            f"allocation file {path} has {len(vals)} entries for {m} design rows"
        )
    v = np.asarray(vals, dtype=float)
    if np.any(v < 0):
        raise ConfigError(f"allocation file {path} has negative entries")
    total = v.sum()
    if not total > 0:
        raise ConfigError(f"allocation file {path} sums to zero")
    return v / total


def _strict(value):
    """JSON has no inf or NaN: a non-finite float (an f beyond the double
    range) is reported as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return value


def _emit(report: dict, args, lines=None):
    if args.out == "json":
        print(json.dumps(_strict(report), sort_keys=True, indent=2, allow_nan=False))
    else:
        for line in lines or []:
            print(line)


def _fmt_vec(v, nd=3):
    return "  ".join(f"{x:.{nd}f}" for x in v)


def cmd_weights(cfg: dict, args) -> int:
    X = _load_matrix(cfg)
    _check_exactly_one(cfg)
    seed, seed_given = _resolve_seed(cfg, args)
    if "beta" in cfg:
        model = _model(cfg)
        w = validated(compute_weights, X, model)
        eta = X @ model.beta
        report = {
            "command": "weights",
            "family_link": model.family_link,
            "eta": eta.tolist(),
            "weights": w.tolist(),
        }
        lines = ["row        eta         weight"]
        lines += [
            f"{i:3d} {eta[i]:10.3f} {w[i]:14.6g}" for i in range(len(w))
        ]
    else:
        ew, method = _expected_weights(cfg, X, seed, seed_given)
        report = {
            "command": "weights",
            "family_link": cfg["family_link"],
            "method": method,
            "expected_weights": ew.tolist(),
        }
        lines = [f"expected weights ({method})", "row         weight"]
        lines += [f"{i:3d} {ew[i]:14.6g}" for i in range(len(ew))]
    _emit(report, args, lines)
    return EXIT_OK


def _optimize_report(command, X, w, res, extra=None):
    report = {
        "command": command,
        "p": res.p_opt.tolist(),
        "f": res.f_opt,
        "rounds": res.rounds,
        "polish_steps": res.polish_steps,
        "converged": res.converged,
        "optimal": res.certificate.optimal,
    }
    if extra:
        report.update(extra)
    lines = [
        f"p (3 decimals): {_fmt_vec(res.p_opt)}",
        f"p (full):       {json.dumps(res.p_opt.tolist())}",
        f"f = {res.f_opt!r}",
        f"rounds = {res.rounds}, polish steps = {res.polish_steps}",
        f"converged = {res.converged}, certificate optimal = {res.certificate.optimal}",
    ]
    return report, lines


def cmd_optimize(cfg: dict, args) -> int:
    X = _load_matrix(cfg)
    _check_exactly_one(cfg)
    w = validated(compute_weights, X, _model(cfg))
    seed, _ = _resolve_seed(cfg, args)
    opts = _options(cfg, seed)
    res = validated(lift_one_optimize, _spanning(X), w, opts=opts)
    report, lines = _optimize_report("optimize", X, w, res)
    _emit(report, args, lines)
    return EXIT_OK if res.converged else EXIT_NO_CONVERGE


def cmd_exact(cfg: dict, args) -> int:
    X = _load_matrix(cfg)
    _check_exactly_one(cfg)
    w = validated(compute_weights, X, _model(cfg))
    total = cfg.get("total")
    if not (is_integer(total) and total >= X.shape[1]):
        raise ConfigError(
            f"exact designs need integer 'total' >= d = {X.shape[1]}"
        )
    n_starts = cfg.get("n_starts", 5)
    if not (is_integer(n_starts) and n_starts >= 1):
        raise ConfigError("'n_starts' must be a positive integer")
    seed, _ = _resolve_seed(cfg, args)
    n = validated(optimize_exact, _spanning(X), w, total, seed=seed, n_starts=n_starts)
    f = objective(X, w, n)
    report = {
        "command": "exact",
        "n": [int(v) for v in n],
        "total": int(n.sum()),
        "f": f,
    }
    lines = [
        f"n: {'  '.join(str(int(v)) for v in n)}",
        f"total = {int(n.sum())}",
        f"f = {f!r}",
    ]
    _emit(report, args, lines)
    return EXIT_OK


def cmd_verify(cfg: dict, args) -> int:
    X = _load_matrix(cfg)
    seed, seed_given = _resolve_seed(cfg, args)
    w = _weight_vector(cfg, X, seed, seed_given)
    p = _load_allocation(args.allocation, X.shape[0])
    cert = validated(verify_optimal, _spanning(X, p), w, p)
    report = {
        "command": "verify",
        "optimal": cert.optimal,
        "tolerance": cert.tolerance,
        "per_point": [asdict(c) for c in cert.per_point],
    }
    lines = [f"optimal = {cert.optimal} (tolerance {cert.tolerance:g})"]
    lines += ["idx case        lhs            rhs        ok"]
    for c in cert.per_point:
        note = f"  [{c.note}]" if c.note else ""
        lines.append(
            f"{c.index:3d} {c.case:9s} {c.lhs:14.6g} {c.rhs:14.6g} {str(c.passed):5s}{note}"
        )
    _emit(report, args, lines)
    return EXIT_OK


def cmd_efficiency(cfg: dict, args) -> int:
    X = _load_matrix(cfg)
    seed, seed_given = _resolve_seed(cfg, args)
    w = _weight_vector(cfg, X, seed, seed_given)
    p_test = _load_allocation(args.test_allocation, X.shape[0])
    p_ref = _load_allocation(args.ref_allocation, X.shape[0])
    eff = validated(relative_efficiency, _spanning(X, p_ref), w, p_test, p_ref)
    report = {
        "command": "efficiency",
        "efficiency": eff,
        "f_test": objective(X, w, p_test),
        "f_ref": objective(X, w, p_ref),
    }
    lines = [f"relative efficiency = {eff:.6f}  ({eff!r})"]
    _emit(report, args, lines)
    return EXIT_OK


def cmd_ew(cfg: dict, args) -> int:
    X = _load_matrix(cfg)
    _check_exactly_one(cfg)
    if "prior" not in cfg:
        raise ConfigError("the 'ew' subcommand needs 'prior' in the config")
    seed, seed_given = _resolve_seed(cfg, args)
    ew, method = _expected_weights(cfg, X, seed, seed_given)
    opts = _options(cfg, seed)
    res = validated(ew_optimize, _spanning(X), ew, opts=opts)
    report, lines = _optimize_report(
        "ew", X, ew, res,
        extra={"expected_weights": ew.tolist(), "method": method},
    )
    lines.insert(0, f"expected weights ({method}): {_fmt_vec(ew)}")
    _emit(report, args, lines)
    return EXIT_OK if res.converged else EXIT_NO_CONVERGE


_COMMANDS = {
    "weights": cmd_weights,
    "optimize": cmd_optimize,
    "exact": cmd_exact,
    "verify": cmd_verify,
    "efficiency": cmd_efficiency,
    "ew": cmd_ew,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glmdopt",
        description="D-optimal factorial designs for generalized linear models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON problem config")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--out", choices=("json", "text"), default="text",
                        help="output format (default: text)")

    common(sub.add_parser("weights", help="per-row GLM or expected weights"))
    common(sub.add_parser("optimize", help="approximate D-optimal design"))
    common(sub.add_parser("exact", help="exact design for a fixed total"))
    sp = sub.add_parser("verify", help="optimality certificate for an allocation")
    common(sp)
    sp.add_argument("allocation", help="file with one proportion per line")
    sp = sub.add_parser("efficiency", help="relative efficiency of two allocations")
    common(sp)
    sp.add_argument("test_allocation", help="file with one proportion per line")
    sp.add_argument("ref_allocation", help="file with one proportion per line")
    common(sub.add_parser("ew", help="expected-weight D-optimal design"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, UnsupportedCombination, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DesignError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():
    # a warning's source location means nothing to a CLI user: print the message alone
    warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
    sys.exit(main())


if __name__ == "__main__":
    entry()
