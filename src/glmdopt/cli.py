"""Command-line front end.

One JSON config document describes the problem (design matrix, family,
beta or prior, options).  One pipeline in ``main`` serves every
subcommand: it loads and checks the config and the matrix once, and
resolves the seed (None unless --seed or the config sets one) and the
weights once: the GLM weights at beta or the expected weights under the
prior, whichever ``_COMMANDS`` says the subcommand takes.  It then runs
the command on them and prints a human-readable report or
machine-readable JSON (--out json), byte-identical across runs with the
same config and seed.  The 'ew' subcommand is 'optimize' on the expected
weights.

Exit codes: 0 success, 2 configuration or input error (every config,
matrix or allocation mistake), 3 numerical failure (singular design,
domain violation), 4 optimizer did not converge (the report is still
printed).
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
from .errors import ConfigError, DesignError, SingularDesign, UnsupportedCombination
from .ew import PointPrior, UniformPrior, expected_weights
from .exchange import MAX_TOTAL, optimize_exact
from .liftone import LiftOneOptions, lift_one_optimize
from .objective import design_matrix, is_integer, objective, relative_efficiency, spans, validated
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
    except (ValueError, TypeError, OverflowError, DesignError) as exc:
        raise ConfigError(f"bad matrix: {exc}")


def _spanning(X, p=None) -> np.ndarray:
    """X once the rows carrying mass under p (every row by default) span R^d.
    Commands run under ``validated``, where ``require_spans`` checks nothing."""
    if not spans(X, np.ones(len(X)) if p is None else p):
        raise SingularDesign("design matrix has rank below its column count" if p is None
                             else "allocation has a singular information matrix")
    return X


def _number(value, what: str) -> float:
    """A JSON int or float (not a bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} is beyond the double range")


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
            comps.append(UniformPrior(*(_number(v, f"prior component {j}: uniform bound")
                                        for v in params)))
        elif dist == "point":
            if isinstance(params, list):
                if len(params) != 1:
                    raise ConfigError(
                        f"prior component {j}: point needs params [value]"
                    )
                params = params[0]
            if params is None:
                raise ConfigError(f"prior component {j}: point needs a value")
            comps.append(PointPrior(_number(params, f"prior component {j}: point value")))
        else:
            raise ConfigError(
                f"prior component {j}: unknown dist {dist!r} "
                "(supported: 'uniform', 'point')"
            )
    return tuple(comps)


def _family(cfg: dict) -> tuple[str, dict]:
    """The family_link and its optional 'shape' and 'variance' as floats."""
    fam = cfg.get("family_link")
    if fam not in FAMILY_LINKS:
        raise ConfigError(
            f"config needs 'family_link', one of {', '.join(FAMILY_LINKS)}"
        )
    return fam, {key: None if cfg.get(key) is None else _number(cfg[key], f"'{key}'")
                 for key in ("shape", "variance")}


def _block(cfg: dict, key: str, allowed: tuple) -> dict:
    """The optional sub-object cfg[key]; its keys must be among ``allowed``."""
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"'{key}' must be an object")
    extra = set(block) - set(allowed)
    if extra:
        raise ConfigError(  # "unknown option keys", "unknown ew keys"
            f"unknown {key.rstrip('s')} keys {sorted(extra)}; supported: {list(allowed)}"
        )
    return block


def _resolve_seed(cfg: dict, args) -> int | None:
    """The seed of --seed, else of the config; None when neither sets one,
    where lift-one and exchange use seed 0 and Monte Carlo refuses to run."""
    if args.seed is None and "seed" not in cfg:
        return None
    seed = cfg["seed"] if args.seed is None else args.seed
    if not (is_integer(seed) and seed >= 0):
        raise ConfigError("'seed' must be a non-negative integer")
    return seed


def _expected_weights(cfg: dict, X, seed: int | None):
    fam, constants = _family(cfg)
    prior = _parse_prior(cfg["prior"])
    block = _block(cfg, "ew", _EW_KEYS)
    method = block.get(
        "method", "closed-form-poisson" if fam == "poisson-log" else "monte-carlo"
    )
    samples = block.get("samples", 100_000)
    if not (is_integer(samples) and samples >= 1):
        raise ConfigError("'ew.samples' must be a positive integer")
    if method == "monte-carlo" and seed is None:
        raise ConfigError(
            "monte-carlo expected weights need an explicit seed "
            "(config 'seed' or --seed)"
        )
    ew = expected_weights(X, fam, prior, method=method, samples=samples, seed=seed, **constants)
    return ew, method


def _weights(cfg: dict, X, seed: int | None, takes: str | None):
    """(w, source) for a command that ``takes`` 'beta', 'prior' or either
    (None): the GLM weights and their ``GlmModel``, or the expected weights
    and their method."""
    if takes == "prior" and "prior" not in cfg:
        raise ConfigError("the 'ew' subcommand needs 'prior' in the config")
    if takes != "beta" and "prior" in cfg:
        return _expected_weights(cfg, X, seed)
    fam, constants = _family(cfg)
    if "beta" not in cfg:
        raise ConfigError(
            "this command needs 'beta' in the config; "
            "prior-based designs go through the 'ew' subcommand"
        )
    try:
        beta = np.asarray(cfg["beta"], dtype=float)
    except (ValueError, TypeError, OverflowError):
        raise ConfigError("'beta' must be a list of numbers")
    try:
        model = GlmModel(fam, beta, **constants)
    except DesignError as exc:
        raise ConfigError(f"bad model: {exc}")
    if model.d != X.shape[1]:
        raise ConfigError(f"design matrix has {X.shape[1]} columns but 'beta' has length {model.d}")
    return compute_weights(X, model), model


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
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"allocation file {path} has non-finite entries")
    if np.any(v < 0):
        raise ConfigError(f"allocation file {path} has negative entries")
    with np.errstate(over="ignore"):
        total = v.sum()
    if not total > 0:
        raise ConfigError(f"allocation file {path} sums to zero")
    if total == math.inf:
        raise ConfigError(f"allocation file {path} sums past the double range")
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


def _emit(report: dict, args, lines):
    if args.out == "json":
        print(json.dumps(_strict(report), sort_keys=True, indent=2, allow_nan=False))
    else:
        for line in lines:
            print(line)


def _fmt_vec(v, nd=3):
    return "  ".join(f"{x:.{nd}f}" for x in v)


def cmd_weights(cfg: dict, X, w, source, seed, args):
    if isinstance(source, GlmModel):
        eta = X @ source.beta
        report = {"eta": eta.tolist(), "weights": w.tolist()}
        lines = ["row        eta         weight"]
        lines += [f"{i:3d} {eta[i]:10.3f} {w[i]:14.6g}" for i in range(len(w))]
    else:
        report = {"method": source, "expected_weights": w.tolist()}
        lines = [f"expected weights ({source})", "row         weight"]
        lines += [f"{i:3d} {w[i]:14.6g}" for i in range(len(w))]
    report.update(command="weights", family_link=cfg["family_link"])
    return report, lines, EXIT_OK


def cmd_optimize(cfg: dict, X, w, source, seed, args):
    """Lift-one on w: the D-optimal design at beta, or under a prior (the
    'ew' subcommand) the expected-weight design."""
    opts = _block(cfg, "options", _OPTION_KEYS)
    try:
        opts = LiftOneOptions(seed=seed or 0, **opts)
    except (DesignError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad options: {exc}")
    res = lift_one_optimize(_spanning(X), w, opts=opts)
    report = {
        "command": args.command,
        "p": res.p_opt.tolist(),
        "f": res.f_opt,
        "rounds": res.rounds,
        "polish_steps": res.polish_steps,
        "converged": res.converged,
        "optimal": res.certificate.optimal,
    }
    lines = [
        f"p (3 decimals): {_fmt_vec(res.p_opt)}",
        f"p (full):       {json.dumps(res.p_opt.tolist())}",
        f"f = {res.f_opt!r}",
        f"rounds = {res.rounds}, polish steps = {res.polish_steps}",
        f"converged = {res.converged}, certificate optimal = {res.certificate.optimal}",
    ]
    if not isinstance(source, GlmModel):
        report.update(expected_weights=w.tolist(), method=source)
        lines.insert(0, f"expected weights ({source}): {_fmt_vec(w)}")
    return report, lines, EXIT_OK if res.converged else EXIT_NO_CONVERGE


def cmd_exact(cfg: dict, X, w, source, seed, args):
    if "options" in cfg:
        raise ConfigError("'options' applies to optimize only; exact starts "
                          "from lift-one under default options")
    total = cfg.get("total")
    if not (is_integer(total) and X.shape[1] <= total < MAX_TOTAL):
        raise ConfigError(f"exact designs need integer 'total' >= d = {X.shape[1]} and < 2**52")
    n_starts = cfg.get("n_starts", 5)
    if not (is_integer(n_starts) and n_starts >= 1):
        raise ConfigError("'n_starts' must be a positive integer")
    n = optimize_exact(_spanning(X), w, total, seed=seed or 0, n_starts=n_starts)
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
    return report, lines, EXIT_OK


def cmd_verify(cfg: dict, X, w, source, seed, args):
    p = _load_allocation(args.allocation, X.shape[0])
    cert = verify_optimal(_spanning(X, p), w, p)
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
    return report, lines, EXIT_OK


def cmd_efficiency(cfg: dict, X, w, source, seed, args):
    p_test = _load_allocation(args.test_allocation, X.shape[0])
    p_ref = _load_allocation(args.ref_allocation, X.shape[0])
    eff = relative_efficiency(_spanning(X, p_ref), w, p_test, p_ref)
    report = {
        "command": "efficiency",
        "efficiency": eff,
        "f_test": objective(X, w, p_test),
        "f_ref": objective(X, w, p_ref),
    }
    lines = [f"relative efficiency = {eff:.6f}  ({eff!r})"]
    return report, lines, EXIT_OK


# subcommand -> (command, the weights it takes: 'beta', 'prior' or None for
# either); a command maps (cfg, X, w, source, seed, args), with w and its
# source from ``_weights``, to (report, text lines, exit code)
_COMMANDS = {
    "weights": (cmd_weights, None),
    "optimize": (cmd_optimize, "beta"),
    "exact": (cmd_exact, "beta"),
    "verify": (cmd_verify, None),
    "efficiency": (cmd_efficiency, None),
    "ew": (cmd_optimize, "prior"),
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
        X = _load_matrix(cfg)
        if ("beta" in cfg) == ("prior" in cfg):
            raise ConfigError("config must contain exactly one of 'beta' or 'prior'")
        seed = _resolve_seed(cfg, args)
        command, takes = _COMMANDS[args.command]
        # X is checked once, above: the library skips its own input checks
        w, source = validated(_weights, cfg, X, seed, takes)
        report, lines, code = validated(command, cfg, X, w, source, seed, args)
    except (ConfigError, UnsupportedCombination, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DesignError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _emit(report, args, lines)
    return code


def entry():
    # a warning's source location means nothing to a CLI user: print the message alone
    warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
    sys.exit(main())


if __name__ == "__main__":
    entry()
