"""Hash the bits of wmle's results, one sha256 per group, to compare two trees.

    python3 tools/bits_digest.py                           # this checkout's src
    python3 tools/bits_digest.py --src ../parent/src       # another tree's src
    python3 tools/bits_digest.py --small                   # a battery of seconds
    python3 tools/bits_digest.py --against ../parent/src   # compare two trees

Run it once per tree and compare the lines: a group whose digest differs
holds a result that changed in at least one bit.  ``--against`` runs both
trees in subprocesses and prints, for each group that differs, the index
and the canonical text of its first differing record (near the first
character that differs); it exits 1 if any group differs.  Every float is
hashed as its hex form and every array as its dtype, shape, memory order
and bytes, so a one-ulp change shows; an exception is hashed as its type
and message.  The groups:

* ``fit-large-n``: the eleven ``mwle.fit`` calls of perfbench's
  ``fit-large-n`` workload on its 1e6 x 3 log-uniform matrix (seed 1), each
  ``FitResult`` with its diagnostics, or its error;
* ``means``: ``lehmer_mean``, ``holder_mean`` and both ``v_weights`` kinds at
  eight orders on 1 to 70001 values, under no, random and equal weights;
* ``policy-fit``: ``apply_policy`` (bytes and memory order) and ``fit``
  under both policies, on 1 to 200001 rows of 1 or 3 columns in C and F
  order, under no, random and equal base weights, on unit-shape, shape-2.5
  and mixed-shape Weibull models and the Gaussian one, with Lehmer fits on
  Weibull shapes 0.5 and 2 too; and the 30-row strided view of three
  columns that caught a last-bit change in ``pow`` which the random inputs
  missed, fitted at shapes 0.5, 2 and 6 under no and row weights;
* ``sweep``: ``mwle._sweep_estimates`` and its gaps on a 23 x 3 proportion
  matrix at the grids ``-3:4:0.001``, ``0.1:6:0.001``, ``-600:600:0.01`` and
  Hölder ``0.1:600:0.05``;
* ``errors``: the messages of 29 rejected calls.

``--small`` runs every group on smaller inputs and coarser grids.  The
digests depend on numpy's CPU dispatch level as the results do, so two trees
are compared on one machine.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Per scale: rows of the fit-large-n matrix, sizes of the means and of the
#: policy fits, and the sweep grids as (kind, lo:hi:step).
SCALES = {
    "full": {
        "large_n": 1_000_000,
        "mean_sizes": (1, 2, 23, 1000, 70001),
        "fit_sizes": (1, 2, 23, 1000, 70001, 200001),
        "grids": (("lehmer", "-3:4:0.001"), ("holder", "0.1:6:0.001"),
                  ("lehmer", "-600:600:0.01"), ("holder", "0.1:600:0.05")),
    },
    "small": {
        "large_n": 3000,
        "mean_sizes": (1, 2, 23, 300),
        "fit_sizes": (1, 23, 300),
        "grids": (("lehmer", "-3:4:0.1"), ("holder", "0.1:6:0.1"),
                  ("lehmer", "-600:600:10"), ("holder", "0.1:600:5")),
    },
}

#: perfbench's fit-large-n orders: Lehmer alphas, then Hölder shapes.
LARGE_N_LEHMER = (-2.0, 0.5, 2.0, 4.0, 200.0, -200.0)
LARGE_N_HOLDER = (0.5, 2.0, 6.0, 60.0, 200.0)

MEAN_ORDERS = (-200.0, -2.0, 0.0, 0.5, 1.0, 2.0, 7.0, 300.0)


def canon(value) -> str:
    """A string that changes with every bit of ``value``: floats as hex,
    arrays as dtype, shape, order and bytes, sequences and mappings item by
    item, exceptions as type and message."""
    if isinstance(value, BaseException):
        return f"raised {type(value).__name__}: {value}"
    if isinstance(value, np.ndarray):
        order = "F" if value.flags.f_contiguous and not value.flags.c_contiguous else "C"
        return f"array({value.dtype},{value.shape},{order},{np.ascontiguousarray(value).tobytes().hex()})"
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canon(v) for v in value) + ")"
    return repr(value)


def outcome(call):
    """``call()``'s value, or the exception it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - hashed, never swallowed
        return exc


def log_uniform(seed: int, n: int, k: int = 3) -> np.ndarray:
    """perfbench's log-uniform ``(n, k)`` matrix on [1e-3, 1e3]."""
    rng = np.random.default_rng([seed, n, k])
    return np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(n, k)))


def large_n_records(scale: dict):
    from wmle.families import weibull_model
    from wmle.mwle import WeightPolicy, fit

    x = log_uniform(1, scale["large_n"])
    for a in LARGE_N_LEHMER:
        yield a, outcome(lambda: fit(weibull_model(np.ones(3)), x, WeightPolicy.lehmer(np.full(3, a))))
    for k in LARGE_N_HOLDER:
        yield k, outcome(lambda: fit(weibull_model(np.full(3, k)), x, WeightPolicy.holder()))


def _weight_sets(rng: np.random.Generator, shape: tuple) -> dict:
    return {"none": None, "random": np.exp(rng.uniform(-3.0, 3.0, shape)), "equal": np.full(shape, 3.0)}


def mean_records(scale: dict):
    from wmle.means import holder_mean, lehmer_mean, v_weights

    rng = np.random.default_rng(2)
    for n in scale["mean_sizes"]:
        x = np.exp(rng.uniform(-7.0, 7.0, n))
        for name, w in _weight_sets(rng, (n,)).items():
            for a in MEAN_ORDERS:
                yield n, name, a, outcome(lambda: lehmer_mean(a, x, w)), outcome(lambda: holder_mean(a, x, w))
                yield outcome(lambda: v_weights("lehmer", a, x, w)), outcome(lambda: v_weights("holder", a, x, w))


def policy_fit_records(scale: dict):
    from wmle.families import gaussian_known_variance_model, weibull_model
    from wmle.mwle import WeightPolicy, apply_policy, fit

    rng = np.random.default_rng(3)
    for n in scale["fit_sizes"]:
        for k in (1, 3):
            x = np.exp(rng.uniform(-7.0, 7.0, (n, k)))
            lehmer = [np.full(k, 2.0), np.full(k, -200.0), np.array([-2.0, 0.5, 7.0])[:k],
                      np.array([1.0, 3.0, -0.5])[:k]]
            holder = [weibull_model(np.full(k, 2.5)), weibull_model(np.array([0.5, 2.0, 6.0])[:k]),
                      gaussian_known_variance_model(np.arange(1.0, k + 1.0))]
            bases = _weight_sets(rng, (n, k))
            for layout in (np.ascontiguousarray, np.asfortranarray):
                data = layout(x)
                for name, base in bases.items():
                    lehmer_w = None if base is None else (lambda o, base=base: base)
                    holder_w = None if base is None else (lambda o, base=base: base[:, 0])
                    for orders in lehmer:
                        policy = WeightPolicy.lehmer(orders, base_w=lehmer_w)
                        yield n, k, name, orders, outcome(lambda: apply_policy(policy, data))
                        for shape in (1.0, 0.5, 2.0):
                            yield outcome(lambda: fit(weibull_model(np.full(k, shape)), data, policy))
                    policy = WeightPolicy.holder(base_w=holder_w)
                    yield n, k, name, outcome(lambda: apply_policy(policy, data))
                    for model in holder:
                        yield model.name, outcome(lambda: fit(model, data, policy))
    view = np.exp(np.random.default_rng(61).uniform(math.log(1e-3), math.log(1e3), (60, 9)))[::2, ::3]
    for base_w in (None, lambda o: 1.0 + view[:, 0]):
        yield outcome(lambda: fit(weibull_model([0.5, 2.0, 6.0]), view, WeightPolicy.holder(base_w)))


def sweep_records(scale: dict):
    from wmle.cli import parse_grid
    from wmle.mwle import _sweep_estimates

    obs = np.random.default_rng(4).dirichlet([5.0, 4.0, 1.0], size=23)
    for kind, spec in scale["grids"]:
        yield kind, spec, outcome(lambda: _sweep_estimates(kind, obs, parse_grid(spec)))


def error_records(scale: dict):
    from wmle.families import weibull_model
    from wmle.means import Sample, holder_mean, lehmer_mean, v_weights
    from wmle.mwle import WeightPolicy, _sweep_estimates, apply_policy, fit

    far = [1e-300, 1.0, 1e300]
    with_zero = [[1.0, 2.0], [0.0, 3.0], [4.0, 5.0]]
    calls = [
        lambda: Sample([]),
        lambda: Sample([1.0, -2.0]),
        lambda: Sample([1.0, math.nan]),
        lambda: Sample([1.0, 2.0], [1.0, 0.0]),
        lambda: lehmer_mean(math.nan, [1.0, 2.0]),
        lambda: lehmer_mean(0.5, [0.0, 1.0]),
        lambda: lehmer_mean(-1.0, far),
        lambda: holder_mean(-1.0, [0.0, 1.0]),
        lambda: holder_mean(2.0, [1e-200, 1.0], [1.0, 1e-300]),
        lambda: v_weights("median", 2.0, [1.0, 2.0]),
        lambda: v_weights("lehmer", math.inf, [1.0, 2.0]),
        lambda: v_weights("holder", 3.0, [1e200, 1.0]),
        lambda: WeightPolicy("custom"),
        lambda: WeightPolicy.lehmer([math.nan]),
        lambda: fit(weibull_model(np.ones(2)), with_zero, WeightPolicy.lehmer([1.0, 2.0, 3.0])),
        lambda: fit(weibull_model(np.ones(2)), with_zero, WeightPolicy.lehmer([1.0, 2.0])),
        lambda: fit(weibull_model(np.ones(2)), with_zero, WeightPolicy.lehmer([2.0, 1.0])),
        lambda: fit(weibull_model(np.ones(2)), [[1.0, 0.0], [0.0, 3.0]], WeightPolicy.lehmer([2.0, 2.0])),
        lambda: fit(weibull_model(np.ones(1)), far, WeightPolicy.lehmer([-3.0])),
        lambda: fit(weibull_model(np.ones(3)), with_zero, WeightPolicy.holder()),
        lambda: fit(weibull_model([1.0]), [1.0, -1.0], WeightPolicy.holder()),
        lambda: fit(weibull_model([1e-4]), far, WeightPolicy.holder()),
        lambda: fit(weibull_model([2.0, 2.0]), [[1.0, 0.0], [2.0, 0.0]], WeightPolicy.holder()),
        lambda: fit(weibull_model([2.0, 2.0, 2.0]), [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], WeightPolicy.holder()),
        lambda: fit(weibull_model([2.0]), [1e-200, 1.0], WeightPolicy.holder(base_w=lambda o: [1.0, 1e-300])),
        lambda: fit(weibull_model([2.0, 2.0]), [[1.0, 1e-200], [1.0, 1.0]],
                    WeightPolicy.holder(base_w=lambda o: [1.0, 1e-300])),
        lambda: apply_policy(WeightPolicy.holder(base_w=lambda o: -o[:, 0]), [[1.0], [2.0]]),
        lambda: apply_policy(WeightPolicy.lehmer([-3.0]), far),
        lambda: _sweep_estimates("lehmer", np.array([[1.0, 0.0]]), np.array([2.0])),
    ]
    for call in calls:
        yield outcome(call)


GROUPS = {
    "fit-large-n": large_n_records,
    "means": mean_records,
    "policy-fit": policy_fit_records,
    "sweep": sweep_records,
    "errors": error_records,
}


def canon_records(name: str, scale: str):
    """The canonical text of every record of group ``name`` at ``scale``."""
    with np.errstate(all="ignore"):
        for record in GROUPS[name](SCALES[scale]):
            yield canon(record)


def digests(scale: str = "full") -> dict[str, str]:
    """The sha256 of every group's records at ``scale``."""
    out = {}
    for name in GROUPS:
        h = hashlib.sha256()
        for text in canon_records(name, scale):
            h.update(text.encode() + b"\n")
        out[name] = h.hexdigest()
    return out


def _child(src: str, scale: str, *args: str) -> str:
    """This script's stdout on the tree ``src``, in a fresh process."""
    command = [sys.executable, str(Path(__file__).resolve()), "--src", src, *args]
    if scale == "small":
        command.append("--small")
    return subprocess.run(command, check=True, capture_output=True, text=True).stdout


def _window(text: str, at: int, width: int = 300) -> str:
    """``text`` around character ``at``, with its offset when cut."""
    lo = max(0, at - width // 3)
    cut = text[lo : lo + width]
    return cut if len(text) <= width else f"[{lo}:{lo + len(cut)} of {len(text)}] {cut}"


def compare(src: str, other: str, scale: str) -> int:
    """Print each group whose records differ between the trees ``src`` and
    ``other``, with the first differing record of each; 1 if any differs."""
    mine, theirs = (json.loads(_child(tree, scale, "--hashes")) for tree in (src, other))
    differs = 0
    for name in GROUPS:
        a, b = mine[name], theirs[name]
        if a == b:
            print(f"{name:12s} identical ({len(a)} records)")
            continue
        differs = 1
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        print(f"{name:12s} differs: {len(a)} against {len(b)} records, first at record {i}")
        texts = [_child(tree, scale, "--record", name, str(i)) if i < len(h) else "(no record)"
                 for tree, h in ((src, a), (other, b))]
        at = next((c for c, (x, y) in enumerate(zip(*texts)) if x != y), min(map(len, texts)))
        for tree, text in zip((src, other), texts):
            print(f"  {tree}: {_window(text, at)}")
    return differs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the src directory of the tree to hash")
    parser.add_argument("--small", action="store_true", help="smaller inputs and coarser grids")
    parser.add_argument("--against", metavar="OTHER_SRC", help="compare --src with another tree's src")
    parser.add_argument("--hashes", action="store_true", help=argparse.SUPPRESS)  # per-record sha256, as JSON
    parser.add_argument("--record", nargs=2, metavar=("GROUP", "INDEX"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    scale = "small" if args.small else "full"
    if args.against:
        return compare(args.src, args.against, scale)
    sys.path.insert(0, str(Path(args.src).resolve()))
    if args.hashes:
        print(json.dumps({name: [hashlib.sha256(text.encode()).hexdigest()
                                 for text in canon_records(name, scale)] for name in GROUPS}))
    elif args.record:
        name, index = args.record[0], int(args.record[1])
        print(next(itertools.islice(canon_records(name, scale), index, None)), end="")
    else:
        for name, digest in digests(scale).items():
            print(f"{name:12s} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
