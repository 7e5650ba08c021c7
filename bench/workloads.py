"""The benchmark's workloads: seeded `sdom` command configs.

A workload is an ordered list of ops; each op is one `sdom` command on
one generated config.  The seed picks bank seeds, bank entries and
kernel parameters and nothing else, and only where the cost of an op
does not depend on them, so every seed does the same work.  `tiny=True` shrinks
every grid for the benchmark's own tests; the checked-in reference only
covers full-size runs.

This module imports nothing outside the standard library, so the
launcher can validate a workload name before any numerical code loads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    """One `sdom <command> --config <config>` call.

    ``sparse`` marks the spike and indicator inputs of `dominate-1d`,
    whose summed time is reported on its own as `dominate_sparse_s`.
    """

    name: str
    command: str
    config: dict
    sparse: bool = False


def _grid(n: int, L: int, side: float = 8.0) -> dict:
    return {"n": n, "L": L, "origin": [0.0] * n, "side": side}


def _bank_input(rng: random.Random, shape: str) -> dict:
    return {"kind": "bank", "shape": shape, "seed": rng.randrange(1 << 31), "entry": rng.randrange(1000)}


def _dini(rng: random.Random, m: int) -> dict:
    return {
        "variant": "dini_synthetic",
        "m": m,
        "modulus": {
            "kind": rng.choice(["power", "log"]),
            "c": round(rng.uniform(0.5, 2.0), 4),
            "eps": round(rng.uniform(0.3, 1.0), 4),
        },
        "amplitude": round(rng.uniform(0.5, 2.0), 4),
    }


def _dominate_1d(rng: random.Random, tiny: bool) -> list:
    """Bilinear odd kernel at L=9: dense inputs once per (shape, r),
    sparse inputs three entries per (shape, r).

    The indicator inputs are the same for every seed: their cost grows
    with their random lengths, and fixing them keeps the work equal
    across seeds.  The seed varies the other inputs, whose cost does
    not depend on their values.
    """
    L = 6 if tiny else 9
    ops = []
    for shape, entries in (("gauss", 1), ("rademacher", 1), ("indicator", 3), ("spike", 3)):
        for r in (1.0, 2.0):
            for k in range(entries):
                if shape == "indicator":
                    inputs = {"kind": "bank", "shape": shape, "seed": 0, "entry": k}
                else:
                    inputs = _bank_input(rng, shape)
                cfg = {
                    "grid": _grid(1, L),
                    "kernel": {"variant": "bilinear_odd", "m": 2},
                    "root": {"level": 2, "index": [1]},
                    "r": r,
                    "inputs": inputs,
                }
                sparse = shape in ("indicator", "spike")
                ops.append(Op(f"dominate-{shape}-r{r:g}-{k}", "dominate", cfg, sparse=sparse))
    return ops


def _regularity_1d(rng: random.Random, tiny: bool) -> list:
    """One `separation` run: kr and h2 of the truncated boundary-log
    kernel for ell = 2, 3, 4 at L=12."""
    cfg = {
        "grid": _grid(1, 5 if tiny else 12),
        "beta": round(rng.uniform(0.5, 2.0), 4),
        "r": 2.0,
        "delta": 1.0,
        "ells": [0, 1] if tiny else [2, 3, 4],
        "pair_depth": 2,
        "max_pairs": 6,
    }
    return [Op("separation", "separation", cfg)]


def _mixed_2d_t2(rng: random.Random, tiny: bool) -> list:
    """Every layer reached the other way round: m=2 estimators, 2-D
    geometry, full-domain and all-cubes grand maximal, weights."""
    d = 3 if tiny else 0  # levels removed in tiny mode
    r_est = round(rng.uniform(1.5, 3.0), 4)
    bilinear = {"variant": "bilinear_odd", "m": 2}
    plan_1d = {"levels": [2, 3], "pair_depth": 2, "max_pairs": 3}
    ops = [
        Op("kr-bilinear", "kr", {"grid": _grid(1, 8 - d), "kernel": bilinear, "r": r_est, "plan": plan_1d}),
        Op(
            "h2-bilinear",
            "h2",
            {"grid": _grid(1, 8 - d), "kernel": bilinear, "r": r_est, "delta": 1.0, "plan": plan_1d},
        ),
        Op(
            "kr-dini-2d",
            "kr",
            {
                "grid": _grid(2, 6 - d),
                "kernel": _dini(rng, 1),
                "r": 2.0,
                "plan": {"levels": [1, 2], "pair_depth": 1, "max_pairs": 3},
            },
        ),
    ]
    for m, L, r, shape in ((1, 6, 1.0, "gauss"), (2, 5, 2.0, "rademacher")):
        cfg = {
            "grid": _grid(2, L - d),
            "kernel": _dini(rng, m),
            "root": {"level": 2, "index": [1, 1]},
            "r": r,
            "inputs": _bank_input(rng, shape),
        }
        ops.append(Op(f"dominate-dini-2d-m{m}", "dominate", cfg))
    ops.append(
        Op(
            "maximal-grand-2d-dyadic",
            "maximal",
            {
                "grid": _grid(2, 5 - d),
                "op": "grand",
                "mode": "dyadic",
                "kernel": _dini(rng, 1),
                "inputs": _bank_input(rng, "gauss"),
            },
        )
    )
    ops.append(
        Op(
            "maximal-grand-1d-all",
            "maximal",
            {
                "grid": _grid(1, 5 - d),
                "op": "grand",
                "mode": "all",
                "kernel": bilinear,
                "inputs": _bank_input(rng, "gauss"),
            },
        )
    )
    # the boundary-log kernel translates by about 4, so the domain is
    # [0, 14) to keep both sides of its support on the grid
    ops.append(
        Op(
            "weights-mpt",
            "weights",
            {
                "grid": _grid(1, 9 - d, side=14.0),
                "kernel": {"variant": "mpt", "m": 1, "beta": round(rng.uniform(0.5, 2.0), 4), "r": 2.0},
                "r": 1.0,
                "mode": "all",
                "weights": [{"kind": "power", "exponent": round(rng.uniform(-0.5, 0.5), 4)}],
                "exponents": [round(rng.uniform(1.5, 3.0), 4)],
                "bank": {
                    "shapes": ["spike", "gauss", "rademacher"],
                    "count_per_shape": 2,
                    "seed": rng.randrange(1 << 31),
                },
            },
        )
    )
    return ops


# name -> (worker threads, op generator)
WORKLOADS = {
    "dominate-1d": (1, _dominate_1d),
    "regularity-1d": (1, _regularity_1d),
    "mixed-2d-t2": (2, _mixed_2d_t2),
}


def threads(workload: str) -> int:
    return WORKLOADS[workload][0]


def make_ops(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's ops for ``seed``; equal seeds give equal ops."""
    _, gen = WORKLOADS[workload]
    return gen(random.Random(f"{workload}:{seed}"), tiny)


def refused_config(op: Op) -> dict:
    """A copy of the op's config with one field out of range.

    The CLI parses every field of a config before it refuses it, so
    running this copy costs exactly the validation of the real one.
    """
    cfg = dict(op.config)
    if op.command == "maximal":
        cfg["mode"] = "no-such-family"
    else:
        cfg["r"] = 0.5
    return cfg
