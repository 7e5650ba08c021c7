"""Output checks for one op.

Every op's JSON outputs must satisfy the invariants the CLI promises:
finite numbers, a verified 1/2-sparse family with Carleson sum at most
2 = 1/gamma, no support violation, nonnegative regularity constants.
Against a reference (the default seed only), integers, strings,
booleans and list shapes must match exactly and floats within
``REL_TOL`` relative.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

REL_TOL = 1e-12


def read_outputs(out_dir: str) -> tuple:
    """(parsed JSON outputs by file name, digest of every output file)."""
    docs = {}
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blob = fh.read()
        digest.update(name.encode() + b"\0" + blob + b"\0")
        if name.endswith(".json"):
            docs[name] = json.loads(blob)
    return docs, digest.hexdigest()


def _floats(doc):
    if isinstance(doc, float):
        yield doc
    elif isinstance(doc, dict):
        for v in doc.values():
            yield from _floats(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _floats(v)


def invariant_problems(command: str, docs: dict) -> list:
    """Broken invariants of one op's outputs, as messages."""
    problems = []
    report = docs.get(f"{command}_report.json")
    if report is None:
        return [f"missing {command}_report.json"]
    for name, doc in docs.items():
        if not all(math.isfinite(v) for v in _floats(doc)):
            problems.append(f"{name}: non-finite value")
    res = report["results"]
    if command == "dominate":
        if res["verify"]["ok"] is not True:
            problems.append("family failed sparseness verification")
        if res["domination"]["support_flag"] is not False:
            problems.append("sparse form misses operator output")
        if res["carleson"] > 2.0:
            problems.append(f"Carleson sum {res['carleson']} exceeds 1/gamma = 2")
    elif command in ("kr", "h2") and res["value"] < 0.0:
        problems.append(f"negative {command} constant")
    elif command == "separation":
        for case in res["cases"]:
            if case["kr"] < 0.0 or case["h2"] < 0.0:
                problems.append(f"negative constant at ell={case['ell']}")
    return problems


def compare(got, ref, path="") -> tuple:
    """(mismatch messages, largest relative float deviation)."""
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(ref, bool) or not isinstance(got, (int, float)) \
                or not isinstance(ref, (int, float)):
            return [f"{path}: {got!r} != {ref!r}"], 0.0
        if got == ref:
            return [], 0.0
        dev = abs(got - ref) / abs(ref) if ref != 0.0 else math.inf
        return ([f"{path}: {got!r} != {ref!r}"] if not dev <= REL_TOL else []), dev
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(got) != sorted(ref):
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"], 0.0
        return _merge(compare(got[k], ref[k], f"{path}.{k}") for k in ref)
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return [f"{path}: length {len(got)} != {len(ref)}"], 0.0
        return _merge(compare(g, r, f"{path}[{i}]") for i, (g, r) in enumerate(zip(got, ref)))
    if type(got) is not type(ref) or got != ref:
        return [f"{path}: {got!r} != {ref!r}"], 0.0
    return [], 0.0


def _merge(results) -> tuple:
    problems, worst = [], 0.0
    for p, dev in results:
        problems.extend(p)
        worst = max(worst, dev)
    return problems, worst
