"""Seeded inputs and task lists for the benchmark workloads.

Every input is a catalog entry conjugated by a sparse integer matrix
u = P * E_1 * ... * E_m (P a permutation, each E_t = I + c*e_ij with a
small integer c) and rescaled by monomials q^k, |k| <= MAX_SHIFT.  Since
u and u^-1 are integer matrices, conjugation keeps entries sparse; denser
conjugators with q in every entry have been seen to make single closures
and commutants take minutes, which is a finding about expression swell,
not a load this benchmark means to carry.

The conjugators are fixed per entry (per entry and sign pattern for the
quadruples); the seed draws the exponents k.  Conjugator structure moves
the cost of single tasks by up to 40x, and a seeded structure spread
wall_s by 20% between seeds, more than any change worth measuring.

The expected values below are conjugation invariants taken from the
catalog claims and from the seed report whose bytes the catalog workload
gates on; they never come from the program under test at run time.
"""

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Optional

N = 4
ELEMENTARY_FACTORS = 2
COEFFS = (1, 2)         # sizes of the elementary coefficients
MAX_SHIFT = 2           # |k| of the q^k rescaling; the search covers |k| <= 4

# entry -> (dim B(a), dim B'(a), admissible, dim c-space)
SPINORS = {
    "admissible-a": (4, 4, True, 1),
    "admissible-b": (4, 4, True, 1),
    "admissible-jordan": (2, 2, True, 1),
    "rejected-j3-lower": (1, 1, False, 0),
    "rejected-j3-upper": (1, 1, False, 0),
    "rejected-diag-two-pairs": (2, 2, False, 0),
    "rejected-diag-chain": (3, 3, False, 0),
    "rejected-double-jordan-up": (2, 2, False, 0),
    "rejected-double-jordan-down": (2, 2, False, 0),
    "rejected-jordan-diag-generic": (1, 1, False, 0),
    "rejected-shifted-diag": (2, 2, False, 1),
    "rejected-jordan-diag-top": (2, 2, False, 0),
    "rejected-jordan-diag-unit": (2, 2, False, 0),
}

# gl2 entry -> (single-mode closure dim, centralizer dim); both are
# invariant under conjugation and per-column rescaling
QUADRUPLES = {
    "perturbed-a": (9, 1),
    "perturbed-b": (9, 1),
    "triangular-dim8": (6, 3),
    "diagonal-dim3": (3, 6),
}

# pairs the search must connect: each entry with itself, and the two
# perturbed entries with each other (the known criterion-7 finding)
KNOWN_EQUIVALENT = {frozenset(("perturbed-a", "perturbed-b"))}


@dataclass(frozen=True)
class Task:
    """One CLI call and what its output must show.

    kind selects the check: "catalog" (expect is the output format,
    checked against the seed report), "dim" (field "dim" of the JSON
    output equals expect), "admissible" (expect = (verdict, c-space dim))
    or "equiv" (expect = True when a witness must be found, False when
    "none" is acceptable because the closure dimensions differ).  For
    "equiv", first and second are rep files holding the two reps compared,
    in argv order; the first is the catalog entry named in argv.
    """

    argv: tuple
    kind: str
    expect: object
    first: Optional[str] = None
    second: Optional[str] = None


def conjugator(name: str, signs: tuple):
    """A unimodular integer matrix and its inverse, as row lists.

    The permutation, the positions of the elementary factors and the sizes
    of their coefficients are drawn from a fixed key per entry; `signs`
    gives the sign of each coefficient.
    """
    fixed = random.Random(f"conjugator/{name}")
    perm = list(range(N))
    fixed.shuffle(perm)
    u = [[1 if perm[i] == j else 0 for j in range(N)] for i in range(N)]
    ui = [[u[j][i] for j in range(N)] for i in range(N)]
    for sign in signs:
        i, j = fixed.sample(range(N), 2)
        c = fixed.choice(COEFFS) * sign
        # u <- u * (I + c e_ij): column j gains c * column i
        for r in range(N):
            u[r][j] += c * u[r][i]
        # ui <- (I - c e_ij) * ui: row i loses c * row j
        ui[i] = [x - c * y for x, y in zip(ui[i], ui[j])]
    return u, ui


def _conjugate(m, u, ui, shift: int):
    from qgl2.matrices import Mat
    from qgl2.scalars import Q
    return (Mat(u) * m * Mat(ui)).scale(Q ** shift)


def catalog_tasks() -> list:
    """verify-catalog on all entries, once per output format; rounds of
    the catalog workload alternate between the two."""
    return [Task(("verify-catalog", "--format", "json"), "catalog", "json"),
            Task(("verify-catalog",), "catalog", "table")]


def _rep_json(rep) -> dict:
    fields = ("a", "b") if hasattr(rep, "a") else ("c11", "c12", "c21", "c22")
    return {key: getattr(rep, key).to_json() for key in fields}


def _write(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def spinor_tasks(workdir: str, seed: int) -> list:
    """Write one conjugated, rescaled copy of every q-spinor entry and
    return the four tasks run on each."""
    from qgl2.catalog import instantiate
    rng = random.Random(f"conjugated-spinors/{seed}")
    tasks = []
    for name, (dim, dim_rev, adm, cdim) in SPINORS.items():
        rep = instantiate(name)
        u, ui = conjugator(name, (1,) * ELEMENTARY_FACTORS)
        k = rng.randint(-MAX_SHIFT, MAX_SHIFT)
        a = _conjugate(rep.a, u, ui, k)
        b = _conjugate(rep.b, u, ui, k)
        base = os.path.join(workdir, name)
        forig = _write(base + ".orig.json", _rep_json(rep))
        fa = _write(base + ".a.json", a.to_json())
        fb = _write(base + ".b.json", b.to_json())
        frep = _write(base + ".rep.json",
                      {"a": a.to_json(), "b": b.to_json()})
        tasks += [
            Task(("commutant", fa, "--format", "json"), "dim", dim),
            Task(("commutant", fa, "--reverse", "--format", "json"),
                 "dim", dim_rev),
            Task(("admissible", fa, fb, "--format", "json"),
                 "admissible", (adm, cdim)),
            Task(("equiv", name, frep, "--format", "json"), "equiv", True,
                 first=forig, second=frep),
        ]
    return tasks


def quadruple_tasks(workdir: str, seed: int) -> list:
    """Write conjugated, column-rescaled copies of every gl2 entry, one per
    sign pattern of the conjugator, and return their closure, centralizer
    and equivalence tasks.

    The sign pattern moves the cost of a closure by up to a quarter
    (0.41 s against 0.55 s for perturbed-a), so every pattern is present
    in every run and the seed draws only the rescaling exponents.
    """
    from qgl2.catalog import instantiate
    rng = random.Random(f"conjugated-quadruples/{seed}")
    originals = {name: _write(os.path.join(workdir, name + ".orig.json"),
                              _rep_json(instantiate(name)))
                 for name in QUADRUPLES}
    tasks = []
    for name, (dim_alg, dim_inv) in QUADRUPLES.items():
        rep = instantiate(name)
        for variant, signs in enumerate(
                itertools.product((1, -1), repeat=ELEMENTARY_FACTORS)):
            u, ui = conjugator(name, signs)
            k1 = rng.randint(-MAX_SHIFT, MAX_SHIFT)
            k2 = rng.randint(-MAX_SHIFT, MAX_SHIFT)
            mats = {
                "c11": _conjugate(rep.c11, u, ui, k1),
                "c21": _conjugate(rep.c21, u, ui, k1),
                "c12": _conjugate(rep.c12, u, ui, k2),
                "c22": _conjugate(rep.c22, u, ui, k2),
                "detq_inv": _conjugate(rep.detq().inverse(), u, ui,
                                       -k1 - k2),
            }
            base = os.path.join(workdir, f"{name}.{variant}")
            files = [_write(f"{base}.{key}.json", m.to_json())
                     for key, m in mats.items()]
            frep = _write(base + ".rep.json", {
                key: mats[key].to_json()
                for key in ("c11", "c12", "c21", "c22")})
            tasks += [
                Task(("closure", *files, "--format", "json"), "dim",
                     dim_alg),
                Task(("centralizer", *files, "--format", "json"), "dim",
                     dim_inv),
            ]
            for other, (other_alg, _) in QUADRUPLES.items():
                must = other == name or \
                    frozenset((name, other)) in KNOWN_EQUIVALENT
                # "none" is acceptable only where closure dimensions
                # prove it
                if not must and other_alg == dim_alg:
                    raise AssertionError(f"unresolved pair {name}/{other}")
                tasks.append(Task(("equiv", other, frep, "--format", "json"),
                                  "equiv", must, first=originals[other],
                                  second=frep))
    return tasks
