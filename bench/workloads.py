"""Seeded job lists for the benchmark's four workloads.

A job is one CLI invocation of ``involab`` (or one library call of
``fgenus.H``, the only entry point the CLI cannot reach). Every input a
job needs is written to a file under the run's work directory before
timing starts, so the program receives only files and arguments.

The seed chooses the random structure inside each stratum (vertex
labels, edges, matrix entries, sampled genera) while the strata
themselves are fixed. Cost per stratum then hardly depends on the seed,
which keeps end-to-end figures comparable across seeds. No generated
instance is ever dropped or re-drawn because it is slow.

This module does not import ``involab``: it only writes inputs and
records what the oracles need to check the outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from oracles import gf2_rank


@dataclass
class Job:
    """One timed unit of work.

    ``argv`` is passed to ``involab.cli.main``; an empty ``argv`` means
    the library call ``fgenus.H(data["g"])``. ``oracle`` names the check
    in ``oracles.CHECKS`` and ``data`` carries its inputs.
    """

    stratum: str
    argv: tuple[str, ...]
    oracle: str
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random, Path], list[Job]]


def _write_complex(path: Path, m: int, facets: list[tuple[int, ...]]) -> None:
    lines = [str(m)] + [" ".join(map(str, f)) for f in facets]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cycle(order: list[int]) -> list[tuple[int, ...]]:
    k = len(order)
    return [tuple(sorted((order[i], order[(i + 1) % k]))) for i in range(k)]


def _distinct(rng: random.Random, m: int, size: int, count: int) -> list[tuple[int, ...]]:
    """``count`` distinct random ``size``-subsets of 1..m, in draw order."""
    seen: set[tuple[int, ...]] = set()
    out = []
    while len(out) < count:
        s = tuple(sorted(rng.sample(range(1, m + 1), size)))
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def _complex_job(
    workdir: Path, index: int, stratum: str, argv_head: list[str], oracle: str,
    m: int, facets: list[tuple[int, ...]], **extra,
) -> Job:
    path = workdir / f"{index:05d}.txt"
    _write_complex(path, m, facets)
    argv = tuple(argv_head[:1] + ["--complex", str(path)] + argv_head[1:])
    return Job(stratum, argv, oracle, {"m": m, "facets": facets, **extra})


# surface: (kind, m, count). Polygons take build -> verify -> orient ->
# genus; ghost polygons verify fully but are disconnected; random graphs
# fail the link check; a triangle lifts cells to dimension 3, so the
# report returns after the build.
#
# Passes are kept short (about 3.5 s on a 2-vCPU VM) so that a 30 s run
# times each job several times. The strata are sized so that the median
# falls among the triangle complexes at m=12 and the tail percentile
# among the ghost polygons, never on the edge between two strata.
SURFACE_STRATA = [
    ("polygon", 11, 2),
    ("ghost", 11, 9),
    ("graph", 11, 3),
    ("triangle", 11, 16), ("triangle", 12, 10), ("triangle", 13, 4), ("triangle", 14, 2),
]


def surface_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for kind, m, count in SURFACE_STRATA:
        for _ in range(count):
            order = list(range(1, m + 1))
            rng.shuffle(order)
            if kind == "polygon":
                facets = _cycle(order)
            elif kind == "ghost":
                facets = _cycle(order[2:])  # two vertices in no face at all
            elif kind == "graph":
                facets = [(v,) for v in range(1, m + 1)] + _distinct(rng, m, 2, m + 2)
            else:
                facets = _cycle(order) + [tuple(sorted(order[:3]))]
            jobs.append(_complex_job(
                workdir, len(jobs), f"{kind}-m{m}", ["rzk"], "surface", m, facets))
    return jobs


# free-rank: polygons reach rank m-2 on the first descent; sparse random
# complexes (three triangles plus m edges) have a branch-and-bound cost
# that is heavy-tailed in the vertex labelling, and they set the tail.
FREE_RANK_POLYGONS = range(12, 21)
FREE_RANK_SPARSE = [(12, 900), (13, 180)]


def free_rank_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    head = ["free-rank", "--witness", "--json"]
    for m in FREE_RANK_POLYGONS:
        order = list(range(1, m + 1))
        rng.shuffle(order)
        jobs.append(_complex_job(
            workdir, len(jobs), f"polygon-m{m}", head, "free_rank", m,
            _cycle(order), polygon=True))
    for m, count in FREE_RANK_SPARSE:
        for _ in range(count):
            facets = _distinct(rng, m, 3, 3) + _distinct(rng, m, 2, m)
            jobs.append(_complex_job(
                workdir, len(jobs), f"sparse-m{m}", head, "free_rank", m,
                facets, polygon=False))
    return jobs


def _random_phi(
    rng: random.Random, n: int, d: int, rank: int, w: int, w_in_rowspace: bool | None
) -> list[int]:
    """A random n x d matrix of the given rank, with the orientation
    character w inside or outside its row space as asked (None: either)."""
    while True:
        rows = [rng.getrandbits(d) for _ in range(rank)]
        if gf2_rank(rows) != rank:
            continue
        if w_in_rowspace is not None and (gf2_rank(rows + [w]) == rank) != w_in_rowspace:
            continue
        for _ in range(n - rank):  # dependent rows: random sums of the others
            acc = 0
            for r in rows[:rank]:
                if rng.getrandbits(1):
                    acc ^= r
            rows.append(acc)
        rng.shuffle(rows)
        return rows


# cover: (n, count). Each stratum cycles through six kinds: base
# orientable or not, phi onto or not, and over a nonorientable base a
# cover that is orientable (w in the row space) or not. The median falls
# among the n=10 covers of nonorientable bases and the tail percentile
# among those of orientable bases; n=12 supplies the largest covers.
COVER_STRATA = [(8, 24), (10, 24), (12, 6)]
COVER_KINDS = [
    (True, True, None), (True, False, None),
    (False, True, True), (False, True, False),
    (False, False, True), (False, False, False),
]


def cover_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for n, count in COVER_STRATA:
        for k in range(count):
            base_orientable, onto, w_in = COVER_KINDS[k % len(COVER_KINDS)]
            genus = n // 2 + 1 if base_orientable else n + 2
            d = 2 * genus if base_orientable else genus
            w = 0 if base_orientable else (1 << d) - 1
            rank = n if onto else n - 1 - rng.randrange(2)
            rows = _random_phi(rng, n, d, rank, w, w_in)
            path = workdir / f"{len(jobs):05d}.txt"
            path.write_text(
                "".join(" ".join(str((r >> i) & 1) for i in range(d)) + "\n" for r in rows),
                encoding="utf-8",
            )
            argv = ("cover", "--orientable", "true" if base_orientable else "false",
                    "--genus", str(genus), "--phi", str(path))
            stratum = f"n{n}-{'orientable' if base_orientable else 'nonorientable'}-base"
            jobs.append(Job(stratum, argv, "cover", {
                "orientable": base_orientable, "genus": genus, "rows": rows}))
    return jobs


# envelope: a few figure tables, f --exact on sampled genera, and H on
# log-spaced genera up to 1e26.
#
# H raises CrossCheckError from about g = 1e27 on. That crash is the one
# known defect. Calls of H on genera from 1e26 to 1e30 are not timed
# jobs, since every timed job must succeed: each run probes them once,
# before timing, and reports how many raised. There the known crash is
# allowed; a wrong value or any other crash makes the run incorrect, as
# does any failure of a timed job.
KNOWN_DEFECT = ("H", "CrossCheckError: lambert_w failed to converge", 10**26)
FIGURE_TABLES = [(2000, 2), (300, 12)]  # (gmax, count)
F_SMALL, F_LARGE = 100, 100
H_POINTS = 100
H_MAX_EXPONENT = 26
PROBE_POINTS = 16
PROBE_EXPONENTS = (26, 30)


def envelope_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for base, count in FIGURE_TABLES:
        for _ in range(count):
            gmax = base + rng.randrange(base // 40)
            jobs.append(Job(f"figure-{base}", ("figure", "--gmax", str(gmax), "--threads", "1"),
                            "figure", {"gmax": gmax}))
    genera = [rng.randrange(3000) for _ in range(F_SMALL)]
    genera += [int(10 ** rng.uniform(3, 15)) for _ in range(F_LARGE)]
    for g in genera:
        jobs.append(Job("f-exact", ("f", "--g", str(g), "--exact"), "f_exact", {"g": g}))
    for i in range(H_POINTS):
        g = int(10 ** (H_MAX_EXPONENT * (i + rng.random()) / H_POINTS))
        jobs.append(Job("H", (), "H", {"g": g}))
    return jobs


def known_defect_probes(name: str, seed: int) -> list[Job]:
    """The untimed calls of workload ``name`` that may hit the known
    defect: H on log-spaced genera from 1e26 to 1e30 for ``envelope``."""
    if name != "envelope":
        return []
    rng = random.Random(f"{name}-probes:{seed}")
    lo, hi = PROBE_EXPONENTS
    return [Job("H", (), "H", {"g": int(10 ** (lo + (hi - lo) * (i + rng.random()) / PROBE_POINTS))})
            for i in range(PROBE_POINTS)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("surface", surface_jobs),
        Workload("free-rank", free_rank_jobs),
        Workload("cover", cover_jobs),
        Workload("envelope", envelope_jobs),
    )
}


def known_defect(job: Job, failure: str) -> bool:
    """Whether ``failure`` of ``job`` is the known H crash at large g."""
    stratum, message, g_min = KNOWN_DEFECT
    return job.stratum == stratum and failure.startswith(message) and job.data["g"] >= g_min


def generate(name: str, seed: int, workdir: Path) -> list[Job]:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``
    and return its jobs in a seeded order."""
    rng = random.Random(f"{name}:{seed}")
    jobs = WORKLOADS[name].generate(rng, workdir)
    rng.shuffle(jobs)
    return jobs
