"""Digest of what a source tree's CLI prints on the benchmark's workloads.

    python tools/stdout_digest.py --src PATH/TO/TREE/src --seed N

Generates the inputs of the four workloads for seed N with
``bench/workloads.generate`` (the bench code of this checkout, read but
never changed), runs every job once through that tree's
``involab.cli.main`` (H jobs through its ``fgenus.H``), and prints one
line per workload: its job count and the sha256 of every job's exit
code, stdout and stderr, in job order. Running it on two trees with the
same seed shows whether a change altered any output byte. Further
lines do the same for ``rzk --m 3..20`` in both report formats, for
eight fixed ``cover`` runs at n = 13..16 and eight at n = 17..20 (up to
``MAX_COVER_RANK``, so the largest eliminations are compared too), for
``free-rank --witness --json`` on the complete graphs K_12..K_15 and on
eight complexes of three triangles plus m edges, drawn from the seed, at
each m = 16..20,
sizes that the seeded workloads do not reach, for ``fgenus.H`` on the
seed's untimed known-defect probes
(genera 1e26 to 1e30, each giving a repr or the exception type and
message, so the onset of the defect is compared too), on the line
``H-grid`` for the repr of ``fgenus.H`` on every genus 0..5000, 400
log-spaced ones below 1e26, 200 floats and 100 60-digit mpf quotients
below 1e26 drawn from the seed, and the ints 1e26 - 1, 1e26 and 1e26 + 1
(``figure`` prints H to nine decimals only, so a change in its last bits
shows only here), for ``figure --gmax 5000``, on the line ``f-resolver`` for
``f --g G --exact`` on the 64 genera G = 1 - a 2^(n-1), odd a in
[-13, 1] and 1 <= n <= 2 - a, which are exactly those whose certificate
the resolver builds (``figure`` prints none of them), and, on the line
``errors``, for a fixed set of bad inputs that each end in an error
message and exit code 2 or 3.

Inputs are written under a temporary directory, and jobs name them by a
relative path, so the digests do not depend on where that directory is.

``tests/stdout_digest.txt`` holds this tool's lines for seeds 1 and 7,
each prefixed with its seed, after a first line naming the Python
version that made them; ``tests/test_stdout_digest.py`` compares the
lines of ``src/`` with it. A change that alters output on purpose
regenerates the file from the repository root with

    (python -c 'import platform; print("python", platform.python_version())'
     for s in 1 7; do python tools/stdout_digest.py --src src --seed $s | sed "s/^/$s /"
     done) > tests/stdout_digest.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import random
import sys
import tempfile
from pathlib import Path

import mpmath

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (base orientable, base genus, phi rows as generator bitmasks), n = 13..16
# and 17..20: onto and not, and over nonorientable bases orientable (the
# all-ones character in the row space) and not
E = [1 << r for r in range(20)]
LARGE_COVERS = [
    (True, 7, E[:13]),
    (False, 13, [(1 << 13) - 1] + E[1:13]),
    (False, 15, E[:14]),
    (True, 8, E[:13] + [E[0] ^ E[1]]),
    (False, 16, [(1 << 16) - 1] + E[1:14] + [((1 << 16) - 1) ^ E[1]]),
    (False, 15, E[:14] + [E[0]]),
    (True, 9, E[:16]),
    (False, 18, E[:16]),
]
LARGEST_COVERS = [
    (True, 9, E[:17]),
    (False, 17, [(1 << 17) - 1] + E[1:17]),
    (False, 19, E[:18]),
    (True, 10, E[:17] + [E[0] ^ E[1]]),
    (False, 20, [(1 << 20) - 1] + E[1:18] + [((1 << 20) - 1) ^ E[1]]),
    (False, 19, E[:18] + [E[0]]),
    (True, 10, E[:20]),
    (False, 22, E[:20]),
]


def digest_line(name: str, jobs, cli, fgenus) -> str:
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(repr(run_job(job, cli, fgenus)).encode())
    return f"{name} jobs={len(jobs)} sha256={digest.hexdigest()}"


def run_job(job, cli, fgenus) -> tuple[object, str, str]:
    """(exit code or exception, stdout, stderr) of one job."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if job.argv:
                code = cli.main(list(job.argv))
            else:
                out.write(repr(fgenus.H(job.data["g"])) + "\n")
                code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escape from the program is part of its output
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def large_cover_jobs(Job, covers, prefix: str) -> list:
    jobs = []
    for k, (orientable, genus, rows) in enumerate(covers):
        d = 2 * genus if orientable else genus
        path = Path(f"{prefix}-{k}.txt")
        path.write_text("".join(" ".join(str((r >> i) & 1) for i in range(d)) + "\n"
                                for r in rows), encoding="utf-8")
        jobs.append(Job("large-cover", ("cover", "--orientable", str(orientable).lower(),
                                        "--genus", str(genus), "--phi", str(path)), "cover"))
    return jobs


def large_free_rank_jobs(Job, seed: int) -> list:
    rng = random.Random(f"free-rank-large-{seed}")

    def distinct(m: int, size: int, count: int) -> list[tuple[int, ...]]:
        out: set[tuple[int, ...]] = set()
        while len(out) < count:
            out.add(tuple(sorted(rng.sample(range(1, m + 1), size))))
        return sorted(out)

    inputs = [(m, list(itertools.combinations(range(1, m + 1), 2))) for m in range(12, 16)]
    inputs += [(m, distinct(m, 3, 3) + distinct(m, 2, m)) for m in range(16, 21) for _ in range(8)]
    jobs = []
    for k, (m, facets) in enumerate(inputs):
        path = Path(f"large-free-rank-{k}.txt")
        path.write_text(f"{m}\n" + "".join(" ".join(map(str, f)) + "\n" for f in facets),
                        encoding="utf-8")
        jobs.append(Job("large-free-rank", ("free-rank", "--complex", str(path), "--witness",
                                            "--json"), "free_rank"))
    return jobs


def h_grid_jobs(Job, seed: int) -> list:
    rng = random.Random(f"H-grid-{seed}")
    genera = list(range(5001)) + [int(10 ** (26 * k / 400)) for k in range(400)]
    genera += [10 ** rng.uniform(-3, 25.9) for _ in range(200)]
    with mpmath.workdps(60):
        for _ in range(100):
            q = rng.randrange(1, 10**20)
            genera.append(mpmath.mpf(rng.randrange(min(10**45, q * 10**26))) / q)
    genera += [10**26 - 1, 10**26, 10**26 + 1]
    return [Job("H", (), "H", {"g": g}) for g in genera]


def f_resolver_jobs(Job) -> list:
    genera = [1 - a * (1 << (n - 1)) for a in range(1, -14, -2) for n in range(1, 3 - a)]
    return [Job("f-resolver", ("f", "--g", str(g), "--exact"), "f") for g in genera]


def error_jobs(Job) -> list:
    """Bad inputs, each ending in a one-line error and exit code 2 or 3:
    unreadable and out-of-range complex files, both or neither source,
    m = 2, the free-rank step budget (every triangle on 17 vertices,
    about 1.7 s), the figure cap, a too wide phi row, genus 0 and
    negative genera."""
    Path("not-utf8.txt").write_bytes(b"3\n1 2\xff\n")
    Path("triangles-17.txt").write_text(
        "17\n" + "".join(f"{a} {b} {c}\n" for a, b, c in
                         itertools.combinations(range(1, 18), 3)), encoding="utf-8")
    Path("out-of-range.txt").write_text("3\n1 4\n", encoding="utf-8")
    Path("wide-phi.txt").write_text("1 0 1\n", encoding="utf-8")
    argvs = [
        ("rzk", "--complex", "missing.txt"),
        ("rzk", "--complex", "not-utf8.txt"),
        ("free-rank", "--complex", "not-utf8.txt"),
        ("rzk", "--m", "2"),
        ("rzk", "--complex", "out-of-range.txt"),
        ("rzk", "--m", "5", "--complex", "out-of-range.txt"),
        ("free-rank",),
        ("free-rank", "--complex", "triangles-17.txt"),
        ("cover", "--orientable", "true", "--genus", "1", "--phi", "wide-phi.txt"),
        ("cover", "--orientable", "false", "--genus", "0", "--phi", "wide-phi.txt"),
        ("f", "--g", "-1"),
        ("f", "--g", "-1", "--exact"),
        ("figure", "--gmax", "1000001"),
        ("figure", "--gmax", "-1"),
    ]
    return [Job("error", argv, "error") for argv in argvs]


def digest_lines(seed: int, cli, fgenus, workloads):
    """The digest's lines for one seed, in print order. Inputs are written
    under the working directory."""
    Job = workloads.Job
    for name in workloads.WORKLOADS:
        workdir = Path(name)
        workdir.mkdir()
        yield digest_line(name, workloads.generate(name, seed, workdir), cli, fgenus)
    polygons = [Job("polygon", ("rzk", "--m", str(m), "--report", fmt), "surface")
                for m in range(3, 21) for fmt in ("json", "text")]
    yield digest_line("rzk-m3-20", polygons, cli, fgenus)
    yield digest_line("cover-n13-16", large_cover_jobs(Job, LARGE_COVERS, "large-cover"),
                      cli, fgenus)
    yield digest_line("cover-n17-20", large_cover_jobs(Job, LARGEST_COVERS, "largest-cover"),
                      cli, fgenus)
    yield digest_line("free-rank-large", large_free_rank_jobs(Job, seed), cli, fgenus)
    probes = workloads.known_defect_probes("envelope", seed)
    yield digest_line("H-probes", probes, cli, fgenus)
    yield digest_line("H-grid", h_grid_jobs(Job, seed), cli, fgenus)
    figure = Job("figure", ("figure", "--gmax", "5000"), "figure")
    yield digest_line("figure-5000", [figure], cli, fgenus)
    yield digest_line("f-resolver", f_resolver_jobs(Job), cli, fgenus)
    yield digest_line("errors", error_jobs(Job), cli, fgenus)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the tree's src directory")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    sys.path[:0] = [str(Path(args.src).resolve()), str(BENCH)]
    import workloads
    from involab import cli, fgenus

    if not Path(cli.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"involab was imported from {cli.__file__}, not {args.src}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for line in digest_lines(args.seed, cli, fgenus, workloads):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
