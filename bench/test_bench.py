"""Self-tests of the benchmark: seeded inputs, oracles, determinism, tracing.

Run with ``python -m pytest bench``. Every program output used here comes
from the real CLI on small inputs; the corrupted variants must each be
counted as a failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import tracing
import workloads
from workloads import Job

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from involab import cli, fgenus  # noqa: E402  (needs the path above)


def _cli(job: Job) -> str:
    elapsed, out, failure = run.run_job(job, cli, fgenus)
    assert failure is None, failure
    return out


def _complex_job(tmp_path: Path, head: list[str], oracle: str, m: int, facets, **extra) -> Job:
    return workloads._complex_job(tmp_path, 0, "test", head, oracle, m, facets, **extra)


def _assert_counted_as_failure(job: Job, good: str, bad: str) -> str:
    verdicts = run.judge([job, job], [good, bad], [None, None])
    assert verdicts[0] is None, verdicts[0]
    assert verdicts[1] is not None
    return verdicts[1]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(tmp_path, name):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    jobs_a = workloads.generate(name, 7, a)
    jobs_b = workloads.generate(name, 7, b)
    jobs_c = workloads.generate(name, 8, c)
    strip = lambda jobs, d: [(j.stratum, [x.replace(str(d), "") for x in j.argv], j.data)
                             for j in jobs]
    assert strip(jobs_a, a) == strip(jobs_b, b)
    assert strip(jobs_a, a) != strip(jobs_c, c)
    assert [p.read_bytes() for p in sorted(a.iterdir())] == [
        p.read_bytes() for p in sorted(b.iterdir())]


def test_surface_oracle_rejects_a_wrong_genus(tmp_path):
    job = _complex_job(tmp_path, ["rzk"], "surface", 6, workloads._cycle([1, 3, 5, 2, 4, 6]))
    good = _cli(job)
    report = json.loads(good)
    assert report["genus"] == 1 + 2 ** 3 * 2
    bad = json.dumps({**report, "genus": report["genus"] + 1})
    _assert_counted_as_failure(job, good, bad)


def test_surface_oracle_knows_which_complexes_are_closed(tmp_path):
    ghost = _complex_job(tmp_path, ["rzk"], "surface", 6, workloads._cycle([1, 2, 3, 4]))
    assert not oracles.closed_surface(ghost.data)
    assert oracles.check(ghost, _cli(ghost)) is None
    triangle = _complex_job(tmp_path, ["rzk"], "surface", 5,
                            workloads._cycle([1, 2, 3, 4, 5]) + [(1, 2, 3)])
    assert oracles.check(triangle, _cli(triangle)) is None


def test_free_rank_oracle_rejects_a_witness_with_a_face_in_its_span(tmp_path):
    head = ["free-rank", "--witness", "--json"]
    job = _complex_job(tmp_path, head, "free_rank", 7, workloads._cycle(list(range(1, 8))),
                       polygon=True)
    good = _cli(job)
    assert json.loads(good)["rank"] == 5
    bad = json.dumps({"rank": 2, "basis": [[1, 3], [2, 3]]})  # {1,3} + {2,3} = edge {1,2}
    assert "is a face" in _assert_counted_as_failure(job, good, bad)


def test_free_rank_oracle_rejects_a_rank_below_an_attained_bound(tmp_path):
    head = ["free-rank", "--witness", "--json"]
    facets = [(1, 2, 3), (2, 5, 6), (4, 7, 8)] + workloads._cycle(list(range(1, 9)))
    job = _complex_job(tmp_path, head, "free_rank", 8, facets, polygon=False)
    good = _cli(job)
    report = json.loads(good)
    assert report["rank"] == 8 - 2 - 1
    for bad in ({"rank": 0, "basis": []},
                {"rank": report["rank"] - 1, "basis": report["basis"][1:]}):
        assert "attains" in _assert_counted_as_failure(job, good, json.dumps(bad))


def test_free_rank_oracle_rejects_a_witness_that_is_not_maximal(tmp_path):
    head = ["free-rank", "--witness", "--json"]
    k4 = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]  # not 3-colourable
    job = _complex_job(tmp_path, head, "free_rank", 4, k4, polygon=False)
    assert not oracles.bound_attained(4, oracles.face_set(4, k4), 1)
    good = _cli(job)
    assert json.loads(good)["rank"] == 1
    bad = json.dumps({"rank": 0, "basis": []})
    assert "not maximal" in _assert_counted_as_failure(job, good, bad)


def test_cover_oracle_rejects_a_wrong_component_count(tmp_path):
    path = tmp_path / "phi.txt"
    path.write_text("1 1 0 0\n0 1 1 0\n1 0 1 0\n", encoding="utf-8")  # rank 2: 2 components
    job = Job("test", ("cover", "--orientable", "false", "--genus", "4", "--phi", str(path)),
              "cover", {"orientable": False, "genus": 4, "rows": [0b0011, 0b0110, 0b0101]})
    good = _cli(job)
    assert json.loads(good)["components"] == 2
    bad = json.dumps({**json.loads(good), "components": 1})
    _assert_counted_as_failure(job, good, bad)


def test_envelope_oracles_reject_a_perturbed_H():
    job = Job("H", (), "H", {"g": 100})
    good = _cli(job)
    bad = repr(float(good) * (1 + 1e-9)) + "\n"
    _assert_counted_as_failure(job, good, bad)

    figure = Job("figure", ("figure", "--gmax", "20", "--threads", "1"), "figure", {"gmax": 20})
    good = _cli(figure)
    lines = good.split("\n")
    cells = lines[3].split(",")
    cells[4] = f"{float(cells[4]) + 1e-6:.9f}"
    bad = "\n".join(lines[:3] + [",".join(cells)] + lines[4:])
    _assert_counted_as_failure(figure, good, bad)


def test_f_exact_oracle_checks_bounds_and_certificate():
    job = Job("f-exact", ("f", "--g", "2", "--exact"), "f_exact", {"g": 2})
    good = _cli(job)
    report = json.loads(good)
    assert report["certificate"] is not None
    _assert_counted_as_failure(job, good, json.dumps({**report, "f_exact": 2}))
    cert = report["certificate"]
    wrong_cover = {**cert, "cover": {**cert["cover"], "genus": 3}}
    _assert_counted_as_failure(job, good, json.dumps({**report, "certificate": wrong_cover}))


def test_unreadable_output_is_a_failure():
    job = Job("H", (), "H", {"g": 5})
    assert oracles.check(job, "") is not None


def test_only_the_known_H_crash_is_exempt():
    job = Job("H", (), "H", {"g": 10**30})
    elapsed, out, failure = run.run_job(job, cli, fgenus)
    assert failure.startswith("CrossCheckError")
    assert run.judge([job], [out], [failure]) == [failure]
    assert workloads.known_defect(job, failure)
    assert not workloads.known_defect(Job("H", (), "H", {"g": 10**20}), failure)
    assert not workloads.known_defect(Job("f-exact", (), "f_exact", {"g": 10**30}), failure)
    assert not workloads.known_defect(job, "ValueError: boom")


def _measure_with(monkeypatch, tmp_path, make_jobs, probes=()) -> tuple[dict, dict]:
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run.workloads, "generate", lambda name, seed, workdir: make_jobs(workdir))
    monkeypatch.setattr(run.workloads, "known_defect_probes", lambda name, seed: list(probes))
    return run.measure("test", 1, 0.0, False)


def test_envelope_times_no_call_that_hits_the_known_defect(tmp_path):
    g_min = workloads.KNOWN_DEFECT[2]
    timed = [j.data["g"] for j in workloads.generate("envelope", 1, tmp_path) if j.stratum == "H"]
    probed = [j.data["g"] for j in workloads.known_defect_probes("envelope", 1)]
    assert timed and max(timed) < g_min
    assert probed and min(probed) >= g_min and max(probed) >= 10**29
    assert workloads.known_defect_probes("surface", 1) == []


def test_a_crash_outside_the_known_defect_makes_the_run_incorrect(monkeypatch, tmp_path):
    known = Job("H", (), "H", {"g": 10**30})
    fine = Job("H", (), "H", {"g": 100})
    info, result = _measure_with(monkeypatch, tmp_path, lambda workdir: [fine], [known, fine])
    assert result["correct"] and result["failed"] == 0
    assert info["known_defect"] == {"probed": 2, "raised": 1, "smallest_g": 10**30}

    # Timed jobs have no exemption: the known crash there is a failure.
    info, result = _measure_with(monkeypatch, tmp_path, lambda workdir: [known, fine])
    assert not result["correct"] and result["failed"] == 2  # in both passes

    def crashing(workdir):
        missing = workdir / "missing.txt"
        square = {"m": 4, "facets": workloads._cycle([1, 2, 3, 4])}
        return Job("rzk", ("rzk", "--complex", str(missing)), "surface", square)

    info, result = _measure_with(monkeypatch, tmp_path, lambda workdir: [fine, crashing(workdir)])
    assert not result["correct"] and result["failed"] == 2

    # A probe that fails for another reason than the known defect.
    info, result = _measure_with(monkeypatch, tmp_path, lambda workdir: [fine],
                                 [known, crashing(tmp_path)])
    assert not result["correct"] and result["failed"] == 0
    assert info["known_defect"]["raised"] == 1 and info["first_failures"]


def _fresh_stdout(job: Job) -> bytes:
    """The job's stdout from a new interpreter importing the sources under src/."""
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    if job.argv:
        code = "import sys; from involab.cli import main; sys.exit(main(sys.argv[1:]))"
        args = list(job.argv)
    else:
        code = "import sys; from involab import fgenus; print(repr(fgenus.H(int(sys.argv[1]))))"
        args = [str(job.data["g"])]
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, timeout=120, check=True)
    return done.stdout


@pytest.mark.parametrize("name,strata", [
    ("surface", ["triangle-m12", "graph-m11"]),
    ("free-rank", ["sparse-m12", "polygon-m14"]),
    ("cover", ["n8-nonorientable-base"]),
    ("envelope", ["f-exact", "H"]),
])
def test_one_seed_twice_gives_identical_stdout(tmp_path, name, strata):
    jobs = workloads.generate(name, 3, tmp_path)
    for stratum in strata:
        job = next(j for j in jobs if j.stratum == stratum)
        first = _fresh_stdout(job)
        assert first and first == _fresh_stdout(job)
        assert first.decode() == _cli(job)


def test_trace_shows_double_verification_and_restores_the_package():
    import involab.action
    import involab.rzk

    original = involab.rzk.orientability
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert involab.action.orientability is not original
        run.run_job(Job("polygon", ("rzk", "--m", "6"), "surface"), cli, fgenus)
    finally:
        tracing.uninstall(tracer, restore)
    assert involab.rzk.orientability is original
    assert involab.action.orientability is original
    metrics = tracing.layer_metrics(tracer)
    assert metrics["rzk.verify_calls"] == 2
    assert metrics["rzk.orient_calls"] == 1
    assert metrics["rzk.cells"] == 2**6 + 6 * 2**5 + 6 * 2**4
    assert metrics["scomplex.faces"] == 13
    roots = [s for s in tracer.spans if s[2] == -1]
    assert [s[0] for s in roots] == ["cli"]
    assert all(end >= start for _, _, _, start, end in tracer.spans)
