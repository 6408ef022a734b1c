"""Tests of the benchmark itself: seeded inputs, the oracle, the digest
gate and the task time limit.  Run from the root of the checkout:

    python3 -m pytest perfbench
"""

import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle     # noqa: E402
import run        # noqa: E402
import speed      # noqa: E402
import tracer     # noqa: E402
import workloads  # noqa: E402


def _files(directory) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("make", [workloads.spinor_tasks,
                                  workloads.quadruple_tasks])
def test_same_seed_same_inputs(tmp_path, make):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    make(str(dirs[0]), 7)
    make(str(dirs[1]), 7)
    make(str(dirs[2]), 8)
    first = _files(dirs[0])
    assert first == _files(dirs[1])
    assert first != _files(dirs[2])


def test_conjugator_is_inverted_exactly():
    import itertools
    for name in workloads.QUADRUPLES:
        for signs in itertools.product((1, -1), repeat=2):
            u, ui = workloads.conjugator(name, signs)
            product = [[sum(u[i][k] * ui[k][j] for k in range(4))
                        for j in range(4)] for i in range(4)]
            assert product == [[int(i == j) for j in range(4)]
                               for i in range(4)]


def _spinor_equiv(tmp_path):
    """A spinor equivalence task with its real CLI output."""
    tasks = workloads.spinor_tasks(str(tmp_path), 3)
    task = next(t for t in tasks if t.kind == "equiv")
    code, stdout, error, _ = run.run_task(run.import_cli(), task.argv, 60)
    assert (code, error) == (0, None)
    return task, json.loads(stdout)


def test_oracle_accepts_the_real_witness(tmp_path):
    task, out = _spinor_equiv(tmp_path)
    assert run.check_output(task, 0, json.dumps(out)) == []


def test_oracle_rejects_a_tampered_witness(tmp_path):
    task, out = _spinor_equiv(tmp_path)
    entries = out["u"]["entries"]
    entries[0][0] = f"({entries[0][0]}) + 1"
    assert run.check_output(task, 0, json.dumps(out))
    _, out = _spinor_equiv(tmp_path)
    out["alpha"] = f"q*({out['alpha']})"
    assert run.check_output(task, 0, json.dumps(out))


def test_oracle_rejects_none_for_an_equivalent_pair(tmp_path):
    tasks = workloads.quadruple_tasks(str(tmp_path), 1)
    none = json.dumps({"equivalent": False, "u": None})
    must = [t for t in tasks if t.kind == "equiv" and t.expect]
    free = [t for t in tasks if t.kind == "equiv" and not t.expect]
    # per sign pattern: each entry with itself, and perturbed-a with
    # perturbed-b both ways
    assert len(must) == 4 * 6 and len(free) == 4 * 10
    assert all(run.check_output(t, 0, none) for t in must)
    assert all(run.check_output(t, 0, none) == [] for t in free)


def test_oracle_rejects_a_wrong_dimension(tmp_path):
    tasks = workloads.quadruple_tasks(str(tmp_path), 1)
    closure = next(t for t in tasks if t.argv[0] == "closure")
    assert closure.expect == 9
    assert run.check_output(closure, 0, json.dumps({"dim": 9})) == []
    assert run.check_output(closure, 0, json.dumps({"dim": 8}))
    assert run.check_output(closure, 2, json.dumps({"dim": 9}))
    tasks = workloads.spinor_tasks(str(tmp_path), 1)
    adm = next(t for t in tasks if t.kind == "admissible")
    good = {"admissible": True, "c_space": {"dim": 1}}
    assert run.check_output(adm, 0, json.dumps(good)) == []
    good["c_space"]["dim"] = 2
    assert run.check_output(adm, 0, json.dumps(good))


@pytest.fixture(scope="module")
def catalog_json():
    code, stdout, error, _ = run.run_task(
        run.import_cli(), ("verify-catalog", "--format", "json"), 120)
    assert error is None
    return code, stdout


def test_catalog_digest_gate(catalog_json):
    code, stdout = catalog_json
    assert oracle.check_catalog("json", code, stdout) == []
    assert oracle.check_catalog("json", 0, stdout)
    changed = stdout.replace('"q0": "2"', '"q0": "2" ', 1)
    assert changed != stdout
    assert oracle.check_catalog("json", code, changed)


def test_changed_report_fails_the_run(catalog_json):
    code, stdout = catalog_json
    tasks = workloads.catalog_tasks()
    ledger = run.Ledger()
    ledger.record(0, code, stdout, None, 1.0)
    assert ledger.failures(tasks) == []
    ledger.record(0, code, stdout + "\n", None, 1.0)
    assert ledger.failures(tasks)


def test_task_limit_counts_a_hang_as_failed():
    class Hanging:
        @staticmethod
        def main(argv):
            time.sleep(10)
            return 0

    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        start = time.perf_counter()
        code, _, error, elapsed = run.run_task(Hanging, ("x",), 0.2)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert code is None and "task limit" in error
    assert elapsed < 5 and time.perf_counter() - start < 5


def test_speed_sampler_scales_by_the_kernel_time():
    sampler = speed.Sampler()
    with pytest.raises(RuntimeError):
        sampler.scale()
    sampler.start()
    try:
        deadline = time.perf_counter() + 5
        while len(sampler.samples) < 5 and time.perf_counter() < deadline:
            sum(i * i for i in range(1000))
    finally:
        sampler.stop()
    samples = list(sampler.samples)
    assert len(samples) >= 5 and sampler.spent >= sum(samples)
    assert sampler.scale() == pytest.approx(
        speed.REF_KERNEL_S * sum(1 / s for s in samples) / len(samples))
    assert sampler.scale(len(samples) - 1) == pytest.approx(
        speed.REF_KERNEL_S / samples[-1])
    assert signal.getsignal(signal.SIGPROF) is not sampler._sample


def test_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == \
        list(run.END_TO_END_UNITS)
    per_layer = tracer.metric_names() + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert list(tracer.Tracer().metrics()) == per_layer[:-1]
    assert all(m["unit"] == run.unit_of(m["name"])
               for m in spec["end_to_end"] + spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
