"""Tests of the benchmark itself: generators, reference, oracle, trace and determinism.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = run.ROOT
CLI = run.import_program()


@pytest.fixture
def work_dir(request):
    path = os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}-{request.node.name}")
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _small(name, seed=3):
    ref = oracle.load_reference(ROOT)
    if name == "corpus":
        return workloads.corpus(ref)
    if name == "scaled":
        return workloads.scaled(ref, seed, n=3)
    return workloads.rules(seed, n_files=len(workloads.RULE_FAULTS) + 2, per_template=1)


def _snapshot(workload):
    return [
        (f.name, f.text, f.reject, f.parse_reject, f.outputs, f.diagnostics) for f in workload.files
    ]


@pytest.mark.parametrize("name", ["scaled", "rules"])
def test_generators_are_deterministic_per_seed(name):
    assert _snapshot(_small(name, 11)) == _snapshot(_small(name, 11))
    assert _snapshot(_small(name, 11)) != _snapshot(_small(name, 12))


def test_rules_carry_each_fault_once():
    wl = workloads.rules(5)
    codes = sorted(f.reject for f in wl.files if f.reject)
    assert codes == sorted(code for code, _, _ in workloads.RULE_FAULTS)
    assert wl.size()["faulty_files"] == len(workloads.RULE_FAULTS)


def test_reference_contains_the_goldens():
    ref = oracle.load_reference(ROOT)
    goldens = os.listdir(os.path.join(ROOT, "tests", "golden"))
    assert len(goldens) == 7
    for name in goldens:
        tag, target, _ = name.split(".")
        with open(os.path.join(ROOT, "tests", "golden", name), encoding="utf-8") as f:
            assert f.read().rstrip("\n") in ref.outputs[target].split("\n\n")


def test_reference_that_lacks_a_golden_is_refused(work_dir):
    for rel in (("src", "orbi_forge", "corpus"), ("tests", "golden")):
        shutil.copytree(os.path.join(ROOT, *rel), os.path.join(work_dir, *rel))
    oracle.load_reference(work_dir)
    with open(os.path.join(work_dir, "tests", "golden", "de_r.ab.golden"), "w") as f:
        f.write("deq M M.\n")
    with pytest.raises(oracle.ReferenceError):
        oracle.load_reference(work_dir)


def test_scaled_copy_renames_derived_names():
    names = workloads.copy_names("qrst")
    assert names["is_tm"] == "is_" + names["tm"]
    assert names["daG"] == "daqrstG"
    assert names["nil_da"] == "nil_daqrst" and names["cns_xa"] == "cns_xaqrst"


@pytest.mark.parametrize("name", ["corpus", "scaled", "rules"])
def test_program_passes_every_check(name, work_dir):
    h = run.Harness(CLI, _small(name), work_dir)
    h.prepare_fmt()
    h.run_pass()
    assert (h.attempted, h.failed, h.failures) == (len(run.OPS), 0, [])


def test_wrong_reference_is_a_counted_failure(work_dir):
    wl = _small("corpus")
    wl.files[0].outputs["tw"] += "%\n"
    h = run.Harness(CLI, wl, work_dir)
    h.prepare_fmt()
    for _ in range(2):
        h.run_pass()
    assert (h.attempted, h.failed) == (2 * len(run.OPS), 2)
    assert "translate.tw eq.orbi: output differs from the reference" in h.failures


def test_crash_is_a_counted_failure(work_dir):
    deep = "c1 (" * 1000 + "c0" + ")" * 1000
    text = f"{workloads.RULES_SIGNATURE}\n\n%% Rules\nr: j ({deep}) c0.\n"
    wl = workloads.Workload([workloads.InputFile("deep.orbi", text)])
    h = run.Harness(CLI, wl, work_dir)
    r = h.op("check")
    assert r.exc is not None or r.rc != 0
    assert (h.attempted, h.failed) == (1, 1)


def test_trace_reports_every_layer_metric(work_dir):
    h = run.Harness(CLI, _small("corpus"), work_dir)
    detail, metrics = run.traced(h, 0.0)
    assert h.failed == 0
    assert metrics["directives.resolve_calls"]["value"] == 5
    assert metrics["lf.constructors_of_calls"]["value"] == 2  # one wf family, ab and hy
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(metrics) == declared


_PROBE = """
import json, os, sys
sys.path.insert(0, {bench!r})
import oracle, run, spans, workloads
cli = run.import_program()
ref = oracle.load_reference(run.ROOT)
out = {{}}
for name, wl in (("corpus", workloads.corpus(ref)), ("scaled", workloads.scaled(ref, 2, n=3)),
                 ("rules", workloads.rules(2, n_files=9, per_template=1))):
    h = run.Harness(cli, wl, os.path.join({work!r}, name))
    h.prepare_fmt()
    h.run_pass()
    calls = [[run.count_calls(h, op) for op in run.OPS] for _ in range(2)]
    _, layers = run.traced(h, 0.0)
    counts = {{k: v["value"] for k, v in layers.items() if v["unit"] == "count"}}
    out[name] = {{"calls": calls, "counts": counts, "failed": h.failed}}
print(json.dumps(out, sort_keys=True))
"""


def test_counts_repeat_across_passes_and_hash_seeds(work_dir):
    runs = []
    for hash_seed in ("0", "1"):
        sub = os.path.join(work_dir, hash_seed)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        p = subprocess.run(
            [sys.executable, "-c", _PROBE.format(bench=BENCH, work=sub)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        runs.append(json.loads(p.stdout))
    assert runs[0] == runs[1]
    for name, r in runs[0].items():
        assert r["failed"] == 0, name
        assert r["calls"][0] == r["calls"][1], name
