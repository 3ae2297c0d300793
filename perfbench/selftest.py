"""Self-tests of the benchmark itself (not of the program it measures).

Run from the repository root, either way::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The end-to-end checks run every workload, shrunk to a few operations, in a
fresh process per run (a traced run patches ``repro`` for the life of its
process), so the whole file takes a minute or two.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layer_metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Runs a shrunk workload in-process and prints the runner's result line.
#: The sizes only cut the operation counts; every code path stays the same.
SHRUNK_RUN = """
import dataclasses, json, sys, tempfile
from pathlib import Path
sys.path[:0] = [{here!r}, {src!r}]
import run, workloads
with tempfile.TemporaryDirectory(dir={root!r}, prefix=".perfbench_") as work:
    workload = workloads.build({name!r}, Path(work))
    if hasattr(workload, "config"):
        workload.config = dataclasses.replace(
            workload.config, min_batches=6, accuracy_batches=6)
    else:
        workload.min_ops = 4 if {name!r} == "fleet_ingest" else 1
    if {name!r} == "fleet_ingest":
        workload.check_waves = 3
    measure = run.measure_traced if {trace} else run.measure
    values, attempted, failed = measure(workload, {seed}, 0.01)
print(json.dumps({{"values": values, "attempted": attempted, "failed": failed}}))
"""


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _shrunk(name: str, trace: int, seed: int = 3) -> dict:
    code = SHRUNK_RUN.format(
        here=str(HERE), src=str(ROOT / "src"), root=str(ROOT), name=name, trace=trace, seed=seed
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------- BENCHMARK.json
def test_names_units_and_tables_agree():
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    import workloads

    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layer_metrics.PER_LAYER
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert max(m["bound"] for m in bench["end_to_end"]) == setup[0]["bound"] <= 0.25


def test_every_listed_metric_is_emitted_and_outputs_check_clean():
    bench = _benchmark()
    for workload in bench["workloads"]:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = _shrunk(workload["name"], trace)
            assert result["failed"] == 0 and result["attempted"] >= 1, (workload, trace)
            for metric in listed:
                value = result["values"][metric["name"]]
                assert isinstance(value, (int, float)), (workload, metric)
                if trace == 0:
                    assert value != 0, (workload, metric)


def test_same_seed_repeats_accuracies_and_counts():
    first, second = _shrunk("edge_stream", 0), _shrunk("edge_stream", 0)
    assert first["values"]["accuracy"] == second["values"]["accuracy"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    first, second = _shrunk("edge_stream", 1), _shrunk("edge_stream", 1)
    counts = [name for name, unit in layer_metrics.PER_LAYER.items()
              if unit in ("count/op", "count", "ratio") and name != "trace.overhead_ratio"]
    for name in counts:
        assert first["values"][name] == second["values"][name], name
    assert first["values"]["core.pool_forwards_per_batch"] > 0


def test_missing_program_fails_without_a_result():
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_") as bare:
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "edge_stream",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -------------------------------------------------------------- self time
def test_self_time_of_nested_spans():
    records = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("a", 6.0, 8.0, 3),  # recursion: "a" inside "b" inside "a"
    ]
    assert spans.self_times(records) == [3.0, 2.0, 1.0, 2.0, 2.0]
    profile = spans.Profile(records, {})
    assert dict(profile.self_s) == {"a": 5.0, "b": 4.0, "c": 1.0}
    assert profile.calls["a"] == 2
    assert sum(profile.self_s.values()) == profile.total_s() == 10.0


def test_self_time_counts_overlapping_children_once():
    records = [("p", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("y", 3.0, 7.0, 0),
               ("z", 9.0, 12.0, 0)]  # z pokes out of its parent: clipped
    assert spans.self_times(records)[0] == 10.0 - 6.0 - 1.0


def test_recursive_sequential_forward():
    import numpy as np

    from repro import nn

    tracer = spans.Tracer()
    saved = {cls: cls.__dict__["forward"] for cls in (nn.Sequential, nn.Dense, nn.ReLU)}
    try:
        for cls in saved:
            cls.forward = tracer.wrap(saved[cls], f"nn.{cls.__name__}.forward")
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Sequential(nn.Dense(4, 8, rng=rng), nn.ReLU()), nn.Dense(8, 2, rng=rng)
        )
        tracer.enabled = True
        model.forward(np.ones((3, 4)))
        tracer.enabled = False
    finally:
        for cls, forward in saved.items():
            cls.forward = forward
    profile = spans.Profile(tracer.spans, tracer.counts)
    assert profile.calls["nn.Sequential.forward"] == 2
    assert profile.calls["nn.Dense.forward"] == 2
    outer, inner = [i for i, s in enumerate(tracer.spans) if s[0] == "nn.Sequential.forward"]
    assert tracer.spans[inner][3] == outer
    assert all(seconds >= 0 for seconds in spans.self_times(tracer.spans))
    assert abs(sum(profile.self_s.values()) - profile.total_s()) < 1e-9
    assert profile.roots_under("nn.Sequential.forward", layer_metrics.is_forward) == 0


def test_opaque_span_hides_its_children():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer", opaque=True)
    tracer.enabled = True
    outer()
    inner()
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == -1


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as error:  # report every failing test, then fail
            failures += 1
            print(f"FAIL {name}: {error!r}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
