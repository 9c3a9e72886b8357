"""Tests of the benchmark itself: self-time arithmetic, exact counters, the
seeded M5 presentation and the run without sources.

    python3 -m pytest perfbench -q
"""

import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from paths import use_checkout_source

use_checkout_source()

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from probe import PROBE_NOMINAL_S, SpeedProbe  # noqa: E402
from tracer import COUNT_METRICS, TIME_METRICS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod, "perf_counter", clock)
    tr = Tracer()

    def advance(seconds):
        clock.now += seconds

    leaf = tr.leaf("group_engine.mul_s", "group_engine.mul_calls",
                   lambda: advance(1))
    inner_leaf = tr.leaf("group_engine.mul_s", "group_engine.mul_calls",
                         lambda: advance(0.5))
    nested_leaf = tr.leaf("abelian_core.hom_s", "abelian_core.hom_calls",
                          lambda: (inner_leaf(), advance(0.25)))
    inner = tr.span("group_engine.structure_s", lambda: advance(3))

    def outer_body():
        advance(2)
        inner()
        leaf()
        nested_leaf()
        advance(4)

    outer = tr.span("classifier.classify_s", outer_body)
    outer()          # 0 .. 10.75
    leaf()           # a leaf outside any span: 10.75 .. 11.75
    metrics = tr.layer_metrics(run_s=13.0)

    assert metrics["group_engine.structure_s"][0] == 3
    # the nested hom leaf is timed as a whole; the mul inside it is counted
    assert metrics["abelian_core.hom_s"][0] == 0.75
    assert metrics["group_engine.mul_s"][0] == 2
    assert metrics["group_engine.mul_calls"][0] == 3
    assert metrics["abelian_core.hom_calls"][0] == 1
    assert metrics["classifier.classify_s"][0] == 10.75 - 3 - 1 - 0.75
    assert metrics["trace.unattributed_s"][0] == 13.0 - 11.75
    total = sum(metrics[m][0] for m in TIME_METRICS)
    assert total + metrics["trace.unattributed_s"][0] == 13.0


def test_install_finds_every_entry_point_and_uninstall_restores():
    from vanishlab import character_lab, classifier, cyclotomic, group_engine

    before = (classifier.proportion, group_engine.FiniteGroup.__init__,
              cyclotomic.Cyclo.__add__, vars(group_engine.FiniteGroup)["center"])
    tr = Tracer()
    tr.install("vanishlab")
    try:
        assert tr.missing == []
        assert classifier.proportion is not before[0]
        assert classifier.proportion is character_lab.proportion
    finally:
        tr.uninstall()
    after = (classifier.proportion, group_engine.FiniteGroup.__init__,
             cyclotomic.Cyclo.__add__, vars(group_engine.FiniteGroup)["center"])
    assert after == before


# Runs one traced pass on small inputs in a fresh interpreter and prints
# the per-layer metrics as JSON.
TRACED_PASS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from paths import use_checkout_source
use_checkout_source()
import workloads
from tracer import Tracer
from time import perf_counter
from vanishlab.constructions import build_case_family, random_corpus
from vanishlab.groupfile import emit_group

name = sys.argv[2]
if name == "corpus":
    inputs = {"provenances": [e.provenance for e in random_corpus(7, 40, 100)]}
elif name == "table_m5":
    group = build_case_family("A", m=5, variant="c2^4").group
    inputs = {"text": emit_group(group)}
else:
    inputs = {"argv": [["verify-lemma", "sixsum", "--max-n", "3"],
                       ["verify-lemma", "vs", "--max-terms", "6"],
                       ["verify-lemma", "duality", "--trials", "50"]]}
tracer = Tracer()
tracer.install("vanishlab")
start = perf_counter()
workloads.WORKLOADS[name][1](inputs)
run_s = perf_counter() - start
tracer.uninstall()
json.dump({k: v for k, (v, _) in tracer.layer_metrics(run_s).items()}, sys.stdout)
"""


def traced_pass(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PASS, str(HERE), workload],
        capture_output=True, text=True, check=True, env=env, timeout=300,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("workload,nonzero", [
    ("corpus", ["group_engine.mul_calls", "group_engine.groups_built",
                "classifier.candidates", "classifier.oracle_calls",
                "abelian_core.closure_steps", "character_lab.tables_built",
                "constructions.build_s", "classifier.classify_s",
                "character_lab.census_s"]),
    ("table_m5", ["group_engine.mul_calls", "linalg_modp.mul_adds",
                  "linalg_modp.calls", "cyclotomic.ops",
                  "abelian_core.hom_calls", "groupfile.parse_s",
                  "character_lab.census_s"]),
    ("lemmas", ["cyclotomic.ops", "abelian_core.subgroups_built",
                "abelian_core.closure_steps"]),
])
def test_exact_counters_repeat_across_processes(workload, nonzero):
    first = traced_pass(workload, "1")
    second = traced_pass(workload, "2")
    assert {k: first[k] for k in COUNT_METRICS} == \
        {k: second[k] for k in COUNT_METRICS}
    for name in nonzero:
        assert first[name] > 0, name
    if workload == "table_m5":
        assert first["character_lab.tables_built"] == 1
    for run in (first, second):
        total = sum(run[m] for m in TIME_METRICS) + run["trace.unattributed_s"]
        assert total == pytest.approx(run["trace.run_s"], rel=1e-9)
        assert min(run[m] for m in TIME_METRICS) >= 0


def test_m5_presentation_changes_with_seed_but_not_the_group():
    from vanishlab.groupfile import parse_group

    texts = {seed: workloads.table_inputs(seed)["text"] for seed in (1, 2)}
    assert texts[1] != texts[2]
    assert workloads.table_inputs(1)["text"] == texts[1]
    for text in texts.values():
        G = parse_group(text)
        assert G.order == 6480


def test_speed_probe_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = perf_counter() + 0.7
        while perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 4
    assert probe.scale() == PROBE_NOMINAL_S / statistics.median(probe.samples)


def test_scale_during_uses_the_samples_around_the_interval():
    probe = SpeedProbe()
    probe.times = [0.0, 1.0, 2.0, 3.0]
    probe.samples = [0.001, 0.001, 0.002, 0.002]
    # only the sample at t=3.0 lies within 0.5 s of [2.6, 2.7]
    assert probe.scale_during(2.6, 2.7) == PROBE_NOMINAL_S / 0.002
    assert probe.scale_during(0.0, 1.0) == PROBE_NOMINAL_S / 0.001
    # no sample near the interval: every sample counts
    assert probe.scale_during(10.0, 11.0) == probe.scale()


def test_run_without_sources_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemmas",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
