"""Smoke tests of the end-to-end benchmark at ``--quick`` size.

Run with ``python -m pytest benchmarks/e2e/tests -q`` (not part of the
tier-1 ``testpaths``).
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"e2e_test_{name}", E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run():
    return load("run")


def daemon_children() -> list[int]:
    """Pids of live ``repro serve`` processes started from the benchmark's out dir."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            words = (entry / "cmdline").read_bytes().split(b"\0")
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if b"serve" in words and any(str(E2E / "out").encode() in word for word in words) and state != "Z":
            found.append(int(entry.name))
    return found


def test_all_quick_emits_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "run.json"
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--all", "--quick", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["meta"]["host"]["cpus"] >= 1 and record["meta"]["kernels"]
    assert list(record["workloads"]) == [entry["name"] for entry in SPEC["workloads"]]
    for workload, entry in record["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            declared = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
            emitted = {name: metric["unit"] for name, metric in entry[kind].items()}
            assert emitted == declared, (workload, kind)
            assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in emitted)
            assert all(isinstance(metric["value"], (int, float)) for metric in entry[kind].values())
        assert all(metric["value"] > 0 for metric in entry["end_to_end"].values()), workload
        for part in ("untraced", "traced"):
            assert entry[part]["failed"] == 0 and entry[part]["attempted"] >= 1
            assert entry[part]["unlisted_metrics"] == [], (workload, part)
            assert entry[part]["untraced_targets"] == []
        assert entry["untraced"]["answers_digest"] == entry["traced"]["answers_digest"], workload
    assert daemon_children() == []


def test_driver_line_is_the_last_stdout_line():
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", "warm_serve", "--quick",
         "--seed", "5", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}


def test_no_process_outlives_a_run():
    """The spawn-context pool of the traced probes starts a resource tracker; it must be gone too."""
    run = subprocess.Popen(
        [sys.executable, str(E2E / "run.py"), "--workload", "join_stream", "--quick",
         "--seed", "5", "--seconds", "0.5", "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    _, errors = run.communicate(timeout=120)
    assert run.returncode == 0, errors[-4000:]
    left = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == run.pid:  # state ppid pgrp session: the run led its own session
                left.append((entry.name, (entry / "cmdline").read_bytes()))
    assert left == []


def test_wrong_answer_fails_the_command(run, monkeypatch, capsys):
    monkeypatch.setattr(run, "reference_answers", lambda text, graph: frozenset({("no", "such")}))
    status = run.main(["--workload", "conj_stream", "--quick", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False and result["failed"] > 0


def test_daemon_child_is_reaped_when_the_run_dies(run, monkeypatch):
    pids = []

    def boom(self, seconds):
        pids.append(self.child.pid)
        raise RuntimeError("injected")

    monkeypatch.setattr(run.DaemonMixed, "timed", boom)
    with pytest.raises(RuntimeError, match="injected"):
        run.main(["--workload", "daemon_mixed", "--quick", "--seconds", "0.2"])
    assert pids and not os.path.exists(f"/proc/{pids[0]}")
    assert daemon_children() == []


def test_missing_trace_target_reads_zero_not_crash(monkeypatch, capsys):
    trace = load("trace")
    monkeypatch.setitem(trace.TARGETS, "gone.layer", "repro.core.cpqx:CPQxIndex.no_such_method")
    monkeypatch.setitem(trace.TARGETS, "gone.module", "repro.no_such_module:function")
    tracer = trace.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["gone.layer", "gone.module"]
    assert capsys.readouterr().err.count("not traced") == 2
    from repro.core.cpqx import CPQxIndex

    assert not hasattr(CPQxIndex.lookup, "__wrapped__")  # uninstall restored the original
