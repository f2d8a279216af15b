"""The library API the benchmark in ``perfbench/`` calls.

The benchmark treats corrlab as a black box, so a rename or a dropped
keyword breaks it only when it runs.  These tests run its blockscale n = 2
and n = 3 steps through the benchmark's own code, with its span tracer
installed, and check each result against the recorded reference; and they
run the untrusted-io setup, which replays the generators' random draws (its
size probe fails if they drift), reads ``sigma.edges`` and serialises
twisted simplices, its ``extend-k0`` steps, whose judge parses the
``edges`` that ``extend --functor k0`` writes, and its ``extend-gamma``
steps, which pass ``--guided`` but take no guided fill (the CLI's Gamma
functor has no arrows, so its section declines); and its
``validate``, ``fill`` and ``subdivide`` steps, every corrupt file among
them, whose commands cross the trust boundary that the library's derived
data relies on.  They read ``perfbench/`` and never edit it; a subprocess keeps the tracer's
rebinding of corrlab names out of the test session.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys, spans, workloads

tracer = spans.install()  # resolves every name in spans.FUNCTIONS
bench = workloads.Blockscale()
state = bench.setup(42, 1, None)
steps = {label: (work, judge) for label, work, judge in bench.steps(state, 0)}
work, judge = steps[sys.argv[1]]
tracer.enabled = True
sd = work()
tracer.enabled = False
[(_, ok)] = judge(sd, 0.0)
assert ok, f"blockscale {sys.argv[1]} disagrees with perfbench/blockscale_reference.json"
calls = tracer.layer_metrics()
assert calls["subdivision.subdivision_functor.calls"] == 1, calls
assert calls["nerve.validate_simplex.calls"] == 1, calls
print("contract ok")
"""


IO_SCRIPT = """
import sys, workloads

workloads.check_probe(42)
plan = workloads.UntrustedIO().setup(42, 1, sys.argv[1])
assert [len(jobs) for jobs in plan] == [87], [len(jobs) for jobs in plan]
print("contract ok")
"""

K0_SCRIPT = """
import sys, workloads

bench = workloads.UntrustedIO()
plan = bench.setup(42, 1, sys.argv[1])
steps = [s for s in bench.steps(plan, 0) if s[0].startswith("extend-k0")]
assert len(steps) == 18, len(steps)
for label, work, judge in steps:
    [(_, ok)] = judge(work(), 0.0)
    assert ok, f"untrusted-io {label} fails the benchmark's judge"
print("contract ok")
"""

GAMMA_SCRIPT = """
import sys, workloads

bench = workloads.UntrustedIO()
plan = bench.setup(42, 1, sys.argv[1])
steps = [s for s in bench.steps(plan, 0) if s[0].startswith("extend-gamma")]
assert len(steps) == 6, len(steps)
for label, work, judge in steps:
    [(_, ok)] = judge(work(), 0.0)
    assert ok, f"untrusted-io {label} fails the benchmark's judge"
print("contract ok")
"""

BOUNDARY_SCRIPT = """
import sys, workloads

bench = workloads.UntrustedIO()
plan = bench.setup(42, 1, sys.argv[1])
commands = ("validate", "fill", "subdivide")
steps = [s for s in bench.steps(plan, 0) if s[0].startswith(commands)]
corrupt = [job for job in plan[0] if job[0] in commands and job[3] != 0]
# the other 3 of the 24 corrupt files are extend-k0's, which K0_SCRIPT runs
assert (len(steps), len(corrupt)) == (63, 21), (len(steps), len(corrupt))
for label, work, judge in steps:
    [(_, ok)] = judge(work(), 0.0)
    assert ok, f"untrusted-io {label} fails the benchmark's judge"
print("contract ok")
"""


def run_in_perfbench(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "contract ok"


def test_blockscale_step_matches_reference():
    run_in_perfbench(SCRIPT, "n2")


def test_blockscale_n3_step_matches_reference():
    run_in_perfbench(SCRIPT, "n3")


def test_untrusted_io_setup_replays_the_generators(tmp_path):
    run_in_perfbench(IO_SCRIPT, str(tmp_path))


def test_untrusted_io_k0_steps_pass_the_judge(tmp_path):
    run_in_perfbench(K0_SCRIPT, str(tmp_path))


def test_untrusted_io_gamma_steps_pass_the_judge(tmp_path):
    run_in_perfbench(GAMMA_SCRIPT, str(tmp_path))


def test_untrusted_io_boundary_steps_pass_the_judge(tmp_path):
    run_in_perfbench(BOUNDARY_SCRIPT, str(tmp_path))
