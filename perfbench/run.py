"""The curv2x benchmark: three closed-loop workloads, one client each.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload invariants-cli --seed 1 \
        --seconds 20 --trace 0

The program is imported from `src/`.  Set-up (imports, input generation
and parsing) is repeated SETUP_REPEATS times and its median reported.
Then whole rounds of the workload's operations run, one after another,
until the next round would end further past --seconds than stopping now;
every output is checked as it arrives.  The last line printed is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  See README.md for what each workload and metric means.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types

import checks
import inputs
from tracing import Tracer

SETUP_REPEATS = 9
WORK_DIR = ".perfbench_work"
MODULES = ("cli", "pipeline", "formats", "blocks", "rational_lp", "origami")


def import_program():
    """Import curv2x (and click) afresh; returns its modules by name."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("curv2x", "click"):
            del sys.modules[name]
    gc.collect()
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"curv2x.{name}") for name in MODULES})


def run_cli(program, argv):
    """curv2x in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = program.cli.cli_main(argv)
    return code, out.getvalue(), err.getvalue()


class Tally:
    """Operation times and outcomes of one run.

    An operation fails when it raises, exits with a nonzero code, or
    breaks the A2 identity; it is counted and reported, and the run goes
    on.  A check that fails on an operation that did not fail makes the
    run incorrect.
    """

    def __init__(self):
        self.times = []
        self.failures = []
        self.errors = []

    def run(self, label, op):
        """Time op(); returns its result, or None when it raised."""
        start = time.perf_counter()
        try:
            result = op()
        except Exception as exc:  # a crash is one failed operation
            result = None
            self.fail(label, f"{type(exc).__name__}: {exc}")
        self.times.append(time.perf_counter() - start)
        return result

    def fail(self, label, reason):
        self.failures.append(f"{label}: {reason}")

    def check(self, label, check, *args):
        try:
            check(*args)
        except checks.CheckFailed as exc:
            self.errors.append(f"{label}: {exc}")
            return False
        return True


# -- workloads -------------------------------------------------------------
#
# setup(program, seed, directory) returns the items of one round;
# run_round(program, items, tally) runs and checks each of them once.

def invariants_setup(program, seed, directory):
    return inputs.invariants_inputs(seed, directory)


def invariants_round(program, items, tally):
    for name, path, report_path in items:
        argv = ["invariant", "--which", "all", "--report", report_path, path]
        result = tally.run(name, lambda: run_cli(program, argv))
        if result is None:
            continue
        code, out, err = result
        if code != 0:
            tally.fail(name, f"exit {code}: {err.strip()}")
            continue
        try:
            values = checks.printed_values(out)
            with open(report_path, encoding="utf-8") as fh:
                report = checks.report_values(fh.read())
            checks.check_invariants(name, values, report)
        except checks.CheckFailed as exc:
            tally.errors.append(f"{name}: {exc}")
            continue
        # The identity does not hold on every complex of the corpus; such
        # a complex fails in every round.
        if not checks.lower_invariants_agree(values):
            tally.fail(name, f"rho- = {values['rho-']} but "
                             f"sigma- = {values['sigma-']}")


def lp_setup(program, seed, directory):
    return inputs.lp_inputs(seed, program.rational_lp.LPProblem)


def _lp_outputs(result, certified, rows, objective, sense):
    if not certified:
        raise checks.CheckFailed("check_solution rejects the optimum")
    checks.check_lp(rows, objective, sense, result)


def lp_round(program, items, tally):
    lp = program.rational_lp

    def solve_and_check(problem):
        result = lp.solve(problem)
        return result, lp.check_solution(problem, result)

    values = {}
    for name, sense, rows, objective, problem in items:
        label = f"{name} {sense}"
        outcome = tally.run(label, lambda: solve_and_check(problem))
        if outcome is None:
            continue
        result, certified = outcome
        if tally.check(label, _lp_outputs, result, certified, rows,
                       objective, sense):
            values.setdefault(name, {})[sense] = result.value
            if len(values[name]) == 2:
                tally.check(name, checks.check_cone_senses, values[name])


def certify_setup(program, seed, directory):
    return inputs.certify_inputs(seed, directory)


def certify_round(program, items, tally):
    def verdict(path, cert_path):
        code, certificate, err = run_cli(program, ["certify", path])
        verified = None
        if code == 0 and certificate.startswith("curv2x certificate"):
            with open(cert_path, "w", encoding="utf-8") as fh:
                fh.write(certificate)
            code, verified, err = run_cli(
                program, ["verify-certificate", cert_path])
        return code, certificate, verified, err

    for kind, edges, path, cert_path, injective, text in items:
        label = f"{kind} {edges} edges"
        result = tally.run(label, lambda: verdict(path, cert_path))
        if result is None:
            continue
        code, certificate, verified, err = result
        if code != 0:
            tally.fail(label, f"exit {code}: {err.strip()}")
        else:
            tally.check(label, checks.check_verdict, injective, text,
                        certificate, verified)


WORKLOADS = {
    "invariants-cli": (invariants_setup, invariants_round),
    "lp-cones": (lp_setup, lp_round),
    "certify-verify": (certify_setup, certify_round),
}


# -- the run ---------------------------------------------------------------

def end_to_end(tally, setup_times):
    times = tally.times
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_geomean_ms": {
            "value": 1000 * statistics.geometric_mean(times), "unit": "ms"},
    }


def measure(workload, seed, seconds, trace, work):
    setup, run_round = WORKLOADS[workload]
    setup_times = []
    for i in range(SETUP_REPEATS):
        items = None  # so that the peak memory holds one set of inputs
        start = time.perf_counter()
        program = import_program()
        items = setup(program, seed, os.path.join(work, f"setup{i}"))
        setup_times.append(time.perf_counter() - start)

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(program)
    tally = Tally()
    rounds = 0
    start = time.perf_counter()
    while True:
        run_round(program, items, tally)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            break
    if tracer is not None:
        tally.errors += [str(e) for e in tracer.errors]
        metrics = tracer.metrics(rounds)
        os.makedirs(os.path.join(WORK_DIR, "traces"), exist_ok=True)
        tracer.write(
            os.path.join(WORK_DIR, "traces", f"{workload}-seed{seed}.json"),
            {"workload": workload, "seed": seed, "rounds": rounds,
             "round_s": elapsed / rounds, "metrics": metrics})
    else:
        metrics = end_to_end(tally, setup_times)
    print(f"{workload}: {rounds} rounds, {len(tally.times)} operations, "
          f"{elapsed / rounds:.3f} s per round", file=sys.stderr)
    for failure in sorted(set(tally.failures)):
        print(f"failed: {failure}", file=sys.stderr)
    for error in tally.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    return {"correct": not tally.errors, "attempted": len(tally.times),
            "failed": len(tally.failures), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "curv2x", "__init__.py")):
        print("perfbench: run from the root of a curv2x checkout "
              "(src/curv2x is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
