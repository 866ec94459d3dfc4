"""The four benchmark workloads, their correctness oracles and their figures.

Run as a script it is the benchmark's worker process: it expects the BLAS
thread pins and PYTHONPATH that run.py sets, runs one workload and prints one
JSON object.  Oracles run outside the timed regions; an exception inside an
operation counts as a failed operation, never as a crash of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import compalg as ca
from compalg import classify as cl
from compalg import d1133 as d33
from compalg import normal_form as nf
from compalg import verify as vf
from compalg.numerics import rng

import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analyze-mix", "iso-pairs", "enumerate", "verify")

#: The verify workload.  --fast keeps the default seed and every check but cuts
#: trial counts, so a run is ~2 s instead of ~7 s: enough runs fit in one
#: benchmark run for their best to be steady on a drifting host.
VERIFY_COMMAND = [sys.executable, "-m", "compalg.cli", "verify", "--fast"]

#: Well above one verify run and well below the worker's own time limit, so
#: that a hung run is killed here and never outlives the worker.
VERIFY_TIMEOUT_S = 60

#: Homomorphism residual below which a witness is true, above which it is false.
WITNESS_TRUE_MAX = 1e-9
WITNESS_FALSE_MIN = 1e-6


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def best_times(per_item):
    """Each item's fastest run.  The host's speed swings by a quarter within
    a minute, so an item's best of several passes is a steadier measure of
    its cost than a statistic over all passes."""
    return [min(times) for times in per_item if times]


def latency_figures(prefix, seconds_list):
    """Throughput, median and p90 of one operation kind, in 1/s and ms."""
    ms = [1e3 * s for s in seconds_list]
    return {f"{prefix}_per_s": (len(ms) / sum(seconds_list), "1/s"),
            f"{prefix}_p50_ms": (statistics.median(ms), "ms"),
            f"{prefix}_p90_ms": (p90(ms), "ms")}


def generic_figures(seconds_list):
    """The gated end-to-end figures over all of a workload's operations."""
    figures = latency_figures("op", seconds_list)
    figures["ops_per_s"] = figures.pop("op_per_s")
    return figures


def numpy_info():
    """numpy's version and the BLAS it was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 prints instead
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Outcome:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)


def call(op, *args):
    """Time op(*args); an exception is returned in place of a result."""
    start = perf_counter()
    try:
        out = op(*args)
    except Exception as err:  # counted as a failed operation by the oracle
        out = err
    return out, perf_counter() - start


def passes(items, seconds, run_one):
    """Call run_one(k, item) on the items, in passes, until `seconds` have
    elapsed.  The first pass is always whole, so every item has a time."""
    start = perf_counter()
    for k, item in enumerate(items):
        run_one(k, item)
    while True:
        for k, item in enumerate(items):
            if perf_counter() - start >= seconds:
                return
            run_one(k, item)


def traced_pair(tracer, root, op, *args):
    """One untraced and one traced call of op on the same arguments."""
    out, plain = call(op, *args)
    tracer.on = True
    try:
        traced_out, traced = call(tracer.call, root, op, *args)
    finally:
        tracer.on = False
    return out, plain, traced_out, traced


# ---------------------------------------------------------------------------
# analyze-mix
# ---------------------------------------------------------------------------

def analyze_op(item):
    return ca.analyze(item.raw)


def analyze_check(item, expected, out):
    if isinstance(out, Exception):
        return False, f"{item.family}: {type(out).__name__}: {out}"
    return str(out.block) == expected, f"{item.family}: block {out.block}, expected {expected}"


def run_analyze(seed, seconds, tracer=None, pool=None):
    pool = pool if pool is not None else inputs.analyze_pool(seed)
    # the oracle: canonical() on the provenance-carrying twin
    expected = {id(item): str(ca.canonical(item.twin).block) for item in pool}
    outcome = Outcome()
    plain, traced = [[] for _ in pool], []

    def run_one(k, item):
        if tracer is None:
            out, dt = call(analyze_op, item)
        else:
            out, dt, out_t, dt_t = traced_pair(tracer, "op.analyze", analyze_op, item)
            traced.append(dt_t)
            outcome.record(*analyze_check(item, expected[id(item)], out_t))
        plain[k].append(dt)
        outcome.record(*analyze_check(item, expected[id(item)], out))

    passes(pool, seconds, run_one)
    report = latency_figures("analyze", best_times(plain))
    return plain, traced, outcome, report, ("op.analyze",)


# ---------------------------------------------------------------------------
# iso-pairs
# ---------------------------------------------------------------------------

def homomorphism_residual(phi, a, b):
    """max |phi(e_i e_j) - phi(e_i) phi(e_j)| for phi: a -> b, computed here so
    the witness truths do not rest on the library's own residual."""
    lhs = np.einsum("km,ijm->ijk", phi, a.sc)
    rhs = np.einsum("ai,bj,abk->ijk", phi, phi, b.sc)
    return float(np.max(np.abs(lhs - rhs)))


def iso_op(item):
    if item.kind == "iso":
        return ca.isomorphic(item.a, item.b)
    return ca.iso_isotopes(item.a, item.b, item.phi)


def iso_check(item, out):
    where = f"{item.kind}/{item.case}"
    if isinstance(out, Exception):
        return False, f"{where}: {type(out).__name__}: {out}"
    if item.kind == "witness":
        return out is item.expected, f"{where}: iso_isotopes gave {out}"
    verdict = out.verdict
    if verdict == "unknown":
        return True, ""
    if verdict != item.expected:
        return False, f"{where}: verdict {verdict}, expected {item.expected}"
    if verdict == "yes":
        residual = homomorphism_residual(out.witness.mat, item.a, item.b)
        return residual < 1e-8, f"{where}: witness residual {residual:g}"
    return True, ""


def check_witness_truths(pool):
    """The constructed witnesses are isomorphisms, the perturbed ones are not."""
    bad = []
    for item in pool:
        if item.kind != "witness":
            continue
        residual = homomorphism_residual(item.phi.mat, item.a, item.b)
        ok = residual < WITNESS_TRUE_MAX if item.expected else residual > WITNESS_FALSE_MIN
        if not ok:
            bad.append(f"witness/{item.case}: constructed residual {residual:g}")
    return bad


def run_iso(seed, seconds, tracer=None, pool=None):
    pool = pool if pool is not None else inputs.iso_pool(seed)
    outcome = Outcome()
    for message in check_witness_truths(pool):
        outcome.record(False, message)
    plain, traced = [[] for _ in pool], []
    unknown = {}  # isomorphic() item -> answered unknown

    def run_one(k, item):
        if tracer is None:
            out, dt = call(iso_op, item)
            results = [out]
        else:
            out, dt, out_t, dt_t = traced_pair(tracer, f"op.{item.kind}", iso_op, item)
            traced.append(dt_t)
            results = [out, out_t]
        plain[k].append(dt)
        for result in results:
            outcome.record(*iso_check(item, result))
        if item.kind == "iso" and not isinstance(out, Exception):
            unknown[k] = out.verdict == "unknown"

    passes(pool, seconds, run_one)
    best = {"iso": [], "witness": []}
    for item, t in zip(pool, best_times(plain)):
        best[item.kind].append(t)
    report = latency_figures("iso", best["iso"])
    witness = latency_figures("witness", best["witness"])
    report["witness_p50_ms"] = witness["witness_p50_ms"]
    report["witness_p90_ms"] = witness["witness_p90_ms"]
    report["iso_unknown_ratio"] = (sum(unknown.values()) / max(len(unknown), 1), "ratio")
    return plain, traced, outcome, report, ("op.iso", "op.witness")


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def flat_params(params):
    """A canonical parameter point as one float vector."""
    if params is None:
        return np.zeros(0)
    if isinstance(params, nf.PairTT):
        return np.concatenate([params.a, params.b])
    if isinstance(params, tuple):
        return np.concatenate([flat_params(p) for p in params])
    return np.atleast_1d(np.asarray(params, dtype=float))


def in_transversal(form):
    kind = form.block.kind
    if kind in ("D134a", "D134s"):
        return nf.in_M(form.params)[0]
    if kind in ("D116", "D1124", "D11114"):
        return nf.in_N(form.params)[0]
    if kind == "D1133":
        gp = d33.GParams(*form.block.d1133_indices, *form.params)
        cp, _ = d33.canonical_1133(gp)
        return d33.in_d1133(gp) and (cp.alpha, cp.beta) == (gp.alpha, gp.beta)
    return form.params is None


def form_check(kind, form):
    """Full oracle for one enumerated form: block, transversal membership
    and a rebuild of the canonical algebra that must canonicalize to itself."""
    if form.block.kind != kind:
        return False, f"{kind}: form of block {form.block}"
    if not in_transversal(form):
        return False, f"{kind}: form {form.to_json()} outside its transversal"
    again = ca.canonical(ca.canonical_algebra(form))
    if str(again.block) != str(form.block):
        return False, f"{kind}: rebuild gave block {again.block}"
    if np.max(np.abs(flat_params(again.params) - flat_params(form.params)), initial=0.0) > 1e-8:
        return False, f"{kind}: rebuild moved the canonical point"
    return True, ""


def sweep(order, tracer=None):
    """One pass over every kind; returns ({kind: forms}, form times).  Each
    form's time is its next() call; the final next() that ends a kind is
    added to the last form, so the times sum to the whole sweep."""
    forms = {}
    times = []
    for kind in order:
        stream = cl.enumerate_block(kind, inputs.ENUM_GRID)
        got = []
        while True:
            if tracer is None:
                out, dt = call(next, stream)
            else:
                tracer.on = True
                try:
                    out, dt = call(tracer.call, "op.enumerate", next, stream)
                finally:
                    tracer.on = False
            if isinstance(out, Exception):
                if got:
                    times[-1] += dt
                if isinstance(out, StopIteration):
                    break
                got.append(out)
                break
            got.append(out)
            times.append(dt)
        forms[kind] = got
    return forms, times


def enumerate_checks(forms, reference, outcome):
    """The full oracle on the first sweep; later sweeps must repeat it."""
    for kind, got in forms.items():
        expected = inputs.ENUM_COUNTS[kind]
        outcome.record(len(got) == expected, f"{kind}: {len(got)} forms, recorded {expected}")
        for k, form in enumerate(got):
            if isinstance(form, Exception):
                outcome.record(False, f"{kind}: {type(form).__name__}: {form}")
                continue
            if reference is None:
                outcome.record(*form_check(kind, form))
                continue
            ref = reference[kind][k] if k < len(reference[kind]) else None
            same = (ref is not None and str(ref.block) == str(form.block)
                    and np.array_equal(flat_params(ref.params), flat_params(form.params)))
            outcome.record(same, f"{kind}: form {k} differs from the first sweep")


def run_enumerate(seed, seconds, tracer=None):
    order = inputs.enumerate_order(seed)
    outcome = Outcome()
    plain, traced = None, []
    reference = None
    start = perf_counter()
    while True:
        forms, times = sweep(order)
        enumerate_checks(forms, reference, outcome)
        reference = reference or forms
        plain = plain or [[] for _ in times]
        if len(times) == len(plain):  # a sweep that lost forms has failed already
            for k, dt in enumerate(times):
                plain[k].append(dt)
        if tracer is not None:
            forms, times = sweep(order, tracer)
            enumerate_checks(forms, reference, outcome)
            traced.extend(times)
        if perf_counter() - start >= seconds:
            break
    best = best_times(plain)
    report = {"enumerate_forms_per_s": (len(best) / sum(best), "1/s")}
    return plain, traced, outcome, report, ("op.enumerate",)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verify_cli(seconds):
    """`compalg verify --fast` as a subprocess, interpreter start-up included."""
    outcome = Outcome()
    times = []
    start = perf_counter()
    n_checks = len(vf.CHECKS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    while True:
        t0 = perf_counter()
        proc = subprocess.run(VERIFY_COMMAND, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=VERIFY_TIMEOUT_S)
        times.append(perf_counter() - t0)
        lines = [line for line in proc.stdout.splitlines() if line.startswith(("PASS", "FAIL"))]
        for line in lines:
            outcome.record(line.startswith("PASS"), line)
        for _ in range(n_checks - len(lines)):
            outcome.record(False, f"check line missing: {proc.stderr[-200:]}")
        if proc.returncode != 0:
            outcome.record(False, f"verify exited {proc.returncode}")
        if perf_counter() - start >= seconds:
            break
    report = {"verify_s": (min(times), "s")}
    return [times], [], outcome, report, ()


def run_verify_traced(seconds, tracer):
    """The named checks in-process, each timed untraced and then traced."""
    outcome = Outcome()
    plain, traced = [[] for _ in vf.CHECKS], []

    def one(k, check):
        name, fn = check
        seed = [ca.DEFAULT_SEED] + list(name.encode())  # as verify_suite seeds each check
        out, dt, out_t, dt_t = traced_pair(tracer, "op.verify", lambda: fn(rng(seed), True))
        for result in (out, out_t):
            ok = not isinstance(result, Exception) and bool(result[0])
            outcome.record(ok, f"{name}: {result}")
        plain[k].append(dt)
        traced.append(dt_t)

    passes(vf.CHECKS, seconds, one)
    layers = {f"verify.{name}.s": (best, "s")
              for (name, _), best in zip(vf.CHECKS, best_times(plain))}
    return plain, traced, outcome, layers, ("op.verify",)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

RUNNERS = {"analyze-mix": run_analyze, "iso-pairs": run_iso, "enumerate": run_enumerate}


def make_inputs(workload, seed):
    """What set-up builds before a run: the workload's seeded inputs."""
    if workload == "analyze-mix":
        return inputs.analyze_pool(seed)
    if workload == "iso-pairs":
        return inputs.iso_pool(seed)
    if workload == "enumerate":
        return inputs.enumerate_order(seed)
    return vf.CHECKS


def run(workload, seed, seconds, traced, **sizes):
    """One run.  Returns (metrics, attempted, failed, report, messages), where
    metrics are the end-to-end figures untraced and the per-layer ones traced.
    sizes lets the self-test shrink a run: pool= for analyze-mix and iso-pairs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    verify_names = [f"verify.{name}.s" for name, _ in vf.CHECKS]
    if not traced:
        if workload == "verify":
            plain, _, outcome, report, _ = run_verify_cli(seconds, **sizes)
            rss = peak_rss_mb(children=True)
        else:
            plain, _, outcome, report, _ = RUNNERS[workload](seed, seconds, **sizes)
            rss = peak_rss_mb()
        metrics = generic_figures(best_times(plain))
        metrics["peak_rss_mb"] = (rss, "MB")
        report.update(metrics)
        report["items"] = (len(plain), "count")
        report["samples"] = (sum(len(times) for times in plain), "count")
    else:
        tracer = tracing.Tracer()
        with tracer:
            if workload == "verify":
                plain, traced_times, outcome, verify_layers, roots = run_verify_traced(
                    seconds, tracer, **sizes)
            else:
                plain, traced_times, outcome, report, roots = RUNNERS[workload](
                    seed, seconds, tracer, **sizes)
                verify_layers = {}
        metrics = tracing.layer_metrics(tracer, len(traced_times), roots)
        for name in verify_names:
            metrics[name] = verify_layers.get(name, (0.0, "s"))
        untraced = sum(sum(times) for times in plain)
        metrics["trace.overhead_ratio"] = (sum(traced_times) / untraced - 1.0, "ratio")
        report = {"trace.spans": (len(tracer.spans), "count"),
                  "trace.nesting_errors": (len(tracing.nesting_errors(tracer.spans)), "count"),
                  "trace.missing_layers": (len(tracer.missing), "count")}
    report["failed_ratio"] = (outcome.failed / max(outcome.attempted, 1), "ratio")
    return metrics, outcome.attempted, outcome.failed, report, outcome.messages


def main(argv=None):
    parser = argparse.ArgumentParser(description="benchmark worker (started by bench/run.py)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (times set-up)")
    args = parser.parse_args(argv)
    if not Path(ca.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"compalg was imported from {ca.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        make_inputs(args.workload, args.seed)
        return 0
    metrics, attempted, failed, report, messages = run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"metrics": metrics, "attempted": attempted, "failed": failed,
                      "report": report, "messages": messages, "env": numpy_info()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
