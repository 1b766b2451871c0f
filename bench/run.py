"""dimerlab benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload stats-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20      # every workload, one process each

Set-up imports ``dimerlab`` from this checkout's ``src/`` and writes the
workload's inputs from the seed; it is repeated ``SETUP_REPS`` times and
the median is ``setup_s``.  The timed phase then sends one query at a
time until ``--seconds`` have passed.  Outputs are checked after the
timed phase.  With ``--trace 1`` each query runs once untraced and once
traced, and the per-layer metrics come from the traced runs.  The last
line of standard output is the JSON result; the lines above it are the
human-readable report.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden"
GOLDEN_SEED = 0
SETUP_REPS = 9
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 180

sys.path.insert(0, str(BENCH))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, max_digits, same_payload  # noqa: E402

# name, unit; the untraced run reports these (BENCHMARK.json "end_to_end")
END_TO_END = [
    ("setup_s", "s"),
    ("query_p50_s", "s"),
    ("query_tail_s", "s"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mib", "MiB"),
]

# per-layer metric -> (unit, source); "incl:" is inclusive seconds per query,
# "count:" calls per query, "self:" a layer's self seconds per query
PER_LAYER = {
    "graph.load_s": ("s", "incl:graph.load"),
    "graph.trace_faces_s": ("s", "incl:graph.trace_faces"),
    "graph.faces": ("count", "count:graph.faces"),
    "kasteleyn.solve_signs_s": ("s", "incl:kasteleyn.solve_signs"),
    "kasteleyn.assemble_s": ("s", "incl:kasteleyn.assemble"),
    "kasteleyn.det_s": ("s", "incl:kasteleyn.det"),
    "kasteleyn.inverse_s": ("s", "incl:kasteleyn.inverse"),
    "linalg.det_s": ("s", "incl:linalg.det"),
    "linalg.det.calls": ("count", "count:linalg.det.calls"),
    "linalg.inverse.calls": ("count", "count:linalg.inverse.calls"),
    "linalg.char_coeffs_s": ("s", "incl:linalg.char_coeffs"),
    "linalg.matmul.calls": ("count", "count:linalg.matmul.calls"),
    "linalg.block.calls": ("count", "count:linalg.block.calls"),
    "linalg.minor_s": ("s", "incl:linalg.minor"),
    "linalg.minor.calls": ("count", "count:linalg.minor.calls"),
    "statistics.probability_matrix_s": ("s", "incl:statistics.probability_matrix"),
    "statistics.pmf_s": ("s", "incl:statistics.pmf"),
    "statistics.covariance_s": ("s", "incl:statistics.covariance"),
    "statistics.product_expectation_s": ("s", "incl:statistics.product_expectation"),
    "statistics.joint_distribution_s": ("s", "incl:statistics.joint_distribution"),
    "statistics.cycle_traces": ("count", "count:statistics.cycle_traces"),
    "statistics.cycle_lookups": ("count", "count:statistics.cycle_lookups"),
    "scalars.mpoly_mul.calls": ("count", "count:scalars.mpoly_mul.calls"),
    "oracle.enumerate_covers_s": ("s", "incl:oracle.enumerate_covers"),
    "oracle.covers": ("count", "count:oracle.covers"),
    "oracle.cover_weight_s": ("s", "incl:oracle.cover_weight"),
    "oracle.marginals_s": ("s", "incl:oracle.marginals"),
    "moves.move_s": ("s", "incl:moves.move"),
    "moves.snake_reduce_s": ("s", "incl:moves.snake_reduce"),
    "moves.certificates": ("count", "count:moves.certificates"),
    "cli.emit_s": ("s", "incl:cli.emit"),
    "cli.self_s": ("s", "self:query"),
}
LAYERS = ["graph", "kasteleyn", "linalg", "statistics", "scalars", "oracle", "moves", "zoo", "cli"]

# each workload's predicted main cost: (description, its seconds per traced query)
PREDICTIONS = {
    "stats-grid": ("kasteleyn.inverse dominates", lambda m: m["kasteleyn.inverse_s"]),
    "stats-ice": ("kasteleyn.inverse dominates", lambda m: m["kasteleyn.inverse_s"]),
    "products": (
        "statistics (outside the inverse) dominates",
        lambda m: m["statistics.product_expectation_s"]
        + m["statistics.joint_distribution_s"]
        - m["kasteleyn.inverse_s"],
    ),
    "certify": (
        "the oracle dominates",
        lambda m: m["oracle.enumerate_covers_s"] + m["oracle.cover_weight_s"] + m["oracle.marginals_s"],
    ),
}


class SetupError(Exception):
    pass


# -- set-up -------------------------------------------------------------------


def import_program():
    """A fresh import of dimerlab from this checkout's src/."""
    for name in [m for m in sys.modules if m == "dimerlab" or m.startswith("dimerlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        dl = importlib.import_module("dimerlab")
        cli = importlib.import_module("dimerlab.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import dimerlab from {SRC}: {exc}") from exc
    if Path(dl.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"dimerlab was imported from {dl.__file__}, not from {SRC}")
    return dl, cli


def inputs_digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.id.encode())
        for chunk in item.inputs:
            h.update(len(chunk).to_bytes(8, "little"))
            h.update(chunk)
    return h.hexdigest()


def build(workload, seed, workdir, tracer=None):
    """Import the program and make the deck; the tracer, if any, sees generation."""
    dl, cli = import_program()
    rng = random.Random(f"{workload}:{seed}")
    if tracer is None:
        return dl, WORKLOADS[workload](dl, cli, rng, workdir)
    tracer.install()
    tracer.query = "setup"
    tracer.enter("setup")
    try:
        return dl, WORKLOADS[workload](dl, cli, rng, workdir)
    finally:
        tracer.exit()
        tracer.uninstall()


def setup(workload, seed, tracer=None):
    """Repeat set-up; return (setup seconds, workdir, deck, inputs digest)."""
    OUT.mkdir(parents=True, exist_ok=True)
    times, digests, workdir, items = [], set(), None, None
    try:
        for rep in range(SETUP_REPS):
            if workdir is not None:
                shutil.rmtree(workdir)
            workdir = tempfile.mkdtemp(prefix=f"inputs-{workload}-", dir=OUT)
            last = rep == SETUP_REPS - 1
            t0 = time.perf_counter()
            _, items = build(workload, seed, workdir, tracer if last else None)
            times.append(time.perf_counter() - t0)
            digests.add(inputs_digest(items))
        if len(digests) != 1:
            raise SetupError("set-up made different inputs from one seed")
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return statistics.median(times), workdir, items, digests.pop()


# -- timed phase ------------------------------------------------------------------


def run_query(item):
    t0 = time.perf_counter()
    try:
        output, error = item.run(), None
    except Exception:  # a failed query is counted, not fatal
        output, error = None, traceback.format_exc()
    return time.perf_counter() - t0, output, error


def run_traced(item, tracer, qid):
    tracer.install()
    tracer.query = qid
    tracer.enter("query")
    try:
        return run_query(item)
    finally:
        tracer.exit()
        tracer.uninstall()


def timed_phase(items, seconds, tracer=None):
    """Closed loop over the deck; records are (item index, seconds, output, error, traced)."""
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        idx = i % len(items)
        records.append((idx, *run_query(items[idx]), False))
        if tracer is not None:
            records.append((idx, *run_traced(items[idx], tracer, i), True))
        i += 1
        if time.perf_counter() >= deadline:
            break
    return records, time.perf_counter() - start


# -- checks ---------------------------------------------------------------------


def load_golden(workload, seed):
    path = GOLDEN / f"{workload}.json"
    if seed != GOLDEN_SEED or not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def check_records(items, records, golden):
    """(failed count, problems by item id, first payload by item index)."""
    first, problems, failed = {}, {}, 0
    for idx, _, output, error, _ in records:
        item = items[idx]
        if error is not None:
            failed += 1
            problems.setdefault(item.id, []).append(error.strip().splitlines()[-1])
            continue
        try:
            payload = item.payload(output)
            if idx not in first:
                first[idx] = payload
                found = item.check(output, payload)
                if golden is not None and not same_payload(payload, golden.get(item.id)):
                    found.append(f"differs from the stored result for seed {GOLDEN_SEED}")
                problems[item.id] = found
            elif not same_payload(payload, first[idx]):
                problems[item.id].append("output changed between queries")
        except Exception:  # a check that cannot run is a failed query
            problems.setdefault(item.id, []).append(traceback.format_exc().strip().splitlines()[-1])
        if problems.get(item.id):
            failed += 1
    return failed, problems, first


def size_drivers(items, first):
    rows = []
    for idx, item in enumerate(items):
        payload = first.get(idx, {})
        rows.append(
            {
                "id": item.id,
                "kasteleyn.dim": item.dim,
                "k": item.k,
                "oracle.covers": payload.get("covers", 0),
                "scalars.max_digits": max_digits(payload),
            }
        )
    return rows


# -- metrics --------------------------------------------------------------------


def tail(samples, beyond=TAIL_BEYOND):
    """(value, percentile, samples above): the highest whole percentile with >= beyond above it."""
    s = sorted(samples)
    n = len(s)
    if n <= beyond:
        return s[-1], 100, 0
    pct = math.floor(100 * (n - beyond) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return s[rank - 1], pct, n - rank


def end_to_end(records, elapsed, setup_s):
    """Metric values, and a note naming the tail percentile and its samples."""
    times = [r[1] for r in records]
    tail_value, pct, above = tail(times)
    values = {
        "setup_s": setup_s,
        "query_p50_s": statistics.median(times),
        "query_tail_s": tail_value,
        "throughput_qps": len(records) / elapsed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, f"p{pct} of {len(times)} samples, {above} above it"


def per_layer(records, tracer, drivers, generate_s):
    """{name: (value, unit)} from the traced queries."""
    nq = sum(1 for r in records if r[4])
    untraced = [r[1] for r in records if not r[4]]
    sources = {"incl": tracer.inclusive, "count": tracer.counts, "self": tracer.self_time}
    m = {}
    for name, (unit, source) in PER_LAYER.items():
        kind, key = source.split(":", 1)
        m[name] = (sources[kind][key] / nq, unit)
    c = tracer.counts
    query_traced = tracer.inclusive["query"] / nq
    query_untraced = statistics.mean(untraced)
    m.update(
        {
            "linalg.minor.zero_ratio": (_ratio(c["linalg.minor.zero"], c["linalg.minor.calls"]), "ratio"),
            "statistics.cycle_trace_reuse": (
                _ratio(c["statistics.cycle_traces"], c["statistics.cycle_lookups"]), "ratio"),
            "oracle.cover_weight_max_s": (tracer.maxima.get("oracle.cover_weight", 0.0), "s"),
            "oracle.nonzero_cover_ratio": (
                _ratio(c["oracle.covers_nonzero"], c["oracle.covers_weighed"]), "ratio"),
            "kasteleyn.dim": (max(d["kasteleyn.dim"] for d in drivers), "count"),
            "scalars.max_digits": (max(d["scalars.max_digits"] for d in drivers), "count"),
            "zoo.generate_s": (generate_s, "s"),
        }
    )
    for layer in LAYERS:
        own = sum(t for name, t in tracer.self_time.items() if name.split(".")[0] == layer)
        m[f"{layer}.layer_self_s"] = (own / nq, "s")
    m.update(
        {
            "query_traced_s": (query_traced, "s"),
            "query_untraced_s": (query_untraced, "s"),
            "trace.overhead_s": (query_traced - query_untraced, "s"),
            "trace.absent": (len(tracer.absent), "count"),
        }
    )
    return m


def _ratio(num, den):
    return num / den if den else 0.0


# -- report -----------------------------------------------------------------------


def report_trace(workload, m, tracer):
    q = m["query_traced_s"]
    lines = [f"layer self time per traced query ({q:.6f} s):"]
    covered = 0.0
    for layer in LAYERS:
        t = m[f"{layer}.layer_self_s"]
        covered += t
        lines.append(f"  {layer:<11} {t:.6f} s  {100 * t / q:5.1f}%")
    root = m["cli.self_s"]
    covered += root
    lines.append(f"  {'query root':<11} {root:.6f} s  {100 * root / q:5.1f}%  (cli.self_s: not inside any span)")
    lines.append(f"  accounted   {covered:.6f} s  {100 * covered / q:5.1f}% of traced query time")
    what, share = PREDICTIONS[workload]
    s = share(m) / q
    verdict = "CONFIRMED" if s >= 0.5 else "CONTRADICTED"
    lines.append(f"prediction: {what}: {100 * s:.1f}% of traced query time -> {verdict}")
    lines.append(
        f"tracing overhead: {m['trace.overhead_s']:.6f} s per query "
        f"(traced {m['query_traced_s']:.6f} s - untraced {m['query_untraced_s']:.6f} s)"
    )
    lines.append("absent trace targets: " + (", ".join(tracer.absent) or "none"))
    if tracer.dropped:
        lines.append(f"stored spans capped: {tracer.dropped} spans aggregated but not stored")
    return lines


def write_trace(workload, seed, tracer, drivers, digest, metrics):
    path = OUT / f"trace-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": digest,
        "items": drivers,
        "absent": tracer.absent,
        "dropped_spans": tracer.dropped,
        "span_fields": ["query", "name", "start", "end", "parent"],
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "metrics": metrics,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path


def run_one(args) -> int:
    tracer = Tracer() if args.trace else None
    try:
        setup_s, workdir, items, digest = setup(args.workload, args.seed, tracer)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    try:
        generate_s = 0.0
        if tracer is not None:
            generate_s = tracer.inclusive["zoo.generate"]
            tracer.reset()
        records, elapsed = timed_phase(items, args.seconds, tracer)
        if tracer is None:
            e2e, tail_note = end_to_end(records, elapsed, setup_s)
        golden = None if args.record_golden else load_golden(args.workload, args.seed)
        failed, problems, first = check_records(items, records, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    drivers = size_drivers(items, first)
    if args.record_golden:
        if len(first) < len(items) or failed:
            print("not recorded: the run must reach every item and pass its checks", file=sys.stderr)
            return 1
        GOLDEN.mkdir(exist_ok=True)
        with open(GOLDEN / f"{args.workload}.json", "w") as fh:
            json.dump({items[i].id: p for i, p in sorted(first.items())}, fh, indent=1, sort_keys=True)
            fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"inputs sha256 {digest}")
    print("closed loop, one client, one process; set-up repeated "
          f"{SETUP_REPS} times (median {setup_s:.6f} s)")
    for d in drivers:
        print("  item " + "  ".join(f"{k}={v}" for k, v in d.items()))
    attempted = len(records)
    print(f"queries attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.6g}")
    for item_id, found in problems.items():
        for p in found:
            print(f"  FAIL {item_id}: {p}")
    if tracer is None:
        units = dict(END_TO_END)
        metrics = {name: {"value": v, "unit": units[name]} for name, v in e2e.items()}
        for name, v in e2e.items():
            print(f"  {name:<16} {v:.6g} {units[name]}" + (f"  ({tail_note})" if name == "query_tail_s" else ""))
    else:
        layer = per_layer(records, tracer, drivers, generate_s)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}
        values = {name: v for name, (v, _) in layer.items()}
        for name, (v, unit) in layer.items():
            print(f"  {name:<34} {v:.6g} {unit}")
        for line in report_trace(args.workload, values, tracer):
            print(line)
        print(f"trace written to {write_trace(args.workload, args.seed, tracer, drivers, digest, values)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
        print()
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help=f"store this run's results as the reference for seed {GOLDEN_SEED}")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.record_golden and (args.seed != GOLDEN_SEED or args.workload == "all"):
        ap.error(f"--record-golden needs one workload and --seed {GOLDEN_SEED}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
