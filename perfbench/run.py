"""toporag benchmark: one workload, one seed, one run.

Run from the root of a toporag checkout::

    python3 perfbench/run.py --workload graph_retrieve --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up several times (median ``setup_s``), then
runs ops closed-loop for ``--seconds``, and for at least ``MIN_OPS`` ops,
through toporag's real entry points and reports the end-to-end metrics.
``--trace 1`` sets up once with every set-up stage timed, runs half the
time untraced and half through the stage-by-stage path of ``staged.py``,
and reports the per-layer metrics.
Every op's outputs are checked once the phase's clock has stopped; an op
whose check fails counts as failed.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it is a report with the run
context and a digest of the first outputs. The exit code is 0 whenever a
result was printed, and 1 when the checkout lacks the toporag sources or
the fixture.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

SETUP_MIN_REPS = 5  # set-ups per --trace 0 run: at least this many,
SETUP_MIN_SECONDS = 5.0  # and at least this much set-up time in all
MIN_OPS = 100  # timed ops per --trace 0 run, so that p90 has 10 above it
WARMUP_OPS = 1  # per client, untimed and unchecked
DIGEST_OPS = 16  # per client: the outputs hashed into the digest


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("fixture_qa", "graph_retrieve", "service_answer"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_toporag(root: Path):
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = root / "src"
    if not (src / "toporag" / "__init__.py").is_file():
        sys.exit(f"perfbench: no toporag sources under {src}; "
                 "run from the root of a toporag checkout")
    if not (root / "fixtures" / "explagraphs_mini" / "questions.jsonl").is_file():
        sys.exit("perfbench: fixtures/explagraphs_mini is missing")
    sys.path.insert(0, str(src))
    import toporag
    if Path(toporag.__file__).resolve().parent != (src / "toporag").resolve():
        sys.exit(f"perfbench: imported toporag from {toporag.__file__}")
    return toporag


def run_context() -> dict:
    """Machine and library facts; BLAS threads are observed, not set."""
    import numpy as np
    a = np.ones((512, 512))
    a @ a  # wake the BLAS thread pool before counting threads
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    os_threads = None
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    os_threads = int(line.split()[1])
    except OSError:
        pass
    py_threads = threading.active_count()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        # OS threads not started by Python, plus the calling thread
        "blas_threads_observed": (os_threads - py_threads + 1
                                  if os_threads is not None else None),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "platform": platform.platform(),
    }


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs
    interpreted code at the moment, so that a run slowed by the host can be
    told from a run slowed by the program."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


class Phase:
    """Closed-loop ops of every client for a fixed wall time and at least
    ``min_ops`` ops in all; the outputs are checked after the clock stops."""

    def __init__(self, workload, seconds: float, sink: list | None,
                 min_ops: int = 0):
        pending: list[list] = [[] for _ in range(workload.clients)]
        self.errors: list[str] = []
        clock = []
        per_client = -(-min_ops // workload.clients)

        def start_clock() -> None:  # runs once, when every client is warm
            if sink is not None:
                sink.clear()  # drop traces of warm-up ops
            clock.append(time.perf_counter())

        def client(c: int) -> None:
            for i in range(WARMUP_OPS):
                self._op(workload, c, -1 - i, None)
            barrier.wait()
            deadline = clock[0] + seconds
            i = 0
            while time.perf_counter() < deadline or i < per_client:
                pending[c].append(self._op(workload, c, i, sink))
                i += 1

        barrier = threading.Barrier(workload.clients, action=start_clock)
        threads = [threading.Thread(target=client, args=(c,), name=f"client-{c}")
                   for c in range(workload.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.wall_s = time.perf_counter() - clock[0]
        self.results = [[self._finish(*op) for op in ops] for ops in pending]

    def _op(self, workload, client, index, sink):
        """One op: (latency in ms, its ``finish``, or None if it raised)."""
        start = time.perf_counter()
        try:
            return workload.op(client, index, sink)
        except Exception:  # an op that raises is a failed op, not a crash
            self.errors.append(traceback.format_exc(limit=4))
            return (time.perf_counter() - start) * 1000.0, None

    def _finish(self, latency_ms, finish):
        from workloads import OpResult
        try:
            if finish is not None:
                return finish()
        except Exception:  # a check that raises fails its op
            self.errors.append(traceback.format_exc(limit=4))
        return OpResult(latency_ms=latency_ms, ok=False)

    @property
    def all(self) -> list:
        return [r for rs in self.results for r in rs]

    def throughput(self) -> float:
        """Completed ops per second of the phase's wall time."""
        return ratio(len(self.all), self.wall_s)

    def digest(self) -> str:
        h = hashlib.sha256()
        for rs in self.results:
            for r in rs[:DIGEST_OPS]:
                h.update(r.output.encode("utf-8") + b"\n")
        return h.hexdigest()[:16]


def quantile(values: list[float], q: float) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setups: list, phase: Phase) -> dict:
    results = phase.all
    latencies = [r.latency_ms for r in results]
    hits = [r.hit for r in results if r.hit is not None]
    objectives = [r.objective for r in results if r.objective is not None]
    return {
        "setup_s": (statistics.median(s.seconds for s in setups), "s"),
        "latency_p50_ms": (quantile(latencies, 0.50), "ms"),
        "latency_p90_ms": (quantile(latencies, 0.90), "ms"),
        "throughput_ops_s": (phase.throughput(), "1/s"),
        "context_hit_rate": (ratio(sum(hits), len(hits)), "ratio"),
        "objective_mean": (ratio(sum(objectives), len(objectives)), "score"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(setup, setup_trace, plain: Phase, traced: Phase,
              traces: list) -> dict:
    """Per-layer metrics from the traced phase; see README.md for units."""
    from staged import LAYER_OF
    n_ops = len(traced.all)

    def op_ms(*stages):  # mean ms per op over the traced ops
        return ratio(sum(t.ms.get(s, 0.0) for t in traces for s in stages), n_ops)

    def total(name, scope=traces):
        return sum(t.counts.get(name, 0) for t in scope)

    def per(name, unit):  # counter ``name`` per counted ``unit`` of work
        return ratio(total(name), total(unit))

    everything = traces + [setup_trace]
    shapes = setup.shape + [s for t in traces for s in t.shapes]
    boundaries = [b for s in shapes for b in s["boundaries"]]
    answers = [r for r in traced.all if r.server_ms is not None]
    trips = [ms for r in traced.all for ms in r.round_trips]
    latency_sum = sum(r.latency_ms for r in traced.all)
    layer_ms = {}
    for t in traces:
        for stage, ms in t.ms.items():
            if stage != "verify_cycle_basis":
                layer = LAYER_OF[stage]
                layer_ms[layer] = layer_ms.get(layer, 0.0) + ms
    attempted = len(plain.all) + len(traced.all)
    failed = sum(not r.ok for r in plain.all + traced.all)
    metrics = {
        "reasoning.forward_ms": (op_ms("forward"), "ms"),
        "reasoning.pool_project_ms": (op_ms("pool", "project"), "ms"),
        "reasoning.cells_in": (per("cells_in", "forwards"), "count"),
        "reasoning.weights_init_ms": (setup_trace.ms.get("weights_init", 0.0), "ms"),
        "retrieval.topk_ms": (op_ms("topk_cells"), "ms"),
        "retrieval.prizes_ms": (op_ms("assign_prizes", "topk_two_cells"), "ms"),
        "retrieval.solve_ms": (op_ms("solve_subcomplex"), "ms"),
        "retrieval.cells_out": (per("cells_out", "retrievals"), "count"),
        "retrieval.two_cells_offered": (per("two_cells_offered", "retrievals"), "count"),
        "retrieval.two_cells_accepted": (per("two_cells_accepted", "retrievals"), "count"),
        "retrieval.two_cell_accept_ratio": (per("two_cells_accepted", "two_cells_offered"),
                                            "ratio"),
        "retrieval.degenerate_share": (per("degenerate", "retrievals"), "ratio"),
        "lifting.lift_ms": (ratio(sum(t.ms.get("lift_graph", 0.0) for t in everything),
                                  total("lifts", everything)), "ms"),
        "lifting.verify_ms": (ratio(sum(t.ms.get("verify_cycle_basis", 0.0) for t in everything),
                                    total("verifies", everything)), "ms"),
        "lifting.n0": (ratio(sum(s["n0"] for s in shapes), len(shapes)), "count"),
        "lifting.n1": (ratio(sum(s["n1"] for s in shapes), len(shapes)), "count"),
        "lifting.n2": (ratio(sum(s["n2"] for s in shapes), len(shapes)), "count"),
        "lifting.triangles": (ratio(sum(s["triangles"] for s in shapes), len(shapes)), "count"),
        "lifting.boundary_mean": (ratio(sum(boundaries), len(boundaries)), "count"),
        "lifting.boundary_max": (max(boundaries, default=0), "count"),
        "embedding.embed_ms": (op_ms("embed_texts"), "ms"),
        "embedding.setup_embed_ms": (setup_trace.ms.get("embed_texts", 0.0), "ms"),
        "embedding.calls": (ratio(total("embed_calls"), n_ops), "count"),
        "embedding.texts": (ratio(total("embed_texts"), n_ops), "count"),
        "graph_io.load_ms": (setup_trace.ms.get("load_graph", 0.0)
                             + setup_trace.ms.get("load_qa_fixture", 0.0), "ms"),
        "generation.prompt_ms": (op_ms("textualize", "build_prompt"), "ms"),
        "generation.generate_ms": (op_ms("generate"), "ms"),
        "generation.prompt_tokens": (per("prompt_tokens", "prompts"), "count"),
        "generation.truncation_share": (per("truncated", "prompts"), "ratio"),
        "service.round_trip_ms": (ratio(sum(trips), len(trips)), "ms"),
        "service.overhead_ms": (ratio(sum(r.round_trips[0] - r.server_ms for r in answers),
                                      len(answers)), "ms"),
        "service.non_2xx": (sum(r.non_2xx for r in traced.all), "count"),
        "trace.coverage": (ratio(sum(t.stage_ms() for t in traces), latency_sum), "ratio"),
        "trace.overhead_share": (1.0 - ratio(traced.throughput(), plain.throughput()), "ratio"),
        "error_rate": (ratio(failed, attempted), "ratio"),
    }
    for layer in ("embedding", "lifting", "retrieval", "reasoning", "generation"):
        metrics[f"{layer}.self_ms"] = (ratio(layer_ms.get(layer, 0.0), n_ops), "ms")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_toporag(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from staged import OpTrace

    context = run_context()
    host_before = host_loop_ms()
    workload = workloads.WORKLOADS[args.workload](root, args.seed)
    try:
        if args.trace == 0:
            setups = []
            while (len(setups) < SETUP_MIN_REPS
                   or sum(s.seconds for s in setups) < SETUP_MIN_SECONDS):
                setups.append(workload.setup())
            setup = setups[-1]
            phases = [Phase(workload, args.seconds, None, MIN_OPS)]
            metrics = end_to_end(setups, phases[0])
            consistent = True
        else:
            setup_trace = OpTrace()
            setup = workload.setup(setup_trace)
            plain = Phase(workload, args.seconds / 2, None)
            traces: list = []
            if hasattr(workload, "install_staged"):
                workload.install_staged(traces)
            traced = Phase(workload, args.seconds / 2, traces)
            phases = [plain, traced]
            metrics = per_layer(setup, setup_trace, plain, traced, traces)
            # both phases restart the op sequence, so the traced path must
            # reproduce the untraced outputs exactly
            consistent = all(
                a.output == b.output
                for ours, theirs in zip(plain.results, traced.results)
                for a, b in zip(ours, theirs))
    finally:
        workload.close()

    host_after = host_loop_ms()
    attempted = sum(len(p.all) for p in phases)
    failed = sum(not r.ok for p in phases for r in p.all)
    errors = [e for p in phases for e in p.errors]
    for err in errors[:3]:
        print(err, file=sys.stderr)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "context": context,
        "host_loop_ms": [round(host_before, 3), round(host_after, 3)],
        "setup_ok": setup.ok, "traced_matches_untraced": consistent,
        "ops_per_phase": [len(p.all) for p in phases],
        "op_exceptions": len(errors),
        "digest": phases[0].digest(),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bool(setup.ok and consistent and failed == 0 and attempted > 0),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
