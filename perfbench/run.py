"""hiershare benchmark: seeded workloads through ``config.parse_scenario`` ->
``simnet.World``, end-to-end host times, and a traced per-layer run.

    python3 perfbench/run.py --workload renew-secp --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from any directory of a checkout; the program is imported from the
checkout's ``src/``. The load is one closed loop in one thread: each epoch
starts when the previous ``World.step_epoch`` returns.

``--trace 0`` repeats rounds while the next is expected to end within
``--seconds`` (at least one). A round is about SETUP_ROUND_S of set-up-only
repetitions, then one complete run: set-up, every epoch, final
reconstruction. It reports the median set-up, the median epoch step and the
median complete run, all in seconds at a reference host speed (see
``ReferenceClock``), and the process's peak RSS.

``--trace 1`` makes one traced complete run between two untraced ones, so
its counts repeat exactly for a seed, and reports the per-layer metrics.
Spans and per-epoch counts go to ``perfbench/out/``.

Every operation is checked (see ``Tally``). The last line of standard
output is one JSON object: correct, attempted, failed and the metrics."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
PINS = os.path.join(HERE, "pins.json")

# Seconds of set-up-only repetitions before each complete run.
SETUP_ROUND_S = 1.0

# The reference host speed: the one at which ``_kernel`` takes this long.
REFERENCE_S = 0.003
# A 256-bit prime (the secp256k1 group order) for ``_kernel``'s arithmetic.
KERNEL_PRIME = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141

# The per-epoch counts a trace records beside its spans; they do not
# depend on the machine.
COUNTED = (
    "curve.scalar_mul",
    "curve.point_add",
    "algebra.field_inverse",
    "proactive.verify_renewal",
    "algebra.lagrange_at_zero",
    "simnet.send",
)


def import_program():
    """Import hiershare from this checkout's ``src/`` and nowhere else."""
    init = os.path.join(SRC, "hiershare", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"hiershare sources not found: {init} is missing")
    sys.path.insert(0, SRC)
    import hiershare.cli
    import hiershare.config
    import hiershare.simnet
    import hiershare.snapshot

    if os.path.dirname(hiershare.__file__) != os.path.dirname(init):
        raise SystemExit(f"imported hiershare from {hiershare.__file__}, not {init}")
    return hiershare


def _kernel() -> float:
    """Seconds taken by a fixed piece of work that does not depend on the
    program: 256-bit modular products, dict stores and a few Fermat
    inverses, the operations the simulator's own time goes to."""
    start = time.perf_counter()
    x, table = 0x1234567890ABCDEF1234567890ABCDEF, {}
    for i in range(2000):
        x = x * x % KERNEL_PRIME
        table[i & 255] = x
        if i % 200 == 0:
            pow(x, KERNEL_PRIME - 2, KERNEL_PRIME)
    return time.perf_counter() - start


class ReferenceClock:
    """Times program steps in seconds at a fixed reference host speed.

    The 2-vCPU virtual machines this benchmark was written on switch between
    a fast and a slow speed about 1.6x apart, in phases of seconds to
    minutes, so raw times of the same code spread by 15-30% between 40-s
    runs. The clock times ``_kernel`` right before and right after each
    step and scales the step's raw time by REFERENCE_S over the mean of the
    two: the step's time on a host where the kernel takes REFERENCE_S. The
    kernel never touches the program, so a change to the program moves the
    scaled time as much as the raw one."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self._before = 0.0

    def start(self) -> float:
        self._before = _kernel()
        return time.perf_counter()

    def stop(self, start: float) -> float:
        elapsed = time.perf_counter() - start
        after = _kernel()
        self.kernel_s += [self._before, after]
        return elapsed * 2 * REFERENCE_S / (self._before + after)

    def scale(self) -> float:
        """Reference seconds per raw second over every step timed so far."""
        return REFERENCE_S / statistics.median(self.kernel_s)


class Tally:
    """Attempted and failed operations. An operation is one set-up (up to
    and including the epoch-0 row), one epoch step, or one final
    reconstruction. It fails on any exception, on a report row that differs
    from what the scenario implies or has ``secret_intact`` false, on a
    snapshot that does not reload to the same state, on a false
    ``reconstruction_correct``, or on a report digest that differs from the
    pinned one (default seed) or from the process's first complete run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def _error(exc: BaseException) -> list[str]:
    return [f"{type(exc).__name__}: {exc}"]


class Bench:
    """One workload at one seed."""

    def __init__(self, hs, workload: str, seed: int):
        self.hs = hs
        self.workload = workload
        self.seed = seed
        generate, self.check_row, self.snapshot_mid_run = WORKLOADS[workload]
        self.scenario = generate(seed)
        self.tally = Tally()
        self.pinned_digest = None
        if seed == DEFAULT_SEED:
            with open(PINS, encoding="utf-8") as handle:
                self.pinned_digest = json.load(handle)["report_sha256"][workload]
        self.first_digest = None
        self.snapshot_s = 0.0
        self.snapshot_bytes = 0
        self.tracer = None
        self.clock = ReferenceClock()

    def _request(self, request: int) -> None:
        if self.tracer is not None:
            self.tracer.request = request

    def setup(self):
        """parse_scenario + World (registration) + initial_deal, timed up
        to the epoch-0 row. Returns (world, seconds), or (None, seconds)
        after a failed set-up."""
        gc.collect()
        self._request(0)
        start = self.clock.start()
        try:
            config = self.hs.config.parse_scenario(self.scenario)
            world = self.hs.simnet.World(config)
            world.initial_deal()
        except Exception as exc:  # counted as a failed operation
            self.tally.record(_error(exc))
            return None, self.clock.stop(start)
        elapsed = self.clock.stop(start)
        ok = self.tally.record(self.check_row(self.scenario, world.report.rows[0]))
        return (world if ok else None), elapsed

    def complete_run(self) -> dict | None:
        """Set-up, every epoch and the final reconstruction of one world.
        Returns its timings and the world, or None if an operation raised.
        Only program calls are timed, checks are not, all by ``self.clock``:
        ``other_s`` is the snapshot round trip (if any) plus ``finalize``,
        and ``run_s`` is set-up + every epoch + ``other_s``."""
        self.snapshot_s = 0.0
        world, setup_s = self.setup()
        if world is None:
            return None
        epochs = world.config.epochs
        epoch_s = []
        for epoch in range(1, epochs + 1):
            self._request(epoch)
            start = self.clock.start()
            try:
                row = world.step_epoch()
            except Exception as exc:  # counted; this world cannot go on
                self.tally.record(_error(exc))
                return None
            epoch_s.append(self.clock.stop(start))
            problems = self.check_row(self.scenario, row)
            if self.snapshot_mid_run and epoch == epochs // 2:
                problems += self._snapshot_round_trip(world)
            self.tally.record(problems)
        self._request(epochs + 1)
        start = self.clock.start()
        try:
            final = world.finalize()
        except Exception as exc:  # counted
            self.tally.record(_error(exc))
            return None
        other_s = self.snapshot_s + self.clock.stop(start)
        self.tally.record(self._final_problems(world, final))
        return {
            "setup_s": setup_s,
            "epoch_s": epoch_s,
            "other_s": other_s,
            "run_s": setup_s + sum(epoch_s) + other_s,
            "world": world,
        }

    def _snapshot_round_trip(self, world) -> list[str]:
        """save_world then load_world (timed into ``snapshot_s``), and
        compare the two worlds; the original world goes on."""
        snapshot = self.hs.snapshot
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{self.workload}-{os.getpid()}.snapshot")
        try:
            start = self.clock.start()
            snapshot.save_world(world, path)
            loaded = snapshot.load_world(path)
            self.snapshot_s = self.clock.stop(start)
            self.snapshot_bytes = os.path.getsize(path)
            if snapshot.world_to_dict(loaded) != snapshot.world_to_dict(world):
                return [f"epoch {world.epoch}: reloaded snapshot differs from the world"]
            return []
        except Exception as exc:  # counted
            return _error(exc)
        finally:
            if os.path.exists(path):
                os.remove(path)

    def _final_problems(self, world, final: dict) -> list[str]:
        problems = []
        if final.get("reconstruction_correct") is not True:
            problems.append("final reconstruction is not correct")
        digest = hashlib.sha256(self.hs.cli.report_json(world.report).encode()).hexdigest()
        if self.pinned_digest is not None and digest != self.pinned_digest:
            problems.append(f"report sha256 {digest} differs from the pinned {self.pinned_digest}")
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append(f"report sha256 {digest} differs from this process's first run")
        return problems

    # -- modes ------------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics, untraced, from the rounds described in the
        module docstring."""
        deadline = time.perf_counter() + seconds
        setups, runs = [], []
        while True:
            round_start = time.perf_counter()
            setup_end = round_start + SETUP_ROUND_S
            while True:
                world, elapsed = self.setup()
                setups.append(elapsed)
                del world
                if time.perf_counter() >= setup_end:
                    break
            run = self.complete_run()
            if run is None:
                break
            run.pop("world")
            runs.append(run)
            if 2 * time.perf_counter() - round_start > deadline:
                break
        if not runs:
            return {}  # the failure is in the tally
        setups += [run["setup_s"] for run in runs]
        epochs = [seconds for run in runs for seconds in run["epoch_s"]]
        run_s = [run["run_s"] for run in runs]
        return {
            "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
            "epoch_s_p50": (statistics.median(epochs), "s",
                            _epoch_note(epochs) + f" from {len(runs)} complete runs"),
            "run_s": (statistics.median(run_s), "s", f"median of {len(runs)} complete runs"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB",
                            "peak resident set of this process"),
        }

    def trace(self) -> dict:
        """Per-layer metrics from one traced complete run."""
        from tracing import Tracer

        self.setup()  # warm-up, so that the untraced run is not the process's first
        before = self.complete_run()
        self.tracer = Tracer()
        self.clock = traced_clock = ReferenceClock()
        with self.tracer:
            traced = self.complete_run()
        self.clock = ReferenceClock()
        after = self.complete_run()
        if before is None or traced is None or after is None:
            return {}
        os.makedirs(OUT, exist_ok=True)
        base = os.path.join(OUT, self.workload)
        self.tracer.write(base + ".spans.jsonl")
        summary = self.tracer.summary()
        by_epoch = self.tracer.calls_by_request()
        world = traced["world"]
        epochs = world.config.epochs
        with open(base + ".trace.json", "w", encoding="utf-8") as handle:
            json.dump({
                "workload": self.workload,
                "seed": self.seed,
                "epochs": epochs,
                "summary": summary,
                "calls_per_epoch": {
                    name: [by_epoch[name].get(epoch, 0) for epoch in range(epochs + 2)]
                    for name in COUNTED
                },
            }, handle, indent=1, sort_keys=True)
        return layer_metrics(summary, by_epoch, self.tracer.flagged, world, epochs,
                             self.snapshot_bytes,
                             traced["run_s"] / min(before["run_s"], after["run_s"]),
                             traced_clock.scale())


def layer_metrics(summary, by_epoch, flagged, world, epochs, snapshot_bytes, overhead,
                  scale) -> dict:
    """The per-layer metrics of BENCHMARK.json from a finished trace; self
    times are scaled to the reference host speed by ``scale``."""

    def calls(name):
        return summary[name]["calls"]

    def self_s(name):
        return summary[name]["self_s"] * scale

    def share(part, whole):
        return part / whole if whole else 0.0

    deltas = sum(row["messages"].get("renewal-delta", 0) for row in world.report.rows)
    out = {}
    for name in ("curve.scalar_mul", "curve.point_add", "proactive.verify_renewal",
                 "algebra.lagrange_at_zero", "algebra.poly_eval", "algebra.field_inverse",
                 "sharing.knowledge_closure", "hierarchy.children_of", "simnet.send"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("curve.scalar_mul", "proactive.renewal_round", "proactive.generate_renewal",
                 "proactive.apply_renewal", "proactive.verify_renewal",
                 "algebra.lagrange_at_zero", "algebra.poly_eval", "sharing.distribute",
                 "sharing.assign_eval_points", "sharing.reconstruct",
                 "sharing.knowledge_closure", "hierarchy.levels", "hierarchy.leave",
                 "hierarchy.rejoin", "hierarchy.register", "hierarchy.assign_round_keys",
                 "simnet.step_epoch", "simnet.adversary_can_reconstruct",
                 "config.parse_scenario", "snapshot.save_world", "snapshot.load_world"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in COUNTED:
        in_epochs = sum(by_epoch[name].get(epoch, 0) for epoch in range(1, epochs + 1))
        out[f"{name}.per_epoch"] = (share(in_epochs, epochs), "count/epoch")
    out["curve.scalar_mul.base_g_share"] = (
        share(flagged["curve.scalar_mul"], calls("curve.scalar_mul")), "ratio")
    out["proactive.verify_per_delta"] = (share(calls("proactive.verify_renewal"), deltas), "ratio")
    out["proactive.reject_share"] = (
        share(flagged["proactive.verify_renewal"], calls("proactive.verify_renewal")), "ratio")
    out["simnet.envelopes_retained"] = (len(world.envelopes), "count")
    out["snapshot.bytes"] = (snapshot_bytes, "B")
    out["trace_overhead"] = (overhead, "ratio")
    return out


def _epoch_note(epochs: list[float]) -> str:
    """Sample count, and the highest percentile with ten samples beyond it."""
    note = f"median of {len(epochs)} epochs"
    for pct in (99, 95, 90, 75):
        if len(epochs) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(epochs, n=100)[pct - 1]
            return note + f"; p{pct} {cut:.4f} s"
    return note


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        status |= subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        ).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    hs = import_program()
    bench = Bench(hs, args.workload, args.seed)
    started = time.perf_counter()
    metrics = bench.trace() if args.trace else bench.measure(args.seconds)
    tally = bench.tally

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{time.perf_counter() - started:.1f} s, python {sys.version.split()[0]}, "
          f"nproc {os.cpu_count()}")
    for name, (value, unit, *note) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:11s} {note[0] if note else ''}")
    if bench.clock.kernel_s:
        print(f"  times in s at the reference host speed; this host ran at "
              f"{bench.clock.scale():.3f}x it (kernel median "
              f"{statistics.median(bench.clock.kernel_s) * 1e3:.2f} ms, reference "
              f"{REFERENCE_S * 1e3:.2f} ms)")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'error_rate':40s} {error_rate:14.6g} {'ratio':11s} "
          f"{tally.failed} failed of {tally.attempted} attempted")
    for problem in tally.problems[:20]:
        print(f"  FAILED: {problem}")

    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_note) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
