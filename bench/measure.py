"""Timing helpers shared by bench/run.py and its worker: spans,
the machine-speed reference, and the per-block summaries of a loop."""

import json
import statistics
from time import perf_counter_ns

# every layer a span can be charged to; `bench` is the benchmark's own code
LAYERS = ("interp", "import", "quantities", "ladder", "spectrum", "compare", "cli", "bench")


# The machines this runs on are shared: their speed drifts by tens of
# percent within seconds as other tenants come and go. Every end-to-end
# time is therefore scaled by how fast a fixed pure-Python kernel ran just
# around it in the same process: reported = measured * scale, with
# scale = REFERENCE_NS / median of the kernel's last few times. The kernel
# never touches dimorb, so a change to dimorb moves only the measured
# part. REFERENCE_NS is about the kernel's median time on the shared
# 2-core x86-64 host (CPython 3.11) the benchmark was tuned on, so scaled
# and raw times are of the same size there; result files keep both.
REFERENCE_NS = 3_000_000
SPEED_INTERVAL_NS = 50_000_000  # at most one kernel sample per 50 ms of run
SPEED_WINDOW = 5


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_kernel():
    """Fixed interpreter work of the kind dimorb does: objects, dicts, float formatting."""
    table = {}
    total = 0.0
    for i in range(3000):
        p = _Point(i, i * 0.5)
        table[i % 17] = p
        total += p.a * p.b / (1 + p.a)
        f"{total:.6g}"
    return total


class Speed:
    """Timings of a fixed reference job, taken between ops, outside any timed region.

    The default job is `reference_kernel`, run in this process. Ops that
    are whole processes pass a job that starts a bare interpreter instead,
    with its own reference time.
    """

    def __init__(self, job=reference_kernel, reference_ns=REFERENCE_NS,
                 interval_ns=SPEED_INTERVAL_NS):
        self.job = job
        self.reference_ns = reference_ns
        self.interval_ns = interval_ns
        self.samples = []
        self.next_ns = 0
        self.local = 1.0

    def sample(self):
        t0 = perf_counter_ns()
        self.job()
        t1 = perf_counter_ns()
        self.samples.append(t1 - t0)
        self.next_ns = t1 + self.interval_ns
        self.local = self.reference_ns / statistics.median(self.samples[-SPEED_WINDOW:])

    def tick(self):
        """Sample if due; return the scale for the op that just ended."""
        if perf_counter_ns() >= self.next_ns:
            self.sample()
        return self.local


class Tracer:
    """Spans at layer boundaries, with each layer's self time summed as they close.

    A span is (id, name, layer, start_ns, end_ns, parent id or -1, op id).
    Self time is a span's duration minus that of its child spans. Spans
    of the first KEEP_OPS ops stay in memory until `dump`; later ones only
    add to the totals, so memory stays flat however long the run.
    """

    KEEP_OPS = 1000

    def __init__(self):
        self.spans = []
        self.stack = []  # open spans: [id, name, layer, start_ns, child_ns]
        self.next_id = 0
        self.op = 0
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.root_ns = 0

    def start(self, name, layer, start_ns=None):
        """Open a span; `start_ns` places one timed elsewhere, as in a child process."""
        t0 = perf_counter_ns() if start_ns is None else start_ns
        self.stack.append([self.next_id, name, layer, t0, 0])
        self.next_id += 1

    def end(self, end_ns=None):
        t1 = perf_counter_ns() if end_ns is None else end_ns
        span_id, name, layer, t0, child_ns = self.stack.pop()
        self.self_ns[layer] += t1 - t0 - child_ns
        if self.stack:
            self.stack[-1][4] += t1 - t0
            parent = self.stack[-1][0]
        else:
            self.root_ns += t1 - t0
            parent = -1
        if self.op < self.KEEP_OPS:
            self.spans.append((span_id, name, layer, t0, t1, parent, self.op))

    def call(self, layer, name, fn, *args):
        self.start(name, layer)
        try:
            return fn(*args)
        finally:
            self.end()

    def self_shares(self):
        """Each layer's self time over the time of all root spans."""
        return {layer: self.self_ns[layer] / self.root_ns if self.root_ns else 0.0
                for layer in LAYERS}

    def durations_us(self):
        """Median duration per `layer.name` of the kept spans, in microseconds."""
        by_name = {}
        for _, name, layer, t0, t1, _, _ in self.spans:
            by_name.setdefault(f"{layer}.{name}", []).append((t1 - t0) / 1e3)
        return {name: statistics.median(values) for name, values in by_name.items()}

    def dump(self, path):
        with open(path, "w") as out:
            for span_id, name, layer, t0, t1, parent, op in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "layer": layer,
                                      "start_ns": t0, "end_ns": t1, "parent": parent,
                                      "op": op}) + "\n")


class Loop:
    """Totals of one closed-loop phase: one client, next op after the last ends.

    Each op's times are multiplied by the speed scale in force when it ran.
    The scaled times are summarised per block of BLOCK_OPS consecutive
    ops, and every reported time is the median over blocks of that
    block's figure: a burst of load from elsewhere spoils a few blocks,
    not the result. Only the open block is kept, so memory stays flat
    however many ops a run completes.
    """

    BLOCK_OPS = 200  # 20 samples beyond each block's 90th percentile

    def __init__(self):
        self.block = []
        self.blocks = {"latency_ms_p50": [], "latency_ms_p90": [], "mean_ms": [],
                       "cpu_ms_per_op": []}
        self.busy_ns = 0
        self.cpu_ns = 0
        self.ops = 0
        self.failed = 0
        self.out_bytes = 0
        self.errors = []

    def record(self, wall_ns, cpu_ns, out_bytes, errors, scale):
        self.ops += 1
        self.busy_ns += wall_ns
        self.cpu_ns += cpu_ns
        self.out_bytes += out_bytes
        self.block.append((wall_ns * scale, cpu_ns * scale))
        if len(self.block) == self.BLOCK_OPS:
            self._close_block()
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.extend(errors[:3])

    def _close_block(self):
        walls = sorted(wall for wall, _ in self.block)
        deciles = statistics.quantiles(walls, n=10, method="inclusive") if len(walls) > 1 \
            else walls * 9
        self.blocks["latency_ms_p50"].append(deciles[4] / 1e6)
        self.blocks["latency_ms_p90"].append(deciles[8] / 1e6)
        self.blocks["mean_ms"].append(sum(walls) / len(walls) / 1e6)
        self.blocks["cpu_ms_per_op"].append(sum(cpu for _, cpu in self.block) / len(walls) / 1e6)
        self.block = []

    def summary(self):
        # a short last block joins the figures only when no block closed
        if self.block and (len(self.block) >= self.BLOCK_OPS // 2 or not self.blocks["mean_ms"]):
            self._close_block()
        scaled = {name: statistics.median(values) if values else 0.0
                  for name, values in self.blocks.items()}
        scaled["ops_per_s"] = 1e3 / scaled["mean_ms"] if scaled["mean_ms"] else 0.0
        ops = max(self.ops, 1)
        return {
            "ops": self.ops,
            "failed": self.failed,
            "blocks": self.blocks,
            "stdout_bytes_per_op": self.out_bytes / ops,
            "scaled": scaled,
            "raw": {
                "ops_per_s": self.ops / (self.busy_ns / 1e9) if self.busy_ns else 0.0,
                "mean_ms": self.busy_ns / ops / 1e6,
                "cpu_ms_per_op": self.cpu_ns / ops / 1e6,
            },
            "errors": self.errors,
        }
