"""Benchmark of the three routes glauberlab users run: evolve, bounds, kinetic.

    python3 bench/run.py --workload {evolve,bounds,kinetic} --seed N --seconds S --trace {0,1}

One process, one client, calls back to back (a closed loop), BLAS and
OpenMP threads pinned to 1.  The seed generates the workload's three
configs, which are written as config files and parsed back as the CLI
does.  A warm-up pass runs first; passes then repeat until S seconds have
passed.  Every call is gated outside its timed window: it fails if it
raises, fails the workload's correctness check, or writes outputs that
differ byte for byte from the first call on the same config.

--trace 0 reports the end-to-end metrics, with tracing off.  Call and pass
times are given in units of a fixed reference kernel timed between passes
(see Reference); the raw seconds are printed and kept in the result record.
--trace 1 reports the per-layer metrics: import and parse times from
`python -X importtime`, spans around the library's public functions
(untraced and traced passes alternate, so their difference is the tracing
overhead), and the size ladder.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Results,
per-call digests, the environment record and (traced runs) all spans go
to .bench_out/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # before numpy is first imported, here or in a set-up probe
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
MIN_PASSES = 3

END_TO_END = {
    "wall_ref": "ref",
    "call_p50_ref": "ref",
    "call_p90_ref": "ref",
    "work_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Reference:
    """A fixed kernel that shares no code with glauberlab: one `ref` of time.

    The host this benchmark was written on changes speed by up to 2x over
    minutes.  Interpreted Python and small numpy contractions slow down
    together, so dividing a pass's time by this kernel's time, taken just
    before and after the pass, cancels much of that drift on bounds and
    some on evolve (bench/NOTES.md has the figures).  A change to glauberlab moves the ratio as it moves the seconds;
    the kernel itself only changes with the benchmark.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._tensor = rng.uniform(size=(12,) * 4)
        self._vector = rng.uniform(size=12)

    def seconds(self):
        """One sustained timing, about 50 ms; bursts of a few ms tracked the host worse."""
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        for _ in range(1000):
            np.einsum("...i,i->...", self._tensor, self._vector)
        return time.perf_counter() - start


def per_layer_units():
    """Every per-layer metric name with its unit."""
    import ladder
    import spans

    units = {
        "setup.import_numpy_s": "s",
        "setup.import_scipy_s": "s",
        "setup.import_glauberlab_self_s": "s",
        "config.parse_config_s": "s",
    }
    for name in spans.SPAN_NAMES:
        units[name + "_s"] = "s"
        units[name + "_self_s"] = "s"
        units[name + "_calls"] = "count"
    units.update(spans.COUNTER_UNITS)
    units.update(
        {
            "vlasov.rhs_flops_per_s": "flop/s",
            "solver.substeps": "count",
            "solver.terms_per_substep": "count",
            "trace.spans": "count",
            "trace.untraced_wall_s": "s",
            "trace.traced_wall_s": "s",
            "trace.overhead_s": "s",
            "host.ref_s": "s",
        }
    )
    units.update(ladder.metric_units())
    return units


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu_record():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / name).read_text().strip() for name in ("level", "type", "size")
            )
        except OSError:
            continue
        caches["L%s-%s" % (level, kind)] = size
    return model, caches


def environment(seed):
    import scipy

    model, caches = _cpu_record()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_caches": caches,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def import_seconds(stderr):
    """From `-X importtime` output: numpy and scipy cumulative, glauberlab self.

    A package's cumulative time is the sum over its outermost import lines,
    those not nested inside another import of the same package.  The lines
    are printed children first, so they are read in reverse to see parents
    before children.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue
        label = fields[2][1:]
        depth = (len(label) - len(label.lstrip(" "))) // 2
        rows.append((self_us, cumulative_us, depth, label.strip().split(".")[0]))
    cumulative = {"numpy": 0, "scipy": 0}
    glauberlab_self = 0
    ancestors = []
    for self_us, cumulative_us, depth, package in reversed(rows):
        del ancestors[depth:]
        if package in cumulative and package not in ancestors:
            cumulative[package] += cumulative_us
        if package == "glauberlab":
            glauberlab_self += self_us
        ancestors.append(package)
    return {
        "setup.import_numpy_s": cumulative["numpy"] / 1e6,
        "setup.import_scipy_s": cumulative["scipy"] / 1e6,
        "setup.import_glauberlab_self_s": glauberlab_self / 1e6,
    }


def measure_setup(config_path, builds_hierarchy, importtime):
    """Fresh-interpreter probes: median set-up seconds, or median layer times."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH / "probe.py"), str(config_path)]
    if builds_hierarchy:
        cmd.append("--hierarchy")
    samples = []
    # the first probe may compile bytecode; it is not counted
    for probe in range(SETUP_PROBES + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr[-2000:])
        reply = json.loads(proc.stdout.splitlines()[-1])
        sample = {"setup_s": reply["ready"] - start, "config.parse_config_s": reply["parse_config_s"]}
        if importtime:
            sample.update(import_seconds(proc.stderr))
        if probe > 0:
            samples.append(sample)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def digest_dir(path):
    return {
        name: hashlib.sha256((path / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(path))
    }


class Runner:
    """Runs passes over the workload's configs and gates every call."""

    def __init__(self, workload, configs, seed, work_dir):
        self.workload = workload
        self.configs = configs
        self.seed = seed
        self.out_dirs = []
        for index in range(len(configs)):
            out = work_dir / ("call%d" % index)
            out.mkdir(parents=True, exist_ok=True)
            self.out_dirs.append(out)
        self.first_digests = [None] * len(configs)
        self.calls = []

    def run_pass(self, tracer=None):
        """One call per config; returns (seconds per call, work done)."""
        seconds, work = [], 0
        for index, cfg in enumerate(self.configs):
            out = self.out_dirs[index]
            problems = []
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = self.workload.call(cfg, out)
                else:
                    result = tracer.call(self.workload.call, cfg, out)
            except Exception:
                result = None
                problems.append("raised: " + traceback.format_exc(limit=3))
            elapsed = time.perf_counter() - start
            if result is not None:
                try:
                    problems += self.workload.check(
                        cfg, result, out, np.random.default_rng([self.seed, index, 7])
                    )
                    work += self.workload.work(cfg, result)
                except Exception:
                    problems.append("check raised: " + traceback.format_exc(limit=3))
            digest = digest_dir(out)
            if self.first_digests[index] is None:
                self.first_digests[index] = digest
            elif digest != self.first_digests[index]:
                problems.append("outputs differ from the first call on this config")
            self.calls.append(
                {"config": index, "seconds": elapsed, "traced": tracer is not None,
                 "digest": digest, "problems": problems}
            )
            seconds.append(elapsed)
        return seconds, work

    @property
    def failed(self):
        return sum(1 for call in self.calls if call["problems"])


def _pass_statistics(passes, suffix, unit):
    """Median pass time, call percentiles and median work rate.

    passes holds (call seconds, work, ref seconds) per pass; times are
    divided by unit(ref seconds).
    """
    calls = [s / unit(ref) for call_seconds, _, ref in passes for s in call_seconds]
    return {
        "wall" + suffix: statistics.median(sum(c) / unit(ref) for c, _, ref in passes),
        "call_p50" + suffix: statistics.median(calls),
        "call_p90" + suffix: statistics.quantiles(calls, n=10)[8],
        "work_per" + suffix: statistics.median(w * unit(ref) / sum(c) for c, w, ref in passes),
    }


def end_to_end(runner, seconds, setup):
    reference = Reference()
    passes = []
    runner.run_pass()
    before = reference.seconds()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        call_seconds, work = runner.run_pass()
        after = reference.seconds()
        passes.append((call_seconds, work, (before + after) / 2.0))
        before = after
    metrics = _pass_statistics(passes, "_ref", lambda ref: ref)
    metrics["setup_s"] = setup["setup_s"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = _pass_statistics(passes, "_s", lambda ref: 1.0)
    raw["ref_s"] = statistics.median(ref for _, _, ref in passes)
    counts = {"passes": len(passes), "call_samples": len(passes) * len(runner.configs)}
    return metrics, dict(counts, raw_seconds=raw)


def per_layer(runner, seconds, setup, seed, work_dir):
    import ladder
    import spans

    tracer = spans.Tracer()
    reference = Reference()
    untraced, traced, summaries, refs = [], [], [], []
    runner.run_pass()
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        refs.append(reference.seconds())
        untraced.append(sum(runner.run_pass()[0]))
        mark = tracer.mark()
        traced.append(sum(runner.run_pass(tracer)[0]))
        summaries.append(tracer.summary(mark))
    metrics = {key: setup[key] for key in setup if key != "setup_s"}
    for key in summaries[0]:
        middle = statistics.median if key.endswith("_s") else statistics.median_low
        metrics[key] = middle(s[key] for s in summaries)
    birth_calls = metrics["generators.apply_birth_calls"]
    metrics["generators.apply_birth_bytes"] = (
        metrics["generators.apply_birth_bytes"] // birth_calls if birth_calls else 0
    )
    integrate_s = metrics["vlasov.integrate_s"]
    metrics["vlasov.rhs_flops_per_s"] = metrics["vlasov.rhs_flops"] / integrate_s if integrate_s else 0.0
    # one local solve (one Taylor series) per substep, one generator application per term
    substeps = metrics["solver.taylor_evolve_calls"]
    metrics["solver.substeps"] = substeps
    metrics["solver.terms_per_substep"] = (
        metrics["generators.apply_generator_calls"] / substeps if substeps else 0.0
    )
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["host.ref_s"] = statistics.median(refs)
    metrics.update(ladder.run(seed, work_dir))
    tracer.write(work_dir / ("spans-seed%d.json" % seed))
    return metrics, {"passes": len(traced) + len(untraced), "traced_passes": len(traced)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("evolve", "bounds", "kinetic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "glauberlab" / "__init__.py").is_file():
        sys.stderr.write("error: no glauberlab sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    from glauberlab.config import parse_config
    from workloads import WORKLOADS, config_text

    workload = WORKLOADS[args.workload]
    work_dir = OUT / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    configs, config_paths = [], []
    for index, cfg in enumerate(workload.make_configs(args.seed)):
        path = work_dir / ("config%d.conf" % index)
        path.write_text(config_text(cfg))
        parsed = parse_config(path)
        if parsed != cfg:
            raise RuntimeError("config %s does not parse back to what was generated" % path)
        configs.append(parsed)
        config_paths.append(path)

    env = environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    setup = measure_setup(config_paths[0], workload.builds_hierarchy, importtime=bool(args.trace))
    runner = Runner(workload, configs, args.seed, work_dir)
    if args.trace:
        metrics, counts = per_layer(runner, args.seconds, setup, args.seed, work_dir)
        units = per_layer_units()
    else:
        metrics, counts = end_to_end(runner, args.seconds, setup)
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError("metric names drifted: %s" % sorted(set(metrics) ^ set(units)))

    attempted, failed = len(runner.calls), runner.failed
    run_digest = hashlib.sha256(json.dumps(runner.first_digests, sort_keys=True).encode()).hexdigest()
    print("workload: %s: %s; bypasses %s; work counted in %s"
          % (workload.name, workload.why, workload.bypasses, workload.work_unit))
    print("samples: %s" % json.dumps(counts, sort_keys=True))
    print("fail_ratio: %d/%d = %.6g" % (failed, attempted, failed / attempted))
    print("run_digest: " + run_digest)
    for call in runner.calls:
        for problem in call["problems"]:
            print("FAIL config %d: %s" % (call["config"], problem))
    for name in sorted(metrics):
        print("%-44s %.6g %s" % (name, metrics[name], units[name]))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    record = dict(result, env=env, workload=workload.name, trace=args.trace,
                  seconds=args.seconds, counts=counts, run_digest=run_digest,
                  calls=runner.calls)
    with open(work_dir / ("result-seed%d-trace%d.json" % (args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
