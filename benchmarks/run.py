#!/usr/bin/env python3
"""Benchmark of both g2heights height engines, end to end and per module.

One process and one thread; each workload is a closed loop with a single
caller that runs whole rounds of the same operations until --seconds have
passed, then checks every output against the oracles in oracles.py.

  reference-256     `g2heights compare` in process, on ex1, ex2, ex3 at 256 bits
  reference-1024    the same at 1024 bits
  scrambled-domain  siegel.reduce + theta.archimedean_term at 256 bits, on
                    base matrices in F2 moved off it by random Sp4(Z) words

Run from the repository root:

  python3 benchmarks/run.py --workload reference-256 --seed 1 --seconds 20 --trace 0

--workload all runs the three one after another.  The last line of stdout is
the result as JSON: the end-to-end metrics, or with --trace 1 the per-module
ones.  The full record goes to benchmarks/out/BENCH_<workload>_<seed>_<trace>.json.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import OP, Tracer  # noqa: E402  (imports nothing of g2heights)

WORKLOADS = ("reference-256", "reference-1024", "scrambled-domain")
JOBS = ("ex1", "ex2", "ex3")
SETUP_SAMPLES = 3           # setups per run, one in process and the rest in children
CAL_REF_S = 0.018           # kernel seconds that calibrated times are scaled to
# (Im z11, Im z12, Im z22) of the isotropic bases; their real parts come from
# --seed.  Fixed imaginary parts fix the theta box sizes, so the seed moves
# the inputs but not the spread of per-operation costs that op_p90_s reads.
ISOTROPIC_IM = tuple((y11, 0.2, y22) for y11 in (1.0, 1.2, 1.4) for y22 in (1.5, 2.5, 4.0))
# words per base matrix; the job bases get more, so that ex1_s..ex3_s have
# a dozen or more samples per run
WORDS_PER_BASE = {"job": 6, "isotropic": 3, "anisotropic": 3}
# every operation on the anisotropic bases raises Chi10NearZeroError today
# (see README, named fault), so neither they nor their words depend on --seed
ANISOTROPIC_BASES = (("0.1", "1.1", "0.2", "0.3", "-0.3", "60"),
                     ("-0.2", "1.05", "0.35", "0.25", "0.15", "95"),
                     ("0.3", "0.98", "-0.1", "0.4", "0.45", "35"),
                     ("-0.45", "1.3", "0.15", "0.6", "-0.2", "75"))
# words of the job and anisotropic bases; fixed so that ex1_s..ex3_s and the
# failed share do not move with --seed
FIXED_WORD_SEED = 1506024850
# per-module metrics of a traced run: self time (s) or calls per timed
# operation; cold_s is log_gamma's self time in the warm-up pass, and
# trace.op_s the traced time of a whole operation
LAYER_METRICS = (
    "theta.theta_all.self_s", "theta.theta_all.calls", "theta.archimedean_term.self_s",
    "siegel.reduce.self_s", "siegel.act.self_s", "siegel.act.calls",
    "prec.log_gamma.self_s", "prec.log_gamma.calls", "prec.log_gamma.cold_s",
    "colmez.colmez_height.self_s", "prec.poly_roots.self_s",
    "cmperiod.select_tau.self_s", "cmperiod.period_matrix.self_s",
    "igusa.igusa_invariants.self_s", "igusa.finite_height_part.self_s",
    "cli.job.self_s", "heights.height_local.self_s", "heights.compare.self_s",
    "trace.op_s")


def load_program():
    """Import g2heights from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "g2heights" / "__init__.py").is_file():
        sys.exit(f"error: no g2heights sources under {src}")
    sys.path.insert(0, str(src))
    import g2heights
    from g2heights import cli, cmperiod, colmez, heights, siegel, theta
    if Path(g2heights.__file__).resolve().parent != (src / "g2heights").resolve():
        sys.exit(f"error: g2heights imported from {g2heights.__file__}, not {src}")
    return {"cli": cli, "cmperiod": cmperiod, "colmez": colmez,
            "heights": heights, "siegel": siegel, "theta": theta}


# ---- inputs -----------------------------------------------------------------

def write_jobs(bits):
    """ex1..ex3 job files at `bits`: the shipped jobs with their precision
    replaced, and ex1's tau_values recomputed from the closed form
    tau1 = sqrt5 e^{2 pi i/5}, tau2 = -sqrt5 e^{6 pi i/5} to bits/3 + 20 digits."""
    import mpmath as mp
    outdir = OUT / f"jobs-{bits}"
    outdir.mkdir(parents=True, exist_ok=True)
    digits = bits // 3 + 20
    with mp.workdps(digits + 10):
        taus = (mp.sqrt(5) * mp.expjpi(mp.mpf(2) / 5),
                -mp.sqrt(5) * mp.expjpi(mp.mpf(6) / 5))
        ex1_taus = ", ".join(f"{mp.nstr(mp.re(t), digits)}+{mp.nstr(mp.im(t), digits)}*i"
                             for t in taus)
    paths = {}
    for name in JOBS:
        lines = []
        for line in (ROOT / "jobs" / f"{name}.job").read_text().splitlines():
            key = line.split("=", 1)[0].strip()
            if key == "precision":
                line = f"precision = {bits}"
            elif key == "tau_values" and name == "ex1":
                line = f"tau_values = {ex1_taus}"
            lines.append(line)
        paths[name] = outdir / f"{name}.job"
        paths[name].write_text("\n".join(lines) + "\n")
    return paths


def random_base(rng, im, mp, in_f2):
    """A matrix in the interior of F2 with imaginary parts im and real parts
    uniform in [-1/2, 1/2].  Its entries are doubles, so the oracle sees
    exactly the same matrix."""
    while True:
        Z = tuple(mp.mpc(rng.uniform(-0.5, 0.5), y) for y in im)
        if in_f2(Z, -1e-3):
            return Z


def random_word(rng, siegel):
    """A GL2 change of basis, then 3 factors J T(S), S symmetric with
    entries in [-2, 2]."""
    SM = siegel.SymplecticMatrix
    J = SM.from_blocks([[0, 0], [0, 0]], [[-1, 0], [0, -1]],
                       [[1, 0], [0, 1]], [[0, 0], [0, 0]])
    g = SM.embed_gl2(rng.choice(([[1, 1], [0, 1]], [[0, 1], [1, 0]],
                                 [[1, 0], [1, 1]], [[1, 0], [0, -1]])))
    for _ in range(3):
        g = J * SM.translation(*(rng.randint(-2, 2) for _ in range(3))) * g
    return g


def job_oracles(name, job, oracles, bits):
    """The Colmez value through mpmath.loggamma and the closed-form finite
    part of a parsed job."""
    f = int(job["f_K"])
    key = "table" if "character_table" in job else "gen"
    spec = dict(t.strip().split("=") for t in job[f"character_{key}"].split(","))
    return {"colmez": oracles.colmez(f, oracles.character_table(f, {key: spec}), bits),
            "finite": oracles.finite_part(name, bits),
            "degree": int(job.get("degree", 1))}


class Reference:
    """`g2heights compare` in process: parse the job, build its context,
    curve, character and period matrices, and compare the two engines."""

    min_ops = 1

    def __init__(self, prog, bits, seed):
        self.prog, self.bits = prog, bits
        self.args = argparse.Namespace(precision_bits=bits)
        self.paths = write_jobs(bits)
        self.ops = [(name, self.paths[name]) for name in JOBS]
        self.warmup = self.ops

    def run(self, op):
        cli, heights = self.prog["cli"], self.prog["heights"]
        job = cli.parse_job(op[1])
        ctx = cli.job_ctx(job, self.args)
        curve = cli.job_curve(job)
        chi = cli.job_character(job)
        periods = cli.job_periods(job, ctx)
        return heights.compare(curve, periods, int(job.get("degree", 1)), chi,
                               ctx, tolerance=job.get("tolerance", "1e-9"))

    def prepare_oracles(self, oracles, mp):
        """Per job: the Colmez value by mpmath.loggamma, the closed-form finite
        part, and the naive-theta archimedean term of a reduced equivalent of
        the job's period matrix, all at higher precision."""
        cli, siegel = self.prog["cli"], self.prog["siegel"]
        from g2heights.prec import PrecisionContext
        self.hi = self.bits + 96
        self.ref = {}
        for name, path in self.ops:
            job = cli.parse_job(path)
            ctx = cli.job_ctx(job, self.args)
            Z = cli.job_periods(job, ctx)[0]
            _, zr = siegel.reduce(Z, PrecisionContext(self.hi))
            with mp.workprec(self.hi):
                self.ref[name] = dict(job_oracles(name, job, oracles, self.hi),
                                      tol=mp.mpf(job.get("tolerance", "1e-9")),
                                      arch=oracles.arch_naive(zr.entries(), self.hi)[1])

    def check(self, op, rep, oracles, mp):
        """(ok, agree, invariance) for one compare report."""
        ref, acc = self.ref[op[0]], mp.mpf(2) ** (32 - self.bits)
        with mp.workprec(self.hi):
            arch = rep.local.arch_terms[0][1] * ref["degree"]
            inv = abs(arch - ref["arch"])
            ok = (rep.passed and rep.discrepancy < ref["tol"]
                  and len(rep.local.arch_terms) == 1
                  and abs(rep.colmez - ref["colmez"]) <= acc
                  and abs(rep.colmez - mp.mpf(oracles.PRINTED_HEIGHT[op[0]])) < oracles.PRINTED_TOL
                  and abs(rep.local.finite_part * ref["degree"] - ref["finite"]) <= acc
                  and abs(rep.local.total - ref["colmez"]) <= acc
                  and inv <= acc)
            return ok, rep.discrepancy, inv


class Scrambled:
    """siegel.reduce then theta.archimedean_term on gamma Z0, for base
    matrices Z0 in F2 and random Sp4(Z) words gamma."""

    min_ops = 100  # so that op_p90_s has ten operations beyond it

    def __init__(self, prog, bits, seed):
        import mpmath as mp
        import oracles
        from g2heights.prec import PrecisionContext
        self.prog, self.bits = prog, bits
        self.ctx = PrecisionContext(bits)
        self.hi = self.ctx.workbits + 64
        cli, siegel = prog["cli"], prog["siegel"]
        args = argparse.Namespace(precision_bits=bits)
        self.paths = write_jobs(bits)
        self.bases = []  # (label, Z0 entries, kind)
        for name, path in self.paths.items():
            job = cli.parse_job(path)
            _, zr = siegel.reduce(cli.job_periods(job, cli.job_ctx(job, args))[0], self.ctx)
            self.bases.append((name, zr.entries(), "job"))
        rng = random.Random(seed)
        for k, im in enumerate(ISOTROPIC_IM):
            self.bases.append((f"iso{k}", random_base(rng, im, mp, oracles.in_f2), "isotropic"))
        for k, z in enumerate(ANISOTROPIC_BASES):
            Z = tuple(mp.mpc(mp.mpf(z[i]), mp.mpf(z[i + 1])) for i in (0, 2, 4))
            self.bases.append((f"aniso{k}", Z, "anisotropic"))
        fixed = random.Random(FIXED_WORD_SEED)
        self.ops = []
        with mp.workprec(self.hi):
            for b, (label, Z0, kind) in enumerate(self.bases):
                Zb = prog["theta"].PeriodMatrix(*Z0)
                for _ in range(WORDS_PER_BASE[kind]):
                    word = random_word(rng if kind == "isotropic" else fixed, siegel)
                    self.ops.append((label, siegel.act(word, Zb), b))
        self.warmup = [next(op for op in self.ops if op[2] == b)
                       for b in range(len(self.bases))]

    def run(self, op):
        siegel, theta = self.prog["siegel"], self.prog["theta"]
        _, zred = siegel.reduce(op[1], self.ctx)
        return zred, theta.archimedean_term(zred, self.ctx)

    def prepare_oracles(self, oracles, mp):
        """Per base: the naive-theta archimedean term, at a precision that
        leaves the smallest theta constant with hi bits; for the job bases
        also the Colmez value and the closed-form finite part; for the
        anisotropic bases log2|chi10| and its sharp bound, for the record."""
        self.ref, self.anisotropic = [], []
        for label, Z0, kind in self.bases:
            y11, y12, y22 = (mp.im(z) for z in Z0)
            bits = self.hi + int(1.14 * (y11 + 2 * y12 + y22)) + 1
            log2_chi, arch = oracles.arch_naive(Z0, bits)
            ref = {"arch": arch}
            if kind == "anisotropic":
                with mp.workprec(self.hi):
                    sharp = oracles.log2_chi10_sharp_bound(Z0)
                self.anisotropic.append({"base": label, "Z0": [str(z) for z in Z0],
                                         "log2_chi10": float(log2_chi),
                                         "log2_sharp_bound": float(sharp)})
            if kind == "job":
                job = self.prog["cli"].parse_job(self.paths[label])
                ref.update(job_oracles(label, job, oracles, self.hi))
            self.ref.append(ref)

    def check(self, op, result, oracles, mp):
        zred, arch = result
        ref, acc = self.ref[op[2]], mp.mpf(2) ** (32 - self.bits)
        with mp.workprec(self.hi):
            Z = zred.entries()
            y11, y12, y22 = (mp.im(z) for z in Z)
            log2_chi = -(10 * arch + 5 * mp.log(y11 * y22 - y12 ** 2)
                         + 8 * mp.log(2) + 10 * mp.log(mp.pi)) / mp.log(2)
            inv = abs(arch - ref["arch"])
            ok = (oracles.in_f2(Z, mp.mpf(2) ** (-(self.bits // 2)))
                  and log2_chi >= oracles.log2_chi10_sharp_bound(Z) - 1e-9
                  and inv <= acc)
            agree = None
            if "colmez" in ref:
                agree = abs(ref["finite"] + ref["degree"] * arch - ref["colmez"])
                ok = ok and agree <= acc
            return ok, agree, inv


# ---- the timed loop ---------------------------------------------------------

def calibrate(mp):
    """Seconds taken by a fixed mpmath kernel (complex exp and products at
    288 bits).  Other tenants slow this host by up to 2x within seconds, so
    every time is scaled by CAL_REF_S over the kernel's time next to it."""
    t = time.perf_counter()
    with mp.workprec(288):
        x = mp.mpf(1) / 3
        z = mp.mpc(x, x)
        for _ in range(300):
            z = mp.expjpi(z * x) * z + x
    return time.perf_counter() - t


class Calibration:
    """Runs the kernel between timed segments; factor() scales the segment
    just ended by the mean of the kernel times on either side of it."""

    def __init__(self, mp):
        self.mp = mp
        self.samples = [calibrate(mp)]

    def factor(self):
        self.samples.append(calibrate(self.mp))
        return CAL_REF_S / ((self.samples[-2] + self.samples[-1]) / 2)


def setup(workload, seed, trace):
    """Import g2heights, build the inputs and run one warm-up operation per
    distinct input.  mpmath is imported before the clock starts.  Returns the
    workload object, the tracer, and the calibrated and raw seconds of each
    segment: the import and inputs, then each warm-up operation."""
    import mpmath as mp
    cal = Calibration(mp)
    t0 = time.perf_counter()
    prog = load_program()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(prog)
    bits = 1024 if workload == "reference-1024" else 256
    cls = Scrambled if workload == "scrambled-domain" else Reference
    wl = cls(prog, bits, seed)
    wl.call = tracer.wrap(OP, wl.run) if tracer else wl.run
    raw = [time.perf_counter() - t0]
    factors = [cal.factor()]
    for k, op in enumerate(wl.warmup):
        if tracer:
            tracer.tag = f"warmup{k}"
        raw.append(attempt(wl, op)[0])
        factors.append(cal.factor())
    return wl, tracer, raw, factors


def attempt(wl, op):
    """(seconds, result or None, exception type name or None)."""
    t = time.perf_counter()
    try:
        res = wl.call(op)
    except Exception as exc:  # counted as a failed operation, by type
        return time.perf_counter() - t, None, type(exc).__name__
    return time.perf_counter() - t, res, None


def measure(wl, tracer, seconds, seed, oracles, mp):
    """Whole rounds of wl.ops in a seeded order until `seconds` have passed
    and at least wl.min_ops operations ran, each timed, calibrated and checked."""
    rng = random.Random(seed)
    m = {"times": [], "raw": [], "factors": [], "by_job": {name: [] for name in JOBS},
         "failures": Counter(), "failed_inputs": set(), "agree": [], "invariance": [],
         "correct": True, "rounds": 0}
    t0 = time.perf_counter()
    cal = Calibration(mp)
    while len(m["times"]) < wl.min_ops or time.perf_counter() - t0 < seconds:
        order = list(range(len(wl.ops)))
        rng.shuffle(order)
        for i in order:
            op = wl.ops[i]
            if tracer:
                tracer.tag = len(m["times"])
            dt, res, err = attempt(wl, op)
            factor = cal.factor()
            m["times"].append(dt * factor)
            m["raw"].append(dt)
            m["factors"].append(factor)
            if op[0] in m["by_job"]:
                m["by_job"][op[0]].append(dt * factor)
            if err:
                m["failures"][err] += 1
                m["failed_inputs"].add(f"{op[0]}:{err}")
                continue
            ok, ag, inv = wl.check(op, res, oracles, mp)
            m["correct"] = m["correct"] and ok
            if ag is not None:
                m["agree"].append(ag)
            m["invariance"].append(inv)
        m["rounds"] += 1
    m["failed_inputs"] = sorted(m["failed_inputs"])
    m["kernel_seconds"] = cal.samples
    return m


def bits_of(errors, floor, mp):
    return float(-mp.log(max(max(errors), mp.mpf(2) ** -floor), 2))


def child_setup_seconds(workload, seed):
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--workload", workload, "--seed", str(seed), "--setup-only"],
                         capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def environment(mp):
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"python": platform.python_version(), "mpmath": mp.__version__,
            "mpmath_backend": mp.libmp.BACKEND, "nproc": cpus,
            "machine": platform.machine(), "processor": platform.processor()}


def layer_metrics(tracer, m, warm_factors):
    """Self time (calibrated seconds) and calls per timed operation, for each
    wrapped module function; log_gamma's self time in the warm-up pass."""
    n = len(m["times"])
    timed = tracer.totals(dict(enumerate(m["factors"])))
    warm = tracer.totals({f"warmup{k}": f for k, f in enumerate(warm_factors)})
    metrics = {}
    for metric in LAYER_METRICS:
        name, kind = metric.rsplit(".", 1)
        if metric == "prec.log_gamma.cold_s":
            value, unit = warm.get("prec.log_gamma", [0, 0.0])[1], "s"
        elif name == "trace":
            value, unit = timed[OP][2] / n, "s"
        else:
            calls, self_s, _ = timed.get(name, (0, 0.0, 0.0))
            value, unit = (calls / n, "count") if kind == "calls" else (self_s / n, "s")
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def run_workload(args):
    wl, tracer, raw, factors = setup(args.workload, args.seed, args.trace)
    own_setup = {"setup_s": sum(r * f for r, f in zip(raw, factors)), "raw_s": sum(raw)}
    if args.setup_only:
        print(json.dumps(own_setup))
        return 0
    import mpmath as mp
    import oracles
    diag = oracles.check_theta_naive(256)
    if diag > mp.mpf(2) ** -240:
        sys.exit(f"error: naive theta oracle disagrees with jtheta by {diag}")
    wl.prepare_oracles(oracles, mp)
    m = measure(wl, tracer, args.seconds, args.seed, oracles, mp)
    n, t = len(m["times"]), m["times"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(mp),
              "calibration_ref_s": CAL_REF_S, "rounds": m["rounds"],
              "ops_per_round": len(wl.ops), "failures_by_type": dict(m["failures"]),
              "failed_inputs": m["failed_inputs"], "op_seconds": m["by_job"],
              "all_op_seconds": t, "raw_op_seconds": m["raw"],
              "kernel_seconds": m["kernel_seconds"]}
    if hasattr(wl, "anisotropic"):
        record["anisotropic_bases"] = wl.anisotropic
    if tracer:
        metrics = layer_metrics(tracer, m, factors[1:])
        record["spans"] = tracer.spans
    else:
        setups = [own_setup]
        setups += [child_setup_seconds(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - 1)]
        record["setup_samples"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "ops_per_s": {"value": n / sum(t), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(t), "unit": "s"},
            "op_p90_s": {"value": statistics.quantiles(t, n=10, method="inclusive")[8],
                         "unit": "s"},
        }
        for name in JOBS:
            metrics[f"{name}_s"] = {"value": statistics.median(m["by_job"][name]), "unit": "s"}
        metrics["agree_bits"] = {"value": bits_of(m["agree"], wl.hi, mp), "unit": "bits"}
        metrics["invariance_bits"] = {"value": bits_of(m["invariance"], wl.hi, mp),
                                      "unit": "bits"}
    result = {"correct": m["correct"], "attempted": n,
              "failed": sum(m["failures"].values()), "metrics": metrics}
    record["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"BENCH_{args.workload}_{args.seed}_{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"rounds={m['rounds']} ops/round={len(wl.ops)} "
          f"failures={dict(m['failures'])} record={path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """The three workloads one after another, each in its own process."""
    for workload in WORKLOADS:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--workload", workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)],
                             capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        print(workload, out.stdout.strip().splitlines()[-1])
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
