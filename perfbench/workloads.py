"""The benchmark's workloads: seeded inputs, operations and their checks.

Each workload is a closed loop with one client: it runs a fixed list of
operations ("a round") in a seeded order, one at a time, and repeats rounds.
The seed draws the model parameters, the N and K values and the order; the
program only ever sees the generated inputs.  Parameters keep every kick
phase and coupling eigenvalue at least 0.7 apart, far outside the
clustering ambiguity band of zenosim.spectral.

Every operation carries a check against a reference that does not use the
code under test: a 40-digit mpmath result for the in-process workloads
(computed once, here, before any timing) and invariants of the written
files for cli-scenarios.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import zenosim

WORKLOADS = ("cli-scenarios", "long-drive", "dense-sampling")

# The console script `zenosim` runs exactly this.
CLI_ENTRY = "import sys; from zenosim.cli import main; sys.exit(main())"


class CheckFailed(Exception):
    """An operation's output broke its reference or an invariant."""


@dataclass
class Op:
    """One operation: a call into the program, and the check of its output.

    ``check`` returns the worst absolute deviation from the reference and
    raises CheckFailed when that deviation exceeds its tolerance or an
    invariant does not hold.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], float]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # the reported tail percentile: the highest of 75, 80, 90 with at least
    # ten of min_ops samples beyond it
    tail_pct: int
    # a run repeats whole rounds until it has measured at least this many
    # operations, so the tail percentile is always backed by ten samples
    min_ops: int
    # measured length of one round on a 2-core x86 host; sizes the traced run
    nominal_round_s: float
    warmup: Callable[[], None]
    # cli-scenarios reads mode["traced"] to start its children under the shim
    mode: dict = field(default_factory=lambda: {"traced": False})


def _deviation(got, ref, tol: float) -> float:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(ref))))
    if not err <= tol:
        raise CheckFailed(f"deviation {err:.3e} exceeds tolerance {tol:.3e}")
    return err


def _random_state(rng: np.random.Generator, dim: int, support=None) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if support is not None:
        mask = np.zeros(dim, dtype=bool)
        mask[list(support)] = True
        psi[~mask] = 0.0
    return psi / np.linalg.norm(psi)


def _jittered(nominal: float, rng: np.random.Generator) -> int:
    """A step count at most 3 % below a nominal decade point."""
    return int(round(nominal * (1.0 - 0.03 * rng.random())))


def _ladder(lo: float, hi: float, count: int, rng: np.random.Generator,
            integer: bool = True) -> list:
    """Geometric values from lo to hi, each moved down by a seeded fraction of
    at most 3 % and a third of the spacing, so they stay strictly increasing."""
    spacing = (hi / lo) ** (1.0 / (count - 1)) - 1.0
    jitter = min(0.03, spacing / 3.0)
    values = np.geomspace(lo, hi, count) * (1.0 - jitter * rng.random(count))
    out = [int(round(v)) for v in values] if integer else [float(v) for v in values]
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("ladder values must increase")
    return out


# ---------------------------------------------------------------------------
# parameters and program inputs (what set-up builds)
# ---------------------------------------------------------------------------

def draw(name: str, seed: int, root: Path) -> dict:
    """All seeded inputs of a workload, as plain numbers and arrays."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    if name == "cli-scenarios":
        runs = []
        for path in sorted((root / "scenarios").glob("*.json")):
            doc = json.loads(path.read_text())
            sets = [f"schedule.t={doc['schedule']['t'] * u(0.8, 1.2)!r}"]
            if doc["mechanism"] != "decay-sweep":
                sets.append(f"schedule.samples={int(rng.integers(17, 66))}")
            runs.append({"path": str(path.relative_to(root)), "set": sets})
        return {"runs": runs}
    if name == "long-drive":
        return {
            "t": u(0.8, 1.2),
            "proj": {"omega1": u(0.8, 1.2), "omega2": u(0.8, 1.2)},
            "kick": {"omega1": u(0.8, 1.2), "omega2": u(0.8, 1.2),
                     "lambda1": u(-0.2, 0.2), "lambda2": u(0.9, 1.1)},
            "rho3": _random_state(rng, 3),
            "psi_ab": _random_state(rng, 3, support=(0, 1)),
            "psi4": _random_state(rng, 4),
            "rho4": _random_state(rng, 4),
            # one N per engine and decade: 1e3, 1e4 and 1e5 kicks/measurements
            "n": {kind: [_jittered(10.0 ** j, rng) for j in (3, 4, 5)]
                  for kind in ("projective", "kicked-vector", "kicked-density",
                               "kicked_propagator", "extracted_kick_limit",
                               "projective_survival", "convergence_curve")},
            "pcc": [_ladder(16, 1024, 7, rng), _ladder(16, 4096, 7, rng)],
        }
    if name == "dense-sampling":
        decay = {"omega1": u(0.3, 0.7), "tau_z": u(0.8, 1.2),
                 "gamma": u(0.08, 0.12), "omega_b": u(-0.2, 0.2)}
        return {
            "cont": {"omega1": u(0.8, 1.2), "omega2": u(0.8, 1.2),
                     "coupling": u(200, 400)},
            "cont_t": u(0.8, 1.2), "cont_samples": int(rng.integers(780, 821)),
            "decay": decay, "decay_k": u(20, 60), "decay_t": u(4, 6),
            "decay_samples": int(rng.integers(390, 411)),
            "sweep_k": _ladder(10, 160, 200, rng, integer=False), "sweep_t": u(4, 6),
            "proj": {"omega1": u(0.8, 1.2), "omega2": u(0.8, 1.2)},
            "kick": {"omega1": u(0.8, 1.2), "omega2": u(0.8, 1.2),
                     "lambda1": u(-0.2, 0.2), "lambda2": u(0.9, 1.1)},
            "zeno_t": u(1.5, 2.5), "zeno_samples": int(rng.integers(975, 1026)),
            "step_t": u(0.8, 1.2),
            "step_n": [int(rng.integers(1950, 2051)) for _ in range(3)],
            "psi4": _random_state(rng, 4), "rho4": _random_state(rng, 4),
            "psi_b4": _random_state(rng, 4), "rho3": _random_state(rng, 3),
        }
    raise ValueError(f"unknown workload {name!r}")


def program_inputs(name: str, params: dict) -> dict:
    """Build the bundles and resolutions a workload's operations use.

    This is the part of set-up that runs program code; setup_s times it in
    a fresh process together with `import zenosim`.
    """
    zs = zenosim
    if name == "cli-scenarios":
        out = {}
        for run in params["runs"]:
            text = Path(run["path"]).read_text()
            doc = zs.config.apply_overrides(zs.config.load_document(text), run["set"])
            config = zs.config.validate_document(doc)
            if config.mechanism != "decay-sweep":
                bundle = config.build_bundle()
                out[run["path"]] = (config, bundle, bundle.resolution())
            else:
                out[run["path"]] = (config, None, None)
        return out
    if name == "long-drive":
        proj = zs.three_level_projective(**params["proj"])
        kick = zs.four_level_kicked(**params["kick"])
        return {"proj": proj, "kick": kick, "kick_res": kick.resolution()}
    cont = zs.four_level_continuous(**params["cont"])
    decay = zs.decay_model(coupling=params["decay_k"], **params["decay"])
    proj = zs.three_level_projective(**params["proj"])
    kick = zs.four_level_kicked(**params["kick"])
    return {"cont": cont, "cont_res": cont.resolution(),
            "decay": decay, "decay_res": decay.resolution(),
            "proj": proj, "kick": kick, "kick_res": kick.resolution()}


def order(workload: Workload, seed: int, round_index: int) -> list[Op]:
    rng = np.random.default_rng([seed, round_index])
    return [workload.ops[i] for i in rng.permutation(len(workload.ops))]


# ---------------------------------------------------------------------------
# long-drive: finite-N engines at N = 1e3, 1e4, 1e5 with few samples
# ---------------------------------------------------------------------------

def _long_drive(params: dict, inputs: dict) -> list[Op]:
    import oracle as o
    zs = zenosim
    t = params["t"]
    proj, kick = inputs["proj"], inputs["kick"]
    h3 = o.chain_hamiltonian(params["proj"]["omega1"], params["proj"]["omega2"], 3)
    h4 = o.chain_hamiltonian(params["kick"]["omega1"], params["kick"]["omega2"], 4)
    uk = o.kick_unitary(params["kick"]["lambda1"], params["kick"]["lambda2"])
    measured = o.measured_sectors()
    rho3 = np.outer(params["rho3"], params["rho3"].conj())
    rho4 = np.outer(params["rho4"], params["rho4"].conj())
    rho3_mp, rho4_mp = o.from_numpy(rho3), o.from_numpy(rho4)
    psi4_mp, psi_ab_mp = o.from_numpy(params["psi4"]), o.from_numpy(params["psi_ab"])
    # sector 0 of the measured model is span{a, b}, where psi_ab lives
    sector = next(i for i, p in enumerate(proj.res.projectors)
                  if abs(p[0, 0] - 1) < 1e-12)
    u_z4 = o.zeno_propagator(h4, o.probe_sectors(), t)
    rho_z3 = o.zeno_state(rho3_mp, h3, measured, t)
    ns = params["n"]
    ops: list[Op] = []

    def final_state(ref, tol):
        return lambda record: _deviation(record.final_state, ref, tol)

    def matrix(ref, tol):
        return lambda m: _deviation(m, ref, tol)

    for n in ns["projective"]:
        ref = o.to_numpy(o.projective_state(rho3_mp, h3, measured, t, n))
        ops.append(Op(f"evolve_projective[N={n}]",
                      lambda n=n: zs.evolve_projective(rho3, proj.H, proj.res, t, n, 33),
                      final_state(ref, o.tolerance(n, 3))))
    for n in ns["kicked-vector"]:
        step_n = o.power(o.kicked_step(h4, uk, t, n), n)
        ops.append(Op(f"evolve_kicked[vector,N={n}]",
                      lambda n=n: zs.evolve_kicked(params["psi4"], kick.H, kick.U_kick,
                                                   t, n, 33),
                      final_state(o.to_numpy(step_n * psi4_mp), o.tolerance(n, 4))))
    for n in ns["kicked-density"]:
        step_n = o.power(o.kicked_step(h4, uk, t, n), n)
        ref = o.to_numpy(step_n * rho4_mp * step_n.H)
        ops.append(Op(f"evolve_kicked[density,N={n}]",
                      lambda n=n: zs.evolve_kicked(rho4, kick.H, kick.U_kick, t, n, 33),
                      final_state(ref, o.tolerance(n, 4))))
    for n in ns["kicked_propagator"]:
        ref = o.to_numpy(o.power(o.kicked_step(h4, uk, t, n), n))
        ops.append(Op(f"kicked_propagator[N={n}]",
                      lambda n=n: zs.kicked_propagator(kick.H, kick.U_kick, t, n),
                      matrix(ref, o.tolerance(n, 4))))
    for n in ns["extracted_kick_limit"]:
        ref = o.to_numpy(o.power(uk.H, n) * o.power(o.kicked_step(h4, uk, t, n), n))
        ops.append(Op(f"extracted_kick_limit[N={n}]",
                      lambda n=n: zs.extracted_kick_limit(kick.H, kick.U_kick, t, n),
                      matrix(ref, o.tolerance(n, 4))))
    for n in ns["projective_survival"]:
        v = o.power(measured[0] * o.step_propagator(h3, t / n), n) * psi_ab_mp
        ref = o.frobenius(v) ** 2
        ops.append(Op(f"projective_survival[N={n}]",
                      lambda n=n: zs.projective_survival(params["psi_ab"], proj.H,
                                                         proj.res, sector, t, n),
                      matrix(ref, o.tolerance(n, 3))))
    for n in ns["convergence_curve"]:
        values = [int(round(v)) for v in np.geomspace(n / 64, n, 7)]
        ref = [o.opnorm(o.power(uk.H, v) * o.power(o.kicked_step(h4, uk, t, v), v)
                        - u_z4) for v in values]
        ops.append(Op(f"convergence_curve[N={values[0]}..{n}]",
                      lambda values=values: zs.convergence_curve(kick, t, values),
                      lambda curve, ref=ref, n=n: _deviation(
                          curve.distances, ref, o.tolerance(n, 4))))
    for values in params["pcc"]:
        ref = [o.frobenius(o.projective_state(rho3_mp, h3, measured, t, v) - rho_z3)
               for v in values]
        ops.append(Op(f"projective_convergence_curve[N={values[0]}..{values[-1]}]",
                      lambda values=values: zs.projective_convergence_curve(
                          proj, rho3, t, values),
                      lambda curve, ref=ref, n=values[-1]: _deviation(
                          curve.distances, ref, o.tolerance(n, 3))))
    return ops


def _long_drive_warmup(params: dict, inputs: dict) -> None:
    zs = zenosim
    proj, kick = inputs["proj"], inputs["kick"]
    rho3 = np.outer(params["rho3"], params["rho3"].conj())
    zs.evolve_projective(rho3, proj.H, proj.res, 1.0, 16, 5)
    zs.evolve_kicked(params["psi4"], kick.H, kick.U_kick, 1.0, 16, 5)
    zs.convergence_curve(kick, 1.0, [4, 8, 16])


# ---------------------------------------------------------------------------
# dense-sampling: sample-heavy calls, observables on every record
# ---------------------------------------------------------------------------

def _match_sectors(res, sectors) -> list[int]:
    """Index of the reference sector equal to each projector of ``res``."""
    import oracle as o
    refs = [o.to_numpy(p) for p in sectors]
    out = []
    for p in res.projectors:
        hits = [i for i, r in enumerate(refs) if np.max(np.abs(p - r)) < 1e-8]
        if len(hits) != 1:
            raise CheckFailed("a resolution projector matches no reference sector")
        out.append(hits[0])
    return out


def _dense_sampling(params: dict, inputs: dict) -> list[Op]:
    import oracle as o
    zs = zenosim
    cont, decay, proj, kick = (inputs[k] for k in ("cont", "decay", "proj", "kick"))
    cp, dp, pp, kp = (params[k] for k in ("cont", "decay", "proj", "kick"))
    probe = o.probe_sectors()
    measured = o.measured_sectors()
    h_cont = o.chain_hamiltonian(cp["omega1"], cp["omega2"], 4) \
        + cp["coupling"] * o.probe_coupling()
    h3 = o.chain_hamiltonian(pp["omega1"], pp["omega2"], 3)
    h4 = o.chain_hamiltonian(kp["omega1"], kp["omega2"], 4)
    uk = o.kick_unitary(kp["lambda1"], kp["lambda2"])
    rho3 = np.outer(params["rho3"], params["rho3"].conj())
    rho4 = np.outer(params["rho4"], params["rho4"].conj())
    rho3_mp, rho4_mp = o.from_numpy(rho3), o.from_numpy(rho4)
    psi4_mp = o.from_numpy(params["psi4"])
    ops: list[Op] = []

    def observed(engine, res, sectors, ref_state, tol):
        """Run the engine, then observables on its record; check both."""
        order_ = _match_sectors(res, sectors)
        ref_rho = ref_state if ref_state.cols > 1 else o.density(ref_state)
        ref_probs = o.probabilities(ref_rho, sectors)[order_]
        ref_purity = o.purity(ref_rho)
        ref_final = o.to_numpy(ref_state)

        def run():
            record = engine()
            return record, zs.observables(record, res)

        def check(out):
            record, series = out
            return max(_deviation(record.final_state, ref_final, tol),
                       _deviation(series.subspace_probabilities[-1], ref_probs, tol),
                       _deviation(series.purity[-1], ref_purity, tol))
        return run, check

    # each operation reads its own inputs: the lambdas run long after this
    # function returns, so they must not share a reassigned local
    t_c, k_c, n_c = params["cont_t"], cp["coupling"], params["cont_samples"]
    tol = o.tolerance(k_c * t_c, 4)
    u = o.step_propagator(h_cont, t_c)
    run, check = observed(
        lambda: zs.evolve_continuous(params["psi4"], cont.H, cont.H_c, k_c, t_c, n_c),
        inputs["cont_res"], probe, u * psi4_mp, tol)
    ops.append(Op("evolve_continuous[vector]", run, check))
    run, check = observed(
        lambda: zs.evolve_continuous(rho4, cont.H, cont.H_c, k_c, t_c, n_c),
        inputs["cont_res"], probe, u * rho4_mp * u.H, tol)
    ops.append(Op("evolve_continuous[density]", run, check))

    h_decay = o.decay_hamiltonian(dp["omega1"], dp["tau_z"], dp["gamma"], dp["omega_b"])
    t_d, k_d, n_d = params["decay_t"], params["decay_k"], params["decay_samples"]
    gen = h_decay + k_d * o.probe_coupling()
    ref = o.step_propagator(gen, t_d) * o.from_numpy(params["psi_b4"])
    run, check = observed(
        lambda: zs.evolve_continuous(params["psi_b4"], decay.H, decay.H_c, k_d, t_d, n_d),
        inputs["decay_res"], probe, ref, o.tolerance(o.frobenius(gen) * t_d, 4))
    ops.append(Op("evolve_continuous[decay]", run, check))

    t_z, n_z = params["zeno_t"], params["zeno_samples"]
    run, check = observed(
        lambda: zs.evolve_zeno_limit(rho3, proj.H, proj.res, t_z, n_z),
        proj.res, measured, o.zeno_state(rho3_mp, h3, measured, t_z),
        o.tolerance(o.frobenius(h3) * t_z, 3))
    ops.append(Op("evolve_zeno_limit[3-level]", run, check))
    run, check = observed(
        lambda: zs.evolve_zeno_limit(rho4, kick.H, inputs["kick_res"], t_z, n_z),
        inputs["kick_res"], probe, o.zeno_state(rho4_mp, h4, probe, t_z),
        o.tolerance(o.frobenius(h4) * t_z, 4))
    ops.append(Op("evolve_zeno_limit[4-level]", run, check))

    ks, t_s = params["sweep_k"], params["sweep_t"]
    survivals, worst = [], 0.0
    for k in ks:
        gen = h_decay + k * o.probe_coupling()
        survivals.append(abs(complex(o.step_propagator(gen, t_s)[1, 1])) ** 2)
        worst = max(worst, o.frobenius(gen) * t_s)
    tol_s = o.tolerance(worst, 4)
    ops.append(Op(f"decay_protection_sweep[{len(ks)} K]",
                  lambda: zs.decay_protection_sweep(dp["omega1"], dp["tau_z"],
                                                    dp["gamma"], dp["omega_b"], ks, t_s),
                  lambda result: _deviation(result.survivals, survivals, tol_s)))

    t_n = params["step_t"]
    n_proj, n_vec, n_dens = params["step_n"]
    run, check = observed(
        lambda: zs.evolve_projective(rho3, proj.H, proj.res, t_n, n_proj, n_proj + 1),
        proj.res, measured, o.projective_state(rho3_mp, h3, measured, t_n, n_proj),
        o.tolerance(n_proj, 3))
    ops.append(Op(f"evolve_projective[every step,N={n_proj}]", run, check))
    step_vec = o.power(o.kicked_step(h4, uk, t_n, n_vec), n_vec)
    run, check = observed(
        lambda: zs.evolve_kicked(params["psi4"], kick.H, kick.U_kick, t_n, n_vec,
                                 n_vec + 1),
        inputs["kick_res"], probe, step_vec * psi4_mp, o.tolerance(n_vec, 4))
    ops.append(Op(f"evolve_kicked[every step,vector,N={n_vec}]", run, check))
    step_dens = o.power(o.kicked_step(h4, uk, t_n, n_dens), n_dens)
    run, check = observed(
        lambda: zs.evolve_kicked(rho4, kick.H, kick.U_kick, t_n, n_dens, n_dens + 1),
        inputs["kick_res"], probe, step_dens * rho4_mp * step_dens.H,
        o.tolerance(n_dens, 4))
    ops.append(Op(f"evolve_kicked[every step,density,N={n_dens}]", run, check))
    return ops


def _dense_sampling_warmup(params: dict, inputs: dict) -> None:
    zs = zenosim
    cont, decay = inputs["cont"], inputs["decay"]
    rec = zs.evolve_continuous(params["psi4"], cont.H, cont.H_c, 1.0, 1.0, 5)
    zs.observables(rec, inputs["cont_res"])
    rec = zs.evolve_continuous(params["psi_b4"], decay.H, decay.H_c, 1.0, 1.0, 5)
    zs.observables(rec, inputs["decay_res"])


# ---------------------------------------------------------------------------
# cli-scenarios: `zenosim run <scenario> --quiet`, one fresh process each
# ---------------------------------------------------------------------------

_MODEL_DIM = {"three-level-projective": 3, "four-level-kicked": 4,
              "four-level-continuous": 4, "simplified-kicked": 3,
              "simplified-continuous": 3, "decay": 4}
_MODEL_SECTORS = {"three-level-projective": 2, "four-level-kicked": 3,
                  "four-level-continuous": 3, "simplified-kicked": 2,
                  "simplified-continuous": 2}


def expected_files(doc: dict) -> set[str]:
    """Files `zenosim run` must write for a scenario document."""
    base = doc.get("output", {}).get("path", doc["name"])
    outputs = set(doc["outputs"])
    files = set()
    if outputs & {"probabilities", "purity", "coherence"}:
        files.add(f"{base}_series.csv")
    if "convergence" in outputs:
        files.add(f"{base}_convergence.csv")
    if "survival" in outputs:
        files.add(f"{base}_survival.csv")
    if "propagator" in outputs:
        files.add(f"{base}_propagator.txt")
        if doc["mechanism"] == "zeno-limit":
            for i in range(_MODEL_SECTORS[doc["model"]["name"]]):
                files.add(f"{base}_sector{i + 1}_propagator.txt")
    return files


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if rows.ndim != 2 or len(rows) == 0 or not np.all(np.isfinite(rows)):
        raise CheckFailed(f"{path.name} has no finite rows")
    return header, rows


def check_cli_outputs(doc: dict, out_dir: Path, tol: float = 1e-9) -> float:
    """Invariants of the files one scenario run wrote; returns the worst
    deviation of the sector probabilities from summing to 1."""
    written = {p.name for p in out_dir.iterdir()}
    want = expected_files(doc)
    if written != want:
        raise CheckFailed(f"wrote {sorted(written)}, expected {sorted(want)}")
    dim = _MODEL_DIM[doc["model"]["name"]]
    worst = 0.0
    for name in sorted(want):
        path = out_dir / name
        if name.endswith("_series.csv"):
            header, rows = _read_csv(path)
            probs = [i for i, h in enumerate(header) if h.startswith("p_")]
            if probs:
                worst = max(worst, _deviation(rows[:, probs].sum(axis=1), 1.0, tol))
                if np.any(rows[:, probs] < -tol):
                    raise CheckFailed(f"{name}: negative sector probability")
            if "purity" in header:
                pur = rows[:, header.index("purity")]
                if np.any(pur < 1.0 / dim - tol) or np.any(pur > 1.0 + tol):
                    raise CheckFailed(f"{name}: purity outside [1/{dim}, 1]")
        elif name.endswith("_survival.csv"):
            _, rows = _read_csv(path)
            if np.any(rows[:, 1] < 0.0) or np.any(rows[:, 1] > 1.0):
                raise CheckFailed(f"{name}: survival outside [0, 1]")
        elif name.endswith("_convergence.csv"):
            _, rows = _read_csv(path)
            if np.any(rows[:, 1] < 0.0):
                raise CheckFailed(f"{name}: negative distance")
        elif name.endswith("_propagator.txt"):
            lines = path.read_text().splitlines()
            if lines[0] != f"dim {dim}" or len(lines) != dim + 1:
                raise CheckFailed(f"{name}: malformed matrix dump")
    return worst


def spawn(argv: list[str], env: dict, cwd: Path,
          timeout: float = 150.0) -> tuple[int, float]:
    """Run a child to completion; returns (exit code, monotonic spawn time)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 and err:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return proc.returncode, t_spawn


@dataclass
class CliRun:
    """What one `zenosim run` child left behind."""

    code: int
    out_dir: Path
    t_spawn: float
    spans: Path | None


def _cli_scenarios(params: dict, root: Path, work_dir: Path, env: dict,
                   mode: dict) -> list[Op]:
    ops = []
    for index, run in enumerate(params["runs"]):
        doc = json.loads((root / run["path"]).read_text())
        out_dir = work_dir / f"op{index}"
        args = ["run", run["path"], "--quiet", "--output-dir", str(out_dir)]
        for item in run["set"]:
            args += ["--set", item]

        def execute(out_dir=out_dir, args=args):
            if out_dir.exists():
                shutil.rmtree(out_dir)
            out_dir.mkdir(parents=True)
            spans = None
            if mode["traced"]:
                spans = out_dir.parent / f"{out_dir.name}.npz"
                argv = [sys.executable, str(root / "perfbench" / "shim.py"),
                        "cli", str(spans)] + args
            else:
                argv = [sys.executable, "-c", CLI_ENTRY] + args
            code, t_spawn = spawn(argv, env, root)
            return CliRun(code, out_dir, t_spawn, spans)

        def check(result, doc=doc):
            if result.code != 0:
                raise CheckFailed(f"zenosim run exited with {result.code}")
            return check_cli_outputs(doc, result.out_dir)

        name = Path(run["path"]).stem
        ops.append(Op(f"zenosim run {name} {' '.join(run['set'])}", execute, check))
    return ops


# ---------------------------------------------------------------------------

def build(name: str, seed: int, root: Path, work_dir: Path, env: dict) -> Workload:
    """Draw inputs, build the program inputs, and compute every reference."""
    params = draw(name, seed, root)
    if name == "cli-scenarios":
        mode = {"traced": False}
        ops = _cli_scenarios(params, root, work_dir, env, mode)
        return Workload(name, ops, tail_pct=75, min_ops=40, nominal_round_s=2.6,
                        warmup=lambda: ops[0].check(ops[0].run()), mode=mode)
    inputs = program_inputs(name, params)
    if name == "long-drive":
        return Workload(name, _long_drive(params, inputs), tail_pct=90, min_ops=100,
                        nominal_round_s=4.8,
                        warmup=lambda: _long_drive_warmup(params, inputs))
    return Workload(name, _dense_sampling(params, inputs), tail_pct=90, min_ops=100,
                    nominal_round_s=1.2,
                    warmup=lambda: _dense_sampling_warmup(params, inputs))


def baselines() -> dict[str, float]:
    """The ROADMAP's baseline cases, timed once each with their stated sizes."""
    zs = zenosim
    proj = zs.three_level_projective()
    kick = zs.four_level_kicked()
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = 2 ** -0.5
    rho4 = np.outer(psi, psi.conj())
    rho3 = np.zeros((3, 3), dtype=complex)
    rho3[1, 1] = 1.0
    cases = {
        "baseline.evolve_projective.N1e5_s":
            lambda: zs.evolve_projective(rho3, proj.H, proj.res, 1.0, 100_000),
        "baseline.evolve_kicked_vector.N1e5_s":
            lambda: zs.evolve_kicked(psi, kick.H, kick.U_kick, 1.0, 100_000),
        "baseline.evolve_kicked_density.N1e5_s":
            lambda: zs.evolve_kicked(rho4, kick.H, kick.U_kick, 1.0, 100_000),
        "baseline.projective_convergence_curve.N16-4096_s":
            lambda: zs.projective_convergence_curve(
                proj, rho3, 1.0, [16 * 2 ** j for j in range(9)]),
    }
    record = zs.evolve_kicked(psi, kick.H, kick.U_kick, 1.0, 999, 1000)
    res = kick.resolution()
    cases["baseline.observables.1000_samples_s"] = lambda: zs.observables(record, res)
    out = {}
    for name, fn in cases.items():
        start = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - start
    return out


def environment_pins(root: Path) -> dict:
    """Environment every child process of the benchmark runs with."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env
