#!/usr/bin/env python3
"""Sweep the probe coupling K and watch the decay of |b> switch off.

The decaying level feeds a broad continuum state (half-width
2/(tau_Z^2 gamma)); coupling that state to a probe at K well above the
width closes the channel.  Survival approaches exp(-gamma t) ... 1 as
K grows, so the best possible improvement over free decay is the factor
1/survival(K=0), not an arbitrary multiple.
"""

import argparse
import sys

from zenosim import ZenosimError, decay_model, decay_protection_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tau-z", type=float, default=1.0,
                        help="Zeno time of the decay (curvature scale)")
    parser.add_argument("--gamma", type=float, default=0.1,
                        help="free decay rate")
    parser.add_argument("--omega1", type=float, default=0.0,
                        help="a-b drive while b decays")
    parser.add_argument("--t", type=float, default=5.0, help="total time")
    parser.add_argument("--couplings", type=float, nargs="+",
                        default=[0.0, 10.0, 20.0, 40.0, 80.0, 160.0])
    parser.add_argument("--threshold", type=float, default=0.9,
                        help="survival level that counts as protected")
    args = parser.parse_args()

    try:  # a refused parameter or computation is one line, not a traceback
        model = decay_model(omega1=args.omega1, tau_z=args.tau_z, gamma=args.gamma)
        result = decay_protection_sweep(
            omega1=args.omega1, tau_z=args.tau_z, gamma=args.gamma, omega_b=0.0,
            k_values=args.couplings, t=args.t, threshold=args.threshold)
    except ZenosimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"survival of |b> at t={args.t:g} "
          f"(tau_Z={args.tau_z:g}, gamma={args.gamma:g}):")
    for k, s in result.points:
        print(f"  K={k:8g}: {s:.6f}")
    if result.protective_coupling is None:
        print(f"no K in the sweep reaches survival >= {result.threshold:g}")
    else:
        print(f"smallest protective K (survival >= {result.threshold:g}): "
              f"{result.protective_coupling:g}")
    width = -model.H[2, 2].imag  # the model's own
    print(f"continuum half-width 2/(tau_Z^2 gamma) = {width:g}; "
          f"protection needs K above it")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
