"""Command-line front end.

  icicsim simulate --config cfg.txt --out results/ [overrides]
  icicsim verify   [--quick]          cross-check battery, exit 3 on failure
  icicsim gapbench [--instances N]    rounded value vs exhaustive optimum

Exit codes: 0 success, 2 configuration error, 3 acceptance failure.
Every config error, including command-line overrides and an unusable
--out, is found before the run starts and exits 2.
"""

import argparse
import os
import sys
import tempfile

import numpy as np


def _config_error(message):
    print(f"config error: {message}", file=sys.stderr)
    return 2


def _cmd_simulate(args):
    from .simulate import ConfigError, emit_reports, load_config, run_simulation

    flags = (("scenario.seed", args.seed), ("run.scheme", args.scheme),
             ("scheduler.alpha", args.alpha), ("icic.n_iter", args.niter),
             ("icic.rho", args.rho))
    overrides = [f"{key} = {value}" for key, value in flags
                 if value is not None]
    try:
        cfg = load_config(args.config, overrides)
    except (ConfigError, UnicodeDecodeError, OSError) as exc:
        return _config_error(exc)
    try:
        os.makedirs(args.out, exist_ok=True)
        with tempfile.TemporaryFile(dir=args.out):   # a writable directory
            pass
    except OSError as exc:
        return _config_error(f"--out: {exc}")

    report = run_simulation(cfg)
    files = emit_reports(report, args.out)
    print(f"wrote {len(files)} files to {args.out}")
    for p, v in sorted(report.percentiles.items()):
        print(f"  {p:5.1f}th percentile throughput: {v:.6f} bit/s/Hz")
    return 0


def _cmd_verify(args):
    from . import coordinator as co
    from . import mcnf, oracle
    from . import network as nw
    from .instances import random_desk_instance, random_desk_instances
    from .simulate import SimConfig

    quick = args.quick
    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    rep = oracle.sinr_bound_factor_check(2_000 if quick else 10_000, seed=11)
    check("sinr bound factor identity",
          rep.max_identity_error < 1e-9 and rep.bound_violations == 0
          and rep.exactness_violations == 0)

    ok = all(oracle.set_equivalence_check(m, kt)
             for m in (1, 2, 3) for kt in (1, 2, 3))
    check("credit-set equivalence (binary enumeration)", ok)

    rng = np.random.default_rng(5)
    ok = True
    for _ in range(30 if quick else 150):
        m, kt = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        w = rng.uniform(0.2, 2.0, m)
        r = rng.uniform(0.0, 500.0, m)
        rtil = rng.uniform(0.0, 400.0, (m, kt))
        own = float(rng.integers(0, 2))
        nbr = rng.integers(0, 2, kt).astype(float)
        got = co.solve_subproblem(own, nbr, w, r, rtil).phi
        ref = oracle.subproblem_enumeration(own, nbr, w, r, rtil)[2]
        ok &= got == ref
    check("flow subproblem equals binary enumeration", ok)

    check("closed-form lanes optimal against per-lane flow solve",
          oracle.lane_engine_check(300 if quick else 3_000, seed=13) == 0)

    # byte for byte: round57-shaped drops at seeds 0 and 7919 (0 alone
    # when quick), and the 50 gapbench instances, also silenced at random
    cfg = SimConfig()
    cfg.scenario.rbs = 50
    dims = nw.NetworkDims.uniform(19, 3, 50)
    layout = nw.generate_layout(dims, cfg.scenario.isd_m)
    gap = random_desk_instances(range(50), n_sectors=12, users_per_sector=2,
                                n_rbs=2, k_tilde=2)
    cases = [(nw.draw_channels(layout, dims, nw.ChannelConfig(), cfg.radio(),
                               np.random.SeedSequence(seed).spawn(2)[0]).gains,
              cfg.radio(), nw.neighbor_map(layout, 6), gap.amc, None)
             for seed in ((0,) if quick else (0, 7919))]
    cases += [(gap.gains, gap.radio, gap.neighbors, gap.amc, silenced) for
              silenced in (None, rng.integers(0, 2, (50, 12, 2)))]
    check("rate triples equal the masked-sum reference", all(
        oracle.bit_equal(co.precompute_rate_triples(*case),
                         oracle.masked_sum_triples(*case)) for case in cases))

    # a batch of three 2-user instances: one lane call per master pass
    batch = random_desk_instances([60, 61, 62], n_sectors=6,
                                  users_per_sector=2, n_rbs=2, k_tilde=2)
    ok = all(not oracle.batch_mismatches(batch, co.IcicConfig(
        n_iter=3 if quick else 5, runs=2, quantize_exchange=quantize,
        quant_bits=6)) for quantize in (False, True))
    check("batched rounds equal single rounds", ok)

    ok = True
    for s in range(3 if quick else 10):
        prob = random_desk_instance(n_sectors=6, users_per_sector=2,
                                    n_rbs=1, k_tilde=2, seed=40 + s)
        weights = [w / 100.0 for w in prob.weights]
        i0 = np.random.default_rng(s).random((6, 1))
        v0, le, ln = oracle.reference_pass(prob, weights, i0)
        grad = co.compute_subgradient(le, ln, prob.neighbors)
        for t in range(10 if quick else 25):
            i1 = np.random.default_rng(1000 + s * 100 + t).random((6, 1))
            v1, _, _ = oracle.reference_pass(prob, weights, i1)
            ok &= v1 <= v0 + float(np.sum(grad * (i1 - i0))) + 1e-6
    check("master subgradient inequality", ok)

    ok = True
    rng = np.random.default_rng(9)
    for _ in range(10 if quick else 40):
        sup = np.zeros(5)
        sup[0] = float(rng.integers(1, 3))
        sup[4] = -sup[0]
        net = mcnf.FlowNetwork(supply=sup)
        for _ in range(9):
            i, j = rng.choice(5, 2, replace=False)
            net.add_arc(int(i), int(j), float(rng.integers(1, 3)),
                        float(rng.integers(-3, 6)))
        try:
            sol = mcnf.solve(net)
        except (mcnf.InfeasibleFlowError, mcnf.NegativeCycleError):
            continue
        ok &= not mcnf.verify(net, sol)
        ok &= abs(oracle.lp_flow_reference(net) - sol.objective) < 1e-7
    check("flow solver against dense LP", ok)

    print(f"{len(failures)} failure(s)")
    return 3 if failures else 0


def _cmd_gapbench(args):
    from . import coordinator as co
    from . import oracle
    from .instances import random_desk_instances
    # the --niter floor is `IcicConfig`'s rule, checked here so that it
    # exits 2 like the other flags
    for flag, value, low in (("--niter", args.niter, 1),
                             ("--instances", args.instances, 1),
                             ("--seed", args.seed, 0)):
        if value < low:
            return _config_error(f"{flag} = {value}: must be >= {low}")
    icic = co.IcicConfig(n_iter=args.niter, runs=2)
    try:
        out = open(args.out, "w") if args.out else None
    except OSError as exc:
        return _config_error(f"--out: {exc}")

    batch = random_desk_instances(
        range(args.seed, args.seed + args.instances), n_sectors=12,
        users_per_sector=2, n_rbs=2, k_tilde=2)
    optima = [oracle.exhaustive_bound(batch[p]).value
              for p in range(batch.rounds)]
    results = co.run_rounds(batch, icic)
    gaps = {1: [], 2: []}
    for opt, res in zip(optima, results):
        # the runs=1 column: a runs=2 round starts with the whole runs=1
        # round, whose p_hat (its best rounding) ends p_hat_history
        for runs, p_hat in ((1, res.gap.p_hat_history[-1]),
                            (2, res.gap.p_hat)):
            gaps[runs].append(100.0 * (opt - p_hat) / opt)

    print("runs  mean_gap_pct  std_gap_pct   (vs exhaustive bound optimum, "
          f"{args.instances} instances)")
    for runs in (1, 2):
        g = np.array(gaps[runs])
        print(f"{runs:4d}  {g.mean():12.3f}  {g.std():11.3f}")
    if out:
        with out:
            out.write("instance,runs,gap_pct\n")
            for runs in (1, 2):
                for i, g in enumerate(gaps[runs]):
                    out.write(f"{i},{runs},{g!r}\n")
    mean1, mean2 = np.mean(gaps[1]), np.mean(gaps[2])
    # the re-run must improve on one run, unless one run reaches the
    # optimum: 1e-9 % allows for their sums in different float orders
    ok = mean1 <= 8.0 and (mean2 < mean1 or mean1 <= 1e-9)
    return 0 if ok else 3


def main(argv=None):
    from .simulate import SCHEMES

    parser = argparse.ArgumentParser(prog="icicsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured Monte Carlo")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--scheme", help=" | ".join(SCHEMES))
    p_sim.add_argument("--alpha", type=float)
    p_sim.add_argument("--niter", type=int)
    p_sim.add_argument("--rho", type=int)
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="oracle/property cross-checks")
    p_ver.add_argument("--quick", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    p_gap = sub.add_parser("gapbench",
                           help="true-gap benchmark vs exhaustive search")
    p_gap.add_argument("--instances", type=int, default=50)
    p_gap.add_argument("--seed", type=int, default=0)
    p_gap.add_argument("--niter", type=int, default=5)
    p_gap.add_argument("--out")
    p_gap.set_defaults(func=_cmd_gapbench)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
