"""Golden guard: the sha256 of every CLI output on both fixtures at fixed seeds.

The pinned digests were recorded before the simulation kernel was replaced;
any change to a sampled path, a controller decision, a reduction order or a
report format shows up here as a digest mismatch.  ``simulate`` runs with one
and with two workers, so the split of replications across processes is
pinned too.  The ``bb1 --simulate`` digest was recorded when that command
moved onto the kernel's draw order.  The ``relay8`` cases run a routed
8-queue Markov scenario (``tests/fixtures/relay8.json``, written by
``perfbench/relay.py 301``) whose policy LPs take hundreds of simplex pivots,
with sweep scales on both sides of its capacity boundary (near 1.67).  The
``capacity_sweep.csv`` digests of ``capacity-downlink2`` and
``capacity-relay8`` were re-pinned when sweeps moved onto the warm-started
dual simplex: the same feasible flags, and every ``f_opt`` and ``d_max``
within 6e-15 relative of the cold solve's.  They were re-pinned again when
each sweep moved to start warm from the base point's tableaux, in place of a
cold solve at zero rates: the same feasible flags, every value within 1e-14
relative of the cold solve's, and ``capacity.txt`` unchanged.  They were
re-pinned a third time when each sweep moved onto one parametric walk along
its rate ray, every scale read off one tableau: the same feasible flags,
every ``f_opt`` within 9.4e-15 and every ``d_max`` within 1.3e-16 of the
values before (relay8's ``f_opt`` at scale 1.66 moved from
1.057212499483656 to 1.0572124994836654), and ``capacity.txt`` unchanged.
The 14
sampled cases (every ``simulate``, ``stability`` and ``sweep-v`` case,
``bb1-simulate``, ``counterexample-rate-not-mean`` and
``counterexample-mean-not-rate``) were
re-pinned when every stream moved onto numpy's ``SeedSequence`` spawn keys:
under the old ``splitmix64(seed XOR replication)`` seeding, nearby seeds drew
the same replications.  Each queue's arrivals also moved to a stream of their
own.  The
``capacity-*`` and ``counterexample-strong-not-rate`` cases draw nothing and
kept their digests.  The ``report.txt`` digests of ``simulate-bb1-w1`` and
``simulate-bb1-w2`` were re-pinned when bb1 moved off the reflection identity
onto the kernel's slot loop: the report's ``controller=fast-single-queue``
line became ``controller=dpp``, and every other byte, their ``trace.csv`` and
``curves.csv`` included, stayed the same.  The ``counterexample-mean-not-rate``
digests were re-pinned when its draw moved from one uniform per (replication,
slot) to one uniform per spike, jumping from a spike at ``t`` to
``floor(t / U) + 1``: the same law from about 30 times fewer draws, so other
draws and other bytes.  When the kernel's scores moved from per-lane BLAS
products to a sum in a fixed order, every digest stayed the same.  The
``curves.csv`` and ``report.txt`` digests of the seven ``simulate`` and
``stability`` cases were re-pinned when the tail grid moved from
``geomspace(1, 20 x mean, 16)`` to the fixed quarter-octave grid
``2^k x {1, 1.25, 1.5, 1.75}`` up to the first point at or above 20 x mean:
the ``M`` column became exact powers of two times those four, so it no
longer depends on numpy's SIMD ``log``/``exp``; in each report only the
``m_max`` line moved (``g_at_m_max`` stayed 0.0, and every verdict flag
stayed the same), and every ``trace.csv`` stayed the same.  The
``sweep.csv`` digests of ``sweep-v-downlink2``, ``sweep-v-downlink2-w2`` and
``sweep-v-relay8`` were re-pinned when ``avg_cost`` and ``g_avg_l`` moved from
a sum over slots to each (omega, action)'s count of slots times its table
value, added in (omega, action) order: every ``g_avg_l`` moved by at most
4e-14 relative (downlink2 seed 5 at V = 1 went from -0.16850000000000004 to
-0.1685), relay8's two ``avg_cost`` values by one ulp, and every
``avg_backlog``, bound and ``sweep_report.txt`` stayed the same.  The
``capacity-downlink2``, ``capacity-relay8``, ``sweep-v-downlink2``,
``sweep-v-downlink2-w2`` and ``sweep-v-relay8`` digests were re-pinned when
the primal simplex moved from Bland's rule to Dantzig's rule (with a Bland
fallback after a streak of degenerate pivots), the margin LP moved from a
cold solve to phase 2 from the cost LP's optimal tableau, and an LP's
objective moved from a BLAS dot to a sum in index order: other pivots, so
other roundings.  ``f_opt``, ``d_max``, the policy and the bound columns
moved in their last digits (downlink2's ``f_opt`` from 0.3 to
0.30000000000000004 and ``d_max`` from 0.10000000000000003 to
0.10000000000000002; relay8's ``f_opt`` from 0.5607285666610561 to
0.5607285666610579); every ``feasible`` flag, binding row and sampled
column (``avg_backlog``, ``avg_cost``, ``g_avg_l``) stayed the same, and
``capacity-bb1`` and ``sweep-v-bb1`` kept their digests.  The sum in index
order makes downlink2's ``f_opt`` the same under every BLAS core type.
The ``simulate-downlink2-r1`` and ``sweep-v-downlink2-r1`` cases run one
replication, ``sweep-v``'s default, where the kernel reads each state's
score rows from a per-state table in place of a per-block gather; their
digests were pinned before that path existed.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnetlab
from qnetlab.cli import main

BB1 = ["bb1.json", "--lambda", "0.3", "--mu", "0.5"]
RELAY8 = str(Path(__file__).parent / "fixtures" / "relay8.json")
CASES = {
    "simulate-downlink2-w1": ["simulate", "downlink2.json", "--horizon", "1000",
                              "--reps", "100", "--seed", "7", "--workers", "1"],
    "simulate-downlink2-w2": ["simulate", "downlink2.json", "--horizon", "1000",
                              "--reps", "100", "--seed", "7", "--workers", "2"],
    "simulate-downlink2-r1": ["simulate", "downlink2.json", "--horizon", "1000",
                              "--reps", "1", "--seed", "7"],
    "simulate-downlink2-clamped": ["simulate", "downlink2.json", "--horizon", "1500",
                                   "--reps", "3", "--seed", "8", "--V", "3",
                                   "--mode", "clamped", "--trace-limit", "700"],
    "simulate-bb1-w1": ["simulate", *BB1, "--horizon", "2000", "--reps", "100",
                        "--seed", "7", "--workers", "1"],
    "simulate-bb1-w2": ["simulate", *BB1, "--horizon", "2000", "--reps", "100",
                        "--seed", "7", "--workers", "2"],
    "stability-downlink2": ["stability", "downlink2.json", "--horizon", "1200",
                            "--reps", "100", "--seed", "9", "--V", "2", "--workers", "2"],
    "stability-bb1": ["stability", *BB1, "--horizon", "3000", "--reps", "100", "--seed", "9"],
    "sweep-v-downlink2": ["sweep-v", "downlink2.json", "--V", "1,10,100",
                          "--horizon", "2000", "--reps", "2", "--seed", "5"],
    "sweep-v-downlink2-r1": ["sweep-v", "downlink2.json", "--V", "1,10,100",
                             "--horizon", "2000", "--reps", "1", "--seed", "5"],
    "sweep-v-downlink2-w2": ["sweep-v", "downlink2.json", "--V", "0,4",
                             "--horizon", "1500", "--reps", "3", "--seed", "6",
                             "--workers", "2"],
    "sweep-v-bb1": ["sweep-v", *BB1, "--V", "1,10", "--horizon", "2000",
                    "--reps", "2", "--seed", "5"],
    "capacity-downlink2": ["capacity", "downlink2.json", "--sweep-scale", "0.4,1.0,1.6"],
    "capacity-bb1": ["capacity", "bb1.json", "--mu", "0.5", "--sweep-scale", "0.5,1.5"],
    "counterexample-rate-not-mean": ["counterexample", "rate-not-mean", "--seed", "3"],
    "counterexample-mean-not-rate": ["counterexample", "mean-not-rate", "--seed", "3"],
    "counterexample-strong-not-rate": ["counterexample", "strong-not-rate", "--seed", "3"],
    "capacity-relay8": ["capacity", RELAY8, "--sweep-scale",
                        "0.5,1,1.4,1.6,1.65,1.66,1.68,1.7,2,2.4"],
    "sweep-v-relay8": ["sweep-v", RELAY8, "--V", "1,10", "--horizon", "2000",
                       "--reps", "2", "--seed", "5"],
    "bb1-simulate": ["bb1", "--lambda", "0.3", "--mu", "0.5", "--simulate",
                     "--horizon", "2000", "--reps", "10", "--seed", "7"],
}

GOLDEN: dict[str, dict[str, str]] = {
    "bb1-simulate": {
        "bb1.txt": "0353eb94f2473d04a7c48155e4487ff1eed1f673a2cc7cb688d7c4e0c4e43375",
    },
    "capacity-bb1": {
        "capacity.txt": "a2aede82c0e950046e2c3cb2425ffa0cf168835a05540ca92132ffcb808fa4cd",
        "capacity_sweep.csv": "428423f8c13880ba1292fc6395d251fa0d93959f5f568fabe933f48ad2bddd4f",
    },
    "capacity-downlink2": {
        "capacity.txt": "9d2ea121a69074edac09c5f3a3bb7eda8aea89ed9e2db7f4501221e55776d4e3",
        "capacity_sweep.csv": "d610758246f632dac90ce4ff9d7e204799a00cee2d65d622097182c072cad6cb",
    },
    "capacity-relay8": {
        "capacity.txt": "e08ff8f907ebcfc2f52196f4926d41ab364076fbe4d88b946401e745066071fa",
        "capacity_sweep.csv": "4db20b06d52740869a2d1d611c0b888d4b11129c91e742f7fee6fc76619179bf",
    },
    "counterexample-mean-not-rate": {
        "profile.csv": "d25d74208ac0f25fcc39080313541c95560440e5770ce59e3c51bb4e0edd5103",
        "report.txt": "42c3a72f611f82969880883ac34c75ec53e691dcb0cfff5be5a14ac449f67fa2",
    },
    "counterexample-rate-not-mean": {
        "profile.csv": "6bb8db276ab5169f9a8357a101bc3a4c06f3800e4b927c26a82c7521276abc5f",
        "report.txt": "e26dbf7f1b46a3f693b2188fa89115f8fa3789ab7356d8b12f9e6ab42b6ed95b",
    },
    "counterexample-strong-not-rate": {
        "profile.csv": "4c271162f1e99cf208b2cc7c08be7df0bd9af2fb14f417ca51f3358cde48ebc9",
        "report.txt": "045312c58388ebaf6b6ae35440d2d510f2fd38c7d24c122ae071cf3577b00520",
    },
    "simulate-bb1-w1": {
        "curves.csv": "470a965db25c9296a57043102592cf6c1c26846b74d86c4cf40eaad136108986",
        "report.txt": "201076c36812704f31f53311253f491ac7c1016f720155aaa72ab64b1edaf95a",
        "trace.csv": "62cce1263ff7a47104e80c709b862925254cb2daa2c3b3bc1224a4de58d7a483",
    },
    "simulate-bb1-w2": {
        "curves.csv": "470a965db25c9296a57043102592cf6c1c26846b74d86c4cf40eaad136108986",
        "report.txt": "201076c36812704f31f53311253f491ac7c1016f720155aaa72ab64b1edaf95a",
        "trace.csv": "62cce1263ff7a47104e80c709b862925254cb2daa2c3b3bc1224a4de58d7a483",
    },
    "simulate-downlink2-clamped": {
        "curves.csv": "3fdace8e25a48277ec8457cef2a262caadf13e3baf61c28fd37ee1af13efc8d1",
        "report.txt": "d76ea216f3c8d44c739e40ea57b7742e08c089371882d762a0813afaf07246de",
        "trace.csv": "74f5ed6e0b6d7ed8fefb15e70d0d3426d888554c0edc843851bc06ac93cf9772",
    },
    "simulate-downlink2-r1": {
        "curves.csv": "c2294f664a46b9064765c689bcb87dae372c1d93163e34b3c26cf0d1603fb496",
        "report.txt": "ac298dafc49cc373fd04b3cd5e9f5cab22ced263f0f1f799448e9cee3092e16d",
        "trace.csv": "53892ff1eb360252f209ab3b1dc7b8b2edaee22aea0544f4dc638713a67f179a",
    },
    "simulate-downlink2-w1": {
        "curves.csv": "0657e27cf0b709ce59bdb666cd62a6ce4bc569ada31814380eb189eb2cccdf01",
        "report.txt": "d27334d93b56d28348dc418ac981fbad64d515424378c2260a266f00504baf5a",
        "trace.csv": "53892ff1eb360252f209ab3b1dc7b8b2edaee22aea0544f4dc638713a67f179a",
    },
    "simulate-downlink2-w2": {
        "curves.csv": "0657e27cf0b709ce59bdb666cd62a6ce4bc569ada31814380eb189eb2cccdf01",
        "report.txt": "d27334d93b56d28348dc418ac981fbad64d515424378c2260a266f00504baf5a",
        "trace.csv": "53892ff1eb360252f209ab3b1dc7b8b2edaee22aea0544f4dc638713a67f179a",
    },
    "stability-bb1": {
        "curves.csv": "8daf80466fb585bb44a3994cd0fc936f1669e0cfaa632effaae3b5fb7e5dbf2f",
        "report.txt": "91b8d32f283e6b98a19dcdbb01d3f0fb31976b1185c5995c0b8ee654b8924bf8",
    },
    "stability-downlink2": {
        "curves.csv": "d34591db79b76dbae23f5887b88b67d089b8dd32d8b0df26590938d02ab3b7cc",
        "report.txt": "bb6b958cd4b11582859d077edb81ffbb6de05fc20202f36233173ce5f87ee032",
    },
    "sweep-v-bb1": {
        "sweep.csv": "68e1a2ea030d8165e780b3f5605e69e23c603a04d3258c8f1900bcba6a8dbaba",
        "sweep_report.txt": "14deff43ce3507ca338a27437127c4963d3723b9def7cf6bf512ee66ec4f5e4a",
    },
    "sweep-v-downlink2": {
        "sweep.csv": "00ce8dd56f20fb9ac004f5f18e3b9b1489bbf2692927c5acde969bc013f8d48c",
        "sweep_report.txt": "d70e5a442f5dc5e5606c728bbd3e526372cc1f0332bc6ae443da0415526cddf6",
    },
    "sweep-v-downlink2-r1": {
        "sweep.csv": "933d2daf4cb0a318f80bef71cf64dd8f8b21eb1ef8c03fadcc10bd90ce87c005",
        "sweep_report.txt": "bb7c00db250e1f4ec969c05dd15ca4a78736536fbc6cbca6eb5459a5e9eac592",
    },
    "sweep-v-downlink2-w2": {
        "sweep.csv": "06516d4f455785f3b3d1985244ecca4245a201d7ef8358dccb79b02656b13c2f",
        "sweep_report.txt": "b7e535cadfbec2d53fe218bc22583d3e6f81c17b7f06e5b120ba251a85ed5003",
    },
    "sweep-v-relay8": {
        "sweep.csv": "525d8112c7672e56ac97c459686dc6d3d427d2e6565848f47f9a5b27449ddcd3",
        "sweep_report.txt": "1fc9b26bc12ca6c3d8deb82e7eeda15cdaebd6057a60041ffd40ee35016f07b1",
    },
}


def digests(out) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden_digests(case, tmp_path):
    out = tmp_path / case
    assert main(CASES[case] + ["--out", str(out)]) == 0
    assert digests(out) == GOLDEN[case]


def checkout_env(**overrides: str) -> dict[str, str]:
    """The environment of a child process that imports this checkout's
    qnetlab, with CI's warning filters: pyproject.toml's ``filterwarnings``
    reaches only the pytest process, so a numpy warning or a deprecation in
    a CLI child fails here as it fails in CI."""
    src = str(Path(qnetlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p),
        PYTHONWARNINGS="error::RuntimeWarning,error::DeprecationWarning", **overrides)


# numpy picks its SIMD loops (log, exp and friends) by CPU at import.  These
# features exist only on AVX-512 hosts; elsewhere disabling them changes
# nothing.
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith(("simulate-",
                                                                          "stability-"))))
def test_verdict_digests_hold_without_avx512_loops(case, tmp_path):
    out = tmp_path / case
    run = subprocess.run([sys.executable, "-m", "qnetlab.cli", *CASES[case], "--out", str(out)],
                         env=checkout_env(**NO_AVX512), capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert digests(out) == GOLDEN[case]
