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
within 6e-15 relative of the cold solve's.  The 14 sampled cases (every
``simulate``, ``stability`` and ``sweep-v`` case, ``bb1-simulate``,
``counterexample-rate-not-mean`` and ``counterexample-mean-not-rate``) were
re-pinned when every stream moved onto numpy's ``SeedSequence`` spawn keys:
under the old ``splitmix64(seed XOR replication)`` seeding, nearby seeds drew
the same replications.  Each queue's arrivals also moved to a stream of their
own.  The
``capacity-*`` and ``counterexample-strong-not-rate`` cases draw nothing and
kept their digests.  The ``report.txt`` digests of ``simulate-bb1-w1`` and
``simulate-bb1-w2`` were re-pinned when bb1 moved off the reflection identity
onto the kernel's slot loop: the report's ``controller=fast-single-queue``
line became ``controller=dpp``, and every other byte, their ``trace.csv`` and
``curves.csv`` included, stayed the same.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from qnetlab.cli import main

BB1 = ["bb1.json", "--lambda", "0.3", "--mu", "0.5"]
RELAY8 = str(Path(__file__).parent / "fixtures" / "relay8.json")
CASES = {
    "simulate-downlink2-w1": ["simulate", "downlink2.json", "--horizon", "1000",
                              "--reps", "100", "--seed", "7", "--workers", "1"],
    "simulate-downlink2-w2": ["simulate", "downlink2.json", "--horizon", "1000",
                              "--reps", "100", "--seed", "7", "--workers", "2"],
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
        "capacity.txt": "43a853af8d5696cb09536736105c822335a6415482224be7d6a20d997492afa5",
        "capacity_sweep.csv": "7178dbb34f1b1c0aa217eb90262d51163521b8f8af52597cfd9e270974635577",
    },
    "capacity-relay8": {
        "capacity.txt": "dcb4762eaed7ba2cffd2a5b233f0c1cb78b206c946f0bd4a37c1f4d4b70ab883",
        "capacity_sweep.csv": "1c051320fdff04680330b039ccedeb55e4944a538dd047487855d0da69f7c084",
    },
    "counterexample-mean-not-rate": {
        "profile.csv": "29cbdc20e02429975d5ae27e1d2fbc93759ae1a182df8242d7ac7472c300f6b2",
        "report.txt": "285bf0a671ccc3be83a52ba26cc2e33b6e4f434b7d4a3224187d275790fc84ff",
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
        "curves.csv": "8494473a598dc3f7ac3c3f41aaf4070877dd38d79477d4f81f67059cc6df278c",
        "report.txt": "f0b1682c2aea5d1170d610e5483ea37c845c6de0e4a6bbbcb8c67e152eaf1737",
        "trace.csv": "62cce1263ff7a47104e80c709b862925254cb2daa2c3b3bc1224a4de58d7a483",
    },
    "simulate-bb1-w2": {
        "curves.csv": "8494473a598dc3f7ac3c3f41aaf4070877dd38d79477d4f81f67059cc6df278c",
        "report.txt": "f0b1682c2aea5d1170d610e5483ea37c845c6de0e4a6bbbcb8c67e152eaf1737",
        "trace.csv": "62cce1263ff7a47104e80c709b862925254cb2daa2c3b3bc1224a4de58d7a483",
    },
    "simulate-downlink2-clamped": {
        "curves.csv": "7122e69dec95f274c3d7dbc54fd67f0712d7a32f8fb66202b608d953bb6a37ef",
        "report.txt": "106bb80f39c22c790a8477aff5916e9ee0828722344cac03df0e993649ecafff",
        "trace.csv": "74f5ed6e0b6d7ed8fefb15e70d0d3426d888554c0edc843851bc06ac93cf9772",
    },
    "simulate-downlink2-w1": {
        "curves.csv": "f3f9be330b9460c2f96d890bfca0a372fc438c806ee4cf8b17c97ecdb9a99a39",
        "report.txt": "7474df4939e8a47a414d7692825393acffbbc195269925507624edb36734dd74",
        "trace.csv": "53892ff1eb360252f209ab3b1dc7b8b2edaee22aea0544f4dc638713a67f179a",
    },
    "simulate-downlink2-w2": {
        "curves.csv": "f3f9be330b9460c2f96d890bfca0a372fc438c806ee4cf8b17c97ecdb9a99a39",
        "report.txt": "7474df4939e8a47a414d7692825393acffbbc195269925507624edb36734dd74",
        "trace.csv": "53892ff1eb360252f209ab3b1dc7b8b2edaee22aea0544f4dc638713a67f179a",
    },
    "stability-bb1": {
        "curves.csv": "a928d5e2f469b613abf212e4c0a231525a5ac37be4d91a185c8e27e3c2dbb5c4",
        "report.txt": "1040cd1de0d04308dc3c8e93b4a3ad9148a17d75b8b12da7bc9b898b656a52eb",
    },
    "stability-downlink2": {
        "curves.csv": "eae4265aa84d1fbb8c8a4db467e3ce777c8c5a544df9e998fec4265ecfeeeb1c",
        "report.txt": "721dd62c05d11c3c7314de518f35e68ae47b8e503d03a4c568738379b87e5b54",
    },
    "sweep-v-bb1": {
        "sweep.csv": "68e1a2ea030d8165e780b3f5605e69e23c603a04d3258c8f1900bcba6a8dbaba",
        "sweep_report.txt": "14deff43ce3507ca338a27437127c4963d3723b9def7cf6bf512ee66ec4f5e4a",
    },
    "sweep-v-downlink2": {
        "sweep.csv": "158c2a3b31d43d76d674713ca16badaf2dc2aea2cfb31c867a153f16a7c91a45",
        "sweep_report.txt": "f01274364a9c88352748ec5ef5f09beb28ee7a6ae86f8e5ced1f3e30b9fc9fb7",
    },
    "sweep-v-downlink2-w2": {
        "sweep.csv": "2962f7a2267bf92da83b690b79351ead1bdea39efa4687dd45695e08599fec03",
        "sweep_report.txt": "501b41488183818b42e182ce053f7d88f0ef60dcbdf3f8d5669ce9b61cf42863",
    },
    "sweep-v-relay8": {
        "sweep.csv": "7cafd299e6487bf0d83b5c0ade87316880b6d1b7565ab5b8149431f288edd930",
        "sweep_report.txt": "1d7ba76a390e1a7c378233bc20d3fe30cf760d131c310f36cbd06c577eff119c",
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
