"""Golden guard: the sha256 of every CLI output on both fixtures at fixed seeds.

The pinned digests were recorded before the simulation kernel was replaced;
any change to a sampled path, a controller decision, a reduction order or a
report format shows up here as a digest mismatch.  ``simulate`` runs with one
and with two workers, so the split of replications across processes is
pinned too.  The ``bb1 --simulate`` digest was recorded when that command
moved onto the kernel's draw order.  The ``relay8`` cases run a routed
8-queue Markov scenario (``tests/fixtures/relay8.json``, written by
``perfbench/relay.py 301``) whose policy LPs take hundreds of simplex pivots,
with sweep scales on both sides of its capacity boundary (near 1.67).
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
        "bb1.txt": "004a2922f45ce48ad3bc97c309b02b2a69fbe132d05004725a574ffbbfd4b7d7",
    },
    "capacity-bb1": {
        "capacity.txt": "a2aede82c0e950046e2c3cb2425ffa0cf168835a05540ca92132ffcb808fa4cd",
        "capacity_sweep.csv": "428423f8c13880ba1292fc6395d251fa0d93959f5f568fabe933f48ad2bddd4f",
    },
    "capacity-downlink2": {
        "capacity.txt": "43a853af8d5696cb09536736105c822335a6415482224be7d6a20d997492afa5",
        "capacity_sweep.csv": "ba17ebbab1dfcf1e2bd4749325b192026afa688d5a75db8e92a9d02bbf130bf9",
    },
    "capacity-relay8": {
        "capacity.txt": "dcb4762eaed7ba2cffd2a5b233f0c1cb78b206c946f0bd4a37c1f4d4b70ab883",
        "capacity_sweep.csv": "7fe11d63ec966bc308594754cec31487f875d28d5436adaa333fd3c8a1a2895a",
    },
    "counterexample-mean-not-rate": {
        "profile.csv": "25b0cb39e33874ea96b8f782427c3052c017446a8adf976fe79d84e61f745438",
        "report.txt": "87932a2bbcde2c6b083e9ee002e973e7ae93f01f452ee4aac7b39bdf080dcbda",
    },
    "counterexample-rate-not-mean": {
        "profile.csv": "fb5ffbc9788a1ac2e5794b5f4758db3df46bcf2308c93e5bfa23ca1c0a7adaea",
        "report.txt": "1efc65b9d348624a68d9f9e444237dbcf740f3a343f04e72b2ffc097bc9f7bc6",
    },
    "counterexample-strong-not-rate": {
        "profile.csv": "4c271162f1e99cf208b2cc7c08be7df0bd9af2fb14f417ca51f3358cde48ebc9",
        "report.txt": "045312c58388ebaf6b6ae35440d2d510f2fd38c7d24c122ae071cf3577b00520",
    },
    "simulate-bb1-w1": {
        "curves.csv": "cfd224572fbd0f4190c1a6e9295f7c2e4db08e22df0c8e541cc5f7fd47e495dd",
        "report.txt": "a3e1c50b7d3bdb66f90aea87993c9325029ad67f59051a9cddfdb46808256a4d",
        "trace.csv": "7c46a32166edc26e1fc55cec438b0d8419456313ed161f4dd343732542302a76",
    },
    "simulate-bb1-w2": {
        "curves.csv": "cfd224572fbd0f4190c1a6e9295f7c2e4db08e22df0c8e541cc5f7fd47e495dd",
        "report.txt": "a3e1c50b7d3bdb66f90aea87993c9325029ad67f59051a9cddfdb46808256a4d",
        "trace.csv": "7c46a32166edc26e1fc55cec438b0d8419456313ed161f4dd343732542302a76",
    },
    "simulate-downlink2-clamped": {
        "curves.csv": "7dab581d439b1ae1f4edf115b565a1d9bcd9551b984901680584e8bf6062f5f2",
        "report.txt": "fa705032e54bcd87536396c7ff74c858eb0a3663e1753bae46b9fbacac7b639b",
        "trace.csv": "13cbba00e78dc11bcb9f04c875f6b25e03c4017ce2ae1b360f771bdffc75e9d2",
    },
    "simulate-downlink2-w1": {
        "curves.csv": "795cbfe45511db74e52b28da85f10437cbeafa41c9c8914c60dccd06dfcb805a",
        "report.txt": "18f2564a21d7b2d235f6553fb1eb6cf05e85ce229882430c069a5c1592b7fca9",
        "trace.csv": "c0097090d643280fbb8445941babaece757fbc0f0bbbd7eb52db07b2a554498b",
    },
    "simulate-downlink2-w2": {
        "curves.csv": "795cbfe45511db74e52b28da85f10437cbeafa41c9c8914c60dccd06dfcb805a",
        "report.txt": "18f2564a21d7b2d235f6553fb1eb6cf05e85ce229882430c069a5c1592b7fca9",
        "trace.csv": "c0097090d643280fbb8445941babaece757fbc0f0bbbd7eb52db07b2a554498b",
    },
    "stability-bb1": {
        "curves.csv": "efc5bf764ced36ef5b91c0215297589ae35888648bede6d7a9272062ea026f06",
        "report.txt": "153b18c7969a6b5a4bf7b9ec1b09e92910643723c13edd5a0fcc1240731ab3b0",
    },
    "stability-downlink2": {
        "curves.csv": "f76cb47f1a323219bb6741e0d67c962e2f22acc83b463a5ac885803051d3a344",
        "report.txt": "df466a50185236220a1dcab81e8eb3ebc6221307d6b436a0dc4f762103aec151",
    },
    "sweep-v-bb1": {
        "sweep.csv": "c918b8c225cbf33ea2ffde27114e63ceac2ad30198074b5ba80bf846b22988d6",
        "sweep_report.txt": "14deff43ce3507ca338a27437127c4963d3723b9def7cf6bf512ee66ec4f5e4a",
    },
    "sweep-v-downlink2": {
        "sweep.csv": "5567938a437b06cb07c824d80a374d76cd8b9ee17c07b317710ecd74b0288bf5",
        "sweep_report.txt": "f01274364a9c88352748ec5ef5f09beb28ee7a6ae86f8e5ced1f3e30b9fc9fb7",
    },
    "sweep-v-downlink2-w2": {
        "sweep.csv": "5dac4654a08c2d19f2bfbd19f413bf10b29a180350bf6172d8ceefe9468076a3",
        "sweep_report.txt": "501b41488183818b42e182ce053f7d88f0ef60dcbdf3f8d5669ce9b61cf42863",
    },
    "sweep-v-relay8": {
        "sweep.csv": "d063d0885a41ba7d56a6e585dd6d97b297203eb996113b818b9c23abf1f49673",
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
