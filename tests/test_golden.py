"""Byte gate: the ``config`` and ``results`` bytes of fixed runs never change.

Each case pins the SHA-256 of two documents: the JSON report with ``meta``
dropped (``config`` and ``results`` through ``dumps_stable``), and the CSV
report.  Each digest was taken before the refactor it guards (most from the
record-per-draw sampler that the columnar one replaced, the entropy and
explicit-axes ones from the writer that still turned row dicts into column
tables), so any refactor that moves a draw, a float digit or a key fails here.  A change that means to alter report bytes updates a digest
and says why.
"""

import hashlib
import json

import pytest

from bellstat.cli import dumps_stable, main

# Finite mode and explicit axes have no flag, so these cases read a config
# file; a dict in their argv stands for the path of a file holding it.
FINITE_SIMULATE = {"table": [3, 2, 2, 1, 1, 2, 3, 2], "mode": "finite", "samples": 12, "seed": 9}
EXPLICIT_AXES = {
    "axes": {"a": [1, 0, 0], "b": [0.28, 0.96, 0], "c": [0.8, 0.6, 0]},
    "samples": 5000,
    "seed": 7,
}

# name -> (argv, sha256 of the JSON without meta, sha256 of the CSV)
CASES = {
    "exact-preset": (
        ["exact", "--config", "wigner-uniform"],
        "6872e39ea9d36c10b3a703a115971c75bcc10da392addbd42fc0b4ce3f577688",
        "7e7c2d2a473033acb5ba407809854bbdbaa9d301b1ed24c8dd3f4abc74d83b43",
    ),
    "drain-preset": (
        ["drain", "--config", "marble-bag"],
        "d2f0100aa83a43a9a7c011ae223a62976fc14a480b37ab37bc845edb79fcada6",
        "fd48265392797fe052101e3100b124ea830ae4ff74b67dc3303de69004473178",
    ),
    # The two quantum JSON digests were re-pinned when the singlet sampler
    # came to draw its counts from their multinomial law: only the sampler's
    # n, p_hat and stderr moved.  Their CSVs hold scan rows only.
    "quantum-preset": (
        ["quantum", "--config", "quantum-60"],
        "71a5e82bdac5babe0de765c0e89ae41e0ca074efc20ffb511249d5a1aae06cfa",
        "30d68df04e5a8a70357edf435957af2108d5d4edc63a625afc220723fbabf700",
    ),
    "counterexample-preset": (
        ["counterexample", "--config", "counterexample-search"],
        "f0c11e84c2196f98a24fd7971958c662197061598a7b90c585260965a13d274e",
        "f189a01f074e46472e2d10cfe1b6ac02d466cb05868714a7656ee76e96efc011",
    ),
    "criterion-9": (
        ["simulate", "--table", "2,1,1,1,1,1,1,1", "--samples", "70000", "--seed", "13"],
        "3b016f47558b02961019305d49401e9ed8578f81a74379faa822ae392286c414",
        "697f10e73819c951c893a2234316f485b88d4ccf148527ec50509ee847632614",
    ),
    # Re-pinned when finite-mode stderr took the finite-population correction:
    # 12 draws from a bag of 16 give 1/18 and sqrt(35/6480) where the binomial
    # formula gave 0.1076 and 0.1423.  Every other byte is unchanged.
    "finite-simulate": (
        ["simulate", "--config", FINITE_SIMULATE],
        "6860df30f41bcd0f6fab3e43242409ad7662d21efc241483aea82af67be57148",
        "90bfb7e68cf17fde1b24298cd6db177f4c86dc3ac3967721850bea03aa2e2cfa",
    ),
    "drain-3": (
        ["drain", "--table", "2,1,0,0,0,0,0,0", "--seed", "3"],
        "1724bbb6b51cc890d19b60d711e164820db872fe6e2123472fd8308ab071cf20",
        "754c24587d9395957c9cbebb2186ad9b31a3919d28118479d16a2d32e6936856",
    ),
    "drain-16": (
        ["drain", "--table", "5,0,3,1,0,2,4,1", "--seed", "11"],
        "2e633e2ec8226247b9560464cff86d413dae63d1c9e4fada9463997193409ecc",
        "972bbdf16c69a1368c9529a09b203b2218c16b41722c42075505de6d53cc7667",
    ),
    # The only report with ``note``; the precondition is false, and the
    # product and entropy forms fail.
    "entropy-unequal": (
        ["entropy", "--omegas", "0.5,0.5,0.5,0.5,0.5,0.5,0.5,2"],
        "8410af71e9bda075aa6c13142b360792144cf1fad69e3858e052f4dc65e17d0d",
        "a2788591089ea3ff01d8945925a6c65fcb172436a38ddec670aa301d6d245fe0",
    ),
    # Precondition true, zero margins and ``entropy_ratios: null``.
    "entropy-equal": (
        ["entropy", "--omegas", "1,1,1,1,1,1,1,1"],
        "a597ab111387c31414e480487167e9633332cf0996e776e23d3529071056721e",
        "f85382092adb162e2889bdc2ab5a57beadaba0f9fc580c1ffb7f1f8abb1430a5",
    ),
    # The table form of entropy: multiplicities from counts, a bool and an
    # empty precondition cell in the CSV.
    "entropy-proportional": (
        ["entropy", "--table", "1,2,3,4,5,6,7,8", "--policy", "proportional"],
        "8ab3521d15d3380caa88355b72072e493f94e1e6745646480908af9de3ed6f3f",
        "b1d628af2a2e93babcab7bbebe13772f4ba2b25e3e1684e05485e291ebd9c895",
    ),
    # A search that finds nothing: ``"omegas": null`` and a header-only CSV.
    "counterexample-none": (
        ["counterexample", "--samples", "1", "--seed", "0"],
        "ed5f7f557f79e64a2ee0e94eed9f21e843e806cecc3f2fc4b603878cd0d86ce7",
        "aaa626f45c443d86504f6757e8d49c3619b8e6b10cc5fe8e0e983b0bb1fda271",
    ),
    "quantum-explicit-axes": (
        ["quantum", "--config", EXPLICIT_AXES],
        "824f69b12d69488ee17c154ce66269eba4ff78ea839b2332ab51437d53e45283",
        "57b863abbb8081e23fc26b0a2ee9e246707c451aa2eabb9bfbcb134f6be73c75",
    ),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_report_bytes_are_pinned(name, tmp_path, capsys):
    argv, json_digest, csv_digest = CASES[name]
    path = tmp_path / "config.json"
    for a in argv:
        if isinstance(a, dict):
            path.write_text(json.dumps(a))
    argv = [str(path) if isinstance(a, dict) else a for a in argv]

    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    payload = dumps_stable({"config": doc["config"], "results": doc["results"]})
    assert sha256(payload) == json_digest

    assert main(argv + ["--format", "csv"]) == 0
    assert sha256(capsys.readouterr().out) == csv_digest
