"""SHA-256 digests of every deterministic CLI output for ``configs/*``.

Every byte of these outputs follows from the config and the seed, on
either kernel backend. A change that alters one on purpose updates its
digest here and says why in CHANGES.md; any other change must leave all
of them as they are.
"""

import hashlib
import os

import pytest

from smbmm.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
THRESHOLDS = ["thresholds", "--m", "2", "--p", "3", "--n", "2",
              "--xa", "2", "--xb", "3", "--g", "2", "--l", "2"]


def _run(proto, config, fmt, *extra):
    return [proto, "run", "--config", os.path.join(CONFIGS, config), "--format", fmt, *extra]


def _audit(config, fmt):
    return ["audit", "--config", os.path.join(CONFIGS, config), "--format", fmt]


# name: (argv without --out, exit code, sha256 of the output file)
CASES = {
    "ssmm-run-json": (_run("ssmm", "example_3a.json", "json"), 0,
                      "e64d13a56eecc2a3d2db786ee711636c75f1081e4c2f20b16647e95c14bf4736"),
    "ssmm-run-csv": (_run("ssmm", "example_3a.json", "csv"), 0,
                     "685d46410d50eead66ec980c1741f6c9b99328787678b6f0906a0d61ec777c15"),
    "ssmm-run-md": (_run("ssmm", "example_3a.json", "md"), 0,
                    "1132e51f89923bed0cefd0bfb4de3d53e205a6c33c87348a9513f5717d7cca86"),
    "smbmm-run-json": (_run("smbmm", "example_4a.json", "json"), 0,
                       "64098dc43080f133c4dfa2e900f750947b3bb4bef39284943dccafcd4846212f"),
    "smbmm-run-csv": (_run("smbmm", "example_4a.json", "csv"), 0,
                      "273c13219fb091240bc492e9a95c377271e3a78c341682d5d66f0c4e26a62e28"),
    "smbmm-run-md": (_run("smbmm", "example_4a.json", "md"), 0,
                     "6872e02ec2f10590156f657bda0f83cdf859fe902d49530af00b6ab3037bdb61"),
    "smbmm-run-seed7-json": (_run("smbmm", "example_4a.json", "json", "--seed", "7"), 0,
                             "769aebe34a822ee3d265f4c7a84aa111e922461963e03e0105afb45cde174531"),
    "sweep-csv": (["sweep", "--config", os.path.join(CONFIGS, "sweep_security_levels.json")], 0,
                  "fbc6d5e57f7d8f97ff31431d0de7173af29515bf01db30f3704bc8d3522651de"),
    "audit-ssmm-json": (_audit("audit_tiny_ssmm.json", "json"), 0,
                        "e046c791c76058f41384d88f82c5bf6910733b44ce0cc103a507a78d472db786"),
    "audit-ssmm-text": (_audit("audit_tiny_ssmm.json", "text"), 0,
                        "ed8233db37b549d261aef2fa55ae8a308438f46df4f2dbd306f2c41985e4e349"),
    "audit-user-view-json": (_audit("audit_tiny_user_view.json", "json"), 0,
                             "db331eaebac56da19a464ccf1d854a7e8337e75a403c79e0ad4baad54772b9e7"),
    "audit-user-view-text": (_audit("audit_tiny_user_view.json", "text"), 0,
                             "101c62b061619f25aef188f22bed34cfe49754f7e10696430b543c5132cff8d6"),
    "thresholds-text": (THRESHOLDS + ["--format", "text"], 0,
                        "d91cc2dad1fa7c2ace63fc278532ec3a342b2950b688ca212a26d3d69b5a5a81"),
    "thresholds-json": (THRESHOLDS + ["--format", "json"], 0,
                        "2db3c8d12e2b565fb5f9377fbd2bca7fc336ed4bc02ed97963e9b1335215dd00"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(name, tmp_path):
    argv, rc, digest = CASES[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == rc
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
