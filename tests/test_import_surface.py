"""What ``import repro`` loads, and that a run loads nothing more.

``import repro`` loads the run path: every module that
``Machine.run`` and ``Machine.profile`` reach on both engines and all
four backends.  Campaigns, the sweep runner, the stage store, RAS, the
fault sites and the online controller load on first use of one of
their names (:mod:`repro.lazy`).  Each check runs in a fresh
interpreter, since this process has long since imported everything.
"""

import json
import re
import subprocess
import sys

#: Modules no run reaches; ``import repro`` must not load them.
OFF_PATH = (
    "repro.api",
    "repro.core.security",
    "repro.core.verification",
    "repro.mem.migration",
    "repro.online.campaign",
    "repro.online.controller",
    "repro.online.phase",
    "repro.online.policy",
    "repro.ras",
    "repro.ras.campaign",
    "repro.ras.controller",
    "repro.ras.faults",
    "repro.ras.repair",
    "repro.ras.storage",
    "repro.service",
    "repro.service.tenant",
    "repro.system.corun",
    "repro.system.experiment",
    "repro.system.reporting",
    "repro.system.runner",
    "repro.system.stages",
    "repro.tier.campaign",
)

#: Standard-library machinery only the off-path modules use.
OFF_PATH_STDLIB = ("multiprocessing", "concurrent.futures", "socket", "subprocess")

#: After ``import repro``: one profile, then a run of five systems on
#: every engine x backend; prints the ``repro`` modules those loaded.
RUN_ALL_PATHS = """
import json, sys
import repro

before = set(sys.modules)
from repro.ml.dlkmeans import AutoencoderConfig
from repro.workloads.synthetic import MixedStrideWorkload

dl = AutoencoderConfig(
    pretrain_steps=2, joint_steps=1, hidden_dim=8, delta_embed_dim=4
)
workload = MixedStrideWorkload((1, 4), accesses_per_stride=256)
profile = repro.Machine(repro.system_by_key("bs_dm")).profile(workload)
for engine in ("cpu", "accelerator"):
    for backend in ("fast", "vector", "event", "tiered"):
        options = None
        if backend == "tiered":
            options = {"policy": "smart", "fast_pages": 16}
        for key in ("bs_dm", "bs_hm", "bs_bsm", "sdm_bsm", "sdm_bsm_ml4"):
            repro.Machine(
                repro.system_by_key(key),
                engine=engine,
                backend=backend,
                backend_options=options,
                dl_config=dl,
            ).run(workload, mix_profile=profile)
new = set(sys.modules) - before
print(json.dumps(sorted(m for m in new if m.startswith("repro"))))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this process's environment."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )


def _modules_after(code: str) -> list[str]:
    return json.loads(_python("-c", code).stdout.splitlines()[-1])


class TestImportSurface:
    def test_import_loads_no_off_path_module(self):
        loaded = set(
            _modules_after(
                "import json, sys, repro; print(json.dumps(sorted(sys.modules)))"
            )
        )
        assert "repro.system.machine" in loaded
        assert sorted(loaded & set(OFF_PATH)) == []
        assert sorted(loaded & set(OFF_PATH_STDLIB)) == []

    def test_runs_load_no_new_module(self):
        assert _modules_after(RUN_ALL_PATHS) == []

    def test_cli_help_loads_no_campaign(self):
        stderr = _python("-X", "importtime", "-m", "repro", "--help").stderr
        imported = re.findall(r"^import time:.*\|\s*(\S+)$", stderr, re.MULTILINE)
        assert "repro.system.machine" in imported
        assert [m for m in imported if m.endswith(".campaign")] == []
