"""Every artifact and printed line of the CLI script in golden.py keeps its committed hash,
natively and in a subprocess pinned to the oldest OpenBLAS kernel and numpy dispatch."""

from __future__ import annotations

import json

import golden
import pytest


def _changed(want: dict[str, str], got: dict[str, str]) -> list[str]:
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


@pytest.mark.parametrize("seed", golden.SEEDS)
def test_cli_outputs_keep_their_golden_hashes(seed, tmp_path):
    committed = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    here = golden.environment()
    if here != committed["environment"]:
        pytest.skip(f"hashes made under {committed['environment']}, this is {here}")
    changed = _changed(committed["hashes"][seed], golden.run(seed, tmp_path))
    assert not changed, f"HWR_SEED={seed}: {len(changed)} outputs changed: {changed}"


def test_pinned_outputs_keep_their_golden_hashes(tmp_path):
    committed = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))["pinned"]
    done = golden.run_pinned(tmp_path / "pinned.json")
    if done.returncode and "NPY_DISABLE_CPU_FEATURES" in done.stderr:
        refusal = done.stderr[done.stderr.rfind("RuntimeError"):].strip()
        pytest.skip(f"numpy refuses the pinned dispatch: {refusal}")
    assert done.returncode == 0, done.stderr
    pinned = json.loads((tmp_path / "pinned.json").read_text(encoding="utf-8"))
    if pinned["environment"] != committed["environment"]:
        pytest.skip(f"hashes made under {committed['environment']}, "
                    f"this is {pinned['environment']}")
    for seed in golden.SEEDS:
        changed = _changed(committed["hashes"][seed], pinned["hashes"][seed])
        assert not changed, f"pinned, HWR_SEED={seed}: {len(changed)} outputs changed: {changed}"
