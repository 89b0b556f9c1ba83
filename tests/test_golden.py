"""Every artifact and printed line of the CLI script in golden.py keeps its committed hash."""

from __future__ import annotations

import json

import golden
import pytest


@pytest.mark.parametrize("seed", golden.SEEDS)
def test_cli_outputs_keep_their_golden_hashes(seed, tmp_path):
    committed = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    here = golden.environment()
    if here != committed["environment"]:
        pytest.skip(f"hashes made under {committed['environment']}, this is {here}")
    want, got = committed["hashes"][seed], golden.run(seed, tmp_path)
    changed = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not changed, f"HWR_SEED={seed}: {len(changed)} outputs changed: {changed}"
