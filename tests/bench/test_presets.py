"""Configuration presets."""

from repro.bench import paper_scale
from repro.bench.presets import (
    PAPER_CLIENT_MACHINES,
    PAPER_INFLIGHT,
    PAPER_MULTI_DIRS,
    PAPER_SINGLE_DIR_FILES,
)


def test_paper_scale_matches_table4():
    cfg = paper_scale()
    assert cfg.num_servers == 16           # two per dual-socket node
    assert cfg.stale_stages == 10          # ten pipeline stages
    assert cfg.stale_index_bits == 17      # 131,072 registers each
    assert cfg.stale_geometry.capacity == 1_310_720  # the paper's stale-set capacity


def test_paper_constants():
    assert PAPER_INFLIGHT == 256
    assert PAPER_CLIENT_MACHINES == 3
    assert PAPER_SINGLE_DIR_FILES == 10_000_000
    assert PAPER_MULTI_DIRS == 1024


def test_overrides_pass_through():
    cfg = paper_scale(recast=False)
    assert not cfg.recast
    assert cfg.stale_index_bits == 17
