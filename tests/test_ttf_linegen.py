"""From-scratch TTF rasterizer + linegen degradation tests (reference
ocropus-linegen:128-240; DejaVuSans.ttf is the reference's in-tree,
redistributable test font). The font path is ``linegen.DEJAVU``: the
reference checkout's copy, else the system DejaVu package's."""

import os

import numpy as np
import pytest

from dup_ocropy_ray.sources.linegen import DEJAVU as FONT

pytestmark = pytest.mark.skipif(
    not os.path.exists(FONT), reason="DejaVuSans.ttf not present")


def test_font_parses_and_renders_ascii():
    from dup_ocropy_ray.functions import ttf

    f = ttf.load_font(FONT)
    assert f.units_per_em == 2048
    assert f.num_glyphs > 5000
    img = ttf.render_text("Hello, World! 42", f, size=36)
    assert img.dtype == np.float32
    assert img.min() == 0.0 and img.max() == 1.0
    h, w = img.shape
    assert 40 < h < 80 and 200 < w < 500
    ink = (img < 0.5).mean()
    assert 0.05 < ink < 0.35  # text-like coverage, not blank/solid


def test_render_deterministic_and_char_distinct():
    from dup_ocropy_ray.functions import ttf

    a = ttf.render_text("mmm", FONT, size=30)
    b = ttf.render_text("mmm", FONT, size=30)
    assert (a == b).all()
    # distinct chars give distinct rasters; wider text gives wider image
    i1 = ttf.render_text("iii", FONT, size=30)
    assert i1.shape[1] < a.shape[1]
    # composite glyph path (accented char in DejaVu)
    acc = ttf.render_text("é", FONT, size=30)  # é
    assert (acc < 0.5).sum() > 10


def test_space_advances_without_ink():
    from dup_ocropy_ray.functions import ttf

    with_sp = ttf.render_text("a a", FONT, size=30)
    no_sp = ttf.render_text("aa", FONT, size=30)
    assert with_sp.shape[1] > no_sp.shape[1]


def test_genline_degradations_deterministic_and_binary():
    from dup_ocropy_ray.sources import linegen

    a = linegen.genline("degrade me please", 5, degradations="med")
    b = linegen.genline("degrade me please", 5, degradations="med")
    assert (a == b).all()
    assert set(np.unique(a)).issubset({0.0, 1.0})
    c = linegen.genline("degrade me please", 6, degradations="med")
    assert a.shape != c.shape or not (a == c).all()  # seed matters


def test_degradation_presets_and_skip_guard():
    from dup_ocropy_ray.sources import linegen

    texts = ["alpha beta gamma", "delta epsilon zeta", ""]
    pairs = linegen.training_lines_ttf(texts, seed=3, degradations="hi")
    assert len(pairs) == 2  # empty text degrades to blank -> skipped
    for t, img in pairs:
        assert min(img.shape) >= 10
        assert 0.02 < float((img < 0.5).mean()) < 0.5


def test_distort_keeps_text_mass():
    from dup_ocropy_ray.sources import linegen

    plain = linegen.genline("warp field check", 11, degradations="lo")
    warped = linegen.genline("warp field check", 11, degradations="lo",
                             distort=3.0)
    mp = float((plain < 0.5).sum())
    mw = float((warped < 0.5).sum())
    assert abs(mw - mp) / mp < 0.35  # ink mass roughly preserved


def test_degraded_ttf_lines_survive_line_normalization():
    """The generated lines are consumable by the recognizer front-end
    (normalize_line -> prepare_line), i.e. usable as training pool."""
    from dup_ocropy_ray.nn.lstm import prepare_line
    from dup_ocropy_ray.sources import linegen
    from dup_ocropy_ray.stages.lineest import normalize_line

    for seed in (1, 2):
        img = linegen.genline("training pool line", seed,
                              degradations="med")
        x = prepare_line(normalize_line(img))
        assert x.shape[1] == 48
        assert x.shape[0] > 2 * len("training pool line")


def test_degrade_real_deterministic_binary_and_seeded():
    """degrade_real: degrades an existing scan (not a render), pure in
    (image, seed), binary output, preserves ink."""
    import numpy as np

    from dup_ocropy_ray.sources import linegen

    img = linegen.genline("real scan stand-in text", 9, degradations="lo")
    a = linegen.degrade_real(img, 42)
    b = linegen.degrade_real(img, 42)
    c = linegen.degrade_real(img, 43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert set(np.unique(a)).issubset({0.0, 1.0})
    assert (a < 0.5).any() and (a > 0.5).any()
