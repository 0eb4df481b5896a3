"""Named stage registry — the user-extension surface promised by
SURVEY §2.7 (reference contract: CLI composability over persistent
representations, /root/reference README.md:114-122, plus ``set_params``
kwargs injection, ocrolib/common.py:690-701).

A stage is a batch UDF: a function ``(batch, **params) -> batch`` or a
callable CLASS (constructed with ``**params``, one instance per actor —
the stateful form). ``apply_stages`` composes registered names into a
``map_batches`` chain, so user pipelines are data ("binarize" |
("segment", {...})), the same way reference users chained CLI tools."""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable

import ray.data as rd

_REGISTRY: dict[str, dict[str, Any]] = {}


def register_stage(name: str, *, batch_format: str = "pyarrow",
                   stateful: bool = False, **default_opts):
    """Decorator: register a batch UDF (or callable class) under
    ``name`` with its map_batches defaults (batch_size, concurrency,
    num_cpus ... anything map_batches takes)."""

    def deco(obj):
        _REGISTRY[name] = {
            "fn": obj,
            "batch_format": batch_format,
            "stateful": stateful or inspect.isclass(obj),
            "opts": default_opts,
        }
        return obj

    return deco


def get_stage(name: str) -> Callable:
    try:
        return _REGISTRY[name]["fn"]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_stages() -> list[str]:
    return sorted(_REGISTRY)


def apply_stages(ds: rd.Dataset, specs: list) -> rd.Dataset:
    """Compose stages onto a Dataset. Each spec is a stage name or
    ``(name, params)``; params go to the UDF (functions get them bound
    via partial — the set_params equivalent; classes get them as
    ``fn_constructor_kwargs``)."""
    for spec in specs:
        name, params = spec if isinstance(spec, tuple) else (spec, {})
        ent = _REGISTRY.get(name)
        if ent is None:
            raise KeyError(
                f"unknown stage {name!r}; registered: {sorted(_REGISTRY)}")
        opts = dict(ent["opts"])
        if ent["stateful"]:
            # actor-pool stage: class constructed once per actor
            opts.setdefault("concurrency", (1, 4))
            ds = ds.map_batches(ent["fn"], batch_format=ent["batch_format"],
                                fn_constructor_kwargs=params, **opts)
        else:
            fn = functools.partial(ent["fn"], **params) if params else ent["fn"]
            ds = ds.map_batches(fn, batch_format=ent["batch_format"], **opts)
    return ds


def _register_builtins() -> None:
    """Register the core pipeline stages under their reference-tool
    names (import-light: done lazily at module import of registry)."""
    from ..pipelines.extract import (
        extract_spans_stage,
        extract_text_stage,
        pdf_text_stage,
        render_pdf_stage,
        wrap_stage,
    )
    from ..pipelines.curate import pii_scrub_stage
    from .binarize import binarize_batch
    from .segment import explode_lines, segment_batch
    from .recognize import recognize_batch

    register_stage("nlbin", batch_format="pyarrow")(binarize_batch)
    register_stage("rpred", batch_format="pyarrow")(recognize_batch)
    register_stage("gpageseg", batch_format="pyarrow")(segment_batch)
    register_stage("explode-lines", batch_format="pyarrow")(explode_lines)
    register_stage("web-wrap", batch_format="pandas")(wrap_stage)
    register_stage("html-extract", batch_format="pandas")(extract_text_stage)
    register_stage("html-spans", batch_format="pandas")(extract_spans_stage)
    register_stage("pdf-render", batch_format="pandas")(render_pdf_stage)
    register_stage("pdf-extract", batch_format="pandas")(pdf_text_stage)
    register_stage("pii-scrub", batch_format="pandas")(pii_scrub_stage)


_register_builtins()
