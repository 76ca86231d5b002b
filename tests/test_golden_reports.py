"""Golden report corpus: the frame loop against committed digests.

Each entry of ``tests/golden/reports.json`` holds, per episode, the
SHA-256 of the ``report_to_jsonable`` report of one configuration (2
episodes x 300 steps, keys sorted).  The configurations are every
``DEFAULT_SUITE`` family under each optimization mode, plus the
pure-pursuit controller, the exact deadline estimator, the
safety-oblivious deadline and the unfiltered control on one family under
each mode.  ``run_batch`` over both episodes must reproduce the digests,
and so must ``run_episode`` (one episode per config, run alone), so a
change to any kernel of the loop, or a report that depends on its
batchmates, shows up here.  The configs also run merged: one ``run_cells``
call per group of equal ``SEOConfig.lockstep_key``, whose every row must
match its config's digests too; each family's cells (pure pursuit apart)
are checked by their own test, out of the merged call that holds them.

A long-horizon section pins what 300 steps end before: every family's
obstacle zone and the shield's blend.  It runs every ``DEFAULT_SUITE``
family under filtered ``offload`` control for up to 1500 steps, merged
(one ``run_cells`` call per lockstep group), and every one of its
episodes must record shield interventions.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.framework import SEOConfig, SEOFramework
from repro.runtime.batch import run_batch, run_cells
from repro.runtime.ledger import report_to_jsonable
from repro.sim.scenario import DEFAULT_SUITE

GOLDEN_PATH = Path(__file__).parent / "golden" / "reports.json"
EPISODES = (0, 1)
MAX_STEPS = 300
MODES = ("none", "offload", "model_gating", "sensor_gating")
VARIANT_FAMILY = "obstacle-course"
LONG_MAX_STEPS = 1500
LONG_PREFIX = "long"
VARIANTS = {
    "pure_pursuit": {"controller": "pure_pursuit"},
    "exact": {"use_lookup_table": False},
    "oblivious": {"safety_aware": False},
    "unfiltered": {"filtered": False},
}


def golden_configs() -> dict[str, SEOConfig]:
    """Every corpus configuration, keyed by a stable label."""
    configs: dict[str, SEOConfig] = {}
    for family in DEFAULT_SUITE.names():
        base = SEOConfig(scenario=DEFAULT_SUITE.get(family).base, max_steps=MAX_STEPS)
        for mode in MODES:
            configs[f"{family}/{mode}"] = dataclasses.replace(base, optimization=mode)
    base = SEOConfig(scenario=DEFAULT_SUITE.get(VARIANT_FAMILY).base, max_steps=MAX_STEPS)
    for variant, overrides in VARIANTS.items():
        for mode in MODES:
            configs[f"{VARIANT_FAMILY}/{mode}/{variant}"] = dataclasses.replace(
                base, optimization=mode, **overrides
            )
    return configs


def long_horizon_configs() -> dict[str, SEOConfig]:
    """The long-horizon section: every family, filtered offload control."""
    return {
        f"{LONG_PREFIX}/{family}/offload": SEOConfig(
            scenario=DEFAULT_SUITE.get(family).base,
            max_steps=LONG_MAX_STEPS,
            optimization="offload",
            filtered=True,
        )
        for family in DEFAULT_SUITE.names()
    }


def report_digests(reports: list) -> list[str]:
    """SHA-256 per serialized report (sorted keys, compact separators)."""
    return [
        hashlib.sha256(
            json.dumps(
                report_to_jsonable(report), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        ).hexdigest()
        for report in reports
    ]


def lockstep_groups(configs: dict[str, SEOConfig]) -> dict[str, list[str]]:
    """Labels grouped by lockstep key, each group named by its first label."""
    groups: dict[object, list[str]] = {}
    for label in sorted(configs):
        groups.setdefault(configs[label].lockstep_key(), []).append(label)
    return {labels[0]: labels for labels in groups.values()}


def family_groups(configs: dict[str, SEOConfig]) -> dict[str, list[str]]:
    """Labels grouped by family and controller, each named by its first label."""
    groups: dict[tuple[str, str], list[str]] = {}
    for label in sorted(configs):
        family = label.split("/", 1)[0]
        groups.setdefault((family, configs[label].controller), []).append(label)
    return {labels[0]: labels for labels in groups.values()}


CONFIGS = golden_configs()
GROUPS = lockstep_groups(CONFIGS)
FAMILIES = family_groups(CONFIGS)
LONG_CONFIGS = long_horizon_configs()
LONG_GROUPS = lockstep_groups(LONG_CONFIGS)
GOLDEN: dict[str, list[str]] = (
    json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}
)


def test_corpus_covers_every_config():
    assert sorted(GOLDEN) == sorted(CONFIGS | LONG_CONFIGS)


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_both_loops_match_golden_digest(label):
    framework = SEOFramework(CONFIGS[label])
    batch = run_batch(framework, EPISODES)
    assert report_digests(batch) == GOLDEN[label], "run_batch drifted"
    # One episode per config also runs alone, alternating across the corpus,
    # so a report that depends on its batchmates fails here too.
    episode = EPISODES[sorted(CONFIGS).index(label) % len(EPISODES)]
    alone = framework.run_episode(episode)
    assert report_digests([alone]) == [GOLDEN[label][episode]], "run_episode drifted"


def test_groups_merge_every_per_row_setting():
    """Every straight-road family shares one call: the four modes of each,
    and the exact, oblivious and unfiltered variants of the variant family
    (different road lengths, widths, obstacle counts, motion, dropout and
    speeds are rows).  Each curved family keeps its own call (its
    centreline is a key field), and so does pure pursuit (the controller)."""
    sizes = {group: len(labels) for group, labels in GROUPS.items()}
    assert sum(sizes.values()) == len(CONFIGS)
    straight = [
        name for name in DEFAULT_SUITE.names()
        if DEFAULT_SUITE.get(name).base.road_segments is None
    ]
    curved = len(DEFAULT_SUITE.names()) - len(straight)
    assert len(GROUPS) == 2 + curved
    assert sizes.pop(f"{straight[0]}/model_gating") == len(MODES) * (len(straight) + 3)
    assert sizes.pop(f"{VARIANT_FAMILY}/model_gating/pure_pursuit") == len(MODES)
    assert sorted(sizes.values()) == [len(MODES)] * curved


def run_merged(configs: dict[str, SEOConfig], labels: list[str]) -> list[list]:
    """Reports per label of one ``run_cells`` call over ``labels``."""
    return run_cells([(SEOFramework(configs[label]), EPISODES) for label in labels])


@functools.cache
def merged_digests(group: str) -> dict[str, list[str]]:
    """Digests per label of one ``run_cells`` call over a lockstep group."""
    labels = GROUPS[group]
    cells = run_merged(CONFIGS, labels)
    return {
        label: report_digests(reports)
        for label, reports in zip(labels, cells, strict=True)
    }


def test_every_family_sits_in_one_merged_call():
    for labels in FAMILIES.values():
        assert len({group for group, members in GROUPS.items()
                    for label in labels if label in members}) == 1


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_merged_cells_match_golden_digest(family):
    labels = FAMILIES[family]
    group = next(group for group, members in GROUPS.items() if labels[0] in members)
    merged = merged_digests(group)
    for label in labels:
        assert merged[label] == GOLDEN[label], f"{label} drifted merged"


@pytest.mark.parametrize("group", sorted(LONG_GROUPS))
def test_long_horizon_matches_golden_digest(group):
    labels = LONG_GROUPS[group]
    cells = run_merged(LONG_CONFIGS, labels)
    for label, reports in zip(labels, cells, strict=True):
        assert all(report.shield_interventions > 0 for report in reports), label
        assert report_digests(reports) == GOLDEN[label], f"{label} drifted"


if __name__ == "__main__":
    digests = {
        label: report_digests(run_batch(SEOFramework(config), EPISODES))
        for label, config in sorted(CONFIGS.items())
    }
    for labels in LONG_GROUPS.values():
        cells = run_merged(LONG_CONFIGS, labels)
        digests.update(
            (label, report_digests(reports))
            for label, reports in zip(labels, cells, strict=True)
        )
    digests = dict(sorted(digests.items()))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(digests)} digests to {GOLDEN_PATH}\n")
