"""The README's feature-set names must be ones feature_columns resolves."""

import re
from pathlib import Path

import pytest

from femrisk.datamodel import FE9, feature_columns

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_feature_sets() -> list[str]:
    text = README.read_text()
    listed = re.search(r"Feature sets:(.*?)Classifiers:", text, re.S).group(1)
    names = []
    for name in re.findall(r"`([^`]+)`", listed):
        if name == "<FE>" or name in FE9:   # the placeholder and its values
            continue
        names += [name.replace("<FE>", fe) for fe in FE9] if "<FE>" in name else [name]
    for args in re.findall(r"--features((?: [A-Z0-9_]+)+)", text):
        names += args.split()
    return names


def test_readme_lists_feature_sets():
    names = _readme_feature_sets()
    assert {"ABMD_COV", "PC1_ABMD_COV", "FE9_ABMD_COV", "FRAX_ONLY"} <= set(names)
    assert {f"{fe}_ABMD_COV" for fe in FE9} <= set(names)


@pytest.mark.parametrize("name", sorted(set(_readme_feature_sets())))
def test_readme_feature_set_parses(name):
    assert feature_columns(name, "all")
