"""Edit-script lemmatization.

A script maps an inflected form to its lemma: it replaces a prefix and
a suffix of the lowercased form, then restores casing.  Scripts derived
from different (form, lemma) pairs often coincide, so deduplicating them
yields a compact classification inventory for the lemmatizer head.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable


class EditScriptError(Exception):
    """Script application over-consumed its source form."""


@dataclass(frozen=True)
class EditScript:
    """Form-to-lemma transformation program.

    The lowercased form loses ``prefix_cut`` characters at the front and
    ``suffix_cut`` at the tail, which are replaced by ``prefix_add`` and
    ``suffix_add``; ``case_ops`` then lists the output positions to
    uppercase.
    """

    case_ops: tuple[int, ...]
    prefix_cut: int
    prefix_add: str
    suffix_cut: int
    suffix_add: str

    def __str__(self) -> str:
        def ops(cut, add):
            return ",".join(([f"d{cut}"] if cut else []) + ([f"+{add}"] if add else []))

        cases = ",".join(map(str, self.case_ops))
        prefix = ops(self.prefix_cut, self.prefix_add)
        return f"case[{cases}]|pre[{prefix}]|suf[{ops(self.suffix_cut, self.suffix_add)}]"


IDENTITY_SCRIPT = EditScript((), 0, "", 0, "")


def apply_edit_script(form: str, script: EditScript) -> str:
    """Deterministically apply ``script`` to ``form``."""
    lowered = form.lower()
    end = len(lowered) - script.suffix_cut
    if script.prefix_cut > end:
        raise EditScriptError(
            f"script consumes {script.prefix_cut}+{script.suffix_cut} characters "
            f"of {len(lowered)}-character form {form!r}"
        )
    result = list(script.prefix_add + lowered[script.prefix_cut : end] + script.suffix_add)
    for position in script.case_ops:
        if 0 <= position < len(result):
            result[position] = result[position].upper()
    return "".join(result)


def _longest_common_infix(a: str, b: str) -> tuple[int, int, int]:
    """(i, j, length) of the longest common substring; ties prefer the
    smallest i, then the smallest j."""
    best = (0, 0, 0)
    if not a or not b:
        return best
    previous = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        current = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                current[j] = previous[j - 1] + 1
                length = current[j]
                if length > best[2]:
                    best = (i - length, j - length, length)
        previous = current
    return best


def derive_edit_script(form: str, lemma: str) -> EditScript:
    """Derive the canonical script turning ``form`` into ``lemma``.

    The longest common infix of the lowercased pair is kept; the changed
    prefix and suffix are cut and replaced.  Falls back to a whole-word
    replacement when the construction cannot reproduce the lemma exactly
    (casing that does not round-trip through ``lower``/``upper``).
    """
    if not form or not lemma:
        raise ValueError("form and lemma must be non-empty")
    lowered_form = form.lower()
    lowered_lemma = lemma.lower()
    i, j, length = _longest_common_infix(lowered_form, lowered_lemma)
    if length == 0:
        return _replace_script(lowered_form, lemma)
    script = EditScript(
        case_ops=tuple(
            p for p, ch in enumerate(lemma) if p < len(lowered_lemma) and ch != lowered_lemma[p]
        ),
        prefix_cut=i,
        prefix_add=lowered_lemma[:j],
        suffix_cut=len(lowered_form) - i - length,
        suffix_add=lowered_lemma[j + length :],
    )
    # The cuts never overlap, so applying the script cannot raise.
    if apply_edit_script(form, script) == lemma:
        return script
    return _replace_script(lowered_form, lemma)


def _replace_script(lowered_form: str, lemma: str) -> EditScript:
    # The inserted text carries the lemma verbatim, so no case ops needed.
    return EditScript((), len(lowered_form), lemma, 0, "")


@dataclass(frozen=True)
class LemmaCategoryInventory:
    """Deduplicated scripts ordered by descending frequency, then first
    occurrence; the index is the category id."""

    categories: tuple[EditScript, ...]
    frequencies: tuple[int, ...]
    _ids: dict = field(default_factory=dict, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.categories)

    def id_of(self, script: EditScript) -> int:
        if not self._ids:
            self._ids.update({s: i for i, s in enumerate(self.categories)})
        try:
            return self._ids[script]
        except KeyError:
            raise KeyError(f"script {script} not in inventory") from None


def build_lemma_inventory(pairs: Iterable[tuple[str, str]]) -> LemmaCategoryInventory:
    """Derive and deduplicate scripts for all (form, lemma) pairs."""
    counts: Counter[EditScript] = Counter()
    first_seen: dict[EditScript, int] = {}
    total = 0
    for order, (form, lemma) in enumerate(pairs):
        script = derive_edit_script(form, lemma)
        counts[script] += 1
        first_seen.setdefault(script, order)
        total += 1
    if total == 0:
        raise ValueError("at least one (form, lemma) pair is required")
    ordered = sorted(counts, key=lambda s: (-counts[s], first_seen[s]))
    return LemmaCategoryInventory(
        categories=tuple(ordered),
        frequencies=tuple(counts[s] for s in ordered),
    )
