"""Attribute-specific rewrites of a text query, plus generic per-value prompts.

The default engine is deterministic template insertion: for queries shaped
like "a photo of a <subject>" the per-value insertion term lands immediately
before the subject noun; anything else gets the term prefixed. An external
HTTP provider can replace the templates and falls back to them on failure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .client import post_json
from .errors import ConfigError, EmptyQuery, MalformedResponse, ProviderUnavailable

AUGMENT_TIMEOUT_SECONDS = 5.0

# Words that end a leading noun chunk; keeps insertion shallow but sane for
# queries like "a photo of a nurse in a hospital".
_CHUNK_BREAKERS = frozenset(
    "in on at with by for from of and or to near under over behind before after "
    "who whom whose that which while during wearing holding standing sitting".split()
)

_TEMPLATE_RE = re.compile(
    r"^(?P<head>\s*(?:a|an|the)\s+(?:photo|picture|image)\s+of\s+(?:a|an)\s+)"
    r"(?P<subject>\S.*?)(?P<trail>[\s.!?]*)$",
    re.IGNORECASE,
)

# Filler head nouns that would otherwise flag every query mentioning a person.
_GENERIC_FILLER_NOUNS = frozenset({"person", "people"})

_WORD_RE = re.compile(r"[A-Za-z_']+")


@dataclass(frozen=True)
class AttributeSpace:
    """A protected attribute: its ordered value labels plus prompt material."""

    name: str
    values: tuple[str, ...]
    insertion_terms: dict[str, str]
    generic_prompts: dict[str, str]

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError("attribute name must be a non-empty string")
        if len(self.values) < 2:
            raise ConfigError(f"attribute {self.name!r} needs at least two values")
        if len(set(self.values)) != len(self.values):
            raise ConfigError(f"attribute {self.name!r} has duplicate values")
        for mapping, what in ((self.insertion_terms, "insertion term"),
                              (self.generic_prompts, "generic prompt")):
            if set(mapping) != set(self.values):
                raise ConfigError(
                    f"attribute {self.name!r}: every value needs exactly one {what}"
                )
            for value, text in mapping.items():
                if not isinstance(text, str) or not text.strip():
                    raise ConfigError(
                        f"attribute {self.name!r}: {what} for {value!r} must be "
                        "non-empty text"
                    )


def attribute_space(name, values, insertion_terms=None, generic_prompts=None) -> AttributeSpace:
    """Build an AttributeSpace with sensible defaults.

    Insertion terms default to the value labels themselves; generic prompts
    default to "A photo of a {value} person".
    """
    if not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values):
        raise ConfigError(f"attribute {name!r}: values must be a list of strings")
    for mapping, what in ((insertion_terms, "insertion_terms"),
                          (generic_prompts, "generic_prompts")):
        if mapping is not None and not isinstance(mapping, dict):
            raise ConfigError(f"attribute {name!r}: {what} must map values to text")
    values = tuple(values)
    terms = dict(insertion_terms) if insertion_terms else {v: v for v in values}
    prompts = (
        dict(generic_prompts)
        if generic_prompts
        else {v: f"A photo of a {v} person" for v in values}
    )
    return AttributeSpace(name=name, values=values, insertion_terms=terms,
                          generic_prompts=prompts)


GENDER = attribute_space(
    "gender",
    ("male", "female"),
    generic_prompts={"male": "a photo of a man", "female": "a photo of a woman"},
)


@dataclass(frozen=True)
class AugmentedQuerySet:
    per_value_texts: dict[str, str]
    source: str = "template"  # template | external | template-fallback


def _insert_term(text: str, term: str) -> str:
    match = _TEMPLATE_RE.match(text)
    if not match:
        return f"{term} {text}"
    subject_words = match.group("subject").split()
    chunk_end = len(subject_words)
    for i, word in enumerate(subject_words):
        if word.lower().strip(".,!?") in _CHUNK_BREAKERS:
            chunk_end = i
            break
    if chunk_end == 0:
        return f"{term} {text}"
    rebuilt = subject_words[: chunk_end - 1] + [term, subject_words[chunk_end - 1]]
    rebuilt += subject_words[chunk_end:]
    return match.group("head") + " ".join(rebuilt) + match.group("trail")


def augment_query(text: str, space: AttributeSpace) -> AugmentedQuerySet:
    """Produce one attribute-specific rewrite of ``text`` per value."""
    if not text or not text.strip():
        raise EmptyQuery("cannot augment an empty query")
    per_value = {v: _insert_term(text, space.insertion_terms[v]) for v in space.values}
    return AugmentedQuerySet(per_value)


def _head_noun(prompt: str) -> str | None:
    words = _WORD_RE.findall(prompt)
    if not words:
        return None
    head = words[-1]
    return None if head.lower() in _GENERIC_FILLER_NOUNS else head


def attribute_terms(space: AttributeSpace) -> tuple[str, ...]:
    """Terms whose presence marks a query as attribute-explicit."""
    terms = list(space.insertion_terms.values())
    for prompt in space.generic_prompts.values():
        head = _head_noun(prompt)
        if head:
            terms.append(head)
    seen, out = set(), []
    for t in terms:
        if t.lower() not in seen:
            seen.add(t.lower())
            out.append(t)
    return tuple(out)


def mentions_attribute(text: str, space: AttributeSpace) -> bool:
    """Case-insensitive word-boundary check for explicit attribute terms."""
    for term in attribute_terms(space):
        if re.search(rf"(?<![\w]){re.escape(term)}(?![\w])", text, re.IGNORECASE):
            return True
    return False


def external_augmenter(text: str, space: AttributeSpace, endpoint: str) -> AugmentedQuerySet:
    """Fetch rewrites from an HTTP provider; fall back to templates on failure.

    Wire contract: POST ``{"text", "attribute", "values"}`` and expect
    ``{"augmented": {value: text, ...}}`` covering every value with non-empty
    text. Anything else, or no answer within 5 s, means templates.
    """
    if not text or not text.strip():
        raise EmptyQuery("cannot augment an empty query")
    payload = {"text": text, "attribute": space.name, "values": list(space.values)}
    try:
        augmented = post_json(endpoint, payload, AUGMENT_TIMEOUT_SECONDS).get("augmented")
    except (ProviderUnavailable, MalformedResponse):
        augmented = None
    if isinstance(augmented, dict) and all(
        isinstance(augmented.get(v), str) and augmented[v].strip() for v in space.values
    ):
        return AugmentedQuerySet({v: augmented[v] for v in space.values}, "external")
    return AugmentedQuerySet(augment_query(text, space).per_value_texts, "template-fallback")
