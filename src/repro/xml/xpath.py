"""XPath-lite: the path subset the view & update languages need.

Supported grammar::

    path      := '/'? step ('/' step)*   |   '//' step ...
    step      := name | '*' | 'text()' | step '[' predicate ']'
    predicate := integer                 (1-based position)
               | name '=' 'literal'      (child text equality)
               | 'text()' '=' 'literal'

Examples: ``book/row``, ``//review``, ``book[bookid='98001']/publisher``,
``price/text()``.  Evaluation returns elements, or strings for
``text()`` steps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from ..errors import XPathError
from .nodes import XMLElement

__all__ = ["parse_path", "evaluate_path", "PathStep", "ParsedPath"]

Result = Union[XMLElement, str]

_STEP = re.compile(
    r"""
    (?P<axis>//|/)?                      # leading axis separator
    (?P<name>text\(\)|\*|[A-Za-z_][\w.\-]*)
    (?:\[(?P<predicate>[^\]]+)\])?
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class PathStep:
    name: str                       # tag name, '*' or 'text()'
    descendant: bool = False        # reached via //
    position: Optional[int] = None  # [n]
    child_name: Optional[str] = None   # [child='value'] / [text()='value']
    child_value: Optional[str] = None

    @property
    def is_text(self) -> bool:
        return self.name == "text()"


@dataclass(frozen=True)
class ParsedPath:
    steps: tuple[PathStep, ...]
    absolute: bool

    def __str__(self) -> str:
        pieces = []
        for index, step in enumerate(self.steps):
            sep = "//" if step.descendant else "/"
            if index == 0 and not self.absolute and not step.descendant:
                sep = ""
            suffix = ""
            if step.position is not None:
                suffix = f"[{step.position}]"
            elif step.child_name is not None:
                suffix = f"[{step.child_name}='{step.child_value}']"
            pieces.append(f"{sep}{step.name}{suffix}")
        return "".join(pieces)


def parse_path(path: str) -> ParsedPath:
    text = path.strip()
    if not text:
        raise XPathError("empty path")
    absolute = text.startswith("/")
    steps: list[PathStep] = []
    position = 0
    first = True
    while position < len(text):
        match = _STEP.match(text, position)
        if not match or match.start() != position:
            raise XPathError(f"cannot parse path {path!r} at offset {position}")
        axis = match.group("axis")
        if first and axis is None and absolute:
            raise XPathError(f"malformed path {path!r}")
        descendant = axis == "//"
        name = match.group("name")
        predicate = match.group("predicate")
        step = _make_step(name, descendant, predicate, path)
        steps.append(step)
        position = match.end()
        first = False
        if position < len(text) and text[position] not in "/":
            raise XPathError(f"unexpected character in path {path!r} at {position}")
    if not steps:
        raise XPathError(f"no steps in path {path!r}")
    return ParsedPath(steps=tuple(steps), absolute=absolute)


def _make_step(
    name: str, descendant: bool, predicate: Optional[str], original: str
) -> PathStep:
    if predicate is None:
        return PathStep(name=name, descendant=descendant)
    predicate = predicate.strip()
    # ASCII digits only: str.isdigit() also accepts "²" and friends,
    # which int() then rejects
    if re.fullmatch(r"[0-9]+", predicate):
        index = int(predicate)
        if index < 1:
            raise XPathError(f"positions are 1-based in {original!r}")
        return PathStep(name=name, descendant=descendant, position=index)
    match = re.match(
        r"^(text\(\)|[A-Za-z_][\w.\-]*)\s*=\s*(?:'([^']*)'|\"([^\"]*)\")$",
        predicate,
    )
    if not match:
        raise XPathError(f"unsupported predicate [{predicate}] in {original!r}")
    child = match.group(1)
    value = match.group(2) if match.group(2) is not None else match.group(3)
    return PathStep(
        name=name, descendant=descendant, child_name=child, child_value=value
    )


def evaluate_path(
    context: XMLElement, path: Union[str, ParsedPath]
) -> list[Result]:
    """Evaluate *path* with *context* as the current node.

    Absolute paths are evaluated against the root of the context's tree
    with the usual XPath twist that the root *element* matches the first
    step (``/BookView/book`` from anywhere inside a BookView document).
    """
    parsed = parse_path(path) if isinstance(path, str) else path
    if parsed.absolute:
        root = context
        while root.parent is not None:
            root = root.parent
        current: list[XMLElement] = [root]
        steps = parsed.steps
        # the first absolute step names the root element itself
        first = steps[0]
        if not first.is_text and not first.descendant:
            if first.name not in ("*", root.tag):
                return []
            matched = [root] if _passes(root, first) else []
            return _walk(matched, steps[1:])
        return _walk(current, steps)
    return _walk([context], parsed.steps)


def _walk(current: list[XMLElement], steps: tuple[PathStep, ...]) -> list[Result]:
    nodes: list[Result] = list(current)
    for step in steps:
        next_nodes: list[Result] = []
        for node in nodes:
            if not isinstance(node, XMLElement):
                raise XPathError("text() must be the final step")
            next_nodes.extend(_apply_step(node, step))
        nodes = next_nodes
    return nodes


def _apply_step(node: XMLElement, step: PathStep) -> list[Result]:
    if step.is_text:
        if step.descendant:
            raise XPathError("//text() is not supported")
        return [node.text_content()]
    if step.descendant:
        candidates = [
            descendant
            for child in node.child_elements()
            for descendant in child.iter()
        ]
    else:
        candidates = node.child_elements()
    matched = [
        candidate
        for candidate in candidates
        if step.name == "*" or candidate.tag == step.name
    ]
    if step.position is not None:
        if step.position <= len(matched):
            return [matched[step.position - 1]]
        return []
    if step.child_name is not None:
        filtered = []
        for candidate in matched:
            if step.child_name == "text()":
                if candidate.text_content() == step.child_value:
                    filtered.append(candidate)
            elif candidate.value_of(step.child_name) == step.child_value:
                filtered.append(candidate)
        return filtered
    return matched


def _passes(node: XMLElement, step: PathStep) -> bool:
    if step.position is not None:
        return step.position == 1
    if step.child_name is not None:
        if step.child_name == "text()":
            return node.text_content() == step.child_value
        return node.value_of(step.child_name) == step.child_value
    return True
